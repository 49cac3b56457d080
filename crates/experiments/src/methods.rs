//! Construction and execution of every compared method.

use crate::scenario::Scenario;
use baselines::{dfl_dds::DflDdsConfig, dp::DpConfig, proxskip::ProxSkipConfig, rsul::RsuLConfig};
use baselines::{DflDds, Dp, ProxSkip, RsuL};
use driving::{DrivingLearner, Frame};
use lbchat::node::LbChatAlgorithm;
use lbchat::prelude::{
    CollabAlgorithm, LbChatConfig, Metrics, ObsSink, Runtime, RuntimeConfig, RuntimeError,
};
use rand::SeedableRng;
use simnet::loss::LossModel;

/// Wireless-loss condition of a run (the paper's "W/O" and "W" columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// Idealistic loss-free channel (Fig. 2(a), Table II).
    NoLoss,
    /// Distance-based wireless loss (Fig. 2(b), Table III).
    WithLoss,
}

impl Condition {
    /// The loss model to install in the runtime.
    pub fn loss_model(self) -> LossModel {
        match self {
            Condition::NoLoss => LossModel::None,
            Condition::WithLoss => LossModel::distance_default(),
        }
    }

    /// Table-header label.
    pub fn label(self) -> &'static str {
        match self {
            Condition::NoLoss => "W/O wireless loss",
            Condition::WithLoss => "W wireless loss",
        }
    }

    /// Compact tag used in run-manifest cell labels (`wo` / `w`).
    pub fn short(self) -> &'static str {
        match self {
            Condition::NoLoss => "wo",
            Condition::WithLoss => "w",
        }
    }
}

/// The run-manifest label of one training cell: method plus condition,
/// e.g. `LbChat@wo` or `LbChat[coreset:40]@w`. Every event a cell emits
/// carries this label in its `ctx` field.
pub fn cell_label(method: Method, condition: Condition) -> String {
    let m = match method {
        Method::LbChatCoreset(n) => format!("LbChat[coreset:{n}]"),
        other => other.name().to_string(),
    };
    format!("{m}@{}", condition.short())
}

/// Every method in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The proposed approach with default config.
    LbChat,
    /// LbChat with a non-default coreset size (Table IV).
    LbChatCoreset(usize),
    /// LbChat with equal compression ratios (Table V).
    LbChatEqualComp,
    /// LbChat with plain-average aggregation (Table VI).
    LbChatAvgAgg,
    /// Coreset-sharing only (Table VII / Fig. 3).
    Sco,
    /// Central-server federated learning.
    ProxSkip,
    /// RSU-based opportunistic learning.
    RsuL,
    /// Synchronous decentralized with data-source diversity.
    DflDds,
    /// Gossip learning with log-loss merge weights.
    Dp,
}

impl Method {
    /// The five main-comparison methods in the paper's column order.
    pub const MAIN: [Method; 5] =
        [Method::ProxSkip, Method::RsuL, Method::DflDds, Method::Dp, Method::LbChat];

    /// Parses a CLI method key (`--methods`). Keys are case-insensitive:
    /// `lbchat`, `sco`, `proxskip`, `rsul`/`rsu-l`, `dfl-dds`/`dfldds`,
    /// `dp`, `equal-comp`, `avg-agg`, and `coreset:N` for
    /// [`Method::LbChatCoreset`] with size `N`.
    pub fn from_key(key: &str) -> Option<Method> {
        let k = key.trim().to_ascii_lowercase();
        match k.as_str() {
            "lbchat" => Some(Method::LbChat),
            "sco" => Some(Method::Sco),
            "proxskip" => Some(Method::ProxSkip),
            "rsul" | "rsu-l" => Some(Method::RsuL),
            "dfldds" | "dfl-dds" => Some(Method::DflDds),
            "dp" => Some(Method::Dp),
            "equal-comp" | "lbchat-equal-comp" => Some(Method::LbChatEqualComp),
            "avg-agg" | "lbchat-avg-agg" => Some(Method::LbChatAvgAgg),
            _ => k
                .strip_prefix("coreset:")
                .and_then(|n| n.parse().ok())
                .map(Method::LbChatCoreset),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::LbChat => "LbChat",
            Method::LbChatCoreset(_) => "LbChat (coreset size)",
            Method::LbChatEqualComp => "LbChat (equal comp.)",
            Method::LbChatAvgAgg => "LbChat (avg. agg.)",
            Method::Sco => "SCO",
            Method::ProxSkip => "ProxSkip",
            Method::RsuL => "RSU-L",
            Method::DflDds => "DFL-DDS",
            Method::Dp => "DP",
        }
    }
}

/// Output of one training run.
pub struct RunOutput {
    /// Training metrics (loss curve, receiving rates, airtime).
    pub metrics: Metrics,
    /// A learner wrapping vehicle 0's final model, ready for closed-loop
    /// driving evaluation (vehicle 0 is an arbitrary but fixed
    /// representative — every method is sampled at the same position).
    pub representative: DrivingLearner,
}

/// The runtime every method of a cell runs under: the scenario's clock,
/// training rate, evaluation cadence and seed, and `condition`'s radio.
pub fn runtime_config(s: &Scenario, condition: Condition, obs: ObsSink) -> RuntimeConfig {
    RuntimeConfig {
        duration: s.scale.train_seconds,
        train_iters_per_second: s.scale.iters_per_second,
        loss_model: condition.loss_model(),
        eval_every: s.scale.eval_every,
        seed: s.scale.seed,
        obs,
        ..RuntimeConfig::default()
    }
}

/// [`Method::LbChat`]'s configuration on the scenario; the other LbChat
/// variants derive from it.
pub fn lbchat_config(s: &Scenario) -> LbChatConfig {
    LbChatConfig {
        coreset_size: s.scale.coreset_size,
        model_wire_bytes: s.scale.model_wire_bytes,
        // Keep the paper's 150-frame ≈ 0.6 MB density.
        coreset_bytes_per_sample: 4096,
        ..LbChatConfig::default()
    }
}

/// The LbChat fleet every LbChat-family cell trains: the scenario's
/// learners and datasets under `cfg`, seeded from the scenario seed.
pub fn lbchat_algorithm(s: &Scenario, cfg: LbChatConfig) -> LbChatAlgorithm<DrivingLearner> {
    let mut seed_rng = rand::rngs::StdRng::seed_from_u64(s.scale.seed ^ 0x5EED);
    LbChatAlgorithm::new(s.make_learners(), s.datasets.clone(), cfg, &mut seed_rng)
}

/// Runs `algo` on the scenario and keeps vehicle 0's final model as the
/// representative; the rest of the fleet is dropped before the
/// representative is built.
fn run_algo<A>(rt: &Runtime, mut algo: A, s: &Scenario) -> Result<RunOutput, RuntimeError>
where
    A: CollabAlgorithm<Sample = Frame>,
{
    let metrics = rt.run(&mut algo, &s.trace, &s.eval)?;
    let model0 = algo.model(0).clone();
    drop(algo);
    let mut rng = rand::rngs::StdRng::seed_from_u64(s.scale.seed ^ 0xABCD);
    let mut representative = DrivingLearner::new(&s.spec, s.scale.lr, &mut rng);
    lbchat::Learner::set_params(&mut representative, model0);
    Ok(RunOutput { metrics, representative })
}

/// Trains `method` on the scenario under `condition` and returns its
/// metrics and representative learner, or the runtime's typed error if the
/// scenario cannot host the fleet. Every method sees the identical trace,
/// radio, clock, initialization, and evaluation set.
pub fn run_method(
    method: Method,
    s: &Scenario,
    condition: Condition,
) -> Result<RunOutput, RuntimeError> {
    run_method_obs(method, s, condition, &ObsSink::disabled())
}

/// [`run_method`] with observability: the runtime emits its structured
/// events (`round`, `session`, `transfer`, `chat`, `backend`) into `obs`
/// exactly as scoped by the caller — scope the sink with a cell label
/// ([`cell_label`]) before passing it in. With a disabled sink this is
/// exactly [`run_method`].
pub fn run_method_obs(
    method: Method,
    s: &Scenario,
    condition: Condition,
    obs: &ObsSink,
) -> Result<RunOutput, RuntimeError> {
    let rt = Runtime::new(runtime_config(s, condition, obs.clone()));
    let model_bytes = s.scale.model_wire_bytes;
    match method {
        Method::LbChat
        | Method::LbChatCoreset(_)
        | Method::LbChatEqualComp
        | Method::LbChatAvgAgg
        | Method::Sco => {
            let base = lbchat_config(s);
            let cfg = match method {
                Method::LbChatCoreset(size) => base.with_coreset_size(size),
                Method::LbChatEqualComp => base.with_equal_compression(),
                Method::LbChatAvgAgg => base.with_average_aggregation(),
                Method::Sco => base.sco(),
                _ => base, // Method::LbChat: the defaults
            };
            run_algo(&rt, lbchat_algorithm(s, cfg), s)
        }
        Method::ProxSkip => {
            let cfg = ProxSkipConfig { model_bytes, ..ProxSkipConfig::default() };
            run_algo(&rt, ProxSkip::new(s.make_learners(), s.datasets.clone(), cfg), s)
        }
        Method::RsuL => {
            let cfg = RsuLConfig { model_bytes };
            let rsus = s.rsu_positions.clone();
            run_algo(&rt, RsuL::new(s.make_learners(), s.datasets.clone(), rsus, cfg), s)
        }
        Method::DflDds => {
            let cfg = DflDdsConfig { model_bytes };
            run_algo(&rt, DflDds::new(s.make_learners(), s.datasets.clone(), cfg), s)
        }
        Method::Dp => {
            let cfg = DpConfig { model_bytes };
            run_algo(&rt, Dp::new(s.make_learners(), s.datasets.clone(), cfg), s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn method_keys_round_trip() {
        assert_eq!(Method::from_key("lbchat"), Some(Method::LbChat));
        assert_eq!(Method::from_key("RSU-L"), Some(Method::RsuL));
        assert_eq!(Method::from_key(" dfl-dds "), Some(Method::DflDds));
        assert_eq!(Method::from_key("coreset:150"), Some(Method::LbChatCoreset(150)));
        assert_eq!(Method::from_key("equal-comp"), Some(Method::LbChatEqualComp));
        assert_eq!(Method::from_key("avg-agg"), Some(Method::LbChatAvgAgg));
        assert_eq!(Method::from_key("warp-drive"), None);
        assert_eq!(Method::from_key("coreset:many"), None);
    }

    #[test]
    fn every_method_runs_and_learns_at_quick_scale() {
        let s = Scenario::build(Scale::quick());
        for method in [Method::LbChat, Method::Sco, Method::ProxSkip, Method::RsuL, Method::DflDds, Method::Dp] {
            let out = run_method(method, &s, Condition::NoLoss).expect("scenario fits fleet");
            let curve = &out.metrics.loss_curve;
            assert!(curve.len() >= 3, "{method:?} must record a loss curve");
            let first = curve.first().unwrap().1;
            let last = curve.last().unwrap().1;
            assert!(
                last < first,
                "{method:?} must reduce loss: {first} -> {last}"
            );
        }
    }
}
