//! DFL-DDS (Su, Zhou, Cui — "Boost decentralized federated learning in
//! vehicular networks by diversifying data sources", ICNP 2022), adapted as
//! in §IV-B.
//!
//! A synchronous, fully decentralized method: training proceeds in rounds
//! (length set to LbChat's `T_B` "for a fair comparison"); at most one
//! exchange per vehicle per round. Each vehicle tracks a *data-source
//! vector* — how much of each peer's data shaped its current model — and
//! weights incoming models to diversify those sources (a peer whose model
//! carries sources I lack gets more weight). Per §IV-B, vehicles "compute a
//! model compression ratio for each encounter to ensure the vehicle pair
//! can finish the model exchange within the contact duration".

use crate::fleet::{fitted_swap, merge_on_support, Baseline, Rule};
use lbchat::config::TIME_BUDGET;
use lbchat::node::Vehicle;
use lbchat::prelude::{FrameCtx, Learner, SessionCtx};
use lbchat::WeightedDataset;
use vnn::ParamVec;

/// Base aggregation weight for an incoming model before the diversity
/// boost.
pub const BASE_WEIGHT: f32 = 0.35;

/// DFL-DDS configuration. Rounds last [`TIME_BUDGET`] (the paper's `T_B` =
/// 15 s), and local training runs on minibatches of
/// `lbchat::config::BATCH_SIZE`.
#[derive(Debug, Clone)]
pub struct DflDdsConfig {
    /// Dense model wire size.
    pub model_bytes: usize,
}

impl Default for DflDdsConfig {
    fn default() -> Self {
        Self { model_bytes: 52 * 1024 * 1024 }
    }
}

/// The synchronous decentralized baseline with data-source diversification.
pub type DflDds<L> = Baseline<L, DflDdsRule>;

/// DFL-DDS's exchange rule: one fitted swap per vehicle per round, merged
/// by data-source diversity.
pub struct DflDdsRule {
    /// `sources[i]` — normalized contribution of each vehicle's data to
    /// node `i`'s model.
    sources: Vec<Vec<f32>>,
    /// Round id of each node's last exchange (one exchange per round).
    last_round: Vec<u64>,
    config: DflDdsConfig,
    current_round: u64,
}

impl<L: Learner> DflDds<L> {
    /// Builds the fleet.
    ///
    /// # Panics
    /// Panics if `learners` and `datasets` lengths differ or are empty.
    pub fn new(
        learners: Vec<L>,
        datasets: Vec<WeightedDataset<L::Sample>>,
        config: DflDdsConfig,
    ) -> Self {
        Self::with_rule(learners, datasets, |nodes| {
            let n = nodes.len();
            // Initially each model is built purely from its own data source.
            let sources = (0..n)
                .map(|i| {
                    let mut v = vec![0.0f32; n];
                    v[i] = 1.0;
                    v
                })
                .collect();
            DflDdsRule { sources, last_round: vec![u64::MAX; n], config, current_round: 0 }
        })
    }

    /// The data-source mix of node `i` (tests / inspection).
    pub fn sources(&self, i: usize) -> &[f32] {
        &self.rule.sources[i]
    }
}

/// Diversity gain of absorbing `peer`'s mix into `own`: total variation
/// distance between the mixes — high when the peer's model is built from
/// sources I lack.
fn diversity_gain(own: &[f32], peer: &[f32]) -> f32 {
    own.iter().zip(peer).map(|(a, b)| (a - b).abs()).sum::<f32>() * 0.5
}

impl DflDdsRule {
    /// Merges the model `node` received from `peer` with a
    /// diversity-boosted weight and blends the peer's source mix into the
    /// node's own.
    fn merge_received<L: Learner>(
        &mut self,
        nodes: &mut [Vehicle<L>],
        node: usize,
        peer: usize,
        model: &ParamVec,
    ) {
        let gain = diversity_gain(&self.sources[node], &self.sources[peer]);
        let w = (BASE_WEIGHT * (0.5 + gain)).clamp(0.05, 0.8);
        nodes[node].adopt(merge_on_support(nodes[node].learner.params(), model, w));
        let (own, theirs) = if node < peer {
            let (a, b) = self.sources.split_at_mut(peer);
            (&mut a[node], &b[0])
        } else {
            let (a, b) = self.sources.split_at_mut(node);
            (&mut b[0], &a[peer])
        };
        for (a, b) in own.iter_mut().zip(theirs) {
            *a = (1.0 - w) * *a + w * b;
        }
    }
}

impl<L: Learner> Rule<L> for DflDdsRule {
    const NAME: &'static str = "DFL-DDS";
    const PRIORITY: f64 = 0.0;

    fn on_frame(&mut self, _nodes: &mut [Vehicle<L>], ctx: &mut FrameCtx<'_>) {
        // Advance the global round counter (synchronous rounds).
        self.current_round = (ctx.time / TIME_BUDGET) as u64;
    }

    /// Swaps contact-fitted models with a peer (one exchange per vehicle
    /// per round) and merges what arrived.
    fn session(&mut self, nodes: &mut [Vehicle<L>], ctx: &mut SessionCtx<'_>) -> bool {
        let (i, j) = (ctx.i, ctx.j);
        // Synchronous gating: one exchange per node per round.
        let round = self.current_round;
        if self.last_round[i] == round || self.last_round[j] == round {
            return false;
        }
        self.last_round[i] = round;
        self.last_round[j] = round;
        // Contact-fitted equal compression (per §IV-B's adaptation).
        let Some((for_i, for_j)) =
            fitted_swap(nodes, self.config.model_bytes, TIME_BUDGET, ctx)
        else {
            return false;
        };
        // `j`'s merge reads the source mix `i`'s merge just updated.
        if let Some(m) = for_i {
            self.merge_received(nodes, i, j, &m);
        }
        if let Some(m) = for_j {
            self.merge_received(nodes, j, i, &m);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{line_data, LineLearner};
    use lbchat::prelude::{Runtime, RuntimeConfig};
    use simnet::geom::Vec2;
    use simnet::trace::MobilityTrace;

    fn fleet(n: usize) -> DflDds<LineLearner> {
        let learners = vec![LineLearner::new(); n];
        let datasets: Vec<_> = (0..n)
            .map(|i| WeightedDataset::uniform(line_data(i as f32 - 0.5, 0.0, 200)))
            .collect();
        DflDds::new(learners, datasets, DflDdsConfig { model_bytes: 4 * 1024 * 1024 })
    }

    fn parked_pair(seconds: f64) -> MobilityTrace {
        let frames = (seconds * 2.0) as usize + 1;
        MobilityTrace::new(
            2.0,
            vec![vec![Vec2::ZERO; frames], vec![Vec2::new(60.0, 0.0); frames]],
        )
    }

    #[test]
    fn exchanges_mix_sources() {
        let mut algo = fleet(2);
        let trace = parked_pair(300.0);
        let eval = line_data(0.0, 0.0, 20);
        let runtime =
            Runtime::new(RuntimeConfig { duration: 300.0, ..RuntimeConfig::default() });
        let m = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(m.model_receives > 0, "parked pair must exchange");
        // Node 0's source mix should now include node 1.
        assert!(algo.sources(0)[1] > 0.05, "{:?}", algo.sources(0));
        let sum: f32 = algo.sources(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "mix stays normalized: {sum}");
    }

    #[test]
    fn diversity_gain_math() {
        assert_eq!(diversity_gain(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert_eq!(diversity_gain(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
    }

    /// Pins every DFL-DDS swap, event by event: three pairs crossing on
    /// 30 m-spaced lanes and one parked at the radio's edge, under the
    /// paper's distance→PER table, so sessions decline at the round gate,
    /// lose a leg and swap both ways. A header counts each. Regenerate
    /// after an intentional change with `LBCHAT_GOLDEN_WRITE=1 cargo test
    /// -p baselines --lib swap_events_match_golden_fixture`.
    #[test]
    fn swap_events_match_golden_fixture() {
        use lbchat::obs::{EventKind, Json};
        use lbchat::prelude::ObsSink;
        use simnet::loss::LossModel;

        let vehicles: [(f32, f32); 8] = [
            (-700.0, 10.0),
            (700.0, -10.0),
            (9_300.0, 6.0),
            (10_700.0, -6.0),
            (19_000.0, 15.0),
            (21_000.0, -15.0),
            (30_000.0, 0.0),
            (30_499.0, 0.0),
        ];
        let frames = 150 * 2 + 1;
        let positions = vehicles
            .iter()
            .enumerate()
            .map(|(k, &(x0, vx))| {
                (0..frames).map(|f| Vec2::new(x0 + vx * f as f32 / 2.0, k as f32 * 30.0)).collect()
            })
            .collect();
        let trace = MobilityTrace::new(2.0, positions);
        let mut algo = fleet(vehicles.len());
        let sink = ObsSink::recording();
        let runtime = Runtime::new(RuntimeConfig {
            duration: 150.0,
            eval_every: 50.0,
            pair_cooldown: 8.0,
            loss_model: LossModel::distance_default(),
            seed: 11,
            obs: sink.clone(),
            ..RuntimeConfig::default()
        });
        runtime.run(&mut algo, &trace, &line_data(0.0, 0.0, 20)).expect("trace fits");

        let events = sink.events();
        let (mut exits, mut delivered) = (Vec::new(), Vec::new());
        for e in &events {
            if e.is(EventKind::Transfer) {
                delivered.push(e.get("delivered") == Some(&Json::Bool(true)));
            } else if e.is(EventKind::Session) {
                exits.push(match delivered.as_slice() {
                    [] => "declined",
                    [true, true] => "swapped",
                    _ => "leg lost",
                });
                delivered.clear();
            }
        }
        let mut rendered = String::from("# DFL-DDS:");
        for exit in ["declined", "leg lost", "swapped"] {
            let n = exits.iter().filter(|&&e| e == exit).count();
            assert!(n > 0, "no session took the {exit:?} exit");
            rendered += &format!(" {exit} {n},");
        }
        rendered.pop();
        rendered.push('\n');
        for e in &events {
            rendered += &e.canonical();
            rendered.push('\n');
        }

        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/swap_events.txt");
        if std::env::var_os("LBCHAT_GOLDEN_WRITE").is_some_and(|v| v == "1") {
            let dir = path.parent().expect("fixture dir");
            std::fs::create_dir_all(dir).expect("create fixtures dir");
            std::fs::write(&path, &rendered).expect("write fixture");
            return;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e}; record it with LBCHAT_GOLDEN_WRITE=1", path.display())
        });
        for (n, (a, g)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(a, g, "line {} diverged from the golden swap events", n + 1);
        }
        assert_eq!(rendered.lines().count(), golden.lines().count(), "event count diverged");
    }

    #[test]
    fn one_exchange_per_round() {
        let mut algo = fleet(2);
        let trace = parked_pair(16.0);
        let eval = line_data(0.0, 0.0, 5);
        // Run exactly one round with zero cooldown: the round gate (not the
        // runtime cooldown) must limit exchanges.
        let runtime = Runtime::new(RuntimeConfig {
            duration: 14.0,
            pair_cooldown: 0.0,
            ..RuntimeConfig::default()
        });
        let m = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(
            m.model_sends <= 2,
            "a single round allows one bidirectional exchange: {}",
            m.model_sends
        );
    }
}
