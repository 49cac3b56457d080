//! The LbChat vehicle node and the full Algorithm 2 protocol.
//!
//! [`LbChatNode`] owns one vehicle's learner, weighted local dataset, and
//! cached coreset. [`LbChatAlgorithm`] holds all nodes and implements the
//! shared [`CollabAlgorithm`] runtime interface: local iterations every
//! frame, and on every encounter the full chat — assist messages, coreset
//! exchange, mutual valuation, Eq. (7) compression optimization, model
//! exchange, Eq. (8) aggregation, and dataset expansion. The chat is one
//! straight-line function run inside `session_open`: it moves each payload
//! with [`SessionCtx::run_spec`] as it sends it, so the protocol's realized
//! quantities (coresets, losses, ψ, received models) are locals of that
//! function, and the session is done when it returns.

use crate::aggregate::aggregate_sparse_aware;
use crate::compress::{compress_dense, pair_wire_bytes, wire_bytes};
use crate::config::LbChatConfig;
use crate::coreset::{construct_with_scratch, reduce, Coreset, CoresetConfig, CoresetScratch};
use crate::dataset::WeightedDataset;
use crate::learner::{mean_eval_loss, Learner};
use crate::obs::{Counter, EventKind, Gauge};
use crate::optimize::{equal_compression_choice, CompressionChoice, CompressionProblem};
use crate::penalty::penalized_loss;
use crate::phi::PhiCurve;
use crate::runtime::{CollabAlgorithm, SessionCtx, SessionStep};
use crate::valuation::coreset_loss;
use rand::Rng;
use simnet::channel::{TransferSpec, PAPER_BANDWIDTH_BPS};
use simnet::contact::ContactEstimate;
use vnn::{Minibatcher, ParamVec};

/// Below this ψ a model transfer is skipped entirely (sending a handful of
/// components is pure overhead).
const PSI_MIN: f32 = 0.01;

/// One vehicle's LbChat state.
pub struct LbChatNode<L: Learner> {
    /// The local learner (model + optimizer).
    pub learner: L,
    dataset: WeightedDataset<L::Sample>,
    coreset: Coreset<L::Sample>,
    batcher: Minibatcher,
    iters_since_refresh: usize,
    coreset_stale: bool,
    config: LbChatConfig,
    /// Reused by every coreset rebuild; results are bit-identical to a
    /// fresh construction (see [`CoresetScratch`]).
    scratch: CoresetScratch,
}

impl<L: Learner> LbChatNode<L> {
    /// Creates a node and builds its initial coreset.
    pub fn new<R: Rng + ?Sized>(
        learner: L,
        dataset: WeightedDataset<L::Sample>,
        config: LbChatConfig,
        rng: &mut R,
    ) -> Self {
        let mut scratch = CoresetScratch::new();
        let coreset = construct_with_scratch(
            &learner,
            &dataset,
            &CoresetConfig { size: config.coreset_size },
            rng,
            &mut scratch,
        );
        let batcher = Minibatcher::new(dataset.len(), config.batch_size);
        Self {
            learner,
            dataset,
            coreset,
            batcher,
            iters_since_refresh: 0,
            coreset_stale: false,
            config,
            scratch,
        }
    }

    /// The local dataset.
    pub fn dataset(&self) -> &WeightedDataset<L::Sample> {
        &self.dataset
    }

    /// The current coreset.
    pub fn coreset(&self) -> &Coreset<L::Sample> {
        &self.coreset
    }

    /// Runs one weighted minibatch iteration; refreshes the coreset when it
    /// has gone stale (every `coreset_refresh_iters` iterations, so the
    /// coreset tracks the evolving model).
    pub fn local_iteration<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f32 {
        let idx = self.batcher.next_batch(rng);
        if idx.is_empty() {
            return 0.0;
        }
        let batch: Vec<(&L::Sample, f32)> = idx
            .iter()
            .map(|&i| (self.dataset.sample(i), self.dataset.weight(i)))
            .collect();
        let loss = self.learner.train_step(&batch);
        self.iters_since_refresh += 1;
        if self.iters_since_refresh >= self.config.coreset_refresh_iters {
            self.refresh_coreset(rng);
        }
        loss
    }

    /// Rebuilds the coreset from the (possibly expanded) dataset with the
    /// current model (Algorithm 1).
    pub fn refresh_coreset<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.coreset = construct_with_scratch(
            &self.learner,
            &self.dataset,
            &CoresetConfig { size: self.config.coreset_size },
            rng,
            &mut self.scratch,
        );
        self.iters_since_refresh = 0;
        self.coreset_stale = false;
    }

    /// Absorbs a received peer coreset: expands the local dataset (§III-D)
    /// and maintains the local coreset by merge-and-reduce (cheap, suits
    /// frequent encounters) instead of waiting for the next full rebuild.
    pub fn absorb<R: Rng + ?Sized>(&mut self, peer_coreset: &Coreset<L::Sample>, rng: &mut R) {
        self.dataset.absorb_coreset(peer_coreset);
        self.batcher.grow(self.dataset.len());
        let merged =
            std::mem::replace(&mut self.coreset, Coreset::empty()).merge(peer_coreset.clone());
        self.coreset = reduce(merged, self.config.coreset_size, rng);
    }

    /// Replaces the model with an aggregated one and resets optimizer
    /// momentum.
    pub fn adopt_model(&mut self, params: ParamVec) {
        self.learner.set_params(params);
        self.learner.on_params_replaced();
        self.coreset_stale = true;
    }

    /// Eq. (8): merges a received peer model into this node's, weighted by
    /// both models' penalized losses on the node's *joint* view
    /// `C_self ∪ C_peer` (approximating `D_i ∪ C_j` per §III-D). The merged
    /// pair list is built once and both models are evaluated over it.
    fn aggregate_received(&mut self, peer_params: &ParamVec, peer: &Coreset<L::Sample>) {
        let mut pairs = self.coreset.pairs();
        pairs.extend(peer.pairs());
        let pen = &self.config.penalty;
        let own_loss = penalized_loss(&self.learner, self.learner.params(), &pairs, pen);
        let peer_loss = penalized_loss(&self.learner, peer_params, &pairs, pen);
        let merged = aggregate_sparse_aware(
            self.learner.params(),
            own_loss,
            peer_params,
            peer_loss,
            self.config.aggregation,
        );
        self.adopt_model(merged);
    }
}

/// All LbChat vehicles plus the protocol implementation.
pub struct LbChatAlgorithm<L: Learner> {
    nodes: Vec<LbChatNode<L>>,
    config: LbChatConfig,
    name: &'static str,
}

impl<L: Learner> LbChatAlgorithm<L> {
    /// Builds the fleet from per-vehicle learners and datasets.
    ///
    /// # Panics
    /// Panics if `learners` and `datasets` lengths differ or are empty.
    pub fn new<R: Rng + ?Sized>(
        learners: Vec<L>,
        datasets: Vec<WeightedDataset<L::Sample>>,
        config: LbChatConfig,
        rng: &mut R,
    ) -> Self {
        assert_eq!(learners.len(), datasets.len(), "one dataset per learner");
        assert!(!learners.is_empty(), "need at least one vehicle");
        let name = if config.share_model { "LbChat" } else { "SCO" };
        let nodes = learners
            .into_iter()
            .zip(datasets)
            .map(|(l, d)| LbChatNode::new(l, d, config.clone(), rng))
            .collect();
        Self { nodes, config, name }
    }

    /// Access to a node (tests, inspection).
    pub fn node(&self, i: usize) -> &LbChatNode<L> {
        &self.nodes[i]
    }

    /// The configuration in use.
    pub fn config(&self) -> &LbChatConfig {
        &self.config
    }

    /// Mutably borrows two distinct nodes.
    fn two_nodes(&mut self, i: usize, j: usize) -> (&mut LbChatNode<L>, &mut LbChatNode<L>) {
        assert_ne!(i, j, "a node cannot chat with itself");
        if i < j {
            let (a, b) = self.nodes.split_at_mut(j);
            (&mut a[i], &mut b[0])
        } else {
            let (a, b) = self.nodes.split_at_mut(i);
            (&mut b[0], &mut a[j])
        }
    }
}

impl<L: Learner> LbChatAlgorithm<L> {
    /// Deadline for the next transfer: whatever remains of the session's
    /// time limit.
    fn remaining(limit: f64, ctx: &SessionCtx<'_>) -> f64 {
        (limit - ctx.elapsed()).max(0.0)
    }

    /// Moves one coreset over the link and books it; whether it arrived.
    fn send_coreset(&self, limit: f64, ctx: &mut SessionCtx<'_>) -> bool {
        let bytes = self.config.coreset_wire_bytes();
        let out = ctx.run_spec(&TransferSpec::link(bytes, Self::remaining(limit, ctx)));
        ctx.metrics.record_coreset_send(out.is_delivered(), bytes, out.elapsed());
        out.is_delivered()
    }

    /// Sends `sender`'s model to its peer at ψ when ψ warrants a transfer,
    /// and books it — the metrics, and the `compress.*` byte counters: the
    /// bytes the cost model charged (the paper's `ψ·S` family) next to the
    /// honest `min(2ψ, 1)·S` pair accounting (docs/OBSERVABILITY.md,
    /// docs/COMPRESSION.md). Returns the receiver's top-k reconstruction if
    /// it arrived: where a peer model enters the chat.
    fn model_received(
        &self,
        sender: usize,
        psi: f32,
        limit: f64,
        ctx: &mut SessionCtx<'_>,
    ) -> Option<ParamVec> {
        if !(self.config.share_model && psi >= PSI_MIN) {
            return None;
        }
        let dense = self.config.model_wire_bytes;
        let bytes = wire_bytes(dense, psi);
        let out = ctx.run_spec(&TransferSpec::link(bytes, Self::remaining(limit, ctx)));
        ctx.metrics.record_model_send(out.is_delivered(), bytes, out.elapsed());
        let obs = ctx.obs();
        if obs.enabled() {
            obs.add(Counter::CompressModelBytes, bytes as u64);
            obs.add(Counter::CompressPairBytes, pair_wire_bytes(dense, psi) as u64);
        }
        out.is_delivered().then(|| compress_dense(self.nodes[sender].learner.params(), psi))
    }

    /// One chat (Algorithm 2) between `ctx.i` and `ctx.j`, top to bottom;
    /// every payload moves over the link as it is sent, and a lost one ends
    /// the chat where the protocol can go no further. Returns the duration
    /// floor `session_close` reports: 0.1 s after a lost assist exchange,
    /// else 0.
    fn chat(&mut self, ctx: &mut SessionCtx<'_>) -> f64 {
        let (i, j) = (ctx.i, ctx.j);
        // `min(time_budget, contact duration)` — every deadline derives
        // from it.
        let limit = self.config.time_budget.min(ctx.contact().duration.max(0.0));

        // --- 1. Assist messages (route + bandwidth, 184 B each way). ---
        if !ctx.run_spec(&TransferSpec::link(2 * 184, limit.max(1.0))).is_delivered() {
            return 0.1;
        }

        // --- 2. Coreset construction & exchange. ---
        {
            let (a, b) = self.two_nodes(i, j);
            if a.coreset_stale {
                a.refresh_coreset(ctx.rng());
            }
            if b.coreset_stale {
                b.refresh_coreset(ctx.rng());
            }
        }
        let ij = self.send_coreset(limit, ctx);
        let ji = self.send_coreset(limit, ctx);
        if !(ij && ji) {
            // Without both coresets there is no valuation.
            return 0.0;
        }
        let coreset_i = self.nodes[i].coreset.clone();
        let coreset_j = self.nodes[j].coreset.clone();

        // --- 3. Mutual valuation (computation, §IV-A: not charged to the
        // simulated clock). ---
        let pen = self.config.penalty;
        let (node_i, node_j) = (&self.nodes[i].learner, &self.nodes[j].learner);
        let loss_i_on_cj = coreset_loss(node_i, node_i.params(), &coreset_j, &pen);
        let loss_j_on_ci = coreset_loss(node_j, node_j.params(), &coreset_i, &pen);

        // --- 4. Compression-ratio optimization (Eq. 7) or ablations;
        // `None` when the φ exchange is lost. ---
        let choice = if !self.config.share_model {
            // SCO: no model exchange at all.
            Some(CompressionChoice { psi_i: 0.0, psi_j: 0.0, transfer_time: 0.0, objective: 0.0 })
        } else if self.config.equal_compression {
            Some(equal_compression_choice(
                self.config.model_wire_bytes,
                ctx.contact().p.max(0.01) * ctx.bandwidth_bps(), // effective rate under loss
                self.config.time_budget,
                Self::remaining(limit, ctx),
            ))
        } else {
            let phi_i = PhiCurve::sample(node_i, &coreset_i, &self.config.psi_grid, &pen);
            let phi_j = PhiCurve::sample(node_j, &coreset_j, &self.config.psi_grid, &pen);
            // Exchange of φ points + losses: negligible but real bytes.
            let bytes = phi_i.wire_bytes() + phi_j.wire_bytes() + 16;
            let phi_spec = TransferSpec::link(bytes, Self::remaining(limit, ctx));
            let exchanged = ctx.run_spec(&phi_spec).is_delivered();
            // Budget against expected *goodput*: retransmissions inflate
            // airtime by ~1/(1-PER), and the contact estimate's delivery
            // probability p is exactly the link-quality signal the assist
            // exchange bought us. Without this, transfers sized to the raw
            // bandwidth overrun their deadline whenever the channel is
            // lossy — the failure mode the paper's 87 % receiving rate
            // shows LbChat avoiding.
            exchanged.then(|| {
                CompressionProblem {
                    phi_i: &phi_i,
                    phi_j: &phi_j,
                    loss_j_on_ci,
                    loss_i_on_cj,
                    model_bytes: self.config.model_wire_bytes,
                    bandwidth_bps: ctx.bandwidth_bps() * ctx.contact().p.clamp(0.05, 1.0),
                    time_budget: Self::remaining(limit, ctx),
                    contact: (ctx.contact().duration - ctx.elapsed()).max(0.0),
                    lambda_c: self.config.lambda_c,
                }
                .solve()
            })
        };

        // Can't agree on ψ: skip to absorbing the coresets.
        if let Some(choice) = choice {
            let sizes = (coreset_i.len(), coreset_j.len());
            emit_chat(ctx, sizes, (loss_i_on_cj, loss_j_on_ci), &choice);

            // --- 5. Model exchange (top-k-compressed both ways). ---
            let received_j = self.model_received(i, choice.psi_i, limit, ctx);
            let received_i = self.model_received(j, choice.psi_j, limit, ctx);

            // --- 6. Aggregation (Eq. 8) on the joint coreset view. ---
            if let Some(peer_params) = &received_i {
                self.nodes[i].aggregate_received(peer_params, &coreset_j);
            }
            if let Some(peer_params) = &received_j {
                self.nodes[j].aggregate_received(peer_params, &coreset_i);
            }
        }

        // --- 7. Dataset expansion with the received coresets (§III-D). ---
        let (a, b) = self.two_nodes(i, j);
        a.absorb(&coreset_j, ctx.rng());
        b.absorb(&coreset_i, ctx.rng());
        0.0
    }
}

/// One `chat` event per encounter that agreed on ψ, with the exchanged
/// coreset sizes, the valuation losses and the chosen ratios.
fn emit_chat(
    ctx: &SessionCtx<'_>,
    (ci_len, cj_len): (usize, usize),
    (loss_i_on_cj, loss_j_on_ci): (f32, f32),
    choice: &CompressionChoice,
) {
    let obs = ctx.obs();
    if !obs.enabled() {
        return;
    }
    obs.add(Counter::Chats, 1);
    obs.add(Counter::CoresetPoints, (ci_len + cj_len) as u64);
    obs.observe(Gauge::Psi, choice.psi_i as f64);
    obs.observe(Gauge::Psi, choice.psi_j as f64);
    obs.emit(
        EventKind::Chat,
        &[
            ("i", ctx.i.into()),
            ("j", ctx.j.into()),
            ("t", ctx.now().into()),
            ("coreset_i", ci_len.into()),
            ("coreset_j", cj_len.into()),
            ("loss_i_on_cj", loss_i_on_cj.into()),
            ("loss_j_on_ci", loss_j_on_ci.into()),
            ("psi_i", choice.psi_i.into()),
            ("psi_j", choice.psi_j.into()),
            ("objective", choice.objective.into()),
        ],
    );
}

impl<L: Learner> CollabAlgorithm for LbChatAlgorithm<L> {
    type Sample = L::Sample;
    /// The minimum duration `session_close` reports: 0.1 s after a lost
    /// assist exchange, else 0.
    type Session = f64;

    fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn model(&self, node: usize) -> &ParamVec {
        self.nodes[node].learner.params()
    }

    fn local_training(
        &mut self,
        node: usize,
        iters: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> crate::learner::TrainStats {
        for _ in 0..iters {
            self.nodes[node].local_iteration(rng);
        }
        self.nodes[node].learner.take_train_stats()
    }

    /// Eq. (5): `c = z · p · min(B_i, B_j)`. Bandwidths are homogeneous in
    /// the paper's setup, so the min-bandwidth is a constant factor that
    /// cannot reorder pairs — the paper's radio bandwidth stands in for it.
    fn pair_priority(&self, _i: usize, _j: usize, est: &ContactEstimate) -> f64 {
        est.z * est.p * PAPER_BANDWIDTH_BPS
    }

    /// Runs the whole chat here (Algorithm 2) and is done.
    fn session_open(&mut self, ctx: &mut SessionCtx<'_>) -> Option<(f64, SessionStep)> {
        Some((self.chat(ctx), SessionStep::Done))
    }

    fn session_close(&mut self, floor: f64, ctx: &mut SessionCtx<'_>) -> f64 {
        ctx.elapsed().max(floor)
    }

    fn mean_eval_loss(&self, eval: &[L::Sample]) -> f64 {
        mean_eval_loss(self.nodes.iter().map(|n| &n.learner), eval)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::testutil::{line_data, LineLearner};
    use crate::runtime::{Runtime, RuntimeConfig};
    use rand::SeedableRng;
    use simnet::geom::Vec2;
    use simnet::trace::MobilityTrace;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    fn small_config() -> LbChatConfig {
        LbChatConfig {
            coreset_size: 30,
            coreset_bytes_per_sample: 256,
            model_wire_bytes: 4 * 1024 * 1024, // small model: fits contacts
            coreset_refresh_iters: 20,
            batch_size: 16,
            ..LbChatConfig::default()
        }
    }

    fn two_node_algo(cfg: LbChatConfig) -> LbChatAlgorithm<LineLearner> {
        let mut r = rng();
        let la = LineLearner::new(0.0, 0.0);
        let lb = LineLearner::new(0.0, 0.0);
        let da = WeightedDataset::uniform(line_data(2.0, -1.0, 300));
        let db = WeightedDataset::uniform(line_data(-1.0, 2.0, 300));
        LbChatAlgorithm::new(vec![la, lb], vec![da, db], cfg, &mut r)
    }

    fn parked_trace(seconds: f64) -> MobilityTrace {
        let frames = (seconds * 2.0) as usize + 1;
        MobilityTrace::new(
            2.0,
            vec![vec![Vec2::ZERO; frames], vec![Vec2::new(80.0, 0.0); frames]],
        )
    }

    #[test]
    fn node_trains_and_refreshes_coreset() {
        let mut r = rng();
        let node_cfg = small_config();
        let mut node = LbChatNode::new(
            LineLearner::new(0.0, 0.0),
            WeightedDataset::uniform(line_data(1.0, 0.0, 200)),
            node_cfg,
            &mut r,
        );
        let initial_coreset = node.coreset().clone();
        let first = node.local_iteration(&mut r);
        for _ in 0..100 {
            node.local_iteration(&mut r);
        }
        let last = node.local_iteration(&mut r);
        assert!(last < first, "training must reduce loss: {first} -> {last}");
        assert_ne!(
            node.coreset(),
            &initial_coreset,
            "coreset must refresh as the model evolves"
        );
    }

    #[test]
    fn absorb_grows_dataset_and_keeps_coreset_size() {
        let mut r = rng();
        let mut node = LbChatNode::new(
            LineLearner::new(0.0, 0.0),
            WeightedDataset::uniform(line_data(1.0, 0.0, 200)),
            small_config(),
            &mut r,
        );
        let before = node.dataset().len();
        let peer = Coreset::new(
            line_data(3.0, 3.0, 40),
            vec![5.0; 40],
        );
        node.absorb(&peer, &mut r);
        assert_eq!(node.dataset().len(), before + 40);
        assert!(node.coreset().len() <= 30, "merge-reduce keeps the size bound");
    }

    #[test]
    fn chat_exchanges_models_and_data() {
        let mut algo = two_node_algo(small_config());
        let trace = parked_trace(600.0);
        // Pre-train both so models differ meaningfully.
        let mut r = rng();
        for node in 0..2 {
            algo.local_training(node, 200, &mut r);
        }
        let eval = line_data(2.0, -1.0, 50);
        let runtime = Runtime::new(RuntimeConfig {
            duration: 600.0,
            eval_every: 100.0,
            ..RuntimeConfig::default()
        });
        let before_a = algo.node(0).dataset().len();
        let metrics = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(metrics.sessions > 0, "parked in range: must chat");
        assert!(metrics.coreset_receives > 0);
        assert!(metrics.model_receives > 0, "models must flow on a clean channel");
        assert!(
            algo.node(0).dataset().len() > before_a,
            "dataset must expand by absorbed coresets"
        );
    }

    #[test]
    fn every_chat_merge_reduces_to_the_configured_size() {
        // Algorithm 1 only approximates its target size, so scheduled
        // rebuilds are switched off: what is left is what the chats'
        // absorptions leave behind (§III-D), which is exactly `coreset_size`.
        let cfg = LbChatConfig { coreset_refresh_iters: usize::MAX, ..small_config() };
        let mut algo = two_node_algo(cfg);
        let runtime = Runtime::new(RuntimeConfig { duration: 600.0, ..RuntimeConfig::default() });
        let metrics = runtime
            .run(&mut algo, &parked_trace(600.0), &line_data(2.0, -1.0, 20))
            .expect("trace fits");
        assert!(metrics.coreset_receives >= 6, "several chats: {}", metrics.coreset_receives);
        for node in 0..2 {
            assert_eq!(algo.node(node).coreset().len(), 30, "node {node}");
        }
    }

    #[test]
    fn collaboration_beats_isolation_on_foreign_data() {
        // Node 0 trains on line A, node 1 on line B. After chatting, node 0
        // must do better on B-data than an isolated twin.
        let cfg = small_config();
        let mut algo = two_node_algo(cfg.clone());
        let trace = parked_trace(900.0);
        let eval_b = line_data(-1.0, 2.0, 60);
        let runtime = Runtime::new(RuntimeConfig {
            duration: 900.0,
            eval_every: 300.0,
            ..RuntimeConfig::default()
        });
        runtime.run(&mut algo, &trace, &eval_b).expect("trace fits");
        let chatty_loss: f64 = eval_b
            .iter()
            .map(|s| algo.node(0).learner.loss(s) as f64)
            .sum::<f64>()
            / eval_b.len() as f64;

        // Isolated twin: same data, same training budget, no chats.
        let mut r = rng();
        let mut lonely = LbChatNode::new(
            LineLearner::new(0.0, 0.0),
            WeightedDataset::uniform(line_data(2.0, -1.0, 300)),
            cfg,
            &mut r,
        );
        for _ in 0..1800 {
            lonely.local_iteration(&mut r);
        }
        let lonely_loss: f64 = eval_b
            .iter()
            .map(|s| lonely.learner.loss(s) as f64)
            .sum::<f64>()
            / eval_b.len() as f64;
        assert!(
            chatty_loss < lonely_loss * 0.8,
            "chatting must help on foreign data: chatty {chatty_loss} vs lonely {lonely_loss}"
        );
    }

    #[test]
    fn sco_never_sends_models() {
        let mut algo = two_node_algo(small_config().sco());
        let trace = parked_trace(600.0);
        let eval = line_data(2.0, -1.0, 20);
        let runtime = Runtime::new(RuntimeConfig {
            duration: 600.0,
            ..RuntimeConfig::default()
        });
        let metrics = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(metrics.sessions > 0);
        assert_eq!(metrics.model_sends, 0, "SCO shares coresets only");
        assert!(metrics.coreset_receives > 0);
        assert_eq!(algo.name(), "SCO");
    }

    #[test]
    fn equal_compression_still_exchanges() {
        let mut algo = two_node_algo(small_config().with_equal_compression());
        let trace = parked_trace(400.0);
        let eval = line_data(2.0, -1.0, 20);
        let runtime = Runtime::new(RuntimeConfig {
            duration: 400.0,
            ..RuntimeConfig::default()
        });
        let metrics = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(metrics.model_sends > 0);
    }

    /// Vehicles on 30 m-spaced lanes drifting along x at `(x0, vx)`, so
    /// pairs meet at every distance the radio reaches.
    fn lane_trace(vehicles: &[(f32, f32)], seconds: f64) -> MobilityTrace {
        let fps = 2.0;
        let frames = (seconds * fps) as usize + 1;
        let positions = vehicles
            .iter()
            .enumerate()
            .map(|(k, &(x0, vx))| {
                (0..frames)
                    .map(|f| Vec2::new(x0 + vx * f as f32 / fps as f32, k as f32 * 30.0))
                    .collect()
            })
            .collect();
        MobilityTrace::new(fps, positions)
    }

    /// Which exit of Algorithm 2 a session took, read off its transfers'
    /// `delivered` flags in order and whether it emitted a `chat` event.
    fn chat_exit(delivered: &[bool], chatted: bool) -> &'static str {
        match delivered {
            [false] => "assist lost",
            [true, ij, ji] if !(ij & ji) => "coreset lost",
            _ if !chatted => "phi lost",
            [_, _, _, models @ ..] if models.contains(&false) => "model failed",
            _ => "full chat",
        }
    }

    /// A lossy four-vehicle lane run of one LbChat configuration: a header
    /// counting the sessions per exit, then every `transfer` / `chat` /
    /// `session` / `round` event with its timing fields stripped, in
    /// emission order.
    fn render_chat_events(label: &str, cfg: LbChatConfig) -> (String, Vec<&'static str>) {
        let lines = [
            (2.0, -1.0),
            (-1.0, 2.0),
            (0.5, 0.5),
            (-2.0, 0.0),
            (1.0, 1.0),
            (0.0, -2.0),
            (1.5, 0.0),
            (0.0, 1.5),
        ];
        let vehicles = [
            (-700.0, 10.0),
            (700.0, -10.0),
            (9_300.0, 6.0),
            (10_700.0, -6.0),
            (19_000.0, 15.0),
            (21_000.0, -15.0),
            (30_000.0, 0.0),
            (30_499.0, 0.0),
        ];
        let trace = lane_trace(&vehicles, 150.0);
        let learners = vec![LineLearner::new(0.0, 0.0); lines.len()];
        let datasets = lines
            .iter()
            .map(|&(a, b)| WeightedDataset::uniform(line_data(a, b, 200)))
            .collect();
        let mut algo = LbChatAlgorithm::new(learners, datasets, cfg, &mut rng());
        let sink = crate::obs::ObsSink::recording();
        let runtime = Runtime::new(RuntimeConfig {
            duration: 150.0,
            eval_every: 50.0,
            pair_cooldown: 8.0,
            loss_model: simnet::loss::LossModel::distance_default(),
            seed: 11,
            obs: sink.clone(),
            ..RuntimeConfig::default()
        });
        runtime.run(&mut algo, &trace, &line_data(1.0, 1.0, 40)).expect("trace fits");

        let events = sink.events();
        let (mut exits, mut delivered, mut chatted) = (Vec::new(), Vec::new(), false);
        for e in &events {
            if e.is(EventKind::Transfer) {
                delivered.push(e.get("delivered") == Some(&crate::obs::Json::Bool(true)));
            } else if e.is(EventKind::Chat) {
                chatted = true;
            } else if e.is(EventKind::Session) {
                exits.push(chat_exit(&delivered, chatted));
                delivered.clear();
                chatted = false;
            }
        }
        let mut out = format!("# {label}:");
        for exit in ["assist lost", "coreset lost", "phi lost", "model failed", "full chat"] {
            out += &format!(" {exit} {},", exits.iter().filter(|&&e| e == exit).count());
        }
        out.pop();
        out.push('\n');
        for e in &events {
            out += &e.canonical();
            out.push('\n');
        }
        (out, exits)
    }

    /// Pins every chat of the three compression branches — Eq. (7) (LbChat),
    /// no model (SCO) and equal ψ — event by event, on a lossy run that
    /// reaches each exit of the protocol. Regenerate after an intentional
    /// change with `LBCHAT_GOLDEN_WRITE=1 cargo test -p lbchat --lib
    /// chat_events_match_golden_fixture`.
    #[test]
    fn chat_events_match_golden_fixture() {
        let mut rendered = String::new();
        let mut exits = Vec::new();
        for (label, cfg) in [
            ("LbChat", small_config()),
            ("SCO", small_config().sco()),
            ("equal compression", small_config().with_equal_compression()),
        ] {
            let (out, seen) = render_chat_events(label, cfg);
            rendered += &out;
            exits.extend(seen);
        }
        for exit in ["assist lost", "coreset lost", "phi lost", "model failed", "full chat"] {
            assert!(exits.contains(&exit), "no session took the {exit:?} exit");
        }
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/chat_events.txt");
        if std::env::var_os("LBCHAT_GOLDEN_WRITE").is_some_and(|v| v == "1") {
            std::fs::write(&path, &rendered).expect("write fixture");
            return;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e}; record it with LBCHAT_GOLDEN_WRITE=1", path.display())
        });
        for (n, (a, g)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(a, g, "line {} diverged from the golden chat events", n + 1);
        }
        assert_eq!(rendered.lines().count(), golden.lines().count(), "event count diverged");
    }

    #[test]
    fn two_nodes_split_borrows_correctly() {
        let mut algo = two_node_algo(small_config());
        let (a, b) = algo.two_nodes(1, 0);
        // Verify distinct addresses by mutating one side only.
        a.coreset_stale = true;
        assert!(a.coreset_stale);
        assert!(!b.coreset_stale, "mutating node a must not alias node b");
    }

    #[test]
    #[should_panic(expected = "cannot chat with itself")]
    fn self_chat_panics() {
        let mut algo = two_node_algo(small_config());
        let _ = algo.two_nodes(1, 1);
    }
}
