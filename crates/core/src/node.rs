//! The vehicle of every method, the LbChat node and Algorithm 2.
//!
//! [`Vehicle`] is one vehicle of LbChat, SCO and the four baselines alike.
//! [`LbChatNode`] is a vehicle plus its cached coreset. [`LbChatAlgorithm`]
//! holds all nodes and implements the shared [`CollabAlgorithm`] runtime
//! interface: local iterations every frame, and on every encounter the full
//! chat — assist messages, coreset exchange, mutual valuation, Eq. (7)
//! compression optimization, model exchange, Eq. (8) aggregation, and
//! dataset expansion. The chat is one straight-line function run inside
//! `session_open`: it moves each payload as it sends it, so the protocol's
//! realized quantities (coresets, losses, ψ, received models) are locals of
//! that function, and the session is done when it returns.

use crate::aggregate::aggregate_sparse_aware;
use crate::compress::{pair_wire_bytes, wire_bytes};
use crate::config::LbChatConfig;
use crate::coreset::{construct, reduce, Coreset, CoresetConfig};
use crate::dataset::WeightedDataset;
use crate::learner::{mean_eval_loss, Learner, TrainStats};
use crate::obs::{Counter, EventKind, Gauge};
use crate::optimize::{equal_compression_choice, CompressionChoice, CompressionProblem};
use crate::penalty::penalized_loss;
use crate::phi::PhiCurve;
use crate::runtime::{CollabAlgorithm, SessionCtx, SessionStep};
use crate::valuation::coreset_loss;
use rand::Rng;
use simnet::channel::{TransferSpec, ASSIST_BYTES, PAPER_BANDWIDTH_BPS};
use simnet::contact::ContactEstimate;
use vnn::{Minibatcher, ParamVec};

/// Below this ψ a model transfer is skipped entirely (sending a handful of
/// components is pure overhead).
const PSI_MIN: f32 = 0.01;

/// One vehicle of any method: its learner and weighted local dataset, of
/// which SGD draws from the first `train_len` samples; the rest are held
/// out. [`Vehicle::train`] is the one local SGD loop (§III-D, §IV-B).
pub struct Vehicle<L: Learner> {
    /// The local learner (model + optimizer).
    pub learner: L,
    dataset: WeightedDataset<L::Sample>,
    batcher: Minibatcher,
    train_len: usize,
}

impl<L: Learner> Vehicle<L> {
    /// One vehicle per learner–dataset pair, in order, each training on the
    /// first `train_len(n)` samples of its `n`-sample dataset.
    ///
    /// # Panics
    /// Panics if `learners` and `datasets` lengths differ or are empty.
    pub fn fleet(
        learners: Vec<L>,
        datasets: Vec<WeightedDataset<L::Sample>>,
        batch_size: usize,
        train_len: impl Fn(usize) -> usize,
    ) -> Vec<Self> {
        assert_eq!(learners.len(), datasets.len(), "one dataset per learner");
        assert!(!learners.is_empty(), "need at least one vehicle");
        let vehicle = |(learner, dataset): (L, WeightedDataset<L::Sample>)| {
            let train_len = train_len(dataset.len());
            let batcher = Minibatcher::new(train_len, batch_size);
            Self { learner, dataset, batcher, train_len }
        };
        learners.into_iter().zip(datasets).map(vehicle).collect()
    }

    /// The local dataset (training split, then the held-out samples).
    pub fn dataset(&self) -> &WeightedDataset<L::Sample> {
        &self.dataset
    }

    /// The held-out samples: every sample past the training split.
    pub fn held_out(&self) -> &[L::Sample] {
        &self.dataset.samples()[self.train_len..]
    }

    /// Runs `iters` weighted minibatch SGD iterations, each followed by
    /// `after_step(self, trained, rng)` (`trained` is false when the split
    /// is empty), then drains the learner's training statistics.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        iters: usize,
        rng: &mut R,
        mut after_step: impl FnMut(&mut Self, bool, &mut R),
    ) -> TrainStats {
        for _ in 0..iters {
            let idx = self.batcher.next_batch(rng);
            let trained = !idx.is_empty();
            if trained {
                let batch: Vec<(&L::Sample, f32)> = idx
                    .iter()
                    .map(|&i| (self.dataset.sample(i as usize), self.dataset.weight(i as usize)))
                    .collect();
                self.learner.train_step(&batch);
            }
            after_step(self, trained, rng);
        }
        self.learner.take_train_stats()
    }

    /// Replaces the model with `params` and resets the optimizer state
    /// (momentum) — the one place a replaced model enters a vehicle.
    pub fn adopt(&mut self, params: ParamVec) {
        self.learner.set_params(params);
        self.learner.on_params_replaced();
    }

    /// Appends a received coreset to the training split (§III-D); only a
    /// vehicle that holds nothing out absorbs.
    fn absorb(&mut self, coreset: &Coreset<L::Sample>) {
        self.dataset.absorb_coreset(coreset);
        self.train_len = self.dataset.len();
        self.batcher.grow(self.train_len);
    }

    /// Algorithm 1 over the whole dataset with the current model, built
    /// through the calling thread's scratch.
    fn coreset<R: Rng + ?Sized>(&self, size: usize, rng: &mut R) -> Coreset<L::Sample> {
        construct(&self.learner, &self.dataset, &CoresetConfig { size }, rng)
    }
}

/// One vehicle's LbChat state: the vehicle and its cached coreset.
pub struct LbChatNode<L: Learner> {
    /// The vehicle (learner, dataset, minibatcher).
    pub vehicle: Vehicle<L>,
    coreset: Coreset<L::Sample>,
    iters_since_refresh: usize,
    coreset_stale: bool,
}

impl<L: Learner> LbChatNode<L> {
    /// Wraps `vehicle` and builds its initial coreset.
    pub fn new<R: Rng + ?Sized>(vehicle: Vehicle<L>, config: &LbChatConfig, rng: &mut R) -> Self {
        let coreset = vehicle.coreset(config.coreset_size, rng);
        Self { vehicle, coreset, iters_since_refresh: 0, coreset_stale: false }
    }

    /// The current coreset.
    pub fn coreset(&self) -> &Coreset<L::Sample> {
        &self.coreset
    }

    /// Runs `iters` local iterations; rebuilds the coreset every
    /// `coreset_refresh_iters` iterations that trained, so the coreset
    /// tracks the evolving model.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        iters: usize,
        config: &LbChatConfig,
        rng: &mut R,
    ) -> TrainStats {
        let Self { vehicle, coreset, iters_since_refresh, coreset_stale } = self;
        vehicle.train(iters, rng, |vehicle, trained, rng| {
            if trained {
                *iters_since_refresh += 1;
                if *iters_since_refresh >= config.coreset_refresh_iters {
                    *coreset = vehicle.coreset(config.coreset_size, rng);
                    (*iters_since_refresh, *coreset_stale) = (0, false);
                }
            }
        })
    }

    /// Rebuilds the coreset from the (possibly expanded) dataset with the
    /// current model (Algorithm 1).
    pub fn refresh_coreset<R: Rng + ?Sized>(&mut self, config: &LbChatConfig, rng: &mut R) {
        self.coreset = self.vehicle.coreset(config.coreset_size, rng);
        (self.iters_since_refresh, self.coreset_stale) = (0, false);
    }

    /// Absorbs a received peer coreset: expands the local dataset (§III-D)
    /// and maintains the local coreset by merge-and-reduce (cheap, suits
    /// frequent encounters) instead of waiting for the next full rebuild.
    pub fn absorb<R: Rng + ?Sized>(
        &mut self,
        peer_coreset: &Coreset<L::Sample>,
        config: &LbChatConfig,
        rng: &mut R,
    ) {
        self.vehicle.absorb(peer_coreset);
        let merged =
            std::mem::replace(&mut self.coreset, Coreset::empty()).merge(peer_coreset.clone());
        self.coreset = reduce(merged, config.coreset_size, rng);
    }

    /// Eq. (8): merges a received peer model into this node's, weighted by
    /// both models' penalized losses on the node's *joint* view
    /// `C_self ∪ C_peer` (approximating `D_i ∪ C_j` per §III-D), and adopts
    /// the result; the coreset is stale until the next chat rebuilds it. The
    /// merged pair list is built once and both models are evaluated over it.
    fn aggregate_received(
        &mut self,
        peer_params: &ParamVec,
        peer: &Coreset<L::Sample>,
        config: &LbChatConfig,
    ) {
        let mut pairs = self.coreset.pairs();
        pairs.extend(peer.pairs());
        let learner = &self.vehicle.learner;
        let pen = &config.penalty;
        let own_loss = penalized_loss(learner, learner.params(), &pairs, pen);
        let peer_loss = penalized_loss(learner, peer_params, &pairs, pen);
        let merged = aggregate_sparse_aware(
            learner.params(),
            own_loss,
            peer_params,
            peer_loss,
            config.aggregation,
        );
        self.vehicle.adopt(merged);
        self.coreset_stale = true;
    }
}

/// Mutably borrows two distinct nodes.
fn two_nodes<T>(nodes: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "a node cannot chat with itself");
    if i < j {
        let (a, b) = nodes.split_at_mut(j);
        (&mut a[i], &mut b[0])
    } else {
        let (a, b) = nodes.split_at_mut(i);
        (&mut b[0], &mut a[j])
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
        let name = if config.share_model { "LbChat" } else { "SCO" };
        let nodes = Vehicle::fleet(learners, datasets, config.batch_size, |n| n)
            .into_iter()
            .map(|vehicle| LbChatNode::new(vehicle, &config, rng))
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
    /// and adds the `compress.*` byte counters: the bytes the cost model
    /// charged (the paper's `ψ·S` family) next to the honest `min(2ψ, 1)·S`
    /// pair accounting (docs/OBSERVABILITY.md, docs/COMPRESSION.md).
    /// Returns the receiver's top-k reconstruction if it arrived.
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
        let model = self.nodes[sender].vehicle.learner.params();
        let received = ctx.send_model(model, dense, psi, Self::remaining(limit, ctx));
        let obs = ctx.obs();
        if obs.enabled() {
            obs.add(Counter::CompressModelBytes, wire_bytes(dense, psi) as u64);
            obs.add(Counter::CompressPairBytes, pair_wire_bytes(dense, psi) as u64);
        }
        received
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

        // --- 1. Assist messages (route + bandwidth, ASSIST_BYTES each way). ---
        if !ctx.run_spec(&TransferSpec::link(2 * ASSIST_BYTES, limit.max(1.0))).is_delivered() {
            return 0.1;
        }

        // --- 2. Coreset construction & exchange. ---
        {
            let (a, b) = two_nodes(&mut self.nodes, i, j);
            if a.coreset_stale {
                a.refresh_coreset(&self.config, ctx.rng());
            }
            if b.coreset_stale {
                b.refresh_coreset(&self.config, ctx.rng());
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
        let (node_i, node_j) = (&self.nodes[i].vehicle.learner, &self.nodes[j].vehicle.learner);
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
                self.nodes[i].aggregate_received(peer_params, &coreset_j, &self.config);
            }
            if let Some(peer_params) = &received_j {
                self.nodes[j].aggregate_received(peer_params, &coreset_i, &self.config);
            }
        }

        // --- 7. Dataset expansion with the received coresets (§III-D). ---
        let (a, b) = two_nodes(&mut self.nodes, i, j);
        a.absorb(&coreset_j, &self.config, ctx.rng());
        b.absorb(&coreset_i, &self.config, ctx.rng());
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
        self.nodes[node].vehicle.learner.params()
    }

    fn local_training(
        &mut self,
        node: usize,
        iters: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> TrainStats {
        self.nodes[node].train(iters, &self.config, rng)
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
        mean_eval_loss(self.nodes.iter().map(|n| &n.vehicle.learner), eval)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::testutil::{line_data, LineLearner, Pt};
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

    /// One vehicle over `data` that trains on its first `train_len` samples.
    fn vehicle(data: Vec<Pt>, batch_size: usize, train_len: usize) -> Vehicle<LineLearner> {
        let learners = vec![LineLearner::new(0.0, 0.0)];
        let mut fleet =
            Vehicle::fleet(learners, vec![WeightedDataset::uniform(data)], batch_size, |_| train_len);
        fleet.remove(0)
    }

    /// An LbChat node over `data` that holds nothing out.
    fn lbchat_node(
        data: Vec<Pt>,
        cfg: &LbChatConfig,
        r: &mut rand::rngs::StdRng,
    ) -> LbChatNode<LineLearner> {
        let n = data.len();
        LbChatNode::new(vehicle(data, cfg.batch_size, n), cfg, r)
    }

    /// Mean loss of `vehicle`'s model on its whole dataset.
    fn dataset_loss(vehicle: &Vehicle<LineLearner>) -> f64 {
        let samples: Vec<_> = vehicle.dataset().samples().iter().collect();
        crate::learner::mean_loss(&vehicle.learner, vehicle.learner.params(), &samples)
    }

    #[test]
    fn node_trains() {
        let mut r = rng();
        let mut vehicle = vehicle(line_data(2.0, 1.0, 300), 32, 270);
        let first = dataset_loss(&vehicle);
        let mut steps = 0;
        vehicle.train(300, &mut r, |_, trained, _| steps += usize::from(trained));
        assert_eq!(steps, 300, "every iteration of a nonempty split trains");
        let last = dataset_loss(&vehicle);
        assert!(last < first * 0.1, "{first} -> {last}");
    }

    #[test]
    fn empty_split_trains_nothing_but_runs_the_hook() {
        let mut r = rng();
        let mut vehicle = vehicle(line_data(2.0, 1.0, 10), 4, 0);
        let mut hooks = Vec::new();
        vehicle.train(3, &mut r, |_, trained, _| hooks.push(trained));
        assert_eq!(hooks, [false; 3]);
        assert_eq!(vehicle.learner.params().as_slice(), [0.0, 0.0]);
        assert_eq!(vehicle.held_out().len(), 10);
    }

    #[test]
    fn validation_loss_uses_holdout() {
        let vehicle = vehicle(line_data(1.0, 0.0, 100), 32, 90);
        let held_out: Vec<_> = vehicle.held_out().iter().collect();
        assert_eq!(held_out.len(), 10);
        let loss = |p: Vec<f32>| {
            crate::learner::mean_loss(&vehicle.learner, &ParamVec::from_vec(p), &held_out)
        };
        // Zero model on y = x: squared error averaged over held-out xs.
        assert!(loss(vec![0.0, 0.0]) > 0.0);
        // The true model has zero loss.
        assert!(loss(vec![1.0, 0.0]) < 1e-9);
    }

    #[test]
    fn mean_eval_loss_averages() {
        let data = WeightedDataset::uniform(line_data(1.0, 0.0, 50));
        let vehicles = Vehicle::fleet(
            vec![LineLearner::new(0.0, 0.0); 2],
            vec![data.clone(), data],
            16,
            |n| n,
        );
        let eval = line_data(1.0, 0.0, 10);
        let m = mean_eval_loss(vehicles.iter().map(|v| &v.learner), &eval);
        assert!(m > 0.0);
    }

    #[test]
    fn node_trains_and_refreshes_coreset() {
        let mut r = rng();
        let cfg = small_config();
        let mut node = lbchat_node(line_data(1.0, 0.0, 200), &cfg, &mut r);
        let initial_coreset = node.coreset().clone();
        let first = dataset_loss(&node.vehicle);
        node.train(102, &cfg, &mut r);
        let last = dataset_loss(&node.vehicle);
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
        let cfg = small_config();
        let mut node = lbchat_node(line_data(1.0, 0.0, 200), &cfg, &mut r);
        let before = node.vehicle.dataset().len();
        let peer = Coreset::new(
            line_data(3.0, 3.0, 40),
            vec![5.0; 40],
        );
        node.absorb(&peer, &cfg, &mut r);
        assert_eq!(node.vehicle.dataset().len(), before + 40);
        assert!(node.vehicle.held_out().is_empty(), "absorbed samples train");
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
        let before_a = algo.node(0).vehicle.dataset().len();
        let metrics = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(metrics.sessions > 0, "parked in range: must chat");
        assert!(metrics.coreset_receives > 0);
        assert!(metrics.model_receives > 0, "models must flow on a clean channel");
        assert!(
            algo.node(0).vehicle.dataset().len() > before_a,
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
            .map(|s| algo.node(0).vehicle.learner.loss(s) as f64)
            .sum::<f64>()
            / eval_b.len() as f64;

        // Isolated twin: same data, same training budget, no chats.
        let mut r = rng();
        let mut lonely = lbchat_node(line_data(2.0, -1.0, 300), &cfg, &mut r);
        lonely.train(1800, &cfg, &mut r);
        let lonely_loss: f64 = eval_b
            .iter()
            .map(|s| lonely.vehicle.learner.loss(s) as f64)
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

    /// One FNV-1a digest over the bits of every component of `model`.
    fn digest(model: &ParamVec) -> u64 {
        model.as_slice().iter().fold(0xCBF2_9CE4_8422_2325u64, |h, x| {
            (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// A run's outcome: every `Metrics` field (floats as bits), then one
    /// digest per vehicle's final model.
    fn render_outcome(
        label: &str,
        m: crate::metrics::Metrics,
        algo: &LbChatAlgorithm<LineLearner>,
    ) -> String {
        let crate::metrics::Metrics {
            loss_curve,
            model_sends,
            model_receives,
            coreset_sends,
            coreset_receives,
            sessions,
            bytes_delivered,
            comm_seconds,
            train_iterations,
        } = m;
        let mut out = format!(
            "# {label} run: sessions {sessions} model_sends {model_sends} \
             model_receives {model_receives} coreset_sends {coreset_sends} \
             coreset_receives {coreset_receives} bytes_delivered {bytes_delivered} \
             train_iterations {train_iterations} comm_seconds {:016x}\n",
            comm_seconds.to_bits(),
        );
        for (t, loss) in loss_curve {
            out += &format!("loss {:016x} {:016x}\n", t.to_bits(), loss.to_bits());
        }
        for v in 0..algo.n_nodes() {
            out += &format!("model {v} {:016x}\n", digest(algo.model(v)));
        }
        out
    }

    /// A lossy four-vehicle lane run of one LbChat configuration: a header
    /// counting the sessions per exit, then every `transfer` / `chat` /
    /// `session` / `round` event with its timing fields stripped, in
    /// emission order; and apart, the run's outcome ([`render_outcome`]).
    fn render_chat_events(
        label: &str,
        cfg: LbChatConfig,
    ) -> (String, String, Vec<&'static str>) {
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
        let metrics =
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
        (out, render_outcome(label, metrics, &algo), exits)
    }

    /// Pins every chat of the three compression branches — Eq. (7) (LbChat),
    /// no model (SCO) and equal ψ — and of plain-average aggregation event
    /// by event, on a lossy run that reaches each exit of the protocol; then
    /// each run's metrics and final models bit for bit. Regenerate after an
    /// intentional change with `LBCHAT_GOLDEN_WRITE=1 cargo test -p lbchat
    /// --lib chat_events_match_golden_fixture`.
    #[test]
    fn chat_events_match_golden_fixture() {
        let mut rendered = String::new();
        let mut outcomes = String::new();
        let mut exits = Vec::new();
        for (label, cfg) in [
            ("LbChat", small_config()),
            ("SCO", small_config().sco()),
            ("equal compression", small_config().with_equal_compression()),
            ("average aggregation", small_config().with_average_aggregation()),
        ] {
            let (out, outcome, seen) = render_chat_events(label, cfg);
            rendered += &out;
            outcomes += &outcome;
            exits.extend(seen);
        }
        rendered += &outcomes;
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
        let (a, b) = two_nodes(&mut algo.nodes, 1, 0);
        // Verify distinct addresses by mutating one side only.
        a.coreset_stale = true;
        assert!(a.coreset_stale);
        assert!(!b.coreset_stale, "mutating node a must not alias node b");
    }

    #[test]
    #[should_panic(expected = "cannot chat with itself")]
    fn self_chat_panics() {
        let mut algo = two_node_algo(small_config());
        let _ = two_nodes(&mut algo.nodes, 1, 1);
    }
}
