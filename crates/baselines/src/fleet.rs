//! The one [`CollabAlgorithm`] the four baselines share: a fleet of
//! plain-SGD [`Vehicle`]s — the vehicle LbChat trains on too — driven by a
//! [`Rule`], the exchange protocol that sets a method apart (§IV-B runs
//! them all "on the same runtime"); and the contact-fitted model swap the
//! two gossip rules (DP, DFL-DDS) share.

use lbchat::learner::mean_eval_loss;
use lbchat::node::Vehicle;
use lbchat::optimize::equal_compression_choice;
use lbchat::prelude::{CollabAlgorithm, FrameCtx, Learner, SessionCtx, SessionStep, TrainStats};
use lbchat::WeightedDataset;
use vnn::ParamVec;

/// What one baseline adds to the shared fleet: its name, its stated
/// matching priority and its exchanges. Every hook but the two constants
/// defaults to doing nothing.
pub trait Rule<L: Learner> {
    /// Display name (table headers).
    const NAME: &'static str;

    /// The matching priority the method states for every pair, without the
    /// contact estimate: `0.0` for gossip (pairs served in encounter
    /// order), `-inf` for infrastructure methods (never matched).
    const PRIORITY: f64;

    /// Runs the whole pairwise protocol between `ctx.i` and `ctx.j`;
    /// `false` declines the pairing. Default: decline.
    fn session(&mut self, _nodes: &mut [Vehicle<L>], _ctx: &mut SessionCtx<'_>) -> bool {
        false
    }

    /// Per-frame infrastructure exchanges (server rounds, RSUs).
    fn on_frame(&mut self, _nodes: &mut [Vehicle<L>], _ctx: &mut FrameCtx<'_>) {}

    /// Runs after each local SGD iteration of vehicle `v`.
    fn after_step(&self, _v: usize, _node: &mut Vehicle<L>) {}
}

/// A baseline method: the vehicles and the rule they exchange by.
pub struct Baseline<L: Learner, R> {
    pub(crate) nodes: Vec<Vehicle<L>>,
    pub(crate) rule: R,
}

impl<L: Learner, R: Rule<L>> Baseline<L, R> {
    /// Builds one [`Vehicle`] per learner–dataset pair, then the rule from
    /// the built fleet. Each vehicle holds out the last 10 % of its dataset
    /// (at most 200 samples) as its validation set, which DP weights by.
    ///
    /// # Panics
    /// Panics if `learners` and `datasets` lengths differ or are empty.
    pub(crate) fn with_rule(
        learners: Vec<L>,
        datasets: Vec<WeightedDataset<L::Sample>>,
        batch_size: usize,
        rule: impl FnOnce(&[Vehicle<L>]) -> R,
    ) -> Self {
        let nodes = Vehicle::fleet(learners, datasets, batch_size, |n| n - (n / 10).min(200));
        Self { rule: rule(&nodes), nodes }
    }
}

impl<L: Learner, R: Rule<L>> CollabAlgorithm for Baseline<L, R> {
    type Sample = L::Sample;
    type Session = ();

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
    ) -> TrainStats {
        let rule = &self.rule;
        self.nodes[node].train(iters, rng, |vehicle, _, _| rule.after_step(node, vehicle))
    }

    fn session_open(&mut self, ctx: &mut SessionCtx<'_>) -> Option<((), SessionStep)> {
        self.rule.session(&mut self.nodes, ctx).then_some(((), SessionStep::Done))
    }

    /// No shared routes: every pair gets the rule's one priority, so pairs
    /// open in encounter order and no contact is predicted for a pair that
    /// does not open.
    fn fixed_priority(&self) -> Option<f64> {
        Some(R::PRIORITY)
    }

    fn on_frame(&mut self, ctx: &mut FrameCtx<'_>) {
        self.rule.on_frame(&mut self.nodes, ctx);
    }

    fn mean_eval_loss(&self, eval: &[L::Sample]) -> f64 {
        mean_eval_loss(self.nodes.iter().map(|n| &n.learner), eval)
    }

    fn name(&self) -> &'static str {
        R::NAME
    }
}

/// Blends `peer` into `local` with weight `w` only on the peer's
/// transmitted support (non-zero components of the densified top-k model) —
/// the standard way sparsified models are applied.
pub(crate) fn merge_on_support(local: &ParamVec, peer: &ParamVec, w: f32) -> ParamVec {
    let data = local
        .as_slice()
        .iter()
        .zip(peer.as_slice())
        .map(|(l, p)| if *p == 0.0 { *l } else { (1.0 - w) * l + w * p })
        .collect();
    ParamVec::from_vec(data)
}

/// The session both gossip baselines run: each side sends its model once,
/// `i → j` then `j → i`, compressed at one contact-fitted ratio ("compute a
/// model compression ratio for each encounter to ensure the vehicle pair
/// can finish the model exchange within the contact duration", §IV-B).
/// Sizes the swap so both directions of a `model_bytes` model fit
/// `min(budget, contact)` at the session radio's bandwidth, moves and books
/// both legs with [`SessionCtx::send_model`], and returns what each side
/// received — `(i got from j, j got from i)`, each the sender's
/// top-k-compressed model if it arrived — or `None` when nothing fits, so
/// the caller declines the pairing.
pub(crate) fn fitted_swap<L: Learner>(
    vehicles: &[Vehicle<L>],
    model_bytes: usize,
    budget: f64,
    ctx: &mut SessionCtx<'_>,
) -> Option<(Option<ParamVec>, Option<ParamVec>)> {
    let contact = ctx.contact().duration;
    let psi = equal_compression_choice(model_bytes, ctx.bandwidth_bps(), budget, contact).psi_i;
    if psi <= 0.0 {
        return None;
    }
    // Sized to fit min(T_B, contact) at nominal bandwidth, but the pair
    // keeps transmitting while still in range — failures come from the
    // contact actually ending (or retransmission storms), not from an
    // artificial cutoff.
    let send = |sender: usize, ctx: &mut SessionCtx<'_>| {
        let deadline = (contact - ctx.elapsed()).max(0.0);
        ctx.send_model(vehicles[sender].learner.params(), model_bytes, psi, deadline)
    };
    let from_i = send(ctx.i, ctx);
    let from_j = send(ctx.j, ctx);
    Some((from_j, from_i))
}
