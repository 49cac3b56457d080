//! The one [`CollabAlgorithm`] the four baselines share: a fleet of
//! plain-SGD [`BaseNode`]s driven by a [`Rule`], the exchange protocol
//! that sets a method apart (§IV-B runs them all "on the same runtime").

use crate::node::BaseNode;
use lbchat::learner::mean_eval_loss;
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
    fn session(&mut self, _nodes: &mut [BaseNode<L>], _ctx: &mut SessionCtx<'_>) -> bool {
        false
    }

    /// Per-frame infrastructure exchanges (server rounds, RSUs).
    fn on_frame(&mut self, _nodes: &mut [BaseNode<L>], _ctx: &mut FrameCtx<'_>) {}

    /// Runs after each local SGD iteration of vehicle `v`.
    fn after_step(&self, _v: usize, _node: &mut BaseNode<L>) {}
}

/// A baseline method: the vehicles and the rule they exchange by.
pub struct Baseline<L: Learner, R> {
    pub(crate) nodes: Vec<BaseNode<L>>,
    pub(crate) rule: R,
}

impl<L: Learner, R: Rule<L>> Baseline<L, R> {
    /// Builds one [`BaseNode`] per learner–dataset pair, then the rule from
    /// the built fleet.
    ///
    /// # Panics
    /// Panics if `learners` and `datasets` lengths differ or are empty.
    pub(crate) fn with_rule(
        learners: Vec<L>,
        datasets: Vec<WeightedDataset<L::Sample>>,
        batch_size: usize,
        rule: impl FnOnce(&[BaseNode<L>]) -> R,
    ) -> Self {
        assert_eq!(learners.len(), datasets.len(), "one dataset per learner");
        assert!(!learners.is_empty(), "need at least one vehicle");
        let nodes: Vec<_> = learners
            .into_iter()
            .zip(datasets)
            .map(|(l, d)| BaseNode::new(l, d, batch_size))
            .collect();
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
        let n = &mut self.nodes[node];
        for _ in 0..iters {
            n.local_iteration(rng);
            self.rule.after_step(node, n);
        }
        n.learner.take_train_stats()
    }

    fn session_open(&mut self, ctx: &mut SessionCtx<'_>) -> Option<((), SessionStep)> {
        self.rule.session(&mut self.nodes, ctx).then_some(((), SessionStep::Done))
    }

    /// No shared routes: no contact is predicted for a pair that does not
    /// open.
    fn static_priority(&self, _i: usize, _j: usize) -> Option<f64> {
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
