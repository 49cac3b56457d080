//! Shared plain-SGD vehicle node for the model-sharing-only baselines, and
//! `fitted_swap`, the contact-fitted model swap the two gossip baselines
//! (DP, DFL-DDS) run on every encounter: one straight-line function that
//! moves both legs with `SessionCtx::run_spec` inside their `Rule::session`.

use lbchat::compress::{compress_dense, wire_bytes};
use lbchat::learner::mean_loss;
use lbchat::optimize::equal_compression_choice;
use lbchat::prelude::{Learner, SessionCtx, TransferSpec};
use lbchat::WeightedDataset;
use rand::Rng;
use vnn::{Minibatcher, ParamVec};

/// One vehicle in a baseline method: a learner and its fixed local dataset
/// (baselines never absorb peer data — they exchange models only).
pub struct BaseNode<L: Learner> {
    /// The local learner.
    pub learner: L,
    dataset: WeightedDataset<L::Sample>,
    batcher: Minibatcher,
    /// Held-out tail of the local data used as a validation set by methods
    /// that weight by validation loss (DP).
    validation_from: usize,
}

impl<L: Learner> BaseNode<L> {
    /// Creates a node; the last 10 % of the dataset (at most 200 samples)
    /// is held out as the local validation set.
    pub fn new(learner: L, dataset: WeightedDataset<L::Sample>, batch_size: usize) -> Self {
        let n = dataset.len();
        let validation_from = n - (n / 10).min(200); // last 10 %, capped
        let batcher = Minibatcher::new(validation_from, batch_size);
        Self { learner, dataset, batcher, validation_from }
    }

    /// The local dataset (training + validation).
    pub fn dataset(&self) -> &WeightedDataset<L::Sample> {
        &self.dataset
    }

    /// One minibatch SGD iteration on the training split.
    pub fn local_iteration<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f32 {
        let idx = self.batcher.next_batch(rng);
        if idx.is_empty() {
            return 0.0;
        }
        let batch: Vec<(&L::Sample, f32)> = idx
            .iter()
            .map(|&i| (self.dataset.sample(i), self.dataset.weight(i)))
            .collect();
        self.learner.train_step(&batch)
    }

    /// Mean loss of an arbitrary parameter vector on the validation split.
    pub fn validation_loss(&self, params: &ParamVec) -> f32 {
        let held_out: Vec<&L::Sample> =
            self.dataset.samples()[self.validation_from..].iter().collect();
        mean_loss(&self.learner, params, &held_out) as f32
    }

    /// Adopts [`merge_on_support`]`(own, peer, w)` as the node's model and
    /// resets the optimizer state.
    pub(crate) fn merge_peer(&mut self, peer: &ParamVec, w: f32) {
        let merged = merge_on_support(self.learner.params(), peer, w);
        self.learner.set_params(merged);
        self.learner.on_params_replaced();
    }
}

/// Blends `peer` into `local` with weight `w` only on the peer's
/// transmitted support (non-zero components of the densified top-k model) —
/// the standard way sparsified models are applied.
fn merge_on_support(local: &ParamVec, peer: &ParamVec, w: f32) -> ParamVec {
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
/// both legs, and returns what each side received — `(i got from j, j got
/// from i)`, each the sender's top-k-compressed model if it arrived — or
/// `None` when nothing fits, so the caller declines the pairing.
pub(crate) fn fitted_swap<L: Learner>(
    nodes: &[BaseNode<L>],
    model_bytes: usize,
    budget: f64,
    ctx: &mut SessionCtx<'_>,
) -> Option<(Option<ParamVec>, Option<ParamVec>)> {
    let contact = ctx.contact().duration;
    let psi = equal_compression_choice(model_bytes, ctx.bandwidth_bps(), budget, contact).psi_i;
    if psi <= 0.0 {
        return None;
    }
    let bytes = wire_bytes(model_bytes, psi);
    let send = |sender: usize, deadline: f64, ctx: &mut SessionCtx<'_>| {
        let out = ctx.run_spec(&TransferSpec::link(bytes, deadline));
        ctx.metrics.record_model_send(out.is_delivered(), bytes, out.elapsed());
        out.is_delivered().then(|| compress_dense(nodes[sender].learner.params(), psi))
    };
    // Sized to fit min(T_B, contact) at nominal bandwidth, but the pair
    // keeps transmitting while still in range — failures come from the
    // contact actually ending (or retransmission storms), not from an
    // artificial cutoff.
    let limit = budget.min(contact);
    let deadline = (contact - ctx.elapsed()).max(limit - ctx.elapsed()).max(0.0);
    let from_i = send(ctx.i, deadline, ctx);
    let from_j = send(ctx.j, (contact - ctx.elapsed()).max(0.0), ctx);
    Some((from_j, from_i))
}

#[cfg(test)]
pub(crate) mod testutil {
    //! The same analytic line-fitting learner the core crate tests with.

    use lbchat::Learner;
    use vnn::ParamVec;

    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Pt {
        pub x: f32,
        pub y: f32,
    }

    #[derive(Debug, Clone)]
    pub struct LineLearner {
        pub params: ParamVec,
        pub lr: f32,
    }

    impl LineLearner {
        pub fn new() -> Self {
            Self { params: ParamVec::from_vec(vec![0.0, 0.0]), lr: 0.05 }
        }
    }

    impl Learner for LineLearner {
        type Sample = Pt;
        fn params(&self) -> &ParamVec {
            &self.params
        }
        fn set_params(&mut self, params: ParamVec) {
            assert_eq!(params.len(), 2);
            self.params = params;
        }
        fn loss_with(&self, p: &ParamVec, s: &Pt) -> f32 {
            let w = p.as_slice();
            let r = w[0] * s.x + w[1] - s.y;
            r * r
        }
        fn train_step(&mut self, batch: &[(&Pt, f32)]) -> f32 {
            if batch.is_empty() {
                return 0.0;
            }
            let w = self.params.as_slice();
            let (mut ga, mut gb, mut loss, mut wsum) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (s, wt) in batch {
                let r = w[0] * s.x + w[1] - s.y;
                ga += wt * 2.0 * r * s.x;
                gb += wt * 2.0 * r;
                loss += wt * r * r;
                wsum += wt;
            }
            let inv = 1.0 / wsum;
            let p = self.params.as_mut_slice();
            p[0] -= self.lr * ga * inv;
            p[1] -= self.lr * gb * inv;
            loss * inv
        }
        fn group_of(&self, _s: &Pt) -> usize {
            0
        }
        fn n_groups(&self) -> usize {
            1
        }
    }

    pub fn line_data(a: f32, b: f32, n: usize) -> Vec<Pt> {
        (0..n)
            .map(|i| {
                let x = (i as f32 / n as f32) * 4.0 - 2.0;
                Pt { x, y: a * x + b }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn node_trains() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let data = WeightedDataset::uniform(line_data(2.0, 1.0, 300));
        let mut node = BaseNode::new(LineLearner::new(), data, 32);
        let first = node.local_iteration(&mut rng);
        for _ in 0..300 {
            node.local_iteration(&mut rng);
        }
        let last = node.local_iteration(&mut rng);
        assert!(last < first * 0.1, "{first} -> {last}");
    }

    #[test]
    fn validation_loss_uses_holdout() {
        let data = WeightedDataset::uniform(line_data(1.0, 0.0, 100));
        let node = BaseNode::new(LineLearner::new(), data, 32);
        // Zero model on y = x: squared error averaged over held-out xs.
        let v = node.validation_loss(&vnn::ParamVec::from_vec(vec![0.0, 0.0]));
        assert!(v > 0.0);
        // The true model has zero loss.
        let v2 = node.validation_loss(&vnn::ParamVec::from_vec(vec![1.0, 0.0]));
        assert!(v2 < 1e-9);
    }

    #[test]
    fn mean_eval_loss_averages() {
        let data = WeightedDataset::uniform(line_data(1.0, 0.0, 50));
        let nodes = [
            BaseNode::new(LineLearner::new(), data.clone(), 16),
            BaseNode::new(LineLearner::new(), data, 16),
        ];
        let eval = line_data(1.0, 0.0, 10);
        let m = lbchat::learner::mean_eval_loss(nodes.iter().map(|n| &n.learner), &eval);
        assert!(m > 0.0);
    }
}
