//! Reusable training arenas for the batched kernels.
//!
//! Per-sample training (`Mlp::forward` / `Mlp::backward` /
//! `BranchedPolicy::loss_and_grad`) allocates fresh activation and gradient
//! vectors on every call — fine for a unit test, ruinous for the local
//! training rounds that dominate every experiment's wall-clock. The types
//! here hold all of that state so a minibatch step performs **zero
//! allocations after warmup**:
//!
//! * [`MlpScratch`] — batched per-layer activations plus ping-pong delta
//!   buffers for one [`crate::Mlp`], laid out sample-major
//!   (`acts[l][b * width + j]`), and the feature-major copy of one
//!   [`crate::mlp::LANES`]-sample block that the forward kernel's register
//!   tile reads (lane = sample; see [`crate::Mlp::forward_batch`]).
//! * [`TrainScratch`] — the full arena: the buffers one gradient shard of a
//!   [`crate::BranchedPolicy`] minibatch needs (trunk and head scratches,
//!   feature rows, per-sample losses, the shard's weighted partial
//!   parameter gradient) plus the batch's summed gradient, with
//!   [`TrainStats`] counters that back the `train.*` observability counters.
//!
//! Every kernel writes a buffer before it reads it, so what an arena held
//! before a call never reaches a result: one arena serves any number of
//! policies in any order (the `driving` learner keeps one per thread), and
//! [`TrainScratch::heap_bytes`] stops moving once the largest batch shape
//! has been seen.
//!
//! ## Determinism contract
//!
//! A minibatch of `n` samples is always split into `ceil(n / SHARD)` shards
//! of [`SHARD`] consecutive samples. Each shard accumulates its weighted
//! partial gradient in sample order from `+0.0`, and the partials are added
//! into the sum in shard order, on the calling thread: the reduction tree —
//! and so every trained bit — is a function of `n` alone.

use crate::mlp::LANES;

/// Samples per gradient shard. Fixed, so the floating-point reduction tree —
/// and therefore every trained bit — depends on the batch alone.
pub const SHARD: usize = 16;

/// Training-kernel statistics, drained by
/// `Learner::take_train_stats` implementations and emitted by the runtime
/// as the `train.batch` / `train.samples` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainStats {
    /// Minibatch train steps executed.
    pub batches: u64,
    /// Samples consumed across those batches.
    pub samples: u64,
}

impl TrainStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: TrainStats) {
        self.batches += other.batches;
        self.samples += other.samples;
    }

    /// Returns the accumulated stats, resetting `self` to zero.
    pub fn take(&mut self) -> TrainStats {
        std::mem::take(self)
    }
}

/// Grows `buf` to at least `len` elements, zero-filling any new tail;
/// buffers never shrink.
pub(crate) fn ensure(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Heap bytes `buf` holds (its capacity, not its length).
fn vec_bytes<T>(buf: &Vec<T>) -> usize {
    buf.capacity() * std::mem::size_of::<T>()
}

/// Batched per-layer activation and delta buffers for one [`crate::Mlp`].
///
/// `acts[l]` holds the batch's activations of layer `l - 1` (`acts[0]` is
/// the staged input), sample-major: row `b` occupies
/// `[b * width, (b + 1) * width)`. The two delta buffers ping-pong through
/// the backward pass, layer by layer. `lanes` is the forward kernel's
/// feature-major staging of one sample block: `lanes[i][k]` is input feature
/// `i` of the block's `k`-th sample, rewritten for every block and layer;
/// `live` holds the runs of first-layer input columns the block reads.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    pub(crate) acts: Vec<Vec<f32>>,
    pub(crate) lanes: Vec<[f32; LANES]>,
    pub(crate) live: Vec<std::ops::Range<usize>>,
    pub(crate) delta: Vec<f32>,
    pub(crate) delta_lower: Vec<f32>,
}

impl MlpScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes every buffer for a batch of `n` samples of the given layer
    /// widths.
    pub(crate) fn prepare(&mut self, sizes: &[usize], n: usize) {
        if self.acts.len() < sizes.len() {
            self.acts.resize_with(sizes.len(), Vec::new);
        }
        for (buf, &w) in self.acts.iter_mut().zip(sizes) {
            ensure(buf, n * w);
        }
        let wmax = sizes.iter().copied().max().unwrap_or(0);
        if self.lanes.len() < wmax {
            self.lanes.resize(wmax, [0.0; LANES]);
        }
        // Runs of live first-layer columns are separated by a dead one.
        let max_runs = sizes[0].div_ceil(2).max(1);
        if self.live.len() < max_runs {
            self.live.resize(max_runs, 0..0);
        }
        ensure(&mut self.delta, n * wmax);
        ensure(&mut self.delta_lower, n * wmax);
    }

    /// Heap bytes this scratch holds. Destructured without `..`, so a new
    /// buffer cannot be left out of the count.
    fn heap_bytes(&self) -> usize {
        let Self { acts, lanes, live, delta, delta_lower } = self;
        vec_bytes(acts)
            + acts.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(lanes)
            + vec_bytes(live)
            + vec_bytes(delta)
            + vec_bytes(delta_lower)
    }
}

/// The buffers of one gradient shard of a policy minibatch: batch scratches
/// for the trunk and the (sequentially processed) branch heads, gathered
/// feature rows, per-sample bookkeeping, and the shard's weighted partial
/// parameter gradient. A forward-only loss pass
/// ([`crate::BranchedPolicy::losses_with`]) stages its blocks here too and
/// leaves the gradient-side buffers alone.
#[derive(Debug, Clone, Default)]
pub(crate) struct PolicyShard {
    pub(crate) trunk: MlpScratch,
    pub(crate) head: MlpScratch,
    /// Head-input rows (`len × (trunk_out + skip_inputs)`).
    pub(crate) feats: Vec<f32>,
    /// Per-sample head input gradients, scattered back from branch groups.
    pub(crate) d_feats: Vec<f32>,
    /// Per-sample weights, local order.
    pub(crate) weights: Vec<f32>,
    /// Weights gathered for the branch group currently in flight.
    pub(crate) head_w: Vec<f32>,
    /// Per-sample losses, local order.
    pub(crate) losses: Vec<f32>,
    /// Active branch per sample, local order.
    pub(crate) branches: Vec<usize>,
    /// Local sample indices grouped by branch (each group ascending).
    pub(crate) order: Vec<usize>,
    /// Samples per branch for the current minibatch.
    pub(crate) counts: Vec<usize>,
    /// This shard's weighted partial gradient (full parameter length; the
    /// trunk's first weight block input-major, see
    /// [`crate::Mlp::backward_batch`]).
    pub(crate) grad: Vec<f32>,
}

impl PolicyShard {
    /// Heap bytes this shard holds (see [`MlpScratch::heap_bytes`]).
    fn heap_bytes(&self) -> usize {
        let Self {
            trunk,
            head,
            feats,
            d_feats,
            weights,
            head_w,
            losses,
            branches,
            order,
            counts,
            grad,
        } = self;
        let floats = [feats, d_feats, weights, head_w, losses, grad];
        let indices = [branches, order, counts];
        trunk.heap_bytes()
            + head.heap_bytes()
            + floats.into_iter().map(vec_bytes).sum::<usize>()
            + indices.into_iter().map(vec_bytes).sum::<usize>()
    }
}

/// The full training arena: one shard's buffers, the summed gradient, and
/// [`TrainStats`] counters. Also lends
/// [`crate::FrozenPolicy::forward_into`] the two activation rows a batch of
/// one ping-pongs between.
///
/// An arena belongs to whoever runs the step, not to a policy: nothing in
/// it outlives a call except capacity (and the counters, which the caller
/// drains), so policies of any shape may take turns in one arena and get
/// the bits a fresh arena would give. About `2.5 × parameters` floats once
/// warm, at any batch size — 0.3 MB for the driving policy — which is why
/// the `driving` learner keeps one per thread instead of one each.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    pub(crate) shard: PolicyShard,
    pub(crate) grad: Vec<f32>,
    pub(crate) stats: TrainStats,
    frozen: [Vec<f32>; 2],
}

impl TrainScratch {
    /// Creates an empty arena; everything is sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Two activation rows of at least `width` floats each.
    pub(crate) fn frozen_rows(&mut self, width: usize) -> (&mut [f32], &mut [f32]) {
        let [a, b] = &mut self.frozen;
        ensure(a, width);
        ensure(b, width);
        (a, b)
    }

    /// The weighted-sum gradient of the last
    /// [`crate::BranchedPolicy::train_batch`] call, in parameter layout.
    pub fn grad(&self) -> &[f32] {
        &self.grad
    }

    /// Drains the accumulated statistics.
    pub fn take_stats(&mut self) -> TrainStats {
        self.stats.take()
    }

    /// Heap bytes the arena holds (capacities, not lengths). Buffers only
    /// grow, and only when a call needs more than any before it, so on a
    /// warm arena this does not move — which is what "a step does not
    /// allocate" means, stated so a test can check it.
    pub fn heap_bytes(&self) -> usize {
        let Self { shard, grad, stats: _, frozen } = self;
        shard.heap_bytes()
            + vec_bytes(grad)
            + frozen.iter().map(vec_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_grows_and_never_shrinks() {
        let mut v = Vec::new();
        ensure(&mut v, 8);
        assert_eq!(v, [0.0; 8]);
        ensure(&mut v, 64);
        ensure(&mut v, 16);
        assert_eq!(v.len(), 64, "buffers never shrink");
    }

    #[test]
    fn stats_merge_and_take() {
        let mut a = TrainStats { batches: 1, samples: 16 };
        a.merge(TrainStats { batches: 2, samples: 32 });
        assert_eq!(a, TrainStats { batches: 3, samples: 48 });
        assert_eq!(a.take(), TrainStats { batches: 3, samples: 48 });
        assert_eq!(a, TrainStats::default());
    }

    #[test]
    fn one_shard_serves_every_batch_size() {
        // A batch trains shard by shard through the arena's one shard, so
        // four shards and a ragged tail hold no more than one shard does.
        use crate::{BranchedPolicy, PolicySample, PolicySpec};
        use rand::SeedableRng;
        let spec =
            PolicySpec { input_dim: 6, trunk: vec![8], n_branches: 2, waypoints: 2, skip_inputs: 1 };
        let policy = BranchedPolicy::new(&spec, &mut rand::rngs::StdRng::seed_from_u64(3));
        let (input, target) = ([0.5f32; 6], [0.25f32; 4]);
        let sample = PolicySample { input: &input, branch: 1, target: &target, weight: 1.0 };
        let mut s = TrainScratch::new();
        policy.train_batch(&[sample; SHARD][..], &mut s);
        let one = s.heap_bytes();
        policy.train_batch(&[sample; 4 * SHARD + 3][..], &mut s);
        assert_eq!(s.heap_bytes(), one, "a longer batch reuses the one shard");
    }

    #[test]
    fn heap_bytes_counts_every_level() {
        let mut s = TrainScratch::new();
        assert_eq!(s.heap_bytes(), 0, "an empty arena holds nothing");
        s.shard.trunk.prepare(&[6, 4, 2], 16);
        let with_trunk = s.heap_bytes();
        assert!(with_trunk >= 4 * (16 * 12 + 2 * 16 * 6));
        ensure(&mut s.shard.grad, 40);
        let with_partial = s.heap_bytes();
        assert!(with_partial >= with_trunk + 4 * 40);
        ensure(&mut s.grad, 40);
        let with_sum = s.heap_bytes();
        assert!(with_sum >= with_partial + 4 * 40);
        s.frozen_rows(32);
        assert!(s.heap_bytes() >= with_sum + 2 * 32 * 4);
    }
}
