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
//! * [`PolicyShard`] — everything one gradient shard of a
//!   [`crate::BranchedPolicy`] minibatch needs: trunk and head scratches,
//!   feature rows, per-sample losses, and the shard's weighted partial
//!   parameter gradient.
//! * [`TrainScratch`] — the full arena: one [`PolicyShard`] per [`SHARD`]
//!   samples plus the reduced gradient, with [`TrainStats`] counters that
//!   back the `train.*` observability counters.
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
//! of [`SHARD`] consecutive samples, **independent of the worker count**.
//! Each shard accumulates its weighted partial gradient in sample order;
//! partials are then reduced in shard order on a single thread. Because the
//! shard structure is a function of `n` alone, running the shards serially
//! or on any number of workers produces bit-identical gradients
//! (`jobs=1 ≡ jobs=4`).

use crate::mlp::LANES;

/// Samples per gradient shard. Fixed (not derived from the worker count) so
/// the floating-point reduction tree — and therefore every trained bit — is
/// identical no matter how many threads process the shards.
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

/// The arena for one gradient shard of a policy minibatch: batch scratches
/// for the trunk and the (sequentially processed) branch heads, gathered
/// feature rows, per-sample bookkeeping, and the shard's weighted partial
/// parameter gradient. A forward-only loss pass
/// ([`crate::BranchedPolicy::losses_with`]) borrows one too and leaves the
/// gradient-side buffers alone.
#[derive(Debug, Clone, Default)]
pub struct PolicyShard {
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
    /// Samples in this shard for the current minibatch.
    pub(crate) len: usize,
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
            len: _,
        } = self;
        let floats = [feats, d_feats, weights, head_w, losses, grad];
        let indices = [branches, order, counts];
        trunk.heap_bytes()
            + head.heap_bytes()
            + floats.into_iter().map(vec_bytes).sum::<usize>()
            + indices.into_iter().map(vec_bytes).sum::<usize>()
    }
}

/// The full training arena: per-shard buffers, the reduced gradient, and
/// [`TrainStats`] counters. Also lends
/// [`crate::FrozenPolicy::forward_into`] the two activation rows a batch of
/// one ping-pongs between.
///
/// An arena belongs to whoever runs the step, not to a policy: nothing in
/// it outlives a call except capacity (and the counters, which the caller
/// drains), so policies of any shape may take turns in one arena and get
/// the bits a fresh arena would give. About `(shards + 1) × parameters`
/// floats once warm — 0.8 MB for the driving policy at batch 64 — which is
/// why the `driving` learner keeps one per thread instead of one each.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    pub(crate) shards: Vec<PolicyShard>,
    pub(crate) grad: Vec<f32>,
    pub(crate) stats: TrainStats,
    frozen: [Vec<f32>; 2],
}

impl TrainScratch {
    /// Creates an empty arena; everything is sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of gradient shards a batch of `n` samples splits into.
    pub fn shard_count(n: usize) -> usize {
        n.div_ceil(SHARD)
    }

    /// Ensures one arena per shard of an `n`-sample batch and returns them,
    /// ready for (possibly parallel) [`crate::BranchedPolicy::train_shard`]
    /// calls — shard `s` must process samples `[s * SHARD, s * SHARD + len)`.
    pub fn shards_mut(&mut self, n: usize) -> &mut [PolicyShard] {
        let k = Self::shard_count(n).max(1);
        if self.shards.len() < k {
            self.shards.resize_with(k, PolicyShard::default);
        }
        &mut self.shards[..k]
    }

    /// Two activation rows of at least `width` floats each.
    pub(crate) fn frozen_rows(&mut self, width: usize) -> (&mut [f32], &mut [f32]) {
        let [a, b] = &mut self.frozen;
        ensure(a, width);
        ensure(b, width);
        (a, b)
    }

    /// The reduced weighted-sum gradient of the last
    /// [`crate::BranchedPolicy::reduce_shards`] call, in parameter layout.
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
        let Self { shards, grad, stats: _, frozen } = self;
        vec_bytes(shards)
            + shards.iter().map(PolicyShard::heap_bytes).sum::<usize>()
            + vec_bytes(grad)
            + frozen.iter().map(vec_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_up() {
        assert_eq!(TrainScratch::shard_count(1), 1);
        assert_eq!(TrainScratch::shard_count(SHARD), 1);
        assert_eq!(TrainScratch::shard_count(SHARD + 1), 2);
        assert_eq!(TrainScratch::shard_count(4 * SHARD), 4);
    }

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
    fn shards_mut_reuses_arenas() {
        let mut s = TrainScratch::new();
        assert_eq!(s.shards_mut(40).len(), 3);
        let ptr = s.shards_mut(40).as_ptr();
        assert_eq!(s.shards_mut(16).len(), 1, "smaller batches reuse the prefix");
        assert_eq!(s.shards_mut(40).as_ptr(), ptr, "no reallocation on reuse");
    }

    #[test]
    fn heap_bytes_counts_every_level() {
        let mut s = TrainScratch::new();
        assert_eq!(s.heap_bytes(), 0, "an empty arena holds nothing");
        s.shards_mut(40);
        let shells = s.heap_bytes();
        assert!(shells >= 3 * std::mem::size_of::<PolicyShard>());
        s.shards_mut(40)[2].trunk.prepare(&[6, 4, 2], 16);
        let with_trunk = s.heap_bytes();
        assert!(with_trunk >= shells + 4 * (16 * 12 + 2 * 16 * 6));
        s.frozen_rows(32);
        assert!(s.heap_bytes() >= with_trunk + 2 * 32 * 4);
    }
}
