//! The command-branched driving policy.
//!
//! Mirrors the structure of the *Learning by Cheating* privileged agent the
//! paper trains: a shared trunk encodes the BEV features, and one output head
//! per high-level command ("follow", "left", "right", "straight") regresses
//! the next `waypoints` ego-frame waypoints. The loss is masked to the branch
//! of the frame's command, exactly like conditional imitation learning.

use crate::frozen::FrozenPolicy;
use crate::loss::{mean_loss, mean_loss_and_grad, mean_loss_and_grad_into};
use crate::mlp::{Mlp, MlpSpec};
use crate::param::ParamVec;
use crate::scratch::{ensure, PolicyShard, TrainScratch, SHARD};
use rand::Rng;

/// Samples per forward-only block of [`BranchedPolicy::losses_with`]: bounds
/// the scratch a loss pass over a whole dataset holds (a block's
/// activations stay cache-resident) while leaving every branch group a few
/// full lane blocks.
const LOSS_BLOCK: usize = 64;

/// One imitation-learning sample held as plain slices: the simplest
/// [`BatchSource`] is a slice of these.
///
/// Borrows its feature and target rows from the caller's dataset, so staging
/// a batch copies each row exactly once (into the scratch arena).
#[derive(Debug, Clone, Copy)]
pub struct PolicySample<'a> {
    /// Featurized BEV input (length `input_dim`).
    pub input: &'a [f32],
    /// Active command branch.
    pub branch: usize,
    /// Expert waypoints (length `head_dim`).
    pub target: &'a [f32],
    /// Sample weight (coreset weight; 1.0 for raw frames).
    pub weight: f32,
}

/// Random access to a minibatch for [`BranchedPolicy::train_batch`] and
/// [`BranchedPolicy::losses_with`].
///
/// A source writes each sample's input row into the staged batch itself,
/// once per pass, so a dataset may keep its inputs in any form it can
/// expand to `f32`s; the kernels read the skip-input tail back from that
/// staged row. The other accessors must be cheap (they are called a
/// handful of times per sample).
pub trait BatchSource {
    /// Number of samples in the batch.
    fn len(&self) -> usize;

    /// Whether the batch is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the `i`-th sample's input into `row`, which is `input_dim`
    /// long.
    fn input_into(&self, i: usize, row: &mut [f32]);

    /// The `i`-th sample's command branch.
    fn branch(&self, i: usize) -> usize;

    /// The `i`-th sample's expert waypoints (length `head_dim`).
    fn target(&self, i: usize) -> &[f32];

    /// The `i`-th sample's weight.
    fn weight(&self, i: usize) -> f32;
}

impl BatchSource for [PolicySample<'_>] {
    fn len(&self) -> usize {
        <[PolicySample<'_>]>::len(self)
    }

    fn input_into(&self, i: usize, row: &mut [f32]) {
        let input = self[i].input;
        assert_eq!(input.len(), row.len(), "input dimension mismatch");
        row.copy_from_slice(input);
    }

    fn branch(&self, i: usize) -> usize {
        self[i].branch
    }

    fn target(&self, i: usize) -> &[f32] {
        self[i].target
    }

    fn weight(&self, i: usize) -> f32 {
        self[i].weight
    }
}

/// Weighted sums over a full minibatch, produced by
/// [`BranchedPolicy::train_batch`]. The weighted mean loss of the batch is
/// `loss_sum / weight_sum`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOutcome {
    /// `Σ weight · per-sample mean loss`, accumulated in sample order.
    pub loss_sum: f32,
    /// `Σ weight`, accumulated in sample order.
    pub weight_sum: f32,
}

/// Architecture of a [`BranchedPolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicySpec {
    /// Dimensionality of the featurized BEV input (plus speed scalar).
    pub input_dim: usize,
    /// Hidden widths of the shared trunk.
    pub trunk: Vec<usize>,
    /// Number of command branches (4 for follow/left/right/straight).
    pub n_branches: usize,
    /// Waypoints each head predicts; the head output size is `2 * waypoints`.
    pub waypoints: usize,
    /// Number of *trailing* input features fed directly into every head as
    /// a skip connection (in addition to the trunk features). Scalar
    /// navigation inputs benefit from skipping the trunk bottleneck.
    pub skip_inputs: usize,
}

impl PolicySpec {
    /// Output size of one branch head.
    pub fn head_dim(&self) -> usize {
        2 * self.waypoints
    }
}

/// A trunk-plus-branches waypoint regressor over a single flat [`ParamVec`].
#[derive(Debug, Clone, PartialEq)]
pub struct BranchedPolicy {
    spec: PolicySpec,
    trunk: Mlp,
    heads: Vec<Mlp>,
    params: ParamVec,
}

impl BranchedPolicy {
    /// Builds and Xavier-initializes a policy.
    ///
    /// # Panics
    /// Panics if the spec has zero branches or zero waypoints.
    pub fn new<R: Rng + ?Sized>(spec: &PolicySpec, rng: &mut R) -> Self {
        assert!(spec.n_branches > 0, "policy needs at least one branch");
        assert!(spec.waypoints > 0, "policy must predict at least one waypoint");
        let mut trunk_sizes = Vec::with_capacity(spec.trunk.len() + 1);
        trunk_sizes.push(spec.input_dim);
        trunk_sizes.extend_from_slice(&spec.trunk);
        let trunk_out = spec.trunk.last().copied().unwrap_or(spec.input_dim);
        // The trunk ends linear, like every `Mlp`; each reader of its output
        // applies the ReLU that makes the heads' features nonlinear
        // (`forward_with`, `loss_and_grad`, `forward_trunk`, `FrozenPolicy`).
        assert!(
            spec.skip_inputs <= spec.input_dim,
            "skip inputs cannot exceed the input dimension"
        );
        let trunk_spec = MlpSpec::relu(trunk_sizes);
        let trunk = Mlp::new(trunk_spec.clone(), 0);
        let mut offset = trunk_spec.param_count();
        let mut heads = Vec::with_capacity(spec.n_branches);
        for _ in 0..spec.n_branches {
            // A hidden layer per head: command-conditional behaviors (e.g.
            // the bend-into-turn geometry) need more than a linear readout
            // of the shared trunk features. Skip inputs enter here directly.
            let head_spec =
                MlpSpec::relu(vec![trunk_out + spec.skip_inputs, 32, spec.head_dim()]);
            let head = Mlp::new(head_spec, offset);
            offset += head.param_count();
            heads.push(head);
        }
        let mut params = ParamVec::zeros(offset);
        trunk.init(&mut params, rng);
        for h in &heads {
            h.init(&mut params, rng);
        }
        Self { spec: spec.clone(), trunk, heads, params }
    }

    /// The architecture this policy was built with.
    pub fn spec(&self) -> &PolicySpec {
        &self.spec
    }

    /// Immutable access to the flat parameter vector.
    pub fn params(&self) -> &ParamVec {
        &self.params
    }

    /// Mutable access to the flat parameter vector (used by optimizers and by
    /// model aggregation).
    pub fn params_mut(&mut self) -> &mut ParamVec {
        &mut self.params
    }

    /// Replaces the parameters wholesale (e.g. with an aggregated model).
    ///
    /// # Panics
    /// Panics if `params` has the wrong length.
    pub fn set_params(&mut self, params: ParamVec) {
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        self.params = params;
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Predicts the waypoint vector `[x1, y1, x2, y2, ..]` for `input` under
    /// command branch `branch`.
    ///
    /// # Panics
    /// Panics if `branch >= n_branches` or the input dimension is wrong.
    pub fn forward(&self, input: &[f32], branch: usize) -> Vec<f32> {
        self.forward_with(&self.params, input, branch)
    }

    /// Like [`BranchedPolicy::forward`] but against an arbitrary parameter
    /// vector of the same layout — used to evaluate *compressed* copies of a
    /// model without rebuilding a policy.
    ///
    /// # Panics
    /// Panics if `branch` is out of range or `params` has the wrong length.
    pub fn forward_with(&self, params: &ParamVec, input: &[f32], branch: usize) -> Vec<f32> {
        assert!(branch < self.spec.n_branches, "branch out of range");
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        let trunk_out = self.trunk.forward(params, input);
        // Re-apply the hidden nonlinearity to the trunk output so head inputs
        // are nonlinear features (the trunk's last layer is linear by MLP
        // convention), then append the skip inputs verbatim.
        let mut feats: Vec<f32> =
            trunk_out.output().iter().map(|&v| v.max(0.0)).collect();
        feats.extend_from_slice(&input[input.len() - self.spec.skip_inputs..]);
        let head = &self.heads[branch];
        head.forward(params, &feats).output().to_vec()
    }

    /// Loss of the active branch against `target` under an arbitrary
    /// parameter vector of the same layout, without gradients.
    pub fn loss_with(
        &self,
        params: &ParamVec,
        input: &[f32],
        branch: usize,
        target: &[f32],
    ) -> f32 {
        let pred = self.forward_with(params, input, branch);
        mean_loss(&pred, target)
    }

    /// Loss and full parameter gradient for one sample. The gradient of the
    /// inactive branches is zero (their heads never saw the sample).
    pub fn loss_and_grad(&self, input: &[f32], branch: usize, target: &[f32]) -> (f32, Vec<f32>) {
        assert!(branch < self.spec.n_branches, "branch out of range");
        let mut grad = vec![0.0f32; self.params.len()];
        let trunk_cache = self.trunk.forward(&self.params, input);
        let mut feats: Vec<f32> =
            trunk_cache.output().iter().map(|&v| v.max(0.0)).collect();
        let n_trunk = feats.len();
        feats.extend_from_slice(&input[input.len() - self.spec.skip_inputs..]);
        let head = &self.heads[branch];
        let head_cache = head.forward(&self.params, &feats);
        let pred = head_cache.output();
        let (loss, d_pred) = mean_loss_and_grad(pred, target);
        let d_feats = head.backward(&self.params, &head_cache, &d_pred, &mut grad);
        // Backprop through the manual ReLU between trunk and head; the skip
        // tail flows to the (constant) input and is dropped.
        let d_trunk_out: Vec<f32> = d_feats[..n_trunk]
            .iter()
            .zip(trunk_cache.output())
            .map(|(d, &y)| if y > 0.0 { *d } else { 0.0 })
            .collect();
        self.trunk.backward(&self.params, &trunk_cache, &d_trunk_out, &mut grad);
        (loss, grad)
    }

    // ----- batched kernels -------------------------------------------------

    /// The forward half every batched pass shares: has `src` stage samples
    /// `[start, start + n)`, runs the trunk over them under `params`,
    /// builds the head-input rows (ReLU of the trunk output plus the skip
    /// tail of the staged input row, exactly as in the per-sample path)
    /// and groups the local sample indices by branch — stable, ascending
    /// within each group; `counts[br]` ends up holding the END offset of
    /// group `br` inside `order`.
    fn forward_trunk<S: BatchSource + ?Sized>(
        &self,
        params: &ParamVec,
        src: &S,
        start: usize,
        n: usize,
        shard: &mut PolicyShard,
    ) {
        let input_dim = self.spec.input_dim;
        let skip = self.spec.skip_inputs;
        let nb = self.spec.n_branches;
        if shard.branches.len() < n {
            shard.branches.resize(n, 0);
        }
        if shard.order.len() < n {
            shard.order.resize(n, 0);
        }
        if shard.counts.len() < nb {
            shard.counts.resize(nb, 0);
        }

        let staged = self.trunk.stage_batch(&mut shard.trunk, n);
        for k in 0..n {
            src.input_into(start + k, &mut staged[k * input_dim..(k + 1) * input_dim]);
            let branch = src.branch(start + k);
            assert!(branch < nb, "branch out of range");
            shard.branches[k] = branch;
        }
        self.trunk.forward_batch(params, &mut shard.trunk, n);

        let trunk_out_dim = self.trunk.spec().output_dim();
        let feat_dim = trunk_out_dim + skip;
        ensure(&mut shard.feats, n * feat_dim);
        let trunk_x = self.trunk.batch_inputs(&shard.trunk, n);
        let trunk_y = self.trunk.batch_outputs(&shard.trunk, n);
        for k in 0..n {
            let y = &trunk_y[k * trunk_out_dim..(k + 1) * trunk_out_dim];
            let frow = &mut shard.feats[k * feat_dim..(k + 1) * feat_dim];
            for (f, &v) in frow.iter_mut().zip(y) {
                *f = v.max(0.0);
            }
            frow[trunk_out_dim..]
                .copy_from_slice(&trunk_x[(k + 1) * input_dim - skip..(k + 1) * input_dim]);
        }

        // Counting sort of the local indices by branch.
        shard.counts[..nb].fill(0);
        for &br in &shard.branches[..n] {
            shard.counts[br] += 1;
        }
        let mut base = 0usize;
        for c in &mut shard.counts[..nb] {
            let cnt = *c;
            *c = base;
            base += cnt;
        }
        for k in 0..n {
            let br = shard.branches[k];
            shard.order[shard.counts[br]] = k;
            shard.counts[br] += 1;
        }
    }

    /// Gathers the head-input rows of `order[group]` (one branch group of
    /// the last [`Self::forward_trunk`]) and runs head `br` over them under
    /// `params`; row `local` of the head batch is sample `order[group][local]`.
    fn forward_head(
        &self,
        params: &ParamVec,
        br: usize,
        group: std::ops::Range<usize>,
        shard: &mut PolicyShard,
    ) {
        let head = &self.heads[br];
        let feat_dim = head.spec().input_dim();
        let m = group.len();
        let staged = head.stage_batch(&mut shard.head, m);
        for (row, &k) in staged.chunks_exact_mut(feat_dim).zip(&shard.order[group]) {
            row.copy_from_slice(&shard.feats[k * feat_dim..(k + 1) * feat_dim]);
        }
        head.forward_batch(params, &mut shard.head, m);
    }

    /// Per-sample losses of every sample of `src` under `params`, written
    /// to `out` in sample order — [`BranchedPolicy::loss_with`] for a whole
    /// batch in one forward-only pass through the batched kernels
    /// (sample weights are not read). Bit-identical to the per-sample
    /// calls for finite parameters and inputs: each prediction is the same
    /// chain of roundings (see [`Mlp::forward_batch`], which also says what
    /// a non-finite weight does) and each loss the same `mean_loss` over it.
    /// `scratch` is the caller's arena, so a loss pass over a warm one
    /// allocates nothing, and what it held before does not matter.
    ///
    /// # Panics
    /// Panics if `params` has the wrong length, a sample's input dimension
    /// is wrong, or a branch index is out of range.
    pub fn losses_with<S: BatchSource + ?Sized>(
        &self,
        params: &ParamVec,
        src: &S,
        out: &mut Vec<f32>,
        scratch: &mut TrainScratch,
    ) {
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        let shard = &mut scratch.shard;
        let head_dim = self.spec.head_dim();
        out.clear();
        out.resize(src.len(), 0.0);
        for start in (0..src.len()).step_by(LOSS_BLOCK) {
            let n = (src.len() - start).min(LOSS_BLOCK);
            self.forward_trunk(params, src, start, n, shard);
            let mut group_start = 0usize;
            for br in 0..self.spec.n_branches {
                let group_end = shard.counts[br];
                if group_end > group_start {
                    self.forward_head(params, br, group_start..group_end, shard);
                    let preds =
                        self.heads[br].batch_outputs(&shard.head, group_end - group_start);
                    for (pred, &k) in preds
                        .chunks_exact(head_dim)
                        .zip(&shard.order[group_start..group_end])
                    {
                        out[start + k] = mean_loss(pred, src.target(start + k));
                    }
                }
                group_start = group_end;
            }
        }
    }

    /// Trains one weighted minibatch: `ceil(n / SHARD)` shards of [`SHARD`]
    /// consecutive samples, each run through the batched kernels in the
    /// arena's one shard and its weighted partial gradient added into
    /// [`TrainScratch::grad`] straight away, in shard order. Returns the
    /// weighted loss/weight sums accumulated in sample order, leaves the
    /// summed gradient in parameter layout and updates the arena's
    /// [`crate::TrainStats`].
    ///
    /// The result is bit-identical to backpropagating each sample alone
    /// ([`BranchedPolicy::loss_and_grad`]), folding the weighted gradients
    /// of each shard in sample order into a zeroed partial and adding the
    /// partials in shard order, for finite parameters and inputs: see
    /// [`Mlp::backward_batch_d_input`] for the accumulation-order argument
    /// and [`Mlp::backward_batch`] for the trunk's skipped zero inputs.
    ///
    /// # Panics
    /// Panics if a sample's input/target dimension is wrong or a branch
    /// index is out of range.
    pub fn train_batch<S: BatchSource + ?Sized>(
        &self,
        src: &S,
        scratch: &mut TrainScratch,
    ) -> BatchOutcome {
        let n = src.len();
        let plen = self.params.len();
        let TrainScratch { shard, grad, stats, .. } = scratch;
        // Exactly parameter-length, from +0.0 — the arena may last have
        // served a larger policy.
        grad.clear();
        grad.resize(plen, 0.0);
        let mut loss_sum = 0.0f32;
        let mut weight_sum = 0.0f32;
        for start in (0..n).step_by(SHARD) {
            let len = self.train_shard(src, start, shard);
            for (g, p) in grad.iter_mut().zip(&shard.grad[..plen]) {
                *g += *p;
            }
            for (&l, &w) in shard.losses[..len].iter().zip(&shard.weights[..len]) {
                loss_sum += w * l;
                weight_sum += w;
            }
        }
        // Every shard's trunk pass left the first weight block input-major;
        // the sum above is layout-blind, so one conversion serves the step,
        // staged through the last partial, which is spent.
        if n > 0 {
            self.trunk.first_weights_to_param_layout(grad, &mut shard.grad);
        }
        stats.batches += 1;
        stats.samples += n as u64;
        BatchOutcome { loss_sum, weight_sum }
    }

    /// One gradient shard of [`BranchedPolicy::train_batch`]: samples
    /// `[start, start + SHARD)` of `src` (clamped to the batch length),
    /// leaving the shard's weighted partial gradient — the trunk's first
    /// weight block input-major — and per-sample losses in `shard`.
    /// Returns the shard's sample count.
    fn train_shard<S: BatchSource + ?Sized>(
        &self,
        src: &S,
        start: usize,
        shard: &mut PolicyShard,
    ) -> usize {
        let n = (src.len() - start).min(SHARD);
        let head_dim = self.spec.head_dim();
        let plen = self.params.len();

        self.forward_trunk(&self.params, src, start, n, shard);
        let trunk_out_dim = self.trunk.spec().output_dim();
        let feat_dim = trunk_out_dim + self.spec.skip_inputs;
        ensure(&mut shard.weights, n);
        ensure(&mut shard.losses, n);
        ensure(&mut shard.d_feats, n * feat_dim);
        for (k, w) in shard.weights[..n].iter_mut().enumerate() {
            *w = src.weight(start + k);
        }

        // This shard's weighted partial gradient accumulates from +0.0.
        ensure(&mut shard.grad, plen);
        shard.grad[..plen].fill(0.0);

        // One batched pass per populated command head.
        let mut group_start = 0usize;
        for br in 0..self.spec.n_branches {
            let group_end = shard.counts[br];
            let m = group_end - group_start;
            if m > 0 {
                let head = &self.heads[br];
                self.forward_head(&self.params, br, group_start..group_end, shard);
                ensure(&mut shard.head_w, m);
                let (preds, d_out) = head.batch_outputs_and_d_out(&mut shard.head, m);
                for (local, &k) in shard.order[group_start..group_end].iter().enumerate() {
                    let pred = &preds[local * head_dim..(local + 1) * head_dim];
                    let d = &mut d_out[local * head_dim..(local + 1) * head_dim];
                    shard.losses[k] = mean_loss_and_grad_into(pred, src.target(start + k), d);
                    shard.head_w[local] = shard.weights[k];
                }
                let d_in = head.backward_batch_d_input(
                    &self.params,
                    &mut shard.head,
                    m,
                    &shard.head_w[..m],
                    &mut shard.grad,
                );
                for (local, &k) in shard.order[group_start..group_end].iter().enumerate() {
                    shard.d_feats[k * feat_dim..(k + 1) * feat_dim]
                        .copy_from_slice(&d_in[local * feat_dim..(local + 1) * feat_dim]);
                }
            }
            group_start = group_end;
        }

        // Backprop through the manual ReLU between trunk and head — masked
        // on the RAW trunk output, as in the per-sample path — then through
        // the trunk for the whole shard: the data-input form, which leaves
        // the first weight block input-major for `train_batch` to convert.
        let (trunk_y, trunk_d) = self.trunk.batch_outputs_and_d_out(&mut shard.trunk, n);
        for k in 0..n {
            let y = &trunk_y[k * trunk_out_dim..(k + 1) * trunk_out_dim];
            let dfe = &shard.d_feats[k * feat_dim..k * feat_dim + trunk_out_dim];
            let drow = &mut trunk_d[k * trunk_out_dim..(k + 1) * trunk_out_dim];
            for ((dt, d), &yv) in drow.iter_mut().zip(dfe).zip(y) {
                *dt = if yv > 0.0 { *d } else { 0.0 };
            }
        }
        self.trunk.backward_batch(
            &self.params,
            &mut shard.trunk,
            n,
            &shard.weights[..n],
            &mut shard.grad,
        );

        n
    }

    /// Snapshots the current parameters into the input-major form that
    /// answers one sample at a time ([`FrozenPolicy::forward_into`]) — what
    /// closed-loop rollouts ask every control tick. The snapshot is a copy:
    /// freeze again after the parameters change.
    pub fn freeze(&self) -> FrozenPolicy {
        FrozenPolicy::new(&self.spec, &self.trunk, &self.heads, self.params.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgd::Sgd;
    use rand::SeedableRng;

    fn spec() -> PolicySpec {
        PolicySpec { input_dim: 6, trunk: vec![12, 8], n_branches: 4, waypoints: 3, skip_inputs: 1 }
    }

    #[test]
    fn construction_and_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = BranchedPolicy::new(&spec(), &mut rng);
        let out = p.forward(&[0.0; 6], 0);
        assert_eq!(out.len(), 6); // 3 waypoints * 2
    }

    #[test]
    fn same_seed_same_params() {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        let a = BranchedPolicy::new(&spec(), &mut r1);
        let b = BranchedPolicy::new(&spec(), &mut r2);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn branches_are_independent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let p = BranchedPolicy::new(&spec(), &mut rng);
        let x = [0.4f32, -0.1, 0.8, 0.2, -0.6, 0.3];
        let o0 = p.forward(&x, 0);
        let o1 = p.forward(&x, 1);
        assert_ne!(o0, o1, "different heads should predict differently");
    }

    #[test]
    fn inactive_branch_gets_no_gradient() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let p = BranchedPolicy::new(&spec(), &mut rng);
        let x = [0.4f32, -0.1, 0.8, 0.2, -0.6, 0.3];
        let t = vec![0.5f32; 6];
        let (_, grad) = p.loss_and_grad(&x, 2, &t);
        // Head 0 occupies the segment right after the trunk.
        let trunk_params = p.trunk.param_count();
        let head_params = p.heads[0].param_count();
        let head0 = &grad[trunk_params..trunk_params + head_params];
        assert!(head0.iter().all(|&g| g == 0.0), "inactive head must have zero grad");
        let head2_off = trunk_params + 2 * head_params;
        let head2 = &grad[head2_off..head2_off + head_params];
        assert!(head2.iter().any(|&g| g != 0.0), "active head must receive grad");
    }

    #[test]
    fn policy_grad_matches_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut p = BranchedPolicy::new(&spec(), &mut rng);
        let x = [0.4f32, -0.1, 0.8, 0.2, -0.6, 0.3];
        // Targets far above every prediction: no residual sits at the L1
        // kink, so the loss is smooth in every parameter's neighbourhood.
        let t = vec![25.0f32; 6];
        let (_, grad) = p.loss_and_grad(&x, 1, &t);
        let eps = 1e-3f32;
        for i in (0..p.param_count()).step_by(17) {
            let orig = p.params().as_slice()[i];
            p.params_mut().as_mut_slice()[i] = orig + eps;
            let up = p.loss_with(p.params(), &x, 1, &t);
            p.params_mut().as_mut_slice()[i] = orig - eps;
            let dn = p.loss_with(p.params(), &x, 1, &t);
            p.params_mut().as_mut_slice()[i] = orig;
            let fd = (up - dn) / (2.0 * eps);
            assert!((fd - grad[i]).abs() < 2e-2, "param {i}: {fd} vs {}", grad[i]);
        }
    }

    #[test]
    fn sgd_reduces_loss_on_fixed_sample() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut p = BranchedPolicy::new(&spec(), &mut rng);
        let mut opt = Sgd::new(5e-3, 0.9, 0.0);
        let x = [0.4f32, -0.1, 0.8, 0.2, -0.6, 0.3];
        let t = vec![0.7f32; 6];
        let initial = p.loss_with(p.params(), &x, 3, &t);
        for _ in 0..300 {
            let (_, g) = p.loss_and_grad(&x, 3, &t);
            opt.step(p.params_mut().as_mut_slice(), &g);
        }
        let final_loss = p.loss_with(p.params(), &x, 3, &t);
        assert!(final_loss < initial * 0.3, "{final_loss} vs initial {initial}");
    }

    #[test]
    fn forward_with_respects_given_params() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let p = BranchedPolicy::new(&spec(), &mut rng);
        let zero = ParamVec::zeros(p.param_count());
        let out = p.forward_with(&zero, &[1.0; 6], 0);
        assert!(out.iter().all(|&y| y == 0.0));
    }

    #[test]
    #[should_panic(expected = "branch out of range")]
    fn branch_out_of_range_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let p = BranchedPolicy::new(&spec(), &mut rng);
        p.forward(&[0.0; 6], 4);
    }
}
