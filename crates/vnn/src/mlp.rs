//! Dense multi-layer perceptrons with manual backpropagation.
//!
//! The weights of an [`Mlp`] live inside a caller-owned [`ParamVec`] segment,
//! so a model composed of several sub-networks (e.g. the branched policy)
//! still exposes a single flat parameter vector to the compression and
//! aggregation code above.

use crate::param::ParamVec;
use crate::scratch::MlpScratch;
use rand::Rng;

/// Samples per lane block of the batched forward pass: a block is transposed
/// feature-major so one `[f32; LANES]` holds the same input feature of
/// `LANES` consecutive samples, and every accumulator lane is one sample.
pub const LANES: usize = 8;

/// Bit pattern of `-0.0f32`: the sign bit alone.
pub(crate) const NEG_ZERO_BITS: u32 = 0x8000_0000;

/// Output units per register tile: `J_TILE` units × [`LANES`] samples of
/// accumulators stay in registers across the whole input dimension.
const J_TILE: usize = 4;

/// Collects into `runs` the maximal runs of live columns of `xt` — a column
/// is dead when every lane is `±0.0` — and returns how many there are.
fn live_runs(xt: &[[f32; LANES]], runs: &mut [std::ops::Range<usize>]) -> usize {
    let mut n = 0;
    for (i, col) in xt.iter().enumerate() {
        if col.iter().fold(0, |any, x| any | x.to_bits()) & !NEG_ZERO_BITS == 0 {
            continue;
        }
        if n > 0 && runs[n - 1].end == i {
            runs[n - 1].end = i + 1;
        } else {
            runs[n] = i..i + 1;
            n += 1;
        }
    }
    n
}

/// `acc[lane] += x[lane] * w` — one multiply, then one add per lane (no
/// fused multiply-add), exactly the per-sample kernel's `acc += xi * wji`.
/// Fixed-size arrays so the loop compiles to packed multiplies and adds.
#[inline(always)]
fn axpy(acc: &mut [f32; LANES], x: &[f32; LANES], w: f32) {
    for (a, xv) in acc.iter_mut().zip(x) {
        *a += xv * w;
    }
}

/// The activation a layer applies: ReLU after every hidden layer, none
/// after the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// No nonlinearity (the output layer).
    Identity,
}

impl Activation {
    pub(crate) fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`.
    pub(crate) fn grad_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

/// Architecture of an MLP: its layer widths.
///
/// `sizes = [in, h1, .., out]` describes `sizes.len() - 1` dense layers; the
/// hidden layers apply ReLU, the final layer is linear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    /// Layer widths, input first, output last. Must have at least 2 entries.
    pub sizes: Vec<usize>,
}

impl MlpSpec {
    /// Creates a spec with ReLU hidden layers and a linear last layer.
    pub fn relu(sizes: Vec<usize>) -> Self {
        Self { sizes }
    }

    /// Total number of parameters (weights + biases) the spec requires.
    pub fn param_count(&self) -> usize {
        self.sizes.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// Input dimensionality.
    #[expect(
        clippy::expect_used,
        reason = "documented contract — a spec with no layers is a construction bug, caught by Mlp::new's assert"
    )]
    pub fn input_dim(&self) -> usize {
        *self.sizes.first().expect("spec must have layers")
    }

    /// Output dimensionality.
    #[expect(
        clippy::expect_used,
        reason = "documented contract — a spec with no layers is a construction bug, caught by Mlp::new's assert"
    )]
    pub fn output_dim(&self) -> usize {
        *self.sizes.last().expect("spec must have layers")
    }
}

/// A dense MLP whose parameters occupy `[offset, offset + param_count)` of a
/// shared flat parameter vector.
///
/// The struct itself stores only the architecture and the offset; weights are
/// read from / written to the `ParamVec` passed to each call. This keeps the
/// single-flat-vector invariant that the decentralized-learning layer relies
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mlp {
    spec: MlpSpec,
    offset: usize,
}

/// Forward-pass activations cached for backpropagation.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `acts[0]` is the input; `acts[l]` the output of layer `l - 1`.
    acts: Vec<Vec<f32>>,
}

impl Cache {
    /// Network output (activation of the final layer).
    #[expect(
        clippy::expect_used,
        reason = "forward() seeds acts with the input before any layer runs, so the cache is never empty"
    )]
    pub fn output(&self) -> &[f32] {
        self.acts.last().expect("cache holds at least the input")
    }
}

impl Mlp {
    /// Creates an MLP occupying parameters starting at `offset`.
    ///
    /// # Panics
    /// Panics if the spec has fewer than two layer sizes.
    pub fn new(spec: MlpSpec, offset: usize) -> Self {
        assert!(spec.sizes.len() >= 2, "an MLP needs input and output sizes");
        Self { spec, offset }
    }

    /// Architecture of this network.
    pub fn spec(&self) -> &MlpSpec {
        &self.spec
    }

    /// Offset of this network's parameters inside the shared vector.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of parameters this network owns.
    pub fn param_count(&self) -> usize {
        self.spec.param_count()
    }

    /// Xavier-initializes this network's segment of `params`.
    pub fn init<R: Rng + ?Sized>(&self, params: &mut ParamVec, rng: &mut R) {
        let mut off = self.offset;
        for w in self.spec.sizes.windows(2) {
            params.xavier_dense(off, w[0], w[1], rng);
            off += w[0] * w[1] + w[1];
        }
    }

    /// Runs the forward pass, returning the cache needed for [`Mlp::backward`].
    ///
    /// # Panics
    /// Panics if `input` length differs from the spec's input size.
    pub fn forward(&self, params: &ParamVec, input: &[f32]) -> Cache {
        assert_eq!(input.len(), self.spec.input_dim(), "input dimension mismatch");
        let p = params.as_slice();
        let n_layers = self.spec.sizes.len() - 1;
        let mut acts = Vec::with_capacity(n_layers + 1);
        acts.push(input.to_vec());
        let mut off = self.offset;
        for (l, w) in self.spec.sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            let weights = &p[off..off + fan_in * fan_out];
            let biases = &p[off + fan_in * fan_out..off + fan_in * fan_out + fan_out];
            #[expect(
                clippy::expect_used,
                reason = "acts starts with the input pushed just above the loop"
            )]
            let x = acts.last().expect("at least input present");
            let act = self.layer_activation(l);
            let mut y = vec![0.0f32; fan_out];
            for (j, yj) in y.iter_mut().enumerate() {
                // weights stored row-major: weight[j * fan_in + i] connects
                // input i to output j.
                let row = &weights[j * fan_in..(j + 1) * fan_in];
                let mut acc = biases[j];
                for (xi, wji) in x.iter().zip(row) {
                    acc += xi * wji;
                }
                *yj = act.apply(acc);
            }
            acts.push(y);
            off += fan_in * fan_out + fan_out;
        }
        Cache { acts }
    }

    /// Backpropagates `d_out` (gradient of the loss w.r.t. the network
    /// output) through the cached forward pass, accumulating parameter
    /// gradients into `grad` (same layout as the parameter vector) and
    /// returning the gradient w.r.t. the input.
    ///
    /// # Panics
    /// Panics if `d_out` length differs from the output size or `grad` is
    /// shorter than the parameter vector.
    pub fn backward(
        &self,
        params: &ParamVec,
        cache: &Cache,
        d_out: &[f32],
        grad: &mut [f32],
    ) -> Vec<f32> {
        assert_eq!(d_out.len(), self.spec.output_dim(), "output gradient dimension mismatch");
        assert!(grad.len() >= self.offset + self.param_count(), "gradient buffer too short");
        let p = params.as_slice();
        let n_layers = self.spec.sizes.len() - 1;

        // Precompute the parameter offset of each layer.
        let mut offsets = Vec::with_capacity(n_layers);
        let mut off = self.offset;
        for w in self.spec.sizes.windows(2) {
            offsets.push(off);
            off += w[0] * w[1] + w[1];
        }

        let mut delta = d_out.to_vec();
        for l in (0..n_layers).rev() {
            let fan_in = self.spec.sizes[l];
            let fan_out = self.spec.sizes[l + 1];
            let act = self.layer_activation(l);
            let y = &cache.acts[l + 1];
            let x = &cache.acts[l];
            // delta through the activation
            for (d, yj) in delta.iter_mut().zip(y) {
                *d *= act.grad_from_output(*yj);
            }
            let w_off = offsets[l];
            let b_off = w_off + fan_in * fan_out;
            // parameter gradients
            for j in 0..fan_out {
                let dj = delta[j];
                let row = &mut grad[w_off + j * fan_in..w_off + (j + 1) * fan_in];
                for (g, xi) in row.iter_mut().zip(x) {
                    *g += dj * xi;
                }
                grad[b_off + j] += dj;
            }
            // gradient w.r.t. the layer input (at l == 0, the network's)
            let weights = &p[w_off..b_off];
            let mut d_in = vec![0.0f32; fan_in];
            for (j, dj) in delta.iter().enumerate() {
                let row = &weights[j * fan_in..(j + 1) * fan_in];
                for (di, wji) in d_in.iter_mut().zip(row) {
                    *di += dj * wji;
                }
            }
            delta = d_in;
        }
        delta
    }

    // ----- batched kernels -------------------------------------------------
    //
    // The methods below run a whole minibatch through the network using
    // caller-owned [`MlpScratch`] buffers: zero allocation after warmup, and
    // bit-identical outputs/gradients to the per-sample kernels above, which
    // the property tests use as the oracle. Identity holds because every
    // per-dot-product order (bias first, then ascending input index) and
    // every per-element accumulation order (ascending sample index,
    // ascending output-unit index) matches the per-sample kernels; batching
    // only reorders work *between* independent accumulators.

    /// The activation applied by layer `l`: ReLU everywhere except the
    /// final, linear layer.
    fn layer_activation(&self, l: usize) -> Activation {
        if l + 1 == self.spec.sizes.len() - 1 {
            Activation::Identity
        } else {
            Activation::Relu
        }
    }

    /// Sizes `scratch` for a batch of `n` samples and returns the input
    /// buffer — `n` sample-major rows of `input_dim` floats — for the caller
    /// to fill before [`Mlp::forward_batch`].
    pub fn stage_batch<'s>(&self, scratch: &'s mut MlpScratch, n: usize) -> &'s mut [f32] {
        scratch.prepare(&self.spec.sizes, n);
        &mut scratch.acts[0][..n * self.spec.input_dim()]
    }

    /// Runs the forward pass over the `n` staged input rows, leaving every
    /// layer's activations in `scratch` (read the last with
    /// [`Mlp::batch_outputs`]).
    ///
    /// Samples are processed in blocks of [`LANES`]: a block's inputs are
    /// transposed feature-major, and a register tile of `J_TILE` output
    /// units × `LANES` samples is carried across the input dimension with
    /// `acc_j[lane] += x[lane] * w_j`. A lane never mixes with another
    /// lane, and within its lane every output unit is the same bias-first,
    /// ascending-input-index chain of separately rounded multiplies and
    /// adds as [`Mlp::forward`], while the compiler emits packed
    /// arithmetic across the lanes. A block of one sample — the ragged
    /// tail of a training batch; a model that answers one sample at a time
    /// is frozen instead, see [`crate::FrozenPolicy`] — keeps the
    /// per-sample dot product: a tile with one live lane costs as much as
    /// a block of three, which is more than one scalar pass but less than
    /// two.
    ///
    /// In the first layer — the one that reads the data — the tile visits
    /// only the input columns that are non-zero in at least one lane of the
    /// block (dense input keeps every column; the driving BEV, a sparse
    /// binary occupancy tensor, keeps about a third).
    /// A skipped term is `±0.0 · w = ±0.0` for finite `w`, and adding
    /// `±0.0` changes no accumulator except `-0.0 + +0.0`. An accumulator
    /// can only be `-0.0` if it started there — a sum is `-0.0` only when
    /// both addends are — so a layer with a `-0.0` bias (compared by bits)
    /// keeps every column, and everywhere else the skip is exact. Hence
    /// the contract: **bit-identical to `n` calls of [`Mlp::forward`] for
    /// finite parameters and inputs**. A NaN or infinite weight still
    /// poisons every sample of a block in which some sample reads its
    /// column, but not a block whose samples are all zero there (where
    /// [`Mlp::forward`] computes `0 · NaN`): code that must detect a
    /// poisoned model inspects the parameters, not the outputs.
    /// Activations stay sample-major, as the backward passes read them.
    ///
    /// # Panics
    /// Panics if the batch was not staged via [`Mlp::stage_batch`].
    pub fn forward_batch(&self, params: &ParamVec, scratch: &mut MlpScratch, n: usize) {
        let sizes = &self.spec.sizes;
        assert!(
            scratch.acts.len() >= sizes.len()
                && scratch.acts[0].len() >= n * self.spec.input_dim(),
            "batch not staged"
        );
        let p = params.as_slice();
        let n_layers = sizes.len() - 1;
        let mut off = self.offset;
        for l in 0..n_layers {
            let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
            let weights = &p[off..off + fan_in * fan_out];
            let biases = &p[off + fan_in * fan_out..off + fan_in * fan_out + fan_out];
            let act = self.layer_activation(l);
            let (lo, hi) = scratch.acts.split_at_mut(l + 1);
            let xs = &lo[l][..n * fan_in];
            let ys = &mut hi[0][..n * fan_out];
            let xt = &mut scratch.lanes[..fan_in];
            let live = &mut scratch.live[..];
            // Only the layer that reads the data looks for dead columns: a
            // hidden layer's inputs are activations, zero element by element
            // but hardly ever down a whole block column, so the scan would
            // be paid for nothing. A `-0.0` bias keeps every column.
            let scan = l == 0 && biases.iter().all(|b| b.to_bits() != NEG_ZERO_BITS);
            for (xblock, yblock) in
                xs.chunks(LANES * fan_in).zip(ys.chunks_mut(LANES * fan_out))
            {
                let m = xblock.len() / fan_in;
                if m == 1 {
                    for ((yj, row), &bias) in
                        yblock.iter_mut().zip(weights.chunks_exact(fan_in)).zip(biases)
                    {
                        let mut acc = bias;
                        for (xi, wji) in xblock.iter().zip(row) {
                            acc += xi * wji;
                        }
                        *yj = act.apply(acc);
                    }
                    continue;
                }
                // Feature-major copy of the block; lanes past a ragged
                // tail compute on zeros and are never stored.
                for (i, col) in xt.iter_mut().enumerate() {
                    *col = [0.0; LANES];
                    for (lane, x) in col.iter_mut().zip(xblock.chunks_exact(fan_in)) {
                        *lane = x[i];
                    }
                }
                let live = if scan {
                    let n_runs = live_runs(xt, live);
                    &live[..n_runs]
                } else {
                    live[0] = 0..fan_in;
                    &live[..1]
                };
                let mut store = |j: usize, acc: &[f32; LANES]| {
                    for (yrow, &a) in yblock.chunks_exact_mut(fan_out).zip(acc) {
                        yrow[j] = act.apply(a);
                    }
                };
                let mut j = 0;
                let mut tiles = weights.chunks_exact(J_TILE * fan_in);
                for tile in &mut tiles {
                    let (r0, rest) = tile.split_at(fan_in);
                    let (r1, rest) = rest.split_at(fan_in);
                    let (r2, r3) = rest.split_at(fan_in);
                    let mut a0 = [biases[j]; LANES];
                    let mut a1 = [biases[j + 1]; LANES];
                    let mut a2 = [biases[j + 2]; LANES];
                    let mut a3 = [biases[j + 3]; LANES];
                    for run in live {
                        let (w0, w1) = (&r0[run.clone()], &r1[run.clone()]);
                        let (w2, w3) = (&r2[run.clone()], &r3[run.clone()]);
                        for ((((x, &w0), &w1), &w2), &w3) in
                            xt[run.clone()].iter().zip(w0).zip(w1).zip(w2).zip(w3)
                        {
                            axpy(&mut a0, x, w0);
                            axpy(&mut a1, x, w1);
                            axpy(&mut a2, x, w2);
                            axpy(&mut a3, x, w3);
                        }
                    }
                    store(j, &a0);
                    store(j + 1, &a1);
                    store(j + 2, &a2);
                    store(j + 3, &a3);
                    j += J_TILE;
                }
                // The `fan_out % J_TILE` units left over, one at a time.
                for row in tiles.remainder().chunks_exact(fan_in) {
                    let mut a = [biases[j]; LANES];
                    for run in live {
                        for (x, &w) in xt[run.clone()].iter().zip(&row[run.clone()]) {
                            axpy(&mut a, x, w);
                        }
                    }
                    store(j, &a);
                    j += 1;
                }
            }
            off += fan_in * fan_out + fan_out;
        }
    }

    /// The `n` input rows staged by [`Mlp::stage_batch`], which
    /// [`Mlp::forward_batch`] reads and leaves as they are.
    pub(crate) fn batch_inputs<'s>(&self, scratch: &'s MlpScratch, n: usize) -> &'s [f32] {
        &scratch.acts[0][..n * self.spec.input_dim()]
    }

    /// The final-layer activations of the last [`Mlp::forward_batch`] call:
    /// `n` sample-major rows of `output_dim` floats.
    pub fn batch_outputs<'s>(&self, scratch: &'s MlpScratch, n: usize) -> &'s [f32] {
        &scratch.acts[self.spec.sizes.len() - 1][..n * self.spec.output_dim()]
    }

    /// The output-gradient staging buffer — `n` rows of `output_dim` floats
    /// for the caller to fill before [`Mlp::backward_batch`].
    pub fn stage_d_out<'s>(&self, scratch: &'s mut MlpScratch, n: usize) -> &'s mut [f32] {
        &mut scratch.delta[..n * self.spec.output_dim()]
    }

    /// [`Mlp::batch_outputs`] and [`Mlp::stage_d_out`] in one call, for
    /// callers that derive each sample's output gradient from its output
    /// (e.g. a loss) without cloning either buffer.
    pub fn batch_outputs_and_d_out<'s>(
        &self,
        scratch: &'s mut MlpScratch,
        n: usize,
    ) -> (&'s [f32], &'s mut [f32]) {
        let width = n * self.spec.output_dim();
        let y = &scratch.acts[self.spec.sizes.len() - 1][..width];
        (y, &mut scratch.delta[..width])
    }

    /// Backpropagates the staged output gradients through the activations of
    /// the last [`Mlp::forward_batch`], accumulating each sample's parameter
    /// gradient scaled by its `sample_w` entry into `grad`, and returns the
    /// per-sample input gradients: `n` rows of `input_dim` floats. This is
    /// the form for a network fed by another network's output.
    ///
    /// Every gradient element visits samples in ascending order and adds
    /// `w[b] * (delta * x)` with exactly the per-sample kernel's rounding,
    /// so the result is bit-identical to backpropagating each sample alone
    /// ([`Mlp::backward`]) and folding the weighted per-sample gradients in
    /// sample order. Zero deltas — dead ReLU units, inactive heads —
    /// contribute exactly `±0.0` in the per-sample kernel, which never
    /// changes an accumulator that starts at `+0.0`, so they are skipped
    /// outright. Consumes the staged `d_out`; restage before calling again.
    ///
    /// # Panics
    /// Panics if `sample_w` has fewer than `n` entries or `grad` is shorter
    /// than the parameter vector.
    pub fn backward_batch_d_input<'s>(
        &self,
        params: &ParamVec,
        scratch: &'s mut MlpScratch,
        n: usize,
        sample_w: &[f32],
        grad: &mut [f32],
    ) -> &'s [f32] {
        self.backward_layers(params, scratch, n, sample_w, grad, 0);
        &scratch.delta[..n * self.spec.input_dim()]
    }

    /// [`Mlp::backward_batch_d_input`] for the network that reads the data:
    /// nothing consumes the gradient with respect to a constant input, so
    /// it is not computed, and the first layer's weight gradient is
    /// accumulated over each sample's **non-zero inputs only** (the driving
    /// BEV is a sparse binary occupancy tensor: five input values in six
    /// are exactly `0.0`).
    ///
    /// To make that a contiguous update — `g[i][..] += w[b] * (delta[..] *
    /// x[i])` across the layer's output units — the first layer's weight
    /// block is left **input-major** in `grad`: element `(i, j)` sits at
    /// `offset() + i * fan_out + j`, not at the parameter layout's
    /// `offset() + j * fan_in + i`. Partial gradients in that layout add
    /// elementwise; [`Mlp::first_weights_to_param_layout`] converts the
    /// sum, once. Every other block is in parameter layout.
    ///
    /// A skipped term is `w[b] * (delta * ±0.0) = ±0.0` for finite deltas,
    /// and an accumulator that starts at `+0.0` can never hold `-0.0` (a
    /// sum is `-0.0` only when both addends are), so skipping changes no
    /// bit. Each element still folds its samples in ascending order, and
    /// the converted gradient is **bit-identical, for finite parameters
    /// and inputs**, to the per-sample fold
    /// [`Mlp::backward_batch_d_input`] documents.
    ///
    /// # Panics
    /// Panics if `sample_w` has fewer than `n` entries or `grad` is shorter
    /// than the parameter vector.
    pub fn backward_batch(
        &self,
        params: &ParamVec,
        scratch: &mut MlpScratch,
        n: usize,
        sample_w: &[f32],
        grad: &mut [f32],
    ) {
        self.backward_layers(params, scratch, n, sample_w, grad, 1);
        let (fan_in, fan_out) = (self.spec.sizes[0], self.spec.sizes[1]);
        self.delta_through_activation(scratch, 0, n);
        let block = self.first_weight_block();
        let (gw, gb) = grad[block.start..block.end + fan_out].split_at_mut(block.len());
        let xs = scratch.acts[0][..n * fan_in].chunks_exact(fan_in);
        let deltas = scratch.delta[..n * fan_out].chunks_exact(fan_out);
        for ((x, delta), &wb) in xs.zip(deltas).zip(sample_w) {
            for (g, dj) in gb.iter_mut().zip(delta) {
                *g += wb * dj;
            }
            for (grow, &xi) in gw.chunks_exact_mut(fan_out).zip(x) {
                if xi != 0.0 {
                    for (g, dj) in grow.iter_mut().zip(delta) {
                        *g += wb * (dj * xi);
                    }
                }
            }
        }
    }

    /// The first layer's weights inside the shared parameter vector — the
    /// block [`Mlp::backward_batch`] leaves input-major.
    fn first_weight_block(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.spec.sizes[0] * self.spec.sizes[1]
    }

    /// Rewrites the first layer's weight block of `grad` from the
    /// input-major layout of [`Mlp::backward_batch`] to the parameter
    /// layout, staging the block through `staging` — any spare buffer as
    /// long as `grad`, e.g. a partial gradient that has already been added
    /// into `grad`; its first-layer block is overwritten.
    ///
    /// # Panics
    /// Panics if either buffer is shorter than the parameter vector.
    pub fn first_weights_to_param_layout(&self, grad: &mut [f32], staging: &mut [f32]) {
        let (fan_in, fan_out) = (self.spec.sizes[0], self.spec.sizes[1]);
        let block = &mut grad[self.first_weight_block()];
        let staged = &mut staging[self.first_weight_block()];
        staged.copy_from_slice(block);
        for (j, row) in block.chunks_exact_mut(fan_in).enumerate() {
            for (g, col) in row.iter_mut().zip(staged.chunks_exact(fan_out)) {
                *g = col[j];
            }
        }
    }

    /// Layer `l`'s staged deltas through its activation — exact per-element
    /// match with the per-sample kernel; `* 1.0` on the linear layer is
    /// skipped (multiplying by 1.0 is the identity for every f32 bit
    /// pattern).
    fn delta_through_activation(&self, scratch: &mut MlpScratch, l: usize, n: usize) {
        let act = self.layer_activation(l);
        if act != Activation::Identity {
            let width = n * self.spec.sizes[l + 1];
            let ys = &scratch.acts[l + 1][..width];
            for (d, yj) in scratch.delta[..width].iter_mut().zip(ys) {
                *d *= act.grad_from_output(*yj);
            }
        }
    }

    /// The shared body of the two backward passes: layers from the last
    /// down to `stop`, each accumulating its weighted parameter gradients
    /// in parameter layout and leaving its input gradients in
    /// `scratch.delta` for the layer below.
    fn backward_layers(
        &self,
        params: &ParamVec,
        scratch: &mut MlpScratch,
        n: usize,
        sample_w: &[f32],
        grad: &mut [f32],
        stop: usize,
    ) {
        assert!(sample_w.len() >= n, "sample weight length mismatch");
        assert!(grad.len() >= self.offset + self.param_count(), "gradient buffer too short");
        let sizes = &self.spec.sizes;
        let p = params.as_slice();
        let n_layers = sizes.len() - 1;
        let mut layer_end = self.offset + self.param_count();
        for l in (stop..n_layers).rev() {
            let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
            let w_off = layer_end - (fan_in * fan_out + fan_out);
            let b_off = w_off + fan_in * fan_out;
            self.delta_through_activation(scratch, l, n);
            let xs = &scratch.acts[l][..n * fan_in];
            let deltas = &scratch.delta[..n * fan_out];
            // Weighted parameter gradients, one output unit at a time so the
            // unit's gradient row and bias stay hot across the whole batch.
            let (gw, gb) = grad[w_off..b_off + fan_out].split_at_mut(fan_in * fan_out);
            for j in 0..fan_out {
                let grow = &mut gw[j * fan_in..(j + 1) * fan_in];
                let mut gbias = gb[j];
                for b in 0..n {
                    let dj = deltas[b * fan_out + j];
                    if dj != 0.0 {
                        let wb = sample_w[b];
                        let x = &xs[b * fan_in..(b + 1) * fan_in];
                        for (g, xi) in grow.iter_mut().zip(x) {
                            *g += wb * (dj * xi);
                        }
                        gbias += wb * dj;
                    }
                }
                gb[j] = gbias;
            }
            // Gradient w.r.t. the layer input, ping-ponged into the second
            // delta buffer (ascending-j accumulation, exactly as per sample).
            let weights = &p[w_off..b_off];
            let dl = &mut scratch.delta_lower[..n * fan_in];
            dl.fill(0.0);
            for j in 0..fan_out {
                let wrow = &weights[j * fan_in..(j + 1) * fan_in];
                for b in 0..n {
                    let dj = deltas[b * fan_out + j];
                    if dj != 0.0 {
                        let drow = &mut dl[b * fan_in..(b + 1) * fan_in];
                        for (di, wji) in drow.iter_mut().zip(wrow) {
                            *di += dj * wji;
                        }
                    }
                }
            }
            std::mem::swap(&mut scratch.delta, &mut scratch.delta_lower);
            layer_end = w_off;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny() -> (Mlp, ParamVec) {
        let spec = MlpSpec::relu(vec![3, 5, 2]);
        let mlp = Mlp::new(spec.clone(), 0);
        let mut params = ParamVec::zeros(spec.param_count());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        mlp.init(&mut params, &mut rng);
        (mlp, params)
    }

    #[test]
    fn param_count_matches_layout() {
        let spec = MlpSpec::relu(vec![3, 5, 2]);
        assert_eq!(spec.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn forward_output_has_output_dim() {
        let (mlp, params) = tiny();
        let cache = mlp.forward(&params, &[0.5, -0.2, 1.0]);
        assert_eq!(cache.output().len(), 2);
    }

    #[test]
    fn zero_params_give_zero_output() {
        let spec = MlpSpec::relu(vec![3, 4, 2]);
        let mlp = Mlp::new(spec.clone(), 0);
        let params = ParamVec::zeros(spec.param_count());
        let cache = mlp.forward(&params, &[1.0, 2.0, 3.0]);
        assert!(cache.output().iter().all(|&y| y == 0.0));
    }

    /// Finite-difference check of the analytic gradient.
    #[test]
    fn backward_matches_finite_differences() {
        let (mlp, mut params) = tiny();
        let x = [0.3f32, -0.7, 0.9];
        let target = [0.2f32, -0.4];

        let loss_of = |p: &ParamVec| -> f32 {
            let out = mlp.forward(p, &x);
            out.output()
                .iter()
                .zip(&target)
                .map(|(o, t)| 0.5 * (o - t) * (o - t))
                .sum()
        };

        let cache = mlp.forward(&params, &x);
        let d_out: Vec<f32> =
            cache.output().iter().zip(&target).map(|(o, t)| o - t).collect();
        let mut grad = vec![0.0f32; params.len()];
        mlp.backward(&params, &cache, &d_out, &mut grad);

        let eps = 1e-3f32;
        for i in (0..params.len()).step_by(3) {
            let orig = params.as_slice()[i];
            params.as_mut_slice()[i] = orig + eps;
            let up = loss_of(&params);
            params.as_mut_slice()[i] = orig - eps;
            let down = loss_of(&params);
            params.as_mut_slice()[i] = orig;
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - grad[i]).abs() < 2e-2,
                "param {i}: finite-diff {fd} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let (mlp, params) = tiny();
        let target = [0.2f32, -0.4];
        let mut x = vec![0.3f32, -0.7, 0.9];

        let loss_of = |x: &[f32]| -> f32 {
            let out = mlp.forward(&params, x);
            out.output()
                .iter()
                .zip(&target)
                .map(|(o, t)| 0.5 * (o - t) * (o - t))
                .sum()
        };

        let cache = mlp.forward(&params, &x);
        let d_out: Vec<f32> =
            cache.output().iter().zip(&target).map(|(o, t)| o - t).collect();
        let mut grad = vec![0.0f32; params.len()];
        let d_in = mlp.backward(&params, &cache, &d_out, &mut grad);

        let eps = 1e-3f32;
        for i in 0..x.len() {
            let orig = x[i];
            x[i] = orig + eps;
            let up = loss_of(&x);
            x[i] = orig - eps;
            let down = loss_of(&x);
            x[i] = orig;
            let fd = (up - down) / (2.0 * eps);
            assert!((fd - d_in[i]).abs() < 2e-2, "input {i}: {fd} vs {}", d_in[i]);
        }
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_dim_panics() {
        let (mlp, params) = tiny();
        mlp.forward(&params, &[1.0]);
    }

    /// Quick smoke of the batched kernels against the per-sample ones; the
    /// exhaustive bit-identity checks live in `tests/properties.rs`.
    #[test]
    fn batched_kernels_match_per_sample_bits() {
        let (mlp, params) = tiny();
        let inputs = [[0.5f32, -0.2, 1.0], [-0.9, 0.4, 0.1], [2.0, -1.5, 0.7]];
        let weights = [1.0f32, 0.25, 2.5];
        let n = inputs.len();

        let mut scratch = MlpScratch::new();
        let staged = mlp.stage_batch(&mut scratch, n);
        for (row, x) in staged.chunks_exact_mut(3).zip(&inputs) {
            row.copy_from_slice(x);
        }
        mlp.forward_batch(&params, &mut scratch, n);

        let mut d_rows = Vec::new();
        for (b, x) in inputs.iter().enumerate() {
            let cache = mlp.forward(&params, x);
            assert_eq!(
                cache.output(),
                &mlp.batch_outputs(&scratch, n)[b * 2..(b + 1) * 2],
                "forward bits differ at sample {b}"
            );
            let d: Vec<f32> = cache.output().iter().map(|y| y + 0.3).collect();
            d_rows.push((cache, d));
        }

        // Weighted batched backward vs per-sample grads folded in order.
        let d_out = mlp.stage_d_out(&mut scratch, n);
        for (row, (_, d)) in d_out.chunks_exact_mut(2).zip(&d_rows) {
            row.copy_from_slice(d);
        }
        let mut batched = vec![0.0f32; params.len()];
        let batched_d_in =
            mlp.backward_batch_d_input(&params, &mut scratch, n, &weights, &mut batched).to_vec();

        let mut folded = vec![0.0f32; params.len()];
        let mut d_ins = Vec::new();
        for ((cache, d), &w) in d_rows.iter().zip(&weights) {
            let mut g = vec![0.0f32; params.len()];
            d_ins.push(mlp.backward(&params, cache, d, &mut g));
            for (acc, gi) in folded.iter_mut().zip(&g) {
                *acc += w * *gi;
            }
        }
        assert_eq!(batched, folded, "weighted gradient bits differ");
        let flat: Vec<f32> = d_ins.concat();
        assert_eq!(batched_d_in, flat, "input gradient bits differ");

        // The data-input form: same gradient once the first block is
        // converted, no input gradient computed.
        let d_out = mlp.stage_d_out(&mut scratch, n);
        for (row, (_, d)) in d_out.chunks_exact_mut(2).zip(&d_rows) {
            row.copy_from_slice(d);
        }
        let mut sparse = vec![0.0f32; params.len()];
        mlp.backward_batch(&params, &mut scratch, n, &weights, &mut sparse);
        mlp.first_weights_to_param_layout(&mut sparse, &mut vec![0.0; params.len()]);
        assert_eq!(sparse, folded, "input-major gradient bits differ");
    }
}
