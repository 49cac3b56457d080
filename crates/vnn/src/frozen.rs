//! The frozen form of a [`crate::BranchedPolicy`]: batch-of-one inference for a
//! model that does not change between calls.
//!
//! The training kernels put their lanes across *samples*
//! ([`crate::Mlp::forward_batch`]); a closed-loop rollout has one sample per
//! control tick, thousands of ticks per model. [`FrozenPolicy`] copies the
//! parameters once into an **input-major** layout so a layer's lanes run
//! across its *output units* instead, and a zero input — five BEV values in
//! six, every dead ReLU above them — costs one compare.

use crate::mlp::{Activation, Mlp, NEG_ZERO_BITS};
use crate::policy::PolicySpec;
use crate::scratch::TrainScratch;

/// One dense layer of a [`FrozenPolicy`]: where its block sits in the
/// shared buffer and what it applies on the way out.
#[derive(Debug, Clone, PartialEq)]
struct FrozenLayer {
    /// Start of the block: `fan_in * fan_out` weights, input-major
    /// (`start + i * fan_out + j` connects input `i` to unit `j`), then the
    /// `fan_out` biases.
    start: usize,
    fan_in: usize,
    fan_out: usize,
    act: Activation,
    /// Whether zero inputs are stepped over: not when a bias is `-0.0`, the
    /// one accumulator a skipped `+0.0` product would have changed.
    skip_zeros: bool,
}

impl FrozenLayer {
    /// `y[..fan_out] = act(bias + Σ_i x[i] · w[i][..])`: every unit the
    /// bias-first, ascending-input chain of separately rounded multiplies
    /// and adds (no fused multiply-add), the units side by side so the
    /// update compiles to packed arithmetic.
    fn forward(&self, data: &[f32], x: &[f32], y: &mut [f32]) {
        let weights = self.fan_in * self.fan_out;
        let (wt, bias) = data[self.start..self.start + weights + self.fan_out].split_at(weights);
        let y = &mut y[..self.fan_out];
        y.copy_from_slice(bias);
        for (&xi, row) in x[..self.fan_in].iter().zip(wt.chunks_exact(self.fan_out)) {
            if xi != 0.0 || !self.skip_zeros {
                for (yj, &w) in y.iter_mut().zip(row) {
                    *yj += xi * w;
                }
            }
        }
        for yj in y {
            *yj = self.act.apply(*yj);
        }
    }
}

/// Appends `mlp`'s layers under `params` to `data`, input-major; the last
/// layer applies `out_act` (an [`Mlp`]'s own last layer is linear).
fn freeze_mlp(
    mlp: &Mlp,
    params: &[f32],
    out_act: Activation,
    data: &mut Vec<f32>,
) -> Vec<FrozenLayer> {
    let spec = mlp.spec();
    let n_layers = spec.sizes.len() - 1;
    let mut off = mlp.offset();
    let mut layers = Vec::with_capacity(n_layers);
    for (l, w) in spec.sizes.windows(2).enumerate() {
        let (fan_in, fan_out) = (w[0], w[1]);
        let (weights, bias) = params[off..off + (fan_in + 1) * fan_out].split_at(fan_in * fan_out);
        let start = data.len();
        // Parameter layout is unit-major: `weights[j * fan_in + i]`.
        data.extend((0..fan_in).flat_map(|i| (0..fan_out).map(move |j| weights[j * fan_in + i])));
        data.extend_from_slice(bias);
        layers.push(FrozenLayer {
            start,
            fan_in,
            fan_out,
            act: if l + 1 == n_layers { out_act } else { Activation::Relu },
            skip_zeros: bias.iter().all(|b| b.to_bits() != NEG_ZERO_BITS),
        });
        off += (fan_in + 1) * fan_out;
    }
    layers
}

/// A snapshot of a [`BranchedPolicy`]'s parameters laid out for one sample
/// at a time, built by [`BranchedPolicy::freeze`].
///
/// Every layer's weights are stored input-major next to its bias, and a
/// layer's forward is `y = bias; for i ascending { if x[i] != 0.0 { y[..] +=
/// x[i] * w[i][..] } }; y = act(y)`: lanes across the layer's output units.
///
/// # Contract
/// [`FrozenPolicy::forward_into`] is **bit-identical to
/// [`BranchedPolicy::forward`] for finite parameters and inputs**. A unit is
/// the same chain of roundings in the same order; a skipped term is `±0.0 ·
/// w = ±0.0`, which changes no accumulator except `-0.0 + +0.0`, and an
/// accumulator is `-0.0` only if its bias was (a sum is `-0.0` only when
/// both addends are) — so a layer whose bias holds a `-0.0`, compared by
/// bits, keeps every column. A NaN or infinite weight poisons the output
/// only when its input is non-zero (where [`BranchedPolicy::forward`]
/// computes `0 · NaN`): code that must detect a poisoned model inspects the
/// parameters, not the predictions.
///
/// The snapshot does not follow the policy: after any change to the
/// policy's parameters, freeze again.
///
/// [`BranchedPolicy`]: crate::BranchedPolicy
/// [`BranchedPolicy::freeze`]: crate::BranchedPolicy::freeze
/// [`BranchedPolicy::forward`]: crate::BranchedPolicy::forward
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenPolicy {
    input_dim: usize,
    skip_inputs: usize,
    /// The shared trunk; its last layer carries the ReLU the policy applies
    /// to the trunk output.
    trunk: Vec<FrozenLayer>,
    heads: Vec<Vec<FrozenLayer>>,
    /// Every layer's block, in the order of the layers above.
    data: Vec<f32>,
    /// Widest activation row any layer reads or writes.
    width: usize,
}

impl FrozenPolicy {
    pub(crate) fn new(spec: &PolicySpec, trunk: &Mlp, heads: &[Mlp], params: &[f32]) -> Self {
        let mut data = Vec::with_capacity(params.len());
        // `max(0, x)` of the linear trunk output is the ReLU of its last layer.
        let trunk = freeze_mlp(trunk, params, Activation::Relu, &mut data);
        let heads: Vec<Vec<FrozenLayer>> = heads
            .iter()
            .map(|head| freeze_mlp(head, params, Activation::Identity, &mut data))
            .collect();
        let width = trunk
            .iter()
            .chain(heads.iter().flatten())
            .map(|layer| layer.fan_in.max(layer.fan_out))
            .max()
            .unwrap_or(0);
        Self { input_dim: spec.input_dim, skip_inputs: spec.skip_inputs, trunk, heads, data, width }
    }

    /// [`BranchedPolicy::forward`](crate::BranchedPolicy::forward) into a
    /// caller-owned buffer — see the type's contract. The activations
    /// ping-pong between two rows of `scratch`, so a call allocates nothing
    /// after the first; the arena's training statistics are not touched.
    ///
    /// # Panics
    /// Panics if `branch` is out of range or the input dimension is wrong.
    pub fn forward_into(
        &self,
        input: &[f32],
        branch: usize,
        out: &mut Vec<f32>,
        scratch: &mut TrainScratch,
    ) {
        assert!(branch < self.heads.len(), "branch out of range");
        assert_eq!(input.len(), self.input_dim, "input dimension mismatch");
        let (mut cur, mut next) = scratch.frozen_rows(self.width);
        cur[..input.len()].copy_from_slice(input);
        let mut len = input.len();
        for layer in &self.trunk {
            layer.forward(&self.data, cur, next);
            std::mem::swap(&mut cur, &mut next);
            len = layer.fan_out;
        }
        // The skip tail enters every head verbatim, after the trunk features.
        cur[len..len + self.skip_inputs].copy_from_slice(&input[input.len() - self.skip_inputs..]);
        for layer in &self.heads[branch] {
            layer.forward(&self.data, cur, next);
            std::mem::swap(&mut cur, &mut next);
            len = layer.fan_out;
        }
        out.clear();
        out.extend_from_slice(&cur[..len]);
    }
}
