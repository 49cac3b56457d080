//! Retained-verbatim per-sample kernels — the bit-identity oracle for the
//! batched training path.
//!
//! Same pattern as `lbchat::coreset::reference` and
//! `simworld::bev::reference`: this module freezes the straightforward
//! per-sample implementations so the optimized kernels ([`Mlp::forward_batch`],
//! [`Mlp::backward_batch`], [`BranchedPolicy::train_shard`]) can be asserted
//! **bit-for-bit** equal against code that will never be touched by further
//! optimization work. The bodies below are byte-for-byte the per-sample
//! kernels as of the batched-kernel rewrite, with private field accesses
//! routed through crate-internal accessors; every floating-point operation
//! and its order is unchanged.
//!
//! Two composition helpers define what "bit-identical" means for whole
//! batches:
//!
//! * [`batch_loss_and_grad`] — per-sample verbatim gradients folded with the
//!   same fixed [`SHARD`]-sized reduction the optimized path uses. The
//!   optimized minibatch gradient must equal this exactly.
//! * [`policy_train_step`] — the pre-batching sequential training step
//!   (allocating, sample-at-a-time): what the batched round replaced.
//!
//! This module trades speed for auditability on purpose; nothing outside
//! tests should call it.

use crate::loss::mean_loss_and_grad;
use crate::mlp::{Cache, Mlp};
use crate::param::ParamVec;
use crate::policy::{BatchSource, BranchedPolicy, PolicySample};
use crate::scratch::SHARD;
use crate::sgd::Sgd;

/// Verbatim per-sample forward pass of [`Mlp::forward`].
///
/// # Panics
/// Panics if `input` length differs from the spec's input size.
pub fn forward(mlp: &Mlp, params: &ParamVec, input: &[f32]) -> Cache {
    let spec = mlp.spec();
    assert_eq!(input.len(), spec.input_dim(), "input dimension mismatch");
    let p = params.as_slice();
    let n_layers = spec.sizes.len() - 1;
    let mut acts = Vec::with_capacity(n_layers + 1);
    acts.push(input.to_vec());
    let mut off = mlp.offset();
    for (l, w) in spec.sizes.windows(2).enumerate() {
        let (fan_in, fan_out) = (w[0], w[1]);
        let weights = &p[off..off + fan_in * fan_out];
        let biases = &p[off + fan_in * fan_out..off + fan_in * fan_out + fan_out];
        let x = acts.last().expect("at least input present");
        let act = if l + 1 == n_layers {
            crate::Activation::Identity
        } else {
            spec.hidden_activation
        };
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

/// Verbatim per-sample backward pass of [`Mlp::backward`].
///
/// # Panics
/// Panics if `d_out` length differs from the output size or `grad` is
/// shorter than the parameter vector.
pub fn backward(
    mlp: &Mlp,
    params: &ParamVec,
    cache: &Cache,
    d_out: &[f32],
    grad: &mut [f32],
) -> Vec<f32> {
    let spec = mlp.spec();
    assert_eq!(d_out.len(), spec.output_dim(), "output gradient dimension mismatch");
    assert!(grad.len() >= mlp.offset() + mlp.param_count(), "gradient buffer too short");
    let p = params.as_slice();
    let n_layers = spec.sizes.len() - 1;

    // Precompute the parameter offset of each layer.
    let mut offsets = Vec::with_capacity(n_layers);
    let mut off = mlp.offset();
    for w in spec.sizes.windows(2) {
        offsets.push(off);
        off += w[0] * w[1] + w[1];
    }

    let mut delta = d_out.to_vec();
    for l in (0..n_layers).rev() {
        let fan_in = spec.sizes[l];
        let fan_out = spec.sizes[l + 1];
        let act = if l + 1 == n_layers {
            crate::Activation::Identity
        } else {
            spec.hidden_activation
        };
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
        // gradient w.r.t. the layer input
        if l > 0 {
            let weights = &p[w_off..b_off];
            let mut d_in = vec![0.0f32; fan_in];
            for (j, dj) in delta.iter().enumerate() {
                let row = &weights[j * fan_in..(j + 1) * fan_in];
                for (di, wji) in d_in.iter_mut().zip(row) {
                    *di += dj * wji;
                }
            }
            delta = d_in;
        } else {
            let weights = &p[w_off..b_off];
            let mut d_in = vec![0.0f32; fan_in];
            for (j, dj) in delta.iter().enumerate() {
                let row = &weights[j * fan_in..(j + 1) * fan_in];
                for (di, wji) in d_in.iter_mut().zip(row) {
                    *di += dj * wji;
                }
            }
            return d_in;
        }
    }
    unreachable!("loop returns at l == 0");
}

/// Verbatim per-sample policy forward
/// ([`BranchedPolicy::forward_with`] against the policy's own parameters).
///
/// # Panics
/// Panics if `branch` is out of range or the input dimension is wrong.
pub fn policy_forward(policy: &BranchedPolicy, input: &[f32], branch: usize) -> Vec<f32> {
    assert!(branch < policy.spec().n_branches, "branch out of range");
    let params = policy.params();
    let trunk_out = forward(policy.trunk(), params, input);
    // Re-apply the hidden nonlinearity to the trunk output so head inputs
    // are nonlinear features (the trunk's last layer is linear by MLP
    // convention), then append the skip inputs verbatim.
    let mut feats: Vec<f32> = trunk_out.output().iter().map(|&v| v.max(0.0)).collect();
    feats.extend_from_slice(&input[input.len() - policy.spec().skip_inputs..]);
    let head = &policy.heads()[branch];
    forward(head, params, &feats).output().to_vec()
}

/// Verbatim per-sample loss and full parameter gradient
/// ([`BranchedPolicy::loss_and_grad`]).
///
/// # Panics
/// Panics if `branch` is out of range or a dimension is wrong.
pub fn policy_loss_and_grad(
    policy: &BranchedPolicy,
    input: &[f32],
    branch: usize,
    target: &[f32],
) -> (f32, Vec<f32>) {
    assert!(branch < policy.spec().n_branches, "branch out of range");
    let params = policy.params();
    let mut grad = vec![0.0f32; params.len()];
    let trunk_cache = forward(policy.trunk(), params, input);
    let mut feats: Vec<f32> = trunk_cache.output().iter().map(|&v| v.max(0.0)).collect();
    let n_trunk = feats.len();
    feats.extend_from_slice(&input[input.len() - policy.spec().skip_inputs..]);
    let head = &policy.heads()[branch];
    let head_cache = forward(head, params, &feats);
    let pred = head_cache.output();
    let (loss, d_pred) = mean_loss_and_grad(policy.loss_kind(), pred, target);
    let d_feats = backward(head, params, &head_cache, &d_pred, &mut grad);
    // Backprop through the manual ReLU between trunk and head; the skip
    // tail flows to the (constant) input and is dropped.
    let d_trunk_out: Vec<f32> = d_feats[..n_trunk]
        .iter()
        .zip(trunk_cache.output())
        .map(|(d, &y)| if y > 0.0 { *d } else { 0.0 })
        .collect();
    backward(policy.trunk(), params, &trunk_cache, &d_trunk_out, &mut grad);
    (loss, grad)
}

/// Per-sample verbatim gradients composed with the fixed [`SHARD`]-sized
/// reduction of the batched path: each shard of consecutive samples folds
/// its weighted per-sample gradients in sample order into a zeroed partial,
/// and partials are added into `grad` in shard order. Returns
/// `(Σ w·loss, Σ w)`, both accumulated in global sample order.
///
/// This composition *defines* the bits the optimized
/// [`BranchedPolicy::train_shard`] / [`BranchedPolicy::reduce_shards`] pair
/// must reproduce exactly, for any worker count.
///
/// # Panics
/// Panics if `grad` is shorter than the parameter vector or any sample is
/// malformed.
pub fn batch_loss_and_grad<S: BatchSource + ?Sized>(
    policy: &BranchedPolicy,
    src: &S,
    grad: &mut [f32],
) -> (f32, f32) {
    let n = src.len();
    let plen = policy.param_count();
    assert!(grad.len() >= plen, "gradient buffer too short");
    grad[..plen].fill(0.0);
    let mut loss_sum = 0.0f32;
    let mut weight_sum = 0.0f32;
    let mut partial = vec![0.0f32; plen];
    let mut shard_start = 0usize;
    while shard_start < n {
        let shard_end = (shard_start + SHARD).min(n);
        partial.fill(0.0);
        for i in shard_start..shard_end {
            let s = src.at(i);
            let (l, g) = policy_loss_and_grad(policy, s.input, s.branch, s.target);
            for (acc, gi) in partial.iter_mut().zip(&g) {
                *acc += s.weight * *gi;
            }
            loss_sum += s.weight * l;
            weight_sum += s.weight;
        }
        for (g, p) in grad[..plen].iter_mut().zip(&partial) {
            *g += *p;
        }
        shard_start = shard_end;
    }
    (loss_sum, weight_sum)
}

/// The pre-batching sequential training step, retained verbatim from the
/// driving learner: per-sample gradients accumulated weighted into one
/// freshly allocated full-length buffer, normalized by the total weight,
/// then one plain [`Sgd::step`]. Returns the weighted mean loss.
///
/// This is the pre-batching *performance* baseline; for
/// batches larger than [`SHARD`] its accumulation order differs from the
/// sharded reduction, so it is **not** the bit-identity oracle — that is
/// [`batch_loss_and_grad`].
pub fn policy_train_step(
    policy: &mut BranchedPolicy,
    opt: &mut Sgd,
    batch: &[PolicySample<'_>],
) -> f32 {
    if batch.is_empty() {
        return 0.0;
    }
    let mut grad = vec![0.0f32; policy.param_count()];
    let mut loss_acc = 0.0f32;
    let mut w_acc = 0.0f32;
    for s in batch {
        let (l, g) = policy_loss_and_grad(policy, s.input, s.branch, s.target);
        loss_acc += s.weight * l;
        w_acc += s.weight;
        for (acc, gi) in grad.iter_mut().zip(&g) {
            *acc += s.weight * *gi;
        }
    }
    let inv = 1.0 / w_acc;
    for g in &mut grad {
        *g *= inv;
    }
    opt.step(policy.params_mut().as_mut_slice(), &grad);
    loss_acc * inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;
    use rand::SeedableRng;

    fn policy() -> BranchedPolicy {
        let spec = PolicySpec {
            input_dim: 6,
            trunk: vec![12, 8],
            n_branches: 4,
            waypoints: 3,
            skip_inputs: 1,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        BranchedPolicy::new(&spec, &mut rng)
    }

    /// The retained copies must still agree with the live per-sample
    /// kernels (which themselves are unchanged by the batching work).
    #[test]
    fn reference_matches_live_per_sample_kernels() {
        let p = policy();
        let x = [0.4f32, -0.1, 0.8, 0.2, -0.6, 0.3];
        let t = vec![0.25f32; 6];
        assert_eq!(policy_forward(&p, &x, 2), p.forward(&x, 2));
        let (l_ref, g_ref) = policy_loss_and_grad(&p, &x, 1, &t);
        let (l_live, g_live) = p.loss_and_grad(&x, 1, &t);
        assert_eq!(l_ref.to_bits(), l_live.to_bits());
        assert_eq!(g_ref, g_live);
    }
}
