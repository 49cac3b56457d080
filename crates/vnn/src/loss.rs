//! The waypoint regression loss.
//!
//! The driving policy predicts the next few waypoints in the ego frame; the
//! paper trains it by imitation against the expert's waypoints, with the
//! L1 loss the *Learning by Cheating* agent uses. This module is that loss
//! and its gradient.

/// Pointwise L1 loss for residual `r = pred - target`.
#[inline]
fn value(r: f32) -> f32 {
    r.abs()
}

/// Pointwise derivative of [`value`] w.r.t. the prediction (0 at the kink).
#[inline]
fn grad(r: f32) -> f32 {
    if r > 0.0 {
        1.0
    } else if r < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Mean L1 loss over a prediction/target pair of equal length.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn mean_loss(pred: &[f32], target: &[f32]) -> f32 {
    assert_eq!(pred.len(), target.len(), "loss length mismatch");
    assert!(!pred.is_empty(), "loss over empty prediction");
    let n = pred.len() as f32;
    pred.iter().zip(target).map(|(p, t)| value(p - t)).sum::<f32>() / n
}

/// Mean loss and its gradient w.r.t. the prediction.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn mean_loss_and_grad(pred: &[f32], target: &[f32]) -> (f32, Vec<f32>) {
    let mut grad = vec![0.0f32; pred.len()];
    let loss = mean_loss_and_grad_into(pred, target, &mut grad);
    (loss, grad)
}

/// [`mean_loss_and_grad`] writing the gradient into a caller-owned buffer —
/// the allocation-free form the batched training kernels use. Identical
/// operation order, so results are bit-for-bit the same.
///
/// # Panics
/// Panics if the slices have different lengths, `pred` is empty, or `d_pred`
/// is shorter than `pred`.
pub fn mean_loss_and_grad_into(pred: &[f32], target: &[f32], d_pred: &mut [f32]) -> f32 {
    assert_eq!(pred.len(), target.len(), "loss length mismatch");
    assert!(!pred.is_empty(), "loss over empty prediction");
    assert!(d_pred.len() >= pred.len(), "loss gradient buffer too short");
    let n = pred.len() as f32;
    let mut loss = 0.0f32;
    for ((p, t), g) in pred.iter().zip(target).zip(&mut *d_pred) {
        let r = p - t;
        loss += value(r);
        *g = grad(r) / n;
    }
    loss / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_value_and_grad() {
        assert_eq!(value(-2.0), 2.0);
        assert_eq!(grad(-2.0), -1.0);
        assert_eq!(grad(0.0), 0.0);
    }

    #[test]
    fn zero_residual_means_zero_loss() {
        assert_eq!(mean_loss(&[1.0, -1.0], &[1.0, -1.0]), 0.0);
    }

    #[test]
    fn grad_matches_finite_difference() {
        // Every residual well away from the kink at 0.
        let pred = [0.3f32, -0.8, 1.4];
        let target = [-1.0f32, 0.2, 3.0];
        let (_, g) = mean_loss_and_grad(&pred, &target);
        let eps = 1e-3;
        for i in 0..pred.len() {
            let mut up = pred;
            up[i] += eps;
            let mut dn = pred;
            dn[i] -= eps;
            let fd = (mean_loss(&up, &target) - mean_loss(&dn, &target)) / (2.0 * eps);
            assert!((fd - g[i]).abs() < 1e-2, "idx {i}: {fd} vs {}", g[i]);
        }
    }

    #[test]
    #[should_panic(expected = "loss length mismatch")]
    fn length_mismatch_panics() {
        mean_loss(&[1.0], &[1.0, 2.0]);
    }
}
