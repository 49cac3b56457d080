//! The penalized loss of Eq. (6).
//!
//! `f(x; ξ) = Σ w_ξ(d) f(x; d) + λ₁‖x‖ + λ₂ σ(x)`
//!
//! The L2 term controls structural risk and keeps the infimum of the mean
//! loss away from zero, which bounds the coreset size the theory requires
//! (§III-B). `σ(x)` is problem-dependent; for the BEV driving task it
//! measures the *imbalance* of losses across high-level driving commands so
//! the model "can effectively address all driving commands without
//! introducing any bias". We realize that as the KL divergence of the
//! normalized per-command loss distribution from uniform
//! (`log G − H(p)` — zero when all commands hurt equally, growing as loss
//! concentrates on few commands), which is the balance-encouraging reading
//! of the paper's "entropy of the losses observed with data samples of
//! different driving commands".
//!
//! [`crate::valuation::coreset_loss`] evaluates the whole expression; this
//! module holds its coefficients and σ.

use crate::learner::Learner;
use crate::WeightedDataset;

/// Coefficients of the Eq. (6) penalty terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyConfig {
    /// λ₁ — weight of the L2 structural-risk term.
    pub lambda1: f32,
    /// λ₂ — weight of the problem-dependent imbalance term σ(x).
    pub lambda2: f32,
}

impl Default for PenaltyConfig {
    fn default() -> Self {
        Self { lambda1: 1e-4, lambda2: 1e-2 }
    }
}

impl PenaltyConfig {
    /// No penalties (plain Eq. (2)/(4) losses).
    pub fn none() -> Self {
        Self { lambda1: 0.0, lambda2: 0.0 }
    }
}

/// Per-group weighted mean of already-evaluated per-sample `losses`
/// (parallel to `set`'s samples), accumulated in f64 in sample order, for
/// the learner's `n_groups` groups. Groups with no samples get loss 0 and
/// are excluded from σ.
pub(crate) fn group_means<L: Learner>(
    learner: &L,
    set: &WeightedDataset<L::Sample>,
    losses: &[f32],
) -> Vec<f32> {
    let g = learner.n_groups();
    let mut num = vec![0.0f64; g];
    let mut den = vec![0.0f64; g];
    for ((s, w), l) in set.samples().iter().zip(set.weights()).zip(losses) {
        let gi = learner.group_of(s);
        num[gi] += (*w as f64) * *l as f64;
        den[gi] += *w as f64;
    }
    (0..g)
        .map(|i| if den[i] > 0.0 { (num[i] / den[i]) as f32 } else { 0.0 })
        .collect()
}

/// σ(x): imbalance of the per-group losses, `log G' − H(p)` where `p` is the
/// normalized loss distribution over the `G'` groups that have samples.
/// Zero when balanced (or fewer than two active groups / zero total loss).
pub fn sigma(group_losses: &[f32]) -> f32 {
    let active: Vec<f32> = group_losses.iter().copied().filter(|&l| l > 0.0).collect();
    if active.len() < 2 {
        return 0.0;
    }
    let total: f32 = active.iter().sum();
    let entropy: f32 = active
        .iter()
        .map(|&l| {
            let p = l / total;
            -p * p.ln()
        })
        .sum();
    (active.len() as f32).ln() - entropy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::slice_losses;
    use crate::learner::testutil::{LineLearner, Pt};

    #[test]
    fn sigma_zero_when_balanced() {
        assert_eq!(sigma(&[1.0, 1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn sigma_positive_when_imbalanced() {
        let s = sigma(&[10.0, 0.1, 0.1, 0.1]);
        assert!(s > 0.5, "imbalance must be penalized, got {s}");
    }

    #[test]
    fn sigma_ignores_empty_groups() {
        // Two active balanced groups, two empty: still balanced.
        assert_eq!(sigma(&[1.0, 1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn sigma_degenerate_cases() {
        assert_eq!(sigma(&[]), 0.0);
        assert_eq!(sigma(&[5.0]), 0.0);
        assert_eq!(sigma(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn sigma_monotone_in_concentration() {
        let mild = sigma(&[2.0, 1.0, 1.0, 1.0]);
        let strong = sigma(&[8.0, 1.0, 1.0, 1.0]);
        assert!(strong > mild);
    }

    #[test]
    fn group_losses_split_by_group() {
        let l = LineLearner::new(1.0, 0.0);
        let set = WeightedDataset::uniform(vec![
            Pt { x: 1.0, y: 1.0, group: 0 }, // loss 0
            Pt { x: 1.0, y: 3.0, group: 1 }, // loss 4
        ]);
        let mut losses = Vec::new();
        slice_losses(&l, l.params(), set.samples(), &mut losses);
        let gl = group_means(&l, &set, &losses);
        assert_eq!(gl.len(), 4);
        assert!((gl[0] - 0.0).abs() < 1e-6);
        assert!((gl[1] - 4.0).abs() < 1e-6);
        assert_eq!(gl[2], 0.0);
    }
}
