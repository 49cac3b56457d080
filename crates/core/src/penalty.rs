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

use crate::learner::{pair_losses, weighted_mean, Learner};
use vnn::ParamVec;

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
/// (parallel to `pairs`), accumulated in f64 in pair order.
fn group_means<L: Learner>(learner: &L, pairs: &[(&L::Sample, f32)], losses: &[f32]) -> Vec<f32> {
    let g = learner.n_groups();
    let mut num = vec![0.0f64; g];
    let mut den = vec![0.0f64; g];
    for ((s, w), l) in pairs.iter().zip(losses) {
        let gi = learner.group_of(s);
        num[gi] += (*w as f64) * *l as f64;
        den[gi] += *w as f64;
    }
    (0..g)
        .map(|i| if den[i] > 0.0 { (num[i] / den[i]) as f32 } else { 0.0 })
        .collect()
}

/// Per-group mean losses of `pairs` under `params`, for `n_groups` groups.
/// Groups with no samples get loss 0 and are excluded from σ.
pub fn group_losses<L: Learner>(
    learner: &L,
    params: &ParamVec,
    pairs: &[(&L::Sample, f32)],
) -> Vec<f32> {
    group_means(learner, pairs, &pair_losses(learner, params, pairs))
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

/// The full penalized weighted loss of Eq. (6):
/// `Σ w f(x;d) + λ₁‖x‖ + λ₂ σ(x)`.
///
/// `pairs` may be a dataset (`w = w(d)`) or a coreset (`w = w_C(d)`); the
/// weighted-sum term is normalized by total weight so datasets and coresets
/// of different cardinality are comparable, matching how the paper compares
/// `f(x; C_i)` against `f(x; C_j)`.
pub fn penalized_loss<L: Learner>(
    learner: &L,
    params: &ParamVec,
    pairs: &[(&L::Sample, f32)],
    cfg: &PenaltyConfig,
) -> f32 {
    // One evaluation pass: the weighted mean and the per-group means both
    // derive from the same per-sample losses.
    let losses = pair_losses(learner, params, pairs);
    let base = weighted_mean(pairs, &losses);
    if cfg.lambda1 == 0.0 && cfg.lambda2 == 0.0 {
        return base;
    }
    let l2 = params.l2_norm();
    let s = if cfg.lambda2 != 0.0 {
        sigma(&group_means(learner, pairs, &losses))
    } else {
        0.0
    };
    base + cfg.lambda1 * l2 + cfg.lambda2 * s
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let g0 = Pt { x: 1.0, y: 1.0, group: 0 }; // loss 0
        let g1 = Pt { x: 1.0, y: 3.0, group: 1 }; // loss 4
        let gl = group_losses(&l, l.params(), &[(&g0, 1.0), (&g1, 1.0)]);
        assert_eq!(gl.len(), 4);
        assert!((gl[0] - 0.0).abs() < 1e-6);
        assert!((gl[1] - 4.0).abs() < 1e-6);
        assert_eq!(gl[2], 0.0);
    }

    #[test]
    fn penalties_increase_the_loss() {
        let l = LineLearner::new(2.0, -1.0);
        let pts = [
            Pt { x: 0.5, y: 0.3, group: 0 },
            Pt { x: -0.5, y: -1.7, group: 1 },
        ];
        let pairs: Vec<(&Pt, f32)> = pts.iter().map(|p| (p, 1.0)).collect();
        let plain = penalized_loss(&l, l.params(), &pairs, &PenaltyConfig::none());
        let pen = penalized_loss(
            &l,
            l.params(),
            &pairs,
            &PenaltyConfig { lambda1: 0.1, lambda2: 0.1 },
        );
        assert!(pen > plain);
    }

    /// A [`LineLearner`] that counts its per-sample evaluations.
    struct Counting {
        inner: LineLearner,
        calls: std::cell::Cell<usize>,
    }

    impl Learner for Counting {
        type Sample = Pt;

        fn params(&self) -> &ParamVec {
            self.inner.params()
        }

        fn set_params(&mut self, params: ParamVec) {
            self.inner.set_params(params);
        }

        fn loss_with(&self, p: &ParamVec, s: &Pt) -> f32 {
            self.calls.set(self.calls.get() + 1);
            self.inner.loss_with(p, s)
        }

        fn train_step(&mut self, batch: &[(&Pt, f32)]) -> f32 {
            self.inner.train_step(batch)
        }

        fn group_of(&self, s: &Pt) -> usize {
            self.inner.group_of(s)
        }

        fn n_groups(&self) -> usize {
            self.inner.n_groups()
        }
    }

    #[test]
    fn penalized_loss_evaluates_each_pair_once() {
        // The weighted mean and the per-group means of a λ₂ ≠ 0 call share
        // one evaluation pass: n model evaluations, not 2n.
        let l = Counting { inner: LineLearner::new(2.0, -1.0), calls: std::cell::Cell::new(0) };
        let pts: Vec<Pt> =
            (0..9).map(|i| Pt { x: i as f32 * 0.3, y: 0.1 * i as f32, group: i % 4 }).collect();
        let pairs: Vec<(&Pt, f32)> = pts.iter().map(|p| (p, 1.0 + p.x)).collect();
        let cfg = PenaltyConfig { lambda1: 1e-4, lambda2: 1e-2 };
        let pen = penalized_loss(&l, l.params(), &pairs, &cfg);
        assert_eq!(l.calls.get(), pairs.len());
        // Same value as composing the two public wrappers (2n evaluations).
        let composed = crate::learner::weighted_mean_loss(&l, l.params(), &pairs)
            + cfg.lambda1 * l.params().l2_norm()
            + cfg.lambda2 * sigma(&group_losses(&l, l.params(), &pairs));
        assert_eq!(pen.to_bits(), composed.to_bits());
        assert_eq!(l.calls.get(), 3 * pairs.len());
    }

    #[test]
    fn zero_lambdas_reduce_to_mean_loss() {
        let l = LineLearner::new(1.0, 0.0);
        let p = Pt { x: 1.0, y: 2.0, group: 0 };
        let loss = penalized_loss(&l, l.params(), &[(&p, 1.0)], &PenaltyConfig::none());
        assert!((loss - 1.0).abs() < 1e-6); // (1*1+0-2)^2 = 1
    }
}
