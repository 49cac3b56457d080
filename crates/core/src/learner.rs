//! The task abstraction: what LbChat needs from a trainable model.
//!
//! LbChat is task-agnostic — the paper notes "the coreset-sharing based
//! model training paradigm proposed in this work can also be applied to a
//! spectrum of tasks and models". Everything the algorithm touches goes
//! through this trait: flat parameters for compression/aggregation,
//! per-sample losses for coreset construction and valuation, grouped losses
//! for the Eq. (6) command-entropy penalty, and weighted minibatch training.

use vnn::ParamVec;

pub use vnn::TrainStats;

/// A trainable model over samples of type `Self::Sample`.
///
/// Implementations must keep their entire state in the [`ParamVec`] exposed
/// by [`Learner::params`]: LbChat replaces it wholesale when aggregating
/// peer models (Eq. 8).
pub trait Learner {
    /// One training sample (e.g. a BEV driving frame).
    type Sample: Clone;

    /// Flat parameter vector (the `x` of the paper).
    fn params(&self) -> &ParamVec;

    /// Replaces the parameters (used after aggregation).
    ///
    /// # Panics
    /// Implementations panic if the length differs from [`Learner::params`].
    fn set_params(&mut self, params: ParamVec);

    /// Adds `alpha · v` to the parameters outside the optimizer (a
    /// local-step correction such as ProxSkip's control-variate drift),
    /// keeping optimizer state. Default: a clone of [`Learner::params`],
    /// `axpy`, then [`Learner::set_params`]; an override must leave the
    /// same bits without the copy.
    ///
    /// # Panics
    /// Panics if `v`'s length differs from [`Learner::params`].
    fn add_scaled_params(&mut self, alpha: f32, v: &ParamVec) {
        let mut p = self.params().clone();
        p.axpy(alpha, v);
        self.set_params(p);
    }

    /// Per-sample loss `f(x; d)` under the current parameters. Default:
    /// [`Learner::loss_with`] at [`Learner::params`].
    fn loss(&self, sample: &Self::Sample) -> f32 {
        self.loss_with(self.params(), sample)
    }

    /// Per-sample loss under an arbitrary parameter vector of the same
    /// layout — used to evaluate *compressed* copies of a model without
    /// cloning the learner.
    fn loss_with(&self, params: &ParamVec, sample: &Self::Sample) -> f32;

    /// [`Learner::loss_with`] of every sample of `samples`, written to
    /// `out` (cleared first) in sample order — the one evaluation pass
    /// every loss consumer (valuation, φ, Eq. 8 weighting, coreset
    /// construction, eval curves) goes through.
    ///
    /// Contract: `out[k]` must equal `loss_with(params, samples[k])` to the
    /// bit. The default is that per-sample loop; override it only to
    /// *batch* the same arithmetic (one forward pass over many samples),
    /// never to change it.
    fn losses_with(&self, params: &ParamVec, samples: &[&Self::Sample], out: &mut Vec<f32>) {
        out.clear();
        out.extend(samples.iter().map(|s| self.loss_with(params, s)));
    }

    /// Performs one weighted minibatch SGD step; `batch` pairs samples with
    /// their weights. Returns the weighted mean loss of the batch before the
    /// step. Implementations should no-op on an empty batch and return 0.
    fn train_step(&mut self, batch: &[(&Self::Sample, f32)]) -> f32;

    /// Group of a sample for the problem-dependent penalty `σ(x)` of
    /// Eq. (6) — the high-level driving command in the paper's task.
    fn group_of(&self, sample: &Self::Sample) -> usize;

    /// Number of distinct groups (must be ≥ 1).
    fn n_groups(&self) -> usize;

    /// Notifies the learner that its parameters were replaced externally
    /// (aggregation), so stale optimizer state (momentum) can be reset.
    /// Default: no-op.
    fn on_params_replaced(&mut self) {}

    /// Drains the training-kernel statistics accumulated since the last
    /// call (batches and samples — see [`TrainStats`]). The
    /// runtime emits them as `train.*` observability counters after each
    /// local-training burst. Default: always zero, for learners that do not
    /// instrument their training path.
    fn take_train_stats(&mut self) -> TrainStats {
        TrainStats::default()
    }
}

/// Per-sample losses of a contiguous run of samples under `params`, written
/// to `out` through one [`Learner::losses_with`] pass.
pub(crate) fn slice_losses<L: Learner>(
    learner: &L,
    params: &ParamVec,
    samples: &[L::Sample],
    out: &mut Vec<f32>,
) {
    let refs: Vec<&L::Sample> = samples.iter().collect();
    learner.losses_with(params, &refs, out);
}

/// Per-sample losses of the samples of `pairs` under `params`, in pair
/// order, through one [`Learner::losses_with`] pass — the buffer
/// [`weighted_mean`] and `penalty::group_means` both read, so a penalized
/// loss evaluates each sample once.
pub(crate) fn pair_losses<L: Learner>(
    learner: &L,
    params: &ParamVec,
    pairs: &[(&L::Sample, f32)],
) -> Vec<f32> {
    let samples: Vec<&L::Sample> = pairs.iter().map(|(s, _)| *s).collect();
    let mut losses = Vec::new();
    learner.losses_with(params, &samples, &mut losses);
    losses
}

/// `Σ w·loss / Σ w` of already-evaluated per-sample `losses` (parallel to
/// `pairs`), accumulated in f64 in pair order. Returns 0 for an empty (or
/// zero-weight) set.
pub(crate) fn weighted_mean<S>(pairs: &[(&S, f32)], losses: &[f32]) -> f32 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for ((_, w), l) in pairs.iter().zip(losses) {
        num += (*w as f64) * *l as f64;
        den += *w as f64;
    }
    if den == 0.0 {
        0.0
    } else {
        (num / den) as f32
    }
}

/// Convenience: weighted mean loss of a learner over `(sample, weight)`
/// pairs, `Σ w·f(x;d) / Σ w`. Returns 0 for an empty set.
pub fn weighted_mean_loss<L: Learner>(
    learner: &L,
    params: &ParamVec,
    pairs: &[(&L::Sample, f32)],
) -> f32 {
    weighted_mean(pairs, &pair_losses(learner, params, pairs))
}

/// Unweighted mean loss of `samples` under `params`, accumulated in f64 in
/// sample order — the eval-curve statistic. Returns 0 for an empty set.
pub fn mean_loss<L: Learner>(learner: &L, params: &ParamVec, samples: &[&L::Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut losses = Vec::new();
    learner.losses_with(params, samples, &mut losses);
    let mut acc = 0.0f64;
    for &l in &losses {
        acc += l as f64;
    }
    acc / samples.len() as f64
}

/// Mean over `learners` of each one's [`mean_loss`] on `eval` under its own
/// parameters — the eval-curve statistic every method reports. Returns 0
/// for an empty fleet or an empty evaluation set.
pub fn mean_eval_loss<'a, L: Learner + 'a>(
    learners: impl IntoIterator<Item = &'a L>,
    eval: &[L::Sample],
) -> f64 {
    let refs: Vec<&L::Sample> = eval.iter().collect();
    let (mut total, mut n) = (0.0f64, 0usize);
    for learner in learners {
        total += mean_loss(learner, learner.params(), &refs);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A tiny analytic learner used by the crate's unit tests: scalar
    //! samples, a 2-parameter model predicting `y = a·x + b`, squared loss.
    //! Cheap, deterministic, and convex — ideal for testing the machinery
    //! around it.

    use super::Learner;
    use vnn::ParamVec;

    /// Sample: input, target, group.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Pt {
        pub x: f32,
        pub y: f32,
        pub group: usize,
    }

    /// `y = a·x + b` with squared loss.
    #[derive(Debug, Clone)]
    pub struct LineLearner {
        pub params: ParamVec,
        pub lr: f32,
        pub groups: usize,
    }

    impl LineLearner {
        pub fn new(a: f32, b: f32) -> Self {
            Self { params: ParamVec::from_vec(vec![a, b]), lr: 0.05, groups: 4 }
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
            let pred = w[0] * s.x + w[1];
            (pred - s.y) * (pred - s.y)
        }

        fn train_step(&mut self, batch: &[(&Pt, f32)]) -> f32 {
            if batch.is_empty() {
                return 0.0;
            }
            let w = self.params.as_slice();
            let (mut ga, mut gb, mut loss, mut wsum) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (s, wt) in batch {
                let pred = w[0] * s.x + w[1];
                let r = pred - s.y;
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

        fn group_of(&self, s: &Pt) -> usize {
            s.group
        }

        fn n_groups(&self) -> usize {
            self.groups
        }
    }

    /// Samples from `y = a·x + b` with group = quadrant of x.
    pub fn line_data(a: f32, b: f32, n: usize) -> Vec<Pt> {
        (0..n)
            .map(|i| {
                let x = (i as f32 / n as f32) * 4.0 - 2.0;
                Pt { x, y: a * x + b, group: (i * 4 / n).min(3) }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn line_learner_fits_a_line() {
        let mut l = LineLearner::new(0.0, 0.0);
        let data = line_data(2.0, -1.0, 50);
        for _ in 0..500 {
            let batch: Vec<(&Pt, f32)> = data.iter().map(|s| (s, 1.0)).collect();
            l.train_step(&batch);
        }
        let p = l.params().as_slice();
        assert!((p[0] - 2.0).abs() < 0.05, "slope {}", p[0]);
        assert!((p[1] + 1.0).abs() < 0.05, "intercept {}", p[1]);
    }

    #[test]
    fn weighted_mean_loss_respects_weights() {
        let l = LineLearner::new(1.0, 0.0);
        let good = Pt { x: 1.0, y: 1.0, group: 0 }; // loss 0
        let bad = Pt { x: 1.0, y: 3.0, group: 0 }; // loss 4
        let even = weighted_mean_loss(&l, l.params(), &[(&good, 1.0), (&bad, 1.0)]);
        assert!((even - 2.0).abs() < 1e-6);
        let skewed = weighted_mean_loss(&l, l.params(), &[(&good, 3.0), (&bad, 1.0)]);
        assert!((skewed - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_set_has_zero_loss() {
        let l = LineLearner::new(1.0, 0.0);
        assert_eq!(weighted_mean_loss(&l, l.params(), &[]), 0.0);
    }
}
