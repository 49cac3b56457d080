//! The mapping function φ: predicted coreset loss of a compressed model as
//! a function of the reciprocal compression ratio ψ (§III-C).
//!
//! A vehicle samples a handful of ψ values, actually compresses its model at
//! each, evaluates every compressed copy on its own coreset (cheap — the
//! coreset is small), and fits a smooth curve through the
//! `(ψ_k, f(x̂^{ψ_k}; C))` pairs using Akima's local sub-spline
//! interpolation (Akima, JACM 1970 — the paper's reference \[21\]). The
//! resulting φ is exchanged (as its sample points) and drives the Eq. (7)
//! optimization.

use crate::compress::MagnitudeOrder;
use crate::learner::Learner;
use crate::penalty::{penalized_loss, PenaltyConfig};
use crate::WeightedDataset;

/// Default ψ sampling grid (always includes the endpoints the paper lists).
pub const DEFAULT_PSI_GRID: &[f32] = &[0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0];

/// Akima's interpolation through monotonically increasing knots.
///
/// Akima's method fits a piecewise cubic using local slope estimates that
/// avoid the overshoot of global splines — well suited to the small, noisy
/// loss-vs-ψ samples exchanged between vehicles. Inputs outside the knot
/// range are clamped to the boundary values.
#[derive(Debug, Clone, PartialEq)]
pub struct Akima {
    x: Vec<f64>,
    y: Vec<f64>,
    /// Per-knot derivative estimates.
    t: Vec<f64>,
}

impl Akima {
    /// Fits the interpolant.
    ///
    /// # Panics
    /// Panics with fewer than 2 points or non-increasing x.
    pub fn fit(x: &[f64], y: &[f64]) -> Self {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(x.len() >= 2, "Akima needs at least two points");
        assert!(
            x.windows(2).all(|w| w[1] > w[0]),
            "x must be strictly increasing"
        );
        let n = x.len();
        // Segment slopes m_i for i in 0..n-1, padded with Akima's boundary
        // extrapolation: two virtual slopes on each side.
        let mut m = Vec::with_capacity(n + 3);
        for i in 0..n - 1 {
            m.push((y[i + 1] - y[i]) / (x[i + 1] - x[i]));
        }
        // Boundary padding (Akima 1970): m[-1] = 2m[0] - m[1], etc.
        let m0 = m[0];
        let m1 = if m.len() > 1 { m[1] } else { m[0] };
        let ml = m[m.len() - 1];
        let ml2 = if m.len() > 1 { m[m.len() - 2] } else { ml };
        let mut padded = vec![2.0 * (2.0 * m0 - m1) - m0, 2.0 * m0 - m1];
        padded.extend_from_slice(&m);
        padded.push(2.0 * ml - ml2);
        padded.push(2.0 * (2.0 * ml - ml2) - ml);
        // Derivative at each knot i uses slopes padded[i..i+4].
        let mut t = Vec::with_capacity(n);
        for i in 0..n {
            let (m1, m2, m3, m4) =
                (padded[i], padded[i + 1], padded[i + 2], padded[i + 3]);
            let w1 = (m4 - m3).abs();
            let w2 = (m2 - m1).abs();
            let ti = if w1 + w2 < 1e-12 {
                0.5 * (m2 + m3)
            } else {
                (w1 * m2 + w2 * m3) / (w1 + w2)
            };
            t.push(ti);
        }
        Self { x: x.to_vec(), y: y.to_vec(), t }
    }

    /// Evaluates the interpolant at `xq` (clamped to the knot range).
    pub fn eval(&self, xq: f64) -> f64 {
        let n = self.x.len();
        if xq <= self.x[0] {
            return self.y[0];
        }
        if xq >= self.x[n - 1] {
            return self.y[n - 1];
        }
        // Find the segment by binary search.
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.x[mid] <= xq {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let h = self.x[lo + 1] - self.x[lo];
        let s = (xq - self.x[lo]) / h;
        let (y0, y1) = (self.y[lo], self.y[lo + 1]);
        let (t0, t1) = (self.t[lo] * h, self.t[lo + 1] * h);
        // Cubic Hermite basis.
        let s2 = s * s;
        let s3 = s2 * s;
        y0 * (2.0 * s3 - 3.0 * s2 + 1.0)
            + t0 * (s3 - 2.0 * s2 + s)
            + y1 * (-2.0 * s3 + 3.0 * s2)
            + t1 * (s3 - s2)
    }
}

/// The sampled loss-vs-ψ curve a vehicle computes for its own model and
/// shares with the peer ("a vehicle exchanges the results with the
/// encountered peer").
#[derive(Debug, Clone, PartialEq)]
pub struct PhiCurve {
    /// Sampled ψ values, strictly increasing.
    pub psi: Vec<f32>,
    /// Penalized coreset loss of the model compressed at each ψ.
    pub loss: Vec<f32>,
    fit: Akima,
}

impl PhiCurve {
    /// Builds φ for `learner`'s current model: compresses at every ψ in
    /// `grid`, evaluates each compressed copy on `coreset` with the Eq. (6)
    /// penalties, and Akima-fits the pairs.
    ///
    /// # Panics
    /// Panics if `grid` has fewer than 2 values or is not strictly
    /// increasing within (0, 1].
    pub fn sample<L: Learner>(
        learner: &L,
        coreset: &WeightedDataset<L::Sample>,
        grid: &[f32],
        penalty: &PenaltyConfig,
    ) -> Self {
        assert!(grid.len() >= 2, "phi needs at least two psi samples");
        assert!(
            grid.windows(2).all(|w| w[1] > w[0]) && grid[0] > 0.0 && grid[grid.len() - 1] <= 1.0,
            "psi grid must be strictly increasing within (0, 1]"
        );
        let pairs = coreset.pairs();
        let psi = grid.to_vec();
        let mut loss = vec![0.0f32; grid.len()];
        // Largest ψ first: each cut of the magnitude order then partitions
        // only the prefix the cut before it left, and one buffer narrows
        // from the dense model down through every compressed copy.
        let mut order = MagnitudeOrder::new(learner.params());
        let (mut compressed, mut from) = (learner.params().clone(), 1.0);
        for (&p, l) in grid.iter().zip(&mut loss).rev() {
            order.narrow(&mut compressed, from, p);
            from = p;
            *l = penalized_loss(learner, &compressed, &pairs, penalty);
        }
        let fit = Akima::fit(
            &psi.iter().map(|&v| v as f64).collect::<Vec<_>>(),
            &loss.iter().map(|&v| v as f64).collect::<Vec<_>>(),
        );
        Self { psi, loss, fit }
    }

    /// Reconstructs a curve from exchanged sample points (the peer side).
    ///
    /// # Panics
    /// Panics on fewer than 2 points or non-increasing ψ.
    pub fn from_points(psi: Vec<f32>, loss: Vec<f32>) -> Self {
        let fit = Akima::fit(
            &psi.iter().map(|&v| v as f64).collect::<Vec<_>>(),
            &loss.iter().map(|&v| v as f64).collect::<Vec<_>>(),
        );
        Self { psi, loss, fit }
    }

    /// Predicted compressed-model loss at `psi` (clamped to the sampled
    /// range).
    pub fn predict(&self, psi: f32) -> f32 {
        self.fit.eval(psi as f64) as f32
    }

    /// Loss of the uncompressed model (`ψ = 1`).
    #[expect(
        clippy::expect_used,
        reason = "every constructor Akima-fits the points first, and the fit asserts at least two"
    )]
    pub fn uncompressed_loss(&self) -> f32 {
        *self.loss.last().expect("non-empty")
    }

    /// Wire size of the exchanged sample points (two f32 per point).
    pub fn wire_bytes(&self) -> usize {
        self.psi.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::testutil::{line_data, LineLearner};
    use crate::WeightedDataset;

    #[test]
    fn akima_interpolates_knots_exactly() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 0.5, 0.4, 0.35, 0.34];
        let a = Akima::fit(&x, &y);
        for (xi, yi) in x.iter().zip(&y) {
            assert!((a.eval(*xi) - yi).abs() < 1e-9);
        }
    }

    #[test]
    fn akima_reproduces_a_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [0.0, 2.0, 4.0, 6.0];
        let a = Akima::fit(&x, &y);
        for q in [0.5, 1.25, 2.9] {
            assert!((a.eval(q) - 2.0 * q).abs() < 1e-9, "line must be exact");
        }
    }

    #[test]
    fn akima_no_overshoot_on_step_like_data() {
        // Classic Akima selling point: flat-flat-rise data should not dip.
        let x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let a = Akima::fit(&x, &y);
        for i in 0..=50 {
            let q = i as f64 * 0.1;
            let v = a.eval(q);
            assert!(
                (-0.05..=1.05).contains(&v),
                "overshoot at {q}: {v}"
            );
        }
    }

    #[test]
    fn akima_clamps_out_of_range() {
        let a = Akima::fit(&[0.0, 1.0], &[3.0, 5.0]);
        assert_eq!(a.eval(-1.0), 3.0);
        assert_eq!(a.eval(2.0), 5.0);
    }

    #[test]
    fn two_point_fit_is_linear() {
        let a = Akima::fit(&[0.0, 2.0], &[0.0, 4.0]);
        assert!((a.eval(1.0) - 2.0).abs() < 1e-9);
    }

    fn trained_learner_and_coreset() -> (LineLearner, WeightedDataset<crate::learner::testutil::Pt>) {
        let mut l = LineLearner::new(0.0, 0.0);
        let data = line_data(2.0, -1.0, 200);
        for _ in 0..300 {
            let batch: Vec<_> = data.iter().map(|s| (s, 1.0)).collect();
            l.train_step(&batch);
        }
        let ds = WeightedDataset::uniform(data);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let c = crate::coreset::construct(&l, &ds, &crate::coreset::CoresetConfig { size: 50 }, &mut rng);
        (l, c)
    }

    #[test]
    fn phi_decreases_with_psi_for_trained_model() {
        let (l, c) = trained_learner_and_coreset();
        let phi = PhiCurve::sample(&l, &c, DEFAULT_PSI_GRID, &PenaltyConfig::none());
        // More of the model (higher psi) means no worse loss.
        let full = phi.predict(1.0);
        let tiny = phi.predict(0.05);
        assert!(
            full <= tiny + 1e-6,
            "loss at psi=1 ({full}) must be <= loss at psi=0.05 ({tiny})"
        );
        assert!((full - phi.uncompressed_loss()).abs() < 1e-5);
    }

    #[test]
    fn phi_roundtrips_through_exchanged_points() {
        let (l, c) = trained_learner_and_coreset();
        let phi = PhiCurve::sample(&l, &c, DEFAULT_PSI_GRID, &PenaltyConfig::none());
        let remote = PhiCurve::from_points(phi.psi.clone(), phi.loss.clone());
        for q in [0.1f32, 0.33, 0.77] {
            assert!((phi.predict(q) - remote.predict(q)).abs() < 1e-6);
        }
    }

    #[test]
    fn phi_wire_size_is_small() {
        let (l, c) = trained_learner_and_coreset();
        let phi = PhiCurve::sample(&l, &c, DEFAULT_PSI_GRID, &PenaltyConfig::none());
        assert!(phi.wire_bytes() < 100, "phi exchange must be negligible");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_grid_panics() {
        let (l, c) = trained_learner_and_coreset();
        let _ = PhiCurve::sample(&l, &c, &[0.5, 0.2], &PenaltyConfig::none());
    }
}
