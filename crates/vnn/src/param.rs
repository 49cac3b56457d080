//! Flat parameter vectors.
//!
//! LbChat treats a model as an opaque parameter vector: it sparsifies it
//! (top-k), averages it against peer models, and serializes it onto a
//! simulated radio. [`ParamVec`] is that vector, with the handful of vector
//! operations the rest of the stack needs.

use rand::{Rng, RngExt};

/// A model's parameters as one contiguous `f32` vector.
///
/// All models in this workspace expose their weights through a `ParamVec`, so
/// compression, aggregation, and serialization are model-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamVec {
    data: Vec<f32>,
}

impl ParamVec {
    /// Creates a zero-initialized vector of `len` parameters.
    pub fn zeros(len: usize) -> Self {
        Self { data: vec![0.0; len] }
    }

    /// Wraps an existing vector of parameters.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self { data }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw parameters.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw parameters.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Fills a segment `[offset, offset + fan_out * (fan_in + 1))` with
    /// Xavier/Glorot-uniform weights for a dense layer (bias zeroed).
    ///
    /// Kept on `ParamVec` so every model built on this crate initializes
    /// identically given the same seed — the paper assumes "the models on
    /// vehicles have the same initialization".
    pub fn xavier_dense<R: Rng + ?Sized>(
        &mut self,
        offset: usize,
        fan_in: usize,
        fan_out: usize,
        rng: &mut R,
    ) {
        let bound = (6.0f32 / (fan_in + fan_out) as f32).sqrt();
        let w_end = offset + fan_in * fan_out;
        for w in &mut self.data[offset..w_end] {
            *w = rng.random_range(-bound..bound);
        }
        for b in &mut self.data[w_end..w_end + fan_out] {
            *b = 0.0;
        }
    }

    /// `self += alpha * other`, the BLAS `axpy` primitive used by SGD and
    /// by model aggregation.
    ///
    /// # Panics
    /// Panics if the two vectors have different lengths.
    pub fn axpy(&mut self, alpha: f32, other: &ParamVec) {
        assert_eq!(self.len(), other.len(), "axpy length mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every parameter by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Euclidean (L2) norm, used by the structural-risk penalty of Eq. (6).
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| (*x as f64) * (*x as f64)).sum::<f64>().sqrt() as f32
    }

    /// Euclidean distance to another vector — the parameter-space metric of
    /// the continuous-and-bounded (CnB) learning definition (Def. II.1).
    ///
    /// # Panics
    /// Panics if the two vectors have different lengths.
    pub fn distance(&self, other: &ParamVec) -> f32 {
        assert_eq!(self.len(), other.len(), "distance length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let d = (*a - *b) as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Returns the convex combination `w_a * a + w_b * b` with weights
    /// normalized to sum to one — the primitive behind Eq. (8) aggregation.
    ///
    /// # Panics
    /// Panics if lengths differ or both weights are zero/non-finite.
    pub fn weighted_average(a: &ParamVec, w_a: f32, b: &ParamVec, w_b: f32) -> ParamVec {
        assert_eq!(a.len(), b.len(), "weighted_average length mismatch");
        let sum = w_a + w_b;
        assert!(sum > 0.0 && sum.is_finite(), "weights must be positive and finite");
        let (wa, wb) = (w_a / sum, w_b / sum);
        let data = a
            .data
            .iter()
            .zip(&b.data)
            .map(|(x, y)| wa * x + wb * y)
            .collect();
        Self { data }
    }
}

impl AsRef<[f32]> for ParamVec {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl From<Vec<f32>> for ParamVec {
    fn from(data: Vec<f32>) -> Self {
        Self { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zeros_is_zero() {
        let p = ParamVec::zeros(5);
        assert_eq!(p.len(), 5);
        assert!(p.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(p.l2_norm(), 0.0);
    }

    #[test]
    fn xavier_bounds_respected() {
        let mut p = ParamVec::zeros(4 * 3 + 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        p.xavier_dense(0, 4, 3, &mut rng);
        let bound = (6.0f32 / 7.0).sqrt();
        for &w in &p.as_slice()[..12] {
            assert!(w.abs() <= bound);
        }
        // bias zeroed
        assert!(p.as_slice()[12..].iter().all(|&b| b == 0.0));
    }

    #[test]
    fn xavier_deterministic_per_seed() {
        let mut a = ParamVec::zeros(20);
        let mut b = ParamVec::zeros(20);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(42);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(42);
        a.xavier_dense(0, 4, 4, &mut r1);
        b.xavier_dense(0, 4, 4, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn axpy_adds_scaled() {
        let mut a = ParamVec::from_vec(vec![1.0, 2.0]);
        let b = ParamVec::from_vec(vec![10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
    }

    #[test]
    fn weighted_average_normalizes() {
        let a = ParamVec::from_vec(vec![0.0, 0.0]);
        let b = ParamVec::from_vec(vec![4.0, 8.0]);
        let avg = ParamVec::weighted_average(&a, 1.0, &b, 3.0);
        assert_eq!(avg.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = ParamVec::from_vec(vec![0.0, 3.0]);
        let b = ParamVec::from_vec(vec![4.0, 0.0]);
        assert!((a.distance(&b) - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_length_mismatch_panics() {
        let mut a = ParamVec::zeros(2);
        let b = ParamVec::zeros(3);
        a.axpy(1.0, &b);
    }
}
