//! The two-parameter analytic learner `fleet256_w` gossips: `y = a·x + b`
//! with squared loss. Its training and loss calls cost nanoseconds, so a
//! 256-vehicle pass spends its time in the runtime and the network
//! substrate instead of in `vnn`.

use lbchat::prelude::Learner;
use lbchat::WeightedDataset;
use rand::RngExt;
use vnn::ParamVec;

/// One sample: input and target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pt {
    /// Input.
    pub x: f32,
    /// Target.
    pub y: f32,
}

/// `y = a·x + b`, trained by weighted gradient steps.
#[derive(Debug, Clone)]
pub struct Line {
    params: ParamVec,
    lr: f32,
}

impl Line {
    /// The model `(a, b)`.
    pub fn new(a: f32, b: f32) -> Self {
        Self {
            params: ParamVec::from_vec(vec![a, b]),
            lr: 0.05,
        }
    }
}

impl Learner for Line {
    type Sample = Pt;

    fn params(&self) -> &ParamVec {
        &self.params
    }

    fn set_params(&mut self, params: ParamVec) {
        assert_eq!(params.len(), 2, "a line has two parameters");
        self.params = params;
    }

    fn loss(&self, s: &Pt) -> f32 {
        self.loss_with(&self.params, s)
    }

    fn loss_with(&self, p: &ParamVec, s: &Pt) -> f32 {
        let w = p.as_slice();
        let r = w[0] * s.x + w[1] - s.y;
        r * r
    }

    fn train_step(&mut self, batch: &[(&Pt, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let w = self.params.as_slice();
        let (mut ga, mut gb, mut loss, mut wsum) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (s, wt) in batch {
            let r = w[0] * s.x + w[1] - s.y;
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

    fn group_of(&self, _s: &Pt) -> usize {
        0
    }

    fn n_groups(&self) -> usize {
        1
    }
}

/// `n` noisy points of the line `(a, b)` with `x` uniform in [-2, 2].
pub fn line_data(a: f32, b: f32, n: usize, rng: &mut rand::rngs::StdRng) -> WeightedDataset<Pt> {
    WeightedDataset::uniform(
        (0..n)
            .map(|_| {
                let x = rng.random_range(-2.0f32..2.0);
                Pt {
                    x,
                    y: a * x + b + rng.random_range(-0.05f32..0.05),
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn training_fits_the_line() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let data = line_data(2.0, -1.0, 64, &mut rng);
        let mut l = Line::new(0.0, 0.0);
        let batch: Vec<(&Pt, f32)> = data.samples().iter().map(|s| (s, 1.0)).collect();
        let before = l.train_step(&batch);
        for _ in 0..300 {
            l.train_step(&batch);
        }
        let after = l.train_step(&batch);
        assert!(after < before * 0.01, "{before} -> {after}");
        let p = l.params().as_slice();
        assert!(
            (p[0] - 2.0).abs() < 0.05 && (p[1] + 1.0).abs() < 0.05,
            "{p:?}"
        );
    }
}
