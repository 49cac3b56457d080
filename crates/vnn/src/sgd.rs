//! Stochastic gradient descent with momentum and weight decay.

/// Classic SGD: `v = mu * v + g + wd * p; p -= lr * v`.
///
/// The momentum buffer is lazily sized on the first [`Sgd::step`] call and
/// reset whenever the parameter length changes (e.g. model replacement).
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    /// Panics if `lr <= 0`, `momentum` is outside `[0, 1)`, or
    /// `weight_decay < 0`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self { lr, momentum, weight_decay, velocity: Vec::new() }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Clears the momentum buffer. Call after replacing the model parameters
    /// with an aggregated model, so stale velocity does not drag the new
    /// model back toward the old one.
    pub fn reset_momentum(&mut self) {
        self.velocity.clear();
    }

    /// Applies one descent step in place.
    ///
    /// # Panics
    /// Panics if `params` and `grad` lengths differ.
    pub fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "params/grad length mismatch");
        if self.velocity.len() != params.len() {
            self.velocity = vec![0.0; params.len()];
        }
        for ((p, g), v) in params.iter_mut().zip(grad).zip(&mut self.velocity) {
            let eff = g + self.weight_decay * *p;
            *v = self.momentum * *v + eff;
            *p -= self.lr * *v;
        }
    }

    /// [`Sgd::step`] with every gradient entry multiplied by `scale` on the
    /// fly — the fused form of "scale the gradient buffer, then step", and
    /// bit-identical to it: `g * scale` here rounds exactly as the separate
    /// scaling pass would, and the rest of the update is unchanged.
    ///
    /// Batched training uses this to divide the accumulated weighted
    /// gradient sum by the total sample weight without an extra pass over
    /// the parameter-sized buffer.
    ///
    /// # Panics
    /// Panics if `params` and `grad` lengths differ.
    pub fn step_scaled(&mut self, params: &mut [f32], grad: &[f32], scale: f32) {
        assert_eq!(params.len(), grad.len(), "params/grad length mismatch");
        if self.velocity.len() != params.len() {
            self.velocity = vec![0.0; params.len()];
        }
        for ((p, g), v) in params.iter_mut().zip(grad).zip(&mut self.velocity) {
            let eff = g * scale + self.weight_decay * *p;
            *v = self.momentum * *v + eff;
            *p -= self.lr * *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut p = [1.0f32, 2.0];
        opt.step(&mut p, &[1.0, -1.0]);
        assert_eq!(p, [0.9, 2.1]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(0.1, 0.5, 0.0);
        let mut p = [0.0f32];
        opt.step(&mut p, &[1.0]); // v=1,   p=-0.1
        opt.step(&mut p, &[1.0]); // v=1.5, p=-0.25
        assert!((p[0] + 0.25).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        let mut p = [10.0f32];
        opt.step(&mut p, &[0.0]);
        assert!((p[0] - 9.9).abs() < 1e-6);
    }

    #[test]
    fn reset_momentum_clears_velocity() {
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let mut p = [0.0f32];
        opt.step(&mut p, &[1.0]);
        opt.reset_momentum();
        let mut q = [0.0f32];
        opt.step(&mut q, &[1.0]);
        assert!((q[0] + 0.1).abs() < 1e-6, "fresh step after reset must ignore history");
    }

    #[test]
    fn quadratic_converges() {
        // minimize (p - 3)^2
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let mut p = [0.0f32];
        for _ in 0..200 {
            let g = [2.0 * (p[0] - 3.0)];
            opt.step(&mut p, &g);
        }
        assert!((p[0] - 3.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_panics() {
        let _ = Sgd::new(0.0, 0.0, 0.0);
    }

    #[test]
    fn step_scaled_matches_prescaled_step_bits() {
        let grad = [0.37f32, -1.2, 0.004, 9.5];
        let scale = 0.311f32;
        let prescaled: Vec<f32> = grad.iter().map(|g| g * scale).collect();
        let mut fused = Sgd::new(0.05, 0.9, 1e-4);
        let mut plain = fused.clone();
        let mut pf = [1.0f32, -2.0, 0.5, 3.0];
        let mut pp = pf;
        for _ in 0..5 {
            fused.step_scaled(&mut pf, &grad, scale);
            plain.step(&mut pp, &prescaled);
        }
        assert_eq!(pf, pp, "fused scaling must be bit-identical");
    }
}
