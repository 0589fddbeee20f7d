//! Gradient-descent optimizers.
//!
//! Optimizers are addressed through parameter *slots*: each parameter tensor
//! (one weight matrix or bias vector) has a stable integer id, which lets a
//! stateful optimizer (Adam) keep per-tensor state without the layers
//! knowing about it.

use std::collections::HashMap;

/// A gradient-descent update rule.
pub trait Optimizer {
    /// Applies one update to the parameter tensor identified by `slot`.
    fn step(&mut self, slot: usize, param: &mut [f32], grad: &[f32]);

    /// Advances the global step counter (called once per minibatch).
    fn next_step(&mut self) {}
}

/// The Adam optimizer (Kingma & Ba, 2015).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f32,
    /// First-moment decay (typically 0.9).
    pub beta1: f32,
    /// Second-moment decay (typically 0.999).
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub epsilon: f32,
    step: u64,
    moments: HashMap<usize, (Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Creates Adam with standard β values.
    pub fn new(learning_rate: f32) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step: 1,
            moments: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, param: &mut [f32], grad: &[f32]) {
        let (m, v) = self
            .moments
            .entry(slot)
            .or_insert_with(|| (vec![0.0; param.len()], vec![0.0; param.len()]));
        let t = self.step as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (((p, &g), m), v) in param
            .iter_mut()
            .zip(grad)
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }

    fn next_step(&mut self) {
        self.step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)²; the optimizer must converge.
    fn minimize(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let mut x = [0.0f32];
        for _ in 0..iters {
            let grad = [2.0 * (x[0] - 3.0)];
            opt.step(0, &mut x, &grad);
            opt.next_step();
        }
        x[0]
    }

    #[test]
    fn adam_converges() {
        let mut opt = Adam::new(0.1);
        assert!((minimize(&mut opt, 400) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn slots_are_independent() {
        let mut opt = Adam::new(0.1);
        let mut a = [0.0f32];
        let mut b = [0.0f32];
        opt.step(0, &mut a, &[1.0]);
        opt.step(1, &mut b, &[-1.0]);
        // Each slot's moments are its own; the updates must be symmetric.
        assert!((a[0] + b[0]).abs() < 1e-7);
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // With bias correction the first Adam step is ≈ lr regardless of
        // gradient magnitude.
        let mut opt = Adam::new(0.5);
        let mut x = [0.0f32];
        opt.step(0, &mut x, &[1e-4]);
        assert!((x[0] + 0.5).abs() < 1e-2, "x = {}", x[0]);
    }
}
