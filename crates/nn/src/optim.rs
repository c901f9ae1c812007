//! The training loop's update step: SGD with momentum over the flat parameter
//! vector.
//!
//! It mutates a `&mut [f32]` parameter slice in place given a same-length
//! gradient slice. Using the flat representation keeps the step oblivious to
//! layer structure and reuses the same coordinate system as coverage analysis
//! and fault injection.

use crate::{NnError, Result};

/// Stochastic gradient descent with momentum (0.0 gives plain SGD).
#[derive(Debug, Clone)]
pub(crate) struct Sgd {
    pub(crate) lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    pub(crate) fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Apply one update step: mutate `params` in place using `grads`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when the two slices disagree in
    /// length.
    pub(crate) fn step(&mut self, params: &mut [f32], grads: &[f32]) -> Result<()> {
        if params.len() != grads.len() {
            return Err(NnError::ParamLengthMismatch {
                expected: params.len(),
                got: grads.len(),
            });
        }
        if self.velocity.len() != params.len() {
            self.velocity = vec![0.0; params.len()];
        }
        for i in 0..params.len() {
            self.velocity[i] = self.momentum * self.velocity[i] - self.lr * grads[i];
            params[i] += self.velocity[i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 starting from 0 and check convergence.
    fn minimize_quadratic(opt: &mut Sgd, steps: usize) -> f32 {
        let mut params = vec![0.0f32];
        for _ in 0..steps {
            let grads = vec![2.0 * (params[0] - 3.0)];
            opt.step(&mut params, &grads).unwrap();
        }
        params[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        let x = minimize_quadratic(&mut opt, 200);
        assert!((x - 3.0).abs() < 1e-3, "sgd converged to {x}");
    }

    #[test]
    fn sgd_momentum_converges_faster_than_plain() {
        let mut plain = Sgd::new(0.01, 0.0);
        let mut momentum = Sgd::new(0.01, 0.9);
        let x_plain = minimize_quadratic(&mut plain, 50);
        let x_momentum = minimize_quadratic(&mut momentum, 50);
        assert!((x_momentum - 3.0).abs() < (x_plain - 3.0).abs());
    }

    #[test]
    fn step_rejects_mismatched_lengths() {
        let mut opt = Sgd::new(0.1, 0.0);
        let mut params = vec![0.0f32; 3];
        assert!(opt.step(&mut params, &[0.0; 2]).is_err());
        assert!(opt.step(&mut params, &[0.0; 4]).is_err());
    }
}
