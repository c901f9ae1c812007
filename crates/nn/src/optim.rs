//! Optimizers operating on the flat parameter vector.
//!
//! Both optimizers implement the [`Optimizer`] trait and mutate a `&mut [f32]`
//! parameter slice in place given a same-length gradient slice. Using the flat
//! representation keeps the optimizers oblivious to layer structure and reuses
//! the same coordinate system as coverage analysis and fault injection.

use crate::{NnError, Result};

/// A gradient-descent style optimizer over the flat parameter vector.
pub trait Optimizer {
    /// Apply one update step: mutate `params` in place using `grads`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when the two slices disagree in
    /// length (or differ from the length seen at the first step).
    fn step(&mut self, params: &mut [f32], grads: &[f32]) -> Result<()>;

    /// Learning rate currently in effect.
    fn learning_rate(&self) -> f32;

    /// Change the learning rate (used by simple decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

fn check_lengths(params: &[f32], grads: &[f32]) -> Result<()> {
    if params.len() != grads.len() {
        return Err(NnError::ParamLengthMismatch {
            expected: params.len(),
            got: grads.len(),
        });
    }
    Ok(())
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) -> Result<()> {
        check_lengths(params, grads)?;
        if self.velocity.len() != params.len() {
            self.velocity = vec![0.0; params.len()];
        }
        for i in 0..params.len() {
            self.velocity[i] = self.momentum * self.velocity[i] - self.lr * grads[i];
            params[i] += self.velocity[i];
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba) over the flat parameter vector.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam with the usual defaults (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) -> Result<()> {
        check_lengths(params, grads)?;
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
            self.t = 0;
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grads[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 starting from 0 and check convergence.
    fn minimize_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut params = vec![0.0f32];
        for _ in 0..steps {
            let grads = vec![2.0 * (params[0] - 3.0)];
            opt.step(&mut params, &grads).unwrap();
        }
        params[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let x = minimize_quadratic(&mut opt, 200);
        assert!((x - 3.0).abs() < 1e-3, "sgd converged to {x}");
    }

    #[test]
    fn sgd_momentum_converges_faster_than_plain() {
        let mut plain = Sgd::new(0.01);
        let mut momentum = Sgd::with_momentum(0.01, 0.9);
        let x_plain = minimize_quadratic(&mut plain, 50);
        let x_momentum = minimize_quadratic(&mut momentum, 50);
        assert!((x_momentum - 3.0).abs() < (x_plain - 3.0).abs());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        let x = minimize_quadratic(&mut opt, 300);
        assert!((x - 3.0).abs() < 1e-2, "adam converged to {x}");
    }

    #[test]
    fn step_rejects_mismatched_lengths() {
        let mut opt = Sgd::new(0.1);
        let mut params = vec![0.0f32; 3];
        assert!(opt.step(&mut params, &[0.0; 2]).is_err());
        let mut adam = Adam::new(0.1);
        assert!(adam.step(&mut params, &[0.0; 4]).is_err());
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.05);
        assert_eq!(opt.learning_rate(), 0.05);
        let mut sgd = Sgd::new(1.0);
        sgd.set_learning_rate(0.2);
        assert_eq!(sgd.learning_rate(), 0.2);
    }
}
