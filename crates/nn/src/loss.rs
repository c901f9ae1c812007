//! Loss functions: cross-entropy (with built-in softmax) and mean squared error.
//!
//! Both losses return the scalar loss value together with the gradient of that
//! value with respect to the network output (the logits), averaged over the
//! batch — exactly the `grad_output` expected by [`crate::Network::backward`].

use dnnip_tensor::{ops, Tensor};

use crate::{NnError, Result};

/// Which loss function to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Loss {
    /// Softmax cross-entropy against integer class labels (the paper's setting).
    #[default]
    CrossEntropy,
    /// Mean squared error against a dense target tensor.
    MeanSquaredError,
}

/// Value and gradient of a loss evaluation.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Scalar loss value, averaged over the batch.
    pub value: f32,
    /// Gradient of the loss with respect to the logits, shape `[N, classes]`.
    pub grad_logits: Tensor,
}

/// One-hot encode integer labels into a `[N, classes]` tensor.
///
/// # Errors
///
/// Returns [`NnError::InvalidLabel`] when a label is `>= classes`.
pub fn one_hot(labels: &[usize], classes: usize) -> Result<Tensor> {
    let mut data = vec![0.0f32; labels.len() * classes];
    for (i, &label) in labels.iter().enumerate() {
        if label >= classes {
            return Err(NnError::InvalidLabel { label, classes });
        }
        data[i * classes + label] = 1.0;
    }
    Ok(Tensor::from_vec(data, &[labels.len(), classes])?)
}

/// Softmax cross-entropy loss for a batch of logits against integer labels.
///
/// The gradient is the familiar `(softmax(logits) - onehot) / N`.
///
/// # Errors
///
/// Returns an error when the logits are not `[N, classes]`, the label count does
/// not match the batch size, or a label is out of range.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<LossOutput> {
    if logits.ndim() != 2 {
        return Err(NnError::BadInputShape {
            layer: "cross_entropy".to_string(),
            got: logits.shape().to_vec(),
            expected: "[N, classes]".to_string(),
        });
    }
    let (n, classes) = (logits.shape()[0], logits.shape()[1]);
    if labels.len() != n {
        return Err(NnError::InvalidTrainingData(format!(
            "{} labels for a batch of {n} samples",
            labels.len()
        )));
    }
    let probs = ops::softmax(logits)?;
    let mut loss = 0.0f32;
    let mut grad = probs.data().to_vec();
    for (i, &label) in labels.iter().enumerate() {
        if label >= classes {
            return Err(NnError::InvalidLabel { label, classes });
        }
        let p = probs.data()[i * classes + label].max(1e-12);
        loss -= p.ln();
        grad[i * classes + label] -= 1.0;
    }
    let scale = 1.0 / n as f32;
    for g in &mut grad {
        *g *= scale;
    }
    Ok(LossOutput {
        value: loss * scale,
        grad_logits: Tensor::from_vec(grad, &[n, classes])?,
    })
}

/// Mean squared error between a prediction and a dense target of the same shape.
///
/// # Errors
///
/// Returns an error when the shapes differ.
fn mean_squared_error(prediction: &Tensor, target: &Tensor) -> Result<LossOutput> {
    let diff = prediction.sub(target)?;
    let n = diff.len().max(1) as f32;
    let value = diff.map(|x| x * x).sum() / n;
    let grad = diff.scale(2.0 / n);
    Ok(LossOutput {
        value,
        grad_logits: grad,
    })
}

impl Loss {
    /// Evaluate the loss for a batch of logits and integer labels.
    ///
    /// For [`Loss::MeanSquaredError`] the labels are one-hot encoded first.
    ///
    /// # Errors
    ///
    /// Propagates the underlying loss function's errors.
    pub fn evaluate(self, logits: &Tensor, labels: &[usize]) -> Result<LossOutput> {
        match self {
            Loss::CrossEntropy => cross_entropy(logits, labels),
            Loss::MeanSquaredError => {
                let classes = logits.shape().last().copied().unwrap_or(0);
                let target = one_hot(labels, classes)?;
                mean_squared_error(logits, &target)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_encoding() {
        let t = one_hot(&[0, 2, 1], 3).unwrap();
        assert_eq!(t.shape(), &[3, 3]);
        assert_eq!(t.data(), &[1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        assert!(one_hot(&[3], 3).is_err());
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        // Confident and correct prediction -> low loss.
        let good = Tensor::from_vec(vec![10.0, 0.0, 0.0], &[1, 3]).unwrap();
        let bad = Tensor::from_vec(vec![0.0, 10.0, 0.0], &[1, 3]).unwrap();
        let l_good = cross_entropy(&good, &[0]).unwrap().value;
        let l_bad = cross_entropy(&bad, &[0]).unwrap().value;
        assert!(l_good < 0.01);
        assert!(l_bad > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(vec![0.5, -0.2, 1.3, 0.1, 0.0, -0.7], &[2, 3]).unwrap();
        let labels = [2usize, 0];
        let out = cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let num = (cross_entropy(&lp, &labels).unwrap().value
                - cross_entropy(&lm, &labels).unwrap().value)
                / (2.0 * eps);
            let ana = out.grad_logits.data()[idx];
            assert!(
                (num - ana).abs() < 1e-3,
                "grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn cross_entropy_validates_inputs() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(cross_entropy(&logits, &[0]).is_err());
        assert!(cross_entropy(&logits, &[0, 5]).is_err());
        assert!(cross_entropy(&Tensor::zeros(&[6]), &[0]).is_err());
    }

    #[test]
    fn mse_value_and_gradient() {
        let pred = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let target = Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap();
        let out = mean_squared_error(&pred, &target).unwrap();
        assert!((out.value - 2.5).abs() < 1e-6);
        assert_eq!(out.grad_logits.data(), &[1.0, 2.0]);
        assert!(mean_squared_error(&pred, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn loss_enum_dispatch() {
        let logits = Tensor::from_vec(vec![2.0, -1.0, 0.5, 0.0, 1.0, -2.0], &[2, 3]).unwrap();
        let labels = [0usize, 1];
        let ce = Loss::CrossEntropy.evaluate(&logits, &labels).unwrap();
        let mse = Loss::MeanSquaredError.evaluate(&logits, &labels).unwrap();
        assert!(ce.value > 0.0);
        assert!(mse.value > 0.0);
        assert_eq!(ce.grad_logits.shape(), logits.shape());
        assert_eq!(mse.grad_logits.shape(), logits.shape());
        assert_eq!(Loss::default(), Loss::CrossEntropy);
    }
}
