//! Network layers with hand-written forward and backward passes.
//!
//! Layers are represented by the [`Layer`] enum rather than trait objects: the set
//! of layer types needed by the paper's Table-I architectures is closed, the enum
//! keeps (de)serialization and exhaustive-match bookkeeping trivial, and no dynamic
//! dispatch is needed on the hot path.
//!
//! Every layer supports:
//!
//! * [`Layer::infer`] — compute the output alone. Convolutions take the blocked
//!   im2col + `gemm` kernel the batched engine uses, so inference and the
//!   engine agree bit for bit.
//! * [`Layer::forward`] — compute the output and a [`LayerCache`] holding exactly
//!   what the backward pass will need. Convolutions take the direct loop nest:
//!   this path is the independent per-sample reference for the engine.
//! * [`Layer::backward`] — given that cache and the gradient of the loss with
//!   respect to the layer's output, produce the gradient with respect to the
//!   layer's **input** and (for parameterized layers) with respect to its
//!   **weights and bias**.
//! * [`Layer::output_shape`] — static shape inference used when the network is
//!   assembled.

mod activation;
mod conv2d;
mod dense;
mod flatten;
mod pool;

pub use activation::{Activation, ActivationLayer};
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;

use dnnip_tensor::Tensor;

use crate::Result;

/// Gradients of a layer's parameters produced by [`Layer::backward`].
#[derive(Debug, Clone)]
pub struct ParamGrads {
    /// Gradient with respect to the weight tensor (same shape as the weights).
    pub weight: Tensor,
    /// Gradient with respect to the bias tensor (same shape as the bias).
    pub bias: Tensor,
}

/// Per-layer state captured during the forward pass and consumed by backward.
#[derive(Debug, Clone)]
pub enum LayerCache {
    /// Convolution cache: the layer input.
    Conv2d {
        /// Input activations seen during forward.
        input: Tensor,
    },
    /// Dense cache: the layer input.
    Dense {
        /// Input activations seen during forward.
        input: Tensor,
    },
    /// Max-pooling cache: argmax bookkeeping plus the input shape.
    MaxPool2d {
        /// Flat input index of the winning element for every output element.
        argmax: Vec<usize>,
        /// Shape of the input tensor.
        input_shape: Vec<usize>,
    },
    /// Flatten cache: the original input shape.
    Flatten {
        /// Shape of the input tensor.
        input_shape: Vec<usize>,
    },
    /// Activation cache: the pre-activation input.
    Activation {
        /// Pre-activation values seen during forward.
        input: Tensor,
    },
}

/// A single network layer.
///
/// See the module documentation for the design rationale. Construct layers via
/// the constructors on the concrete types ([`Conv2d::new`], [`Dense::new`], …) and
/// convert with [`From`].
#[derive(Debug, Clone)]
pub enum Layer {
    /// 2-D convolution with per-output-channel bias.
    Conv2d(Conv2d),
    /// Fully-connected (affine) layer.
    Dense(Dense),
    /// Max pooling over square windows.
    MaxPool2d(MaxPool2d),
    /// Reshape `[N, ...]` to `[N, prod(...)]`.
    Flatten(Flatten),
    /// Element-wise non-linearity.
    Activation(ActivationLayer),
}

impl Layer {
    /// Human-readable layer name (used in error messages and model summaries).
    pub fn name(&self) -> String {
        match self {
            Layer::Conv2d(l) => l.name(),
            Layer::Dense(l) => l.name(),
            Layer::MaxPool2d(l) => l.name(),
            Layer::Flatten(_) => "Flatten".to_string(),
            Layer::Activation(l) => l.name(),
        }
    }

    /// Run the layer for inference: the output alone, with no backward cache.
    ///
    /// A [`Conv2d`] runs the lowering-free GEMM convolution,
    /// `conv2d_forward_gemm` (bit-identical to the batched gradient engine);
    /// every other layer runs the kernel of
    /// [`Layer::forward`] without building its cache.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(l) => l.infer(input),
            Layer::Dense(l) => l.infer(input),
            Layer::MaxPool2d(l) => Ok(l.forward(input)?.0),
            Layer::Flatten(l) => Ok(l.forward(input)?.0),
            Layer::Activation(l) => Ok(l.infer(input)),
        }
    }

    /// Run the layer forward, returning the output and the cache needed by
    /// [`Layer::backward`].
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    pub fn forward(&self, input: &Tensor) -> Result<(Tensor, LayerCache)> {
        match self {
            Layer::Conv2d(l) => l.forward(input),
            Layer::Dense(l) => l.forward(input),
            Layer::MaxPool2d(l) => l.forward(input),
            Layer::Flatten(l) => l.forward(input),
            Layer::Activation(l) => l.forward(input),
        }
    }

    /// Run the layer backward.
    ///
    /// `cache` must be the value produced by the matching [`Layer::forward`] call
    /// and `grad_output` the gradient of the loss with respect to that forward
    /// call's output. Returns the gradient with respect to the input and, for
    /// parameterized layers, the parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns an error when the cache variant or gradient shape does not match
    /// the layer.
    pub fn backward(
        &self,
        cache: &LayerCache,
        grad_output: &Tensor,
    ) -> Result<(Tensor, Option<ParamGrads>)> {
        match self {
            Layer::Conv2d(l) => l.backward(cache, grad_output),
            Layer::Dense(l) => l.backward(cache, grad_output),
            Layer::MaxPool2d(l) => l.backward(cache, grad_output),
            Layer::Flatten(l) => l.backward(cache, grad_output),
            Layer::Activation(l) => l.backward(cache, grad_output),
        }
    }

    /// Shape of the output given an input shape (including the batch dimension).
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>> {
        match self {
            Layer::Conv2d(l) => l.output_shape(input_shape),
            Layer::Dense(l) => l.output_shape(input_shape),
            Layer::MaxPool2d(l) => l.output_shape(input_shape),
            Layer::Flatten(l) => l.output_shape(input_shape),
            Layer::Activation(l) => l.output_shape(input_shape),
        }
    }

    /// Borrow the layer's `(weight, bias)` tensors, if it has any.
    pub fn parameters(&self) -> Option<(&Tensor, &Tensor)> {
        match self {
            Layer::Conv2d(l) => Some(l.parameters()),
            Layer::Dense(l) => Some(l.parameters()),
            _ => None,
        }
    }

    /// Mutably borrow the layer's `(weight, bias)` tensors, if it has any.
    pub fn parameters_mut(&mut self) -> Option<(&mut Tensor, &mut Tensor)> {
        match self {
            Layer::Conv2d(l) => Some(l.parameters_mut()),
            Layer::Dense(l) => Some(l.parameters_mut()),
            _ => None,
        }
    }

    /// Number of scalar parameters in this layer.
    pub fn num_parameters(&self) -> usize {
        self.parameters()
            .map(|(w, b)| w.len() + b.len())
            .unwrap_or(0)
    }

    /// Whether this layer produces a non-linear element-wise activation
    /// (used by neuron-coverage analysis to identify "neurons").
    pub fn is_activation(&self) -> bool {
        matches!(self, Layer::Activation(_))
    }
}

impl From<Conv2d> for Layer {
    fn from(l: Conv2d) -> Self {
        Layer::Conv2d(l)
    }
}

impl From<Dense> for Layer {
    fn from(l: Dense) -> Self {
        Layer::Dense(l)
    }
}

impl From<MaxPool2d> for Layer {
    fn from(l: MaxPool2d) -> Self {
        Layer::MaxPool2d(l)
    }
}

impl From<Flatten> for Layer {
    fn from(l: Flatten) -> Self {
        Layer::Flatten(l)
    }
}

impl From<ActivationLayer> for Layer {
    fn from(l: ActivationLayer) -> Self {
        Layer::Activation(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_are_descriptive() {
        let conv: Layer = Conv2d::with_seed(3, 8, 3, 1, 1, 0).into();
        assert!(conv.name().contains("Conv2d"));
        let dense: Layer = Dense::with_seed(4, 2, 0).into();
        assert!(dense.name().contains("Dense"));
        let pool: Layer = MaxPool2d::new(2, 2).into();
        assert!(pool.name().contains("MaxPool"));
        let act: Layer = ActivationLayer::new(Activation::Relu).into();
        assert!(act.name().contains("Relu"));
        assert_eq!(Layer::from(Flatten::new()).name(), "Flatten");
    }

    #[test]
    fn parameter_counts() {
        let conv: Layer = Conv2d::with_seed(3, 8, 3, 1, 1, 0).into();
        assert_eq!(conv.num_parameters(), 8 * 3 * 3 * 3 + 8);
        let dense: Layer = Dense::with_seed(10, 5, 0).into();
        assert_eq!(dense.num_parameters(), 55);
        let pool: Layer = MaxPool2d::new(2, 2).into();
        assert_eq!(pool.num_parameters(), 0);
        assert!(pool.parameters().is_none());
    }

    #[test]
    fn is_activation_flags_only_activations() {
        assert!(Layer::from(ActivationLayer::new(Activation::Tanh)).is_activation());
        assert!(!Layer::from(Flatten::new()).is_activation());
        assert!(!Layer::from(Dense::with_seed(2, 2, 0)).is_activation());
    }
}
