//! Element-wise activation functions and the layer wrapping them.

use dnnip_tensor::Tensor;

use super::{LayerCache, ParamGrads};
use crate::{NnError, Result};

/// Element-wise non-linearity applied by an [`ActivationLayer`].
///
/// The paper's MNIST model uses [`Activation::Tanh`]; its CIFAR-10 model uses
/// [`Activation::Relu`]. [`Activation::Sigmoid`] is provided because the paper's
/// ε-threshold activation rule (Section IV-A) is defined for saturating
/// activations in general, and [`Activation::Identity`] is useful for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid, `1 / (1 + e^-x)`.
    Sigmoid,
    /// Pass-through (no non-linearity).
    Identity,
}

/// `tanh` as a clamped rational polynomial: a 13th-degree odd numerator over a
/// 6th-degree even denominator, the single-precision approximation vectorizing
/// math libraries use. Maximum absolute error vs `f32::tanh` is below 1e-6
/// over the full range; inputs beyond ±7.9 (where f32 `tanh` is exactly ±1)
/// are clamped into the fitted range first. Unlike `f32::tanh` — an opaque
/// libm call the compiler cannot inline — this evaluates with plain
/// multiply/adds, so `Tensor::map` loops over it auto-vectorize; the batched
/// forward pass spends as much time in tanh as in its matrix products, which
/// is why the engine does not simply call libm. NaN propagates (clamp keeps
/// NaN, and the polynomial turns it into NaN output).
#[inline]
fn tanh_rational(x: f32) -> f32 {
    let x = x.clamp(-7.905_311, 7.905_311);
    let x2 = x * x;
    let mut p = -2.760_768_5e-16f32;
    p = p * x2 + 2.000_188e-13;
    p = p * x2 + -8.604_672e-11;
    p = p * x2 + 5.122_297e-8;
    p = p * x2 + 1.485_722_4e-5;
    p = p * x2 + 6.372_619_3e-4;
    p = p * x2 + 4.893_524_6e-3;
    p *= x;
    let mut q = 1.198_258_4e-6f32;
    q = q * x2 + 1.185_347e-4;
    q = q * x2 + 2.268_434_6e-3;
    q = q * x2 + 4.893_525e-3;
    p / q
}

impl Activation {
    /// Apply the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => tanh_rational(x),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative of the activation evaluated at pre-activation `x`.
    ///
    /// Each arm derives from the exact bits [`Activation::apply`] produces
    /// (`Tanh` uses the same `tanh_rational`), so recomputing the derivative
    /// from a cached *output* `y` — `1 - y²`, `y·(1-y)`, `y > 0` — matches
    /// this function bit-for-bit; the batched gradient engine relies on that.
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = tanh_rational(x);
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
            Activation::Identity => 1.0,
        }
    }

    /// Whether the function saturates (has regions where the gradient goes to
    /// zero asymptotically rather than exactly). Saturating activations require
    /// the ε-threshold activation rule of the paper rather than an exact
    /// non-zero-gradient test.
    pub fn is_saturating(self) -> bool {
        matches!(self, Activation::Tanh | Activation::Sigmoid)
    }

    /// Stable lowercase name used in model summaries and serialization.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
            Activation::Identity => "identity",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A layer applying an [`Activation`] element-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationLayer {
    activation: Activation,
}

impl ActivationLayer {
    /// Create an activation layer.
    pub fn new(activation: Activation) -> Self {
        Self { activation }
    }

    /// The wrapped activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Layer name, e.g. `Activation(Relu)`.
    pub fn name(&self) -> String {
        format!("Activation({:?})", self.activation)
    }

    /// Inference: apply the activation element-wise.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let act = self.activation;
        input.map(|x| act.apply(x))
    }

    /// Forward pass: [`ActivationLayer::infer`] plus the pre-activation input
    /// [`ActivationLayer::backward`] needs.
    ///
    /// # Errors
    ///
    /// Never fails; the signature matches the other layers for uniform dispatch.
    pub fn forward(&self, input: &Tensor) -> Result<(Tensor, LayerCache)> {
        Ok((
            self.infer(input),
            LayerCache::Activation {
                input: input.clone(),
            },
        ))
    }

    /// Backward pass: multiply by the activation derivative at the cached input.
    ///
    /// # Errors
    ///
    /// Returns an error if the cache is of the wrong variant or the gradient shape
    /// does not match the cached input.
    pub fn backward(
        &self,
        cache: &LayerCache,
        grad_output: &Tensor,
    ) -> Result<(Tensor, Option<ParamGrads>)> {
        let LayerCache::Activation { input } = cache else {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                got: vec![],
                expected: "Activation cache".to_string(),
            });
        };
        let act = self.activation;
        let grad_in =
            grad_output.zip_map(input, "activation_backward", |g, x| g * act.derivative(x))?;
        Ok((grad_in, None))
    }

    /// Output shape equals the input shape.
    ///
    /// # Errors
    ///
    /// Never fails; present for uniform dispatch.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>> {
        Ok(input_shape.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative(-0.5), 0.0);
        assert_eq!(Activation::Relu.derivative(0.5), 1.0);
    }

    #[test]
    fn tanh_and_sigmoid_derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in [Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
            for &x in &[-2.0f32, -0.3, 0.0, 0.7, 1.9] {
                let num = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let ana = act.derivative(x);
                assert!(
                    (num - ana).abs() < 1e-3,
                    "{act:?} derivative at {x}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn rational_tanh_tracks_libm_and_saturates_inside_unit_interval() {
        let mut worst = 0.0f32;
        for i in -16_000..=16_000 {
            let x = i as f32 * 1e-3; // dense sweep of [-16, 16]
            let y = Activation::Tanh.apply(x);
            worst = worst.max((y - x.tanh()).abs());
            assert!(y.abs() <= 1.0, "tanh({x}) = {y} escaped [-1, 1]");
            assert_eq!(
                y.to_bits(),
                (-Activation::Tanh.apply(-x)).to_bits(),
                "odd symmetry broke at {x}"
            );
        }
        assert!(worst < 1e-6, "max |fast - libm| = {worst}");
        assert_eq!(Activation::Tanh.apply(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(Activation::Tanh.apply(100.0), 1.0f32.tanh().signum());
        assert!(Activation::Tanh.apply(f32::NAN).is_nan());
        assert_eq!(Activation::Tanh.apply(f32::INFINITY), 1.0);
        assert_eq!(Activation::Tanh.apply(f32::NEG_INFINITY), -1.0);
    }

    #[test]
    fn saturation_classification() {
        assert!(Activation::Tanh.is_saturating());
        assert!(Activation::Sigmoid.is_saturating());
        assert!(!Activation::Relu.is_saturating());
        assert!(!Activation::Identity.is_saturating());
    }

    #[test]
    fn layer_forward_backward_round_trip() {
        let layer = ActivationLayer::new(Activation::Relu);
        let input = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[2, 2]).unwrap();
        let (out, cache) = layer.forward(&input).unwrap();
        assert_eq!(out.data(), &[0.0, 2.0, 0.0, 4.0]);
        let grad_out = Tensor::ones(&[2, 2]);
        let (grad_in, pg) = layer.backward(&cache, &grad_out).unwrap();
        assert!(pg.is_none());
        assert_eq!(grad_in.data(), &[0.0, 1.0, 0.0, 1.0]);
        assert_eq!(layer.output_shape(&[5, 7]).unwrap(), vec![5, 7]);
    }

    #[test]
    fn backward_rejects_wrong_cache() {
        let layer = ActivationLayer::new(Activation::Tanh);
        let cache = LayerCache::Flatten {
            input_shape: vec![1, 2],
        };
        assert!(layer.backward(&cache, &Tensor::zeros(&[1, 2])).is_err());
    }
}
