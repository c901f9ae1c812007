//! 2-D convolution layer.

use dnnip_tensor::conv::{conv2d_backward, conv2d_forward, conv2d_forward_gemm, Conv2dGeometry};
use dnnip_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{LayerCache, ParamGrads};
use crate::{NnError, Result};

/// A 2-D convolution layer with a square kernel and per-output-channel bias.
///
/// * input: `[N, in_channels, H, W]`
/// * weight: `[out_channels, in_channels, k, k]`
/// * bias: `[out_channels]`
/// * output: `[N, out_channels, OH, OW]`
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    geom: Conv2dGeometry,
}

impl Conv2d {
    /// Create a convolution layer from explicit weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] if the weight is not rank-4, the bias
    /// does not match the output-channel count, or the kernel is not square and
    /// equal to the geometry's kernel size.
    pub fn new(weight: Tensor, bias: Tensor, stride: usize, pad: usize) -> Result<Self> {
        if weight.ndim() != 4 || weight.shape()[2] != weight.shape()[3] {
            return Err(NnError::BadInputShape {
                layer: "Conv2d".to_string(),
                got: weight.shape().to_vec(),
                expected: "rank-4 weight [oc, ic, k, k] with square kernel".to_string(),
            });
        }
        let oc = weight.shape()[0];
        if bias.ndim() != 1 || bias.shape()[0] != oc {
            return Err(NnError::BadInputShape {
                layer: "Conv2d".to_string(),
                got: bias.shape().to_vec(),
                expected: format!("bias of length {oc}"),
            });
        }
        let k = weight.shape()[2];
        Ok(Self {
            weight,
            bias,
            geom: Conv2dGeometry::square(k, stride, pad),
        })
    }

    /// Create a convolution layer with He-normal weights and zero bias from a seed.
    pub fn with_seed(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = in_channels * kernel * kernel;
        let weight = init::he_normal(
            &mut rng,
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
        );
        let bias = Tensor::zeros(&[out_channels]);
        Self {
            weight,
            bias,
            geom: Conv2dGeometry::square(kernel, stride, pad),
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Kernel size (square).
    pub fn kernel(&self) -> usize {
        self.geom.kh
    }

    /// Convolution geometry (kernel, stride, padding).
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geom
    }

    /// Layer name, e.g. `Conv2d(3 -> 64, k=3, s=1, p=1)`.
    pub fn name(&self) -> String {
        format!(
            "Conv2d({} -> {}, k={}, s={}, p={})",
            self.in_channels(),
            self.out_channels(),
            self.geom.kh,
            self.geom.stride,
            self.geom.pad
        )
    }

    /// Borrow `(weight, bias)`.
    pub fn parameters(&self) -> (&Tensor, &Tensor) {
        (&self.weight, &self.bias)
    }

    /// Mutably borrow `(weight, bias)`.
    pub fn parameters_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        (&mut self.weight, &mut self.bias)
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.ndim() != 4 || input.shape()[1] != self.in_channels() {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                got: input.shape().to_vec(),
                expected: format!("[N, {}, H, W]", self.in_channels()),
            });
        }
        Ok(())
    }

    /// Inference: the output alone, through the lowering-free GEMM
    /// convolution ([`conv2d_forward_gemm`]) — the arithmetic of the batched
    /// gradient engine, so the two agree bit for bit.
    ///
    /// # Errors
    ///
    /// Returns an error when the input is not `[N, in_channels, H, W]` or the
    /// window does not fit.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        Ok(conv2d_forward_gemm(
            input,
            &self.weight,
            &self.bias,
            self.geom,
        )?)
    }

    /// Forward pass for [`Conv2d::backward`], through the direct loop nest
    /// ([`conv2d_forward`]): the independent per-sample reference the engine
    /// and [`Conv2d::infer`] are checked against.
    ///
    /// # Errors
    ///
    /// Returns an error when the input is not `[N, in_channels, H, W]` or the
    /// window does not fit.
    pub fn forward(&self, input: &Tensor) -> Result<(Tensor, LayerCache)> {
        self.check_input(input)?;
        let out = conv2d_forward(input, &self.weight, &self.bias, self.geom)?;
        Ok((
            out,
            LayerCache::Conv2d {
                input: input.clone(),
            },
        ))
    }

    /// Backward pass.
    ///
    /// # Errors
    ///
    /// Returns an error if the cache variant is wrong or shapes are inconsistent.
    pub fn backward(
        &self,
        cache: &LayerCache,
        grad_output: &Tensor,
    ) -> Result<(Tensor, Option<ParamGrads>)> {
        let LayerCache::Conv2d { input } = cache else {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                got: vec![],
                expected: "Conv2d cache".to_string(),
            });
        };
        let grads = conv2d_backward(input, &self.weight, grad_output, self.geom)?;
        Ok((
            grads.grad_input,
            Some(ParamGrads {
                weight: grads.grad_weight,
                bias: grads.grad_bias,
            }),
        ))
    }

    /// Output shape: `[N, out_channels, OH, OW]`.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>> {
        if input_shape.len() != 4 || input_shape[1] != self.in_channels() {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                got: input_shape.to_vec(),
                expected: format!("[N, {}, H, W]", self.in_channels()),
            });
        }
        let (oh, ow) = self.geom.output_hw(input_shape[2], input_shape[3])?;
        Ok(vec![input_shape[0], self.out_channels(), oh, ow])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_shapes() {
        let w = Tensor::zeros(&[4, 2, 3, 3]);
        let b = Tensor::zeros(&[4]);
        assert!(Conv2d::new(w.clone(), b.clone(), 1, 1).is_ok());
        assert!(Conv2d::new(Tensor::zeros(&[4, 2, 3, 2]), b.clone(), 1, 1).is_err());
        assert!(Conv2d::new(w, Tensor::zeros(&[3]), 1, 1).is_err());
    }

    #[test]
    fn forward_shape_and_same_padding() {
        let layer = Conv2d::with_seed(3, 8, 3, 1, 1, 7);
        let input = Tensor::zeros(&[2, 3, 16, 16]);
        let (out, _) = layer.forward(&input).unwrap();
        assert_eq!(out.shape(), &[2, 8, 16, 16]);
        assert_eq!(
            layer.output_shape(&[2, 3, 16, 16]).unwrap(),
            vec![2, 8, 16, 16]
        );
        assert!(layer.forward(&Tensor::zeros(&[2, 4, 16, 16])).is_err());
        assert!(layer.output_shape(&[2, 3, 16]).is_err());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let layer = Conv2d::with_seed(2, 3, 3, 1, 1, 11);
        let x = Tensor::from_fn(&[1, 2, 6, 6], |i| (i as f32 * 0.17).sin() * 0.5);
        let (out, cache) = layer.forward(&x).unwrap();
        let grad_out = Tensor::ones(out.shape());
        let (grad_in, grads) = layer.backward(&cache, &grad_out).unwrap();
        let grads = grads.unwrap();

        let eps = 1e-2f32;
        let loss = |l: &Conv2d, x: &Tensor| l.forward(x).unwrap().0.sum();
        for idx in [0usize, 5, 17, 29, 41] {
            let mut lp = layer.clone();
            lp.parameters_mut().0.data_mut()[idx] += eps;
            let mut lm = layer.clone();
            lm.parameters_mut().0.data_mut()[idx] -= eps;
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            let ana = grads.weight.data()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "weight grad mismatch at {idx}: {num} vs {ana}"
            );
        }
        for idx in [0usize, 13, 35, 71] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            let ana = grad_in.data()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "input grad mismatch at {idx}: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn name_reports_geometry() {
        let layer = Conv2d::with_seed(3, 64, 3, 1, 0, 0);
        let name = layer.name();
        assert!(name.contains("3 -> 64"));
        assert!(name.contains("k=3"));
        assert_eq!(layer.kernel(), 3);
        assert_eq!(layer.geometry().pad, 0);
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let a = Conv2d::with_seed(3, 4, 3, 1, 1, 5);
        let b = Conv2d::with_seed(3, 4, 3, 1, 1, 5);
        assert_eq!(a, b);
    }
}
