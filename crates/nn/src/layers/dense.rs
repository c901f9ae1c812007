//! Fully-connected (affine) layer.

use dnnip_tensor::{init, ops, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{LayerCache, ParamGrads};
use crate::{NnError, Result};

/// A fully-connected layer computing `output = input · W + b`.
///
/// * input: `[N, in_features]`
/// * weight: `[in_features, out_features]`
/// * bias: `[out_features]`
/// * output: `[N, out_features]`
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
}

impl Dense {
    /// Create a dense layer from explicit weight and bias tensors.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the weight is not rank-2 or the
    /// bias length does not match the weight's output dimension.
    pub fn new(weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.ndim() != 2 {
            return Err(NnError::BadInputShape {
                layer: "Dense".to_string(),
                got: weight.shape().to_vec(),
                expected: "rank-2 weight [in, out]".to_string(),
            });
        }
        if bias.ndim() != 1 || bias.shape()[0] != weight.shape()[1] {
            return Err(NnError::BadInputShape {
                layer: "Dense".to_string(),
                got: bias.shape().to_vec(),
                expected: format!("bias of length {}", weight.shape()[1]),
            });
        }
        Ok(Self { weight, bias })
    }

    /// Create a dense layer with Xavier-uniform weights and zero bias from a seed.
    pub fn with_seed(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let weight = init::xavier_uniform(
            &mut rng,
            &[in_features, out_features],
            in_features,
            out_features,
        );
        let bias = Tensor::zeros(&[out_features]);
        Self { weight, bias }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Layer name, e.g. `Dense(128 -> 10)`.
    pub fn name(&self) -> String {
        format!("Dense({} -> {})", self.in_features(), self.out_features())
    }

    /// Borrow `(weight, bias)`.
    pub fn parameters(&self) -> (&Tensor, &Tensor) {
        (&self.weight, &self.bias)
    }

    /// Mutably borrow `(weight, bias)`.
    pub fn parameters_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        (&mut self.weight, &mut self.bias)
    }

    /// Inference: the output alone, without a backward cache.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the input is not `[N, in_features]`.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor> {
        if input.ndim() != 2 || input.shape()[1] != self.in_features() {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                got: input.shape().to_vec(),
                expected: format!("[N, {}]", self.in_features()),
            });
        }
        let out = ops::matmul(input, &self.weight)?;
        Ok(ops::add_row_vector(&out, &self.bias)?)
    }

    /// Forward pass: [`Dense::infer`] plus the cache [`Dense::backward`] needs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the input is not `[N, in_features]`.
    pub fn forward(&self, input: &Tensor) -> Result<(Tensor, LayerCache)> {
        let out = self.infer(input)?;
        Ok((
            out,
            LayerCache::Dense {
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
        let LayerCache::Dense { input } = cache else {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                got: vec![],
                expected: "Dense cache".to_string(),
            });
        };
        // grad_input = grad_output · Wᵀ
        let grad_input = ops::matmul(grad_output, &ops::transpose(&self.weight)?)?;
        // grad_weight = inputᵀ · grad_output
        let grad_weight = ops::matmul(&ops::transpose(input)?, grad_output)?;
        // grad_bias = column sums of grad_output
        let grad_bias = ops::sum_rows(grad_output)?;
        Ok((
            grad_input,
            Some(ParamGrads {
                weight: grad_weight,
                bias: grad_bias,
            }),
        ))
    }

    /// Output shape: `[N, out_features]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the input shape is not
    /// `[N, in_features]`.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>> {
        if input_shape.len() != 2 || input_shape[1] != self.in_features() {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                got: input_shape.to_vec(),
                expected: format!("[N, {}]", self.in_features()),
            });
        }
        Ok(vec![input_shape[0], self.out_features()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn known_layer() -> Dense {
        // weight [[1, 2], [3, 4], [5, 6]] (3 in, 2 out), bias [10, 20]
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        Dense::new(w, b).unwrap()
    }

    #[test]
    fn new_validates_shapes() {
        assert!(Dense::new(Tensor::zeros(&[3]), Tensor::zeros(&[3])).is_err());
        assert!(Dense::new(Tensor::zeros(&[3, 2]), Tensor::zeros(&[3])).is_err());
        assert!(Dense::new(Tensor::zeros(&[3, 2]), Tensor::zeros(&[2])).is_ok());
    }

    #[test]
    fn forward_known_values() {
        let layer = known_layer();
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 3]).unwrap();
        let (out, _) = layer.forward(&x).unwrap();
        // [1+3+5, 2+4+6] + [10, 20] = [19, 32]
        assert_eq!(out.data(), &[19.0, 32.0]);
        assert!(layer.forward(&Tensor::zeros(&[1, 4])).is_err());
    }

    #[test]
    fn backward_known_values() {
        let layer = known_layer();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let (_, cache) = layer.forward(&x).unwrap();
        let grad_out = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]).unwrap();
        let (grad_in, grads) = layer.backward(&cache, &grad_out).unwrap();
        let grads = grads.unwrap();
        // grad_in = grad_out · Wᵀ = [1*1 + (-1)*2, 1*3 + (-1)*4, 1*5 + (-1)*6]
        assert_eq!(grad_in.data(), &[-1.0, -1.0, -1.0]);
        // grad_W = xᵀ · grad_out
        assert_eq!(grads.weight.data(), &[1.0, -1.0, 2.0, -2.0, 3.0, -3.0]);
        assert_eq!(grads.bias.data(), &[1.0, -1.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let layer = Dense::with_seed(5, 4, 123);
        let x = Tensor::from_fn(&[2, 5], |i| (i as f32 * 0.3).sin());
        let (out, cache) = layer.forward(&x).unwrap();
        // Loss = sum of outputs.
        let grad_out = Tensor::ones(out.shape());
        let (grad_in, grads) = layer.backward(&cache, &grad_out).unwrap();
        let grads = grads.unwrap();

        let eps = 1e-2f32;
        let loss = |l: &Dense, x: &Tensor| l.forward(x).unwrap().0.sum();

        for idx in [0usize, 3, 7, 11, 19] {
            let mut lp = layer.clone();
            lp.parameters_mut().0.data_mut()[idx] += eps;
            let mut lm = layer.clone();
            lm.parameters_mut().0.data_mut()[idx] -= eps;
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            let ana = grads.weight.data()[idx];
            assert!((num - ana).abs() < 1e-2 * (1.0 + num.abs()));
        }
        for idx in [0usize, 4, 9] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            let ana = grad_in.data()[idx];
            assert!((num - ana).abs() < 1e-2 * (1.0 + num.abs()));
        }
    }

    #[test]
    fn output_shape_inference() {
        let layer = Dense::with_seed(6, 3, 0);
        assert_eq!(layer.output_shape(&[7, 6]).unwrap(), vec![7, 3]);
        assert!(layer.output_shape(&[7, 5]).is_err());
        assert!(layer.output_shape(&[6]).is_err());
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let a = Dense::with_seed(8, 4, 99);
        let b = Dense::with_seed(8, 4, 99);
        assert_eq!(a, b);
        let c = Dense::with_seed(8, 4, 100);
        assert_ne!(a, c);
    }
}
