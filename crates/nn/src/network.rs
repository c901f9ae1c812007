//! The sequential [`Network`] container and its gradient surfaces.

use dnnip_tensor::{ops, Tensor};

use crate::layers::{Layer, LayerCache};
use crate::params::{ParamKind, ParamLayout, ParamLocation};
use crate::{NnError, Result};

/// A feed-forward network: an ordered list of [`Layer`]s plus the shape of a
/// single input sample.
///
/// `Network` is the *sequential* model container: every layer feeds exactly
/// the next one. Models with skip connections or branches live in the
/// `dnnip-graph` crate's graph IR, which reuses these [`Layer`] kernels as
/// node payloads and lowers single-path graphs back to a `Network`.
///
/// The network exposes three views that the rest of the workspace builds on:
///
/// 1. **Inference** — [`Network::forward`] / [`Network::predict`].
/// 2. **Gradients** — [`Network::forward_cached`] followed by
///    [`Network::backward`] produce both the input gradient (for gradient-based
///    test synthesis) and the flat parameter-gradient vector (for the
///    validation-coverage metric and for training).
/// 3. **Flat parameters** — [`Network::parameters_flat`],
///    [`Network::set_parameters_flat`] and the per-index accessors address every
///    scalar parameter through the [`ParamLayout`] coordinate system.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
    input_shape: Vec<usize>,
    layout: ParamLayout,
}

/// Clone a borrowed network into a shared handle.
///
/// The evaluation stack ([`crate::batch::BatchGradientEngine`] and everything
/// above it) owns its network as an `Arc<Network>` so engines and evaluators
/// are `'static` handles that can live in long-lived registries. This
/// conversion lets call sites that only hold a `&Network` keep their spelling
/// (`Evaluator::new(&net, ..)`): the network is cloned once into the `Arc` at
/// construction time. Callers that already hold an `Arc<Network>` pass it
/// through without any copy.
impl From<&Network> for std::sync::Arc<Network> {
    fn from(network: &Network) -> Self {
        std::sync::Arc::new(network.clone())
    }
}

/// Everything captured by a cached forward pass.
///
/// Holds the final output, the per-layer caches needed by the backward pass and
/// the per-layer outputs (used by neuron-coverage analysis).
#[derive(Debug, Clone)]
pub struct ForwardPass {
    /// Network output (logits), shape `[N, classes]`.
    pub output: Tensor,
    /// Backward-pass caches, one per layer.
    pub caches: Vec<LayerCache>,
    /// Output of every layer in order (the last equals `output`).
    pub layer_outputs: Vec<Tensor>,
}

/// Gradients produced by [`Network::backward`].
#[derive(Debug, Clone)]
pub struct BackwardResult {
    /// Gradient of the scalar objective with respect to the network input,
    /// same shape as the input batch.
    pub grad_input: Tensor,
    /// Gradient with respect to every parameter, flattened according to the
    /// network's [`ParamLayout`].
    pub param_grads: Vec<f32>,
}

impl Network {
    /// Assemble a network and validate that the layer shapes chain together for
    /// the given single-sample input shape (without the batch dimension).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for an empty layer list or the first
    /// shape-inference error encountered while chaining the layers.
    pub fn new(layers: Vec<Layer>, input_shape: &[usize]) -> Result<Self> {
        if layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        // Validate the shape chain with a batch dimension of 1.
        let mut shape = Vec::with_capacity(input_shape.len() + 1);
        shape.push(1);
        shape.extend_from_slice(input_shape);
        for layer in &layers {
            shape = layer.output_shape(&shape)?;
        }
        let layout = Self::build_layout(&layers);
        Ok(Self {
            layers,
            input_shape: input_shape.to_vec(),
            layout,
        })
    }

    fn build_layout(layers: &[Layer]) -> ParamLayout {
        let mut parts = Vec::new();
        for (i, layer) in layers.iter().enumerate() {
            if let Some((w, b)) = layer.parameters() {
                parts.push((i, ParamKind::Weight, w.shape().to_vec()));
                parts.push((i, ParamKind::Bias, b.shape().to_vec()));
            }
        }
        ParamLayout::from_segments(parts)
    }

    // ------------------------------------------------------------------
    // Structure accessors
    // ------------------------------------------------------------------

    /// The layers in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Shape of a single input sample (without the batch dimension).
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of output classes (the last dimension of the network output).
    pub fn num_classes(&self) -> usize {
        let mut shape = Vec::with_capacity(self.input_shape.len() + 1);
        shape.push(1);
        shape.extend_from_slice(&self.input_shape);
        for layer in &self.layers {
            shape = layer
                .output_shape(&shape)
                .expect("shape chain validated at construction");
        }
        *shape.last().expect("network output has at least one axis")
    }

    /// The flat-parameter layout.
    pub fn param_layout(&self) -> &ParamLayout {
        &self.layout
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.layout.total()
    }

    /// Multi-line human-readable summary (layer names, output shapes, parameter
    /// counts). The rendering follows the single-path layer order; graph models
    /// print their own topology-aware summary via `dnnip-graph`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut shape = vec![1];
        shape.extend_from_slice(&self.input_shape);
        out.push_str(&format!("Input {:?}\n", &self.input_shape));
        for layer in &self.layers {
            shape = layer
                .output_shape(&shape)
                .expect("shape chain validated at construction");
            out.push_str(&format!(
                "{:<34} -> {:?}  ({} params)\n",
                layer.name(),
                &shape[1..],
                layer.num_parameters()
            ));
        }
        out.push_str(&format!("Total parameters: {}\n", self.num_parameters()));
        out
    }

    // ------------------------------------------------------------------
    // Inference
    // ------------------------------------------------------------------

    pub(crate) fn check_batch_input(&self, input: &Tensor) -> Result<()> {
        let expected_rank = self.input_shape.len() + 1;
        if input.ndim() != expected_rank || input.shape()[1..] != self.input_shape[..] {
            return Err(NnError::BadInputShape {
                layer: "Network".to_string(),
                got: input.shape().to_vec(),
                expected: format!("[N, {:?}]", self.input_shape),
            });
        }
        Ok(())
    }

    /// Forward pass over a batch `[N, ...input_shape]`, returning logits
    /// `[N, classes]`.
    ///
    /// Runs [`Layer::infer`]: convolutions take the blocked im2col + `gemm`
    /// kernel, the same arithmetic as
    /// [`crate::batch::BatchGradientEngine::forward_batch`], so the logits are
    /// bit-identical to the engine's. Golden outputs, IP replay and
    /// [`Network::predict`] all run here.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the batch shape does not match the
    /// network's input shape.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.check_batch_input(input)?;
        let (first, rest) = self.layers.split_first().expect("network is non-empty");
        let mut x = first.infer(input)?;
        for layer in rest {
            x = layer.infer(&x)?;
        }
        Ok(x)
    }

    /// Forward pass over a single sample (no batch dimension), returning the
    /// logits as a rank-1 tensor of length `classes`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the sample shape does not match.
    pub fn forward_sample(&self, sample: &Tensor) -> Result<Tensor> {
        let batched = self.batch_one(sample)?;
        let out = self.forward(&batched)?;
        Ok(out.flatten())
    }

    /// Wrap a single sample into a batch of one.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the sample shape does not match.
    pub fn batch_one(&self, sample: &Tensor) -> Result<Tensor> {
        if sample.shape() != self.input_shape {
            return Err(NnError::BadInputShape {
                layer: "Network".to_string(),
                got: sample.shape().to_vec(),
                expected: format!("{:?}", self.input_shape),
            });
        }
        let mut shape = Vec::with_capacity(self.input_shape.len() + 1);
        shape.push(1);
        shape.extend_from_slice(&self.input_shape);
        Ok(sample.reshape(&shape)?)
    }

    /// Forward pass that records per-layer caches and outputs.
    ///
    /// Runs [`Layer::forward`]: convolutions take the direct loop nest, not the
    /// engine's im2col kernel. That keeps this path (and [`Network::backward`],
    /// training and [`Network::parameter_gradients`] on top of it) an
    /// independent per-sample reference. Its output matches
    /// [`Network::forward`] within rounding, and bit for bit when every
    /// convolution bias is zero.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the batch shape does not match.
    pub fn forward_cached(&self, input: &Tensor) -> Result<ForwardPass> {
        self.check_batch_input(input)?;
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut layer_outputs = Vec::with_capacity(self.layers.len());
        let mut x = input.clone();
        for layer in &self.layers {
            let (out, cache) = layer.forward(&x)?;
            caches.push(cache);
            layer_outputs.push(out.clone());
            x = out;
        }
        Ok(ForwardPass {
            output: x,
            caches,
            layer_outputs,
        })
    }

    /// Class predictions (argmax of the logits) for a batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the batch shape does not match.
    pub fn predict(&self, input: &Tensor) -> Result<Vec<usize>> {
        let logits = self.forward(input)?;
        Ok(ops::argmax_rows(&logits)?)
    }

    /// Class prediction for a single sample.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the sample shape does not match.
    pub fn predict_sample(&self, sample: &Tensor) -> Result<usize> {
        let logits = self.forward_sample(sample)?;
        Ok(logits.argmax()?)
    }

    // ------------------------------------------------------------------
    // Gradients
    // ------------------------------------------------------------------

    /// Backward pass through the whole network.
    ///
    /// `pass` must come from [`Network::forward_cached`] on this network and
    /// `grad_output` is the gradient of a scalar objective with respect to the
    /// network output (same shape as `pass.output`).
    ///
    /// # Errors
    ///
    /// Returns an error when `grad_output` has the wrong shape or a layer cache
    /// is inconsistent.
    pub fn backward(&self, pass: &ForwardPass, grad_output: &Tensor) -> Result<BackwardResult> {
        let mut param_grads = vec![0.0f32; self.num_parameters()];
        let mut grad = grad_output.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (grad_in, pgrads) = layer.backward(&pass.caches[i], &grad)?;
            if let Some(pg) = pgrads {
                let range = self
                    .layout
                    .layer_range(i)
                    .expect("parameterized layer present in layout");
                let w_len = pg.weight.len();
                let dst = &mut param_grads[range];
                dst[..w_len].copy_from_slice(pg.weight.data());
                dst[w_len..].copy_from_slice(pg.bias.data());
            }
            grad = grad_in;
        }
        Ok(BackwardResult {
            grad_input: grad,
            param_grads,
        })
    }

    /// Gradient of a scalar projection of the output with respect to **every
    /// parameter**, for a single sample.
    ///
    /// The projection is `sum_j c_j · F_j(x)` where `c` is `output_weights`
    /// (length = number of classes). Passing all-ones computes the gradient of the
    /// summed output, which is the quantity the paper's validation-coverage
    /// definition (Eq. 2) inspects for non-zeroness.
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape or `output_weights` length is wrong.
    pub fn parameter_gradients(&self, sample: &Tensor, output_weights: &[f32]) -> Result<Vec<f32>> {
        let batched = self.batch_one(sample)?;
        let pass = self.forward_cached(&batched)?;
        let classes = pass.output.len();
        if output_weights.len() != classes {
            return Err(NnError::ParamLengthMismatch {
                expected: classes,
                got: output_weights.len(),
            });
        }
        let grad_output = Tensor::from_vec(output_weights.to_vec(), pass.output.shape())?;
        Ok(self.backward(&pass, &grad_output)?.param_grads)
    }

    /// Gradient of the `class`-th output with respect to the **input**, for a
    /// single sample (`∇x F_class(x)`).
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape is wrong or `class` is out of range.
    pub fn input_gradient_for_class(&self, sample: &Tensor, class: usize) -> Result<Tensor> {
        let batched = self.batch_one(sample)?;
        let pass = self.forward_cached(&batched)?;
        let classes = pass.output.len();
        if class >= classes {
            return Err(NnError::InvalidLabel {
                label: class,
                classes,
            });
        }
        let mut grad = vec![0.0f32; classes];
        grad[class] = 1.0;
        let grad_output = Tensor::from_vec(grad, pass.output.shape())?;
        let result = self.backward(&pass, &grad_output)?;
        Ok(result.grad_input.reshape(&self.input_shape)?)
    }

    // ------------------------------------------------------------------
    // Flat parameter access
    // ------------------------------------------------------------------

    /// All parameters flattened into a single vector, in [`ParamLayout`] order.
    pub fn parameters_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for layer in &self.layers {
            if let Some((w, b)) = layer.parameters() {
                out.extend_from_slice(w.data());
                out.extend_from_slice(b.data());
            }
        }
        out
    }

    /// Overwrite all parameters from a flat vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when the vector length differs
    /// from [`Network::num_parameters`].
    pub fn set_parameters_flat(&mut self, params: &[f32]) -> Result<()> {
        if params.len() != self.num_parameters() {
            return Err(NnError::ParamLengthMismatch {
                expected: self.num_parameters(),
                got: params.len(),
            });
        }
        let mut offset = 0usize;
        for layer in &mut self.layers {
            if let Some((w, b)) = layer.parameters_mut() {
                let wl = w.len();
                w.data_mut().copy_from_slice(&params[offset..offset + wl]);
                offset += wl;
                let bl = b.len();
                b.data_mut().copy_from_slice(&params[offset..offset + bl]);
                offset += bl;
            }
        }
        Ok(())
    }

    /// Read one parameter by global index.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamIndexOutOfRange`] for out-of-range indices.
    pub fn parameter(&self, global_index: usize) -> Result<f32> {
        let loc = self.locate(global_index)?;
        let (w, b) = self.layers[loc.layer_index]
            .parameters()
            .expect("layout points at a parameterized layer");
        Ok(match loc.kind {
            ParamKind::Weight => w.data()[loc.local_offset],
            ParamKind::Bias => b.data()[loc.local_offset],
        })
    }

    /// Overwrite one parameter by global index.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamIndexOutOfRange`] for out-of-range indices.
    pub fn set_parameter(&mut self, global_index: usize, value: f32) -> Result<()> {
        let loc = self.locate(global_index)?;
        let (w, b) = self.layers[loc.layer_index]
            .parameters_mut()
            .expect("layout points at a parameterized layer");
        match loc.kind {
            ParamKind::Weight => w.data_mut()[loc.local_offset] = value,
            ParamKind::Bias => b.data_mut()[loc.local_offset] = value,
        }
        Ok(())
    }

    /// Add `delta` to one parameter by global index.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamIndexOutOfRange`] for out-of-range indices.
    pub fn perturb_parameter(&mut self, global_index: usize, delta: f32) -> Result<()> {
        let current = self.parameter(global_index)?;
        self.set_parameter(global_index, current + delta)
    }

    fn locate(&self, global_index: usize) -> Result<ParamLocation> {
        self.layout
            .locate(global_index)
            .ok_or(NnError::ParamIndexOutOfRange {
                index: global_index,
                num_params: self.num_parameters(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, ActivationLayer, Conv2d, Dense, Flatten, MaxPool2d};

    fn tiny_cnn() -> Network {
        Network::new(
            vec![
                Conv2d::with_seed(1, 2, 3, 1, 1, 1).into(),
                ActivationLayer::new(Activation::Relu).into(),
                MaxPool2d::new(2, 2).into(),
                Flatten::new().into(),
                Dense::with_seed(2 * 3 * 3, 4, 2).into(),
            ],
            &[1, 6, 6],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_shape_chain() {
        assert!(matches!(
            Network::new(vec![], &[4]),
            Err(NnError::EmptyNetwork)
        ));
        // Dense expecting 10 inputs fed with 4 must fail at construction.
        let bad = Network::new(vec![Dense::with_seed(10, 2, 0).into()], &[4]);
        assert!(bad.is_err());
        let good = Network::new(vec![Dense::with_seed(4, 2, 0).into()], &[4]);
        assert!(good.is_ok());
    }

    #[test]
    fn structure_accessors() {
        let net = tiny_cnn();
        assert_eq!(net.num_layers(), 5);
        assert_eq!(net.input_shape(), &[1, 6, 6]);
        assert_eq!(net.num_classes(), 4);
        // oc * ic * kh * kw + biases, spelled out factor by factor.
        #[allow(clippy::identity_op)]
        let expected_params = 2 * 1 * 3 * 3 + 2 + 18 * 4 + 4;
        assert_eq!(net.num_parameters(), expected_params);
        let summary = net.summary();
        assert!(summary.contains("Conv2d"));
        assert!(summary.contains("Total parameters"));
    }

    #[test]
    fn forward_shapes_and_prediction() {
        let net = tiny_cnn();
        let batch = Tensor::from_fn(&[3, 1, 6, 6], |i| (i as f32 * 0.01).sin());
        let out = net.forward(&batch).unwrap();
        assert_eq!(out.shape(), &[3, 4]);
        let preds = net.predict(&batch).unwrap();
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|&p| p < 4));

        let sample = Tensor::from_fn(&[1, 6, 6], |i| (i as f32 * 0.01).sin());
        let logits = net.forward_sample(&sample).unwrap();
        assert_eq!(logits.shape(), &[4]);
        assert_eq!(
            net.predict_sample(&sample).unwrap(),
            logits.argmax().unwrap()
        );
        // The first row of the batched forward equals the single-sample forward.
        assert!(ops::row(&out, 0).unwrap().approx_eq(&logits, 1e-5));

        assert!(net.forward(&Tensor::zeros(&[1, 2, 6, 6])).is_err());
        assert!(net.forward_sample(&Tensor::zeros(&[6, 6])).is_err());
    }

    #[test]
    fn flat_parameters_round_trip() {
        let mut net = tiny_cnn();
        let params = net.parameters_flat();
        assert_eq!(params.len(), net.num_parameters());
        let doubled: Vec<f32> = params.iter().map(|p| p * 2.0).collect();
        net.set_parameters_flat(&doubled).unwrap();
        assert_eq!(net.parameters_flat(), doubled);
        assert!(net.set_parameters_flat(&params[..3]).is_err());
    }

    #[test]
    fn per_index_parameter_access() {
        let mut net = tiny_cnn();
        let n = net.num_parameters();
        let before = net.parameter(5).unwrap();
        net.perturb_parameter(5, 1.5).unwrap();
        assert!((net.parameter(5).unwrap() - before - 1.5).abs() < 1e-6);
        net.set_parameter(n - 1, 9.0).unwrap();
        assert_eq!(net.parameter(n - 1).unwrap(), 9.0);
        // The last parameter is the last bias of the Dense layer.
        assert_eq!(*net.parameters_flat().last().unwrap(), 9.0);
        assert!(net.parameter(n).is_err());
        assert!(net.set_parameter(n, 0.0).is_err());
    }

    #[test]
    fn parameter_change_propagates_to_output() {
        let mut net = tiny_cnn();
        let sample = Tensor::from_fn(&[1, 6, 6], |i| 0.1 + (i % 7) as f32 * 0.05);
        let before = net.forward_sample(&sample).unwrap();
        // Perturb a bias of the final Dense layer: its effect always reaches the output.
        let last = net.num_parameters() - 1;
        net.perturb_parameter(last, 3.0).unwrap();
        let after = net.forward_sample(&sample).unwrap();
        assert!(!before.approx_eq(&after, 1e-3));
    }

    #[test]
    fn backward_param_grads_match_finite_differences() {
        let net = tiny_cnn();
        let sample = Tensor::from_fn(&[1, 6, 6], |i| ((i % 11) as f32 - 5.0) * 0.1);
        let grads = net.parameter_gradients(&sample, &[1.0; 4]).unwrap();
        assert_eq!(grads.len(), net.num_parameters());

        let objective = |net: &Network| net.forward_sample(&sample).unwrap().sum();
        let eps = 1e-2f32;
        for idx in [0usize, 3, 9, 20, 30, net.num_parameters() - 1] {
            let mut np = net.clone();
            np.perturb_parameter(idx, eps).unwrap();
            let mut nm = net.clone();
            nm.perturb_parameter(idx, -eps).unwrap();
            let num = (objective(&np) - objective(&nm)) / (2.0 * eps);
            let ana = grads[idx];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "param grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let net = tiny_cnn();
        let sample = Tensor::from_fn(&[1, 6, 6], |i| ((i % 13) as f32 - 6.0) * 0.1);
        let class = 2usize;
        let gi = net.input_gradient_for_class(&sample, class).unwrap();
        assert_eq!(gi.shape(), sample.shape());

        let eps = 1e-2f32;
        for idx in [0usize, 7, 18, 35] {
            let mut sp = sample.clone();
            sp.data_mut()[idx] += eps;
            let mut sm = sample.clone();
            sm.data_mut()[idx] -= eps;
            let num = (net.forward_sample(&sp).unwrap().data()[class]
                - net.forward_sample(&sm).unwrap().data()[class])
                / (2.0 * eps);
            let ana = gi.data()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "input grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
        assert!(net.input_gradient_for_class(&sample, 99).is_err());
    }

    #[test]
    fn parameter_gradients_validate_output_weights() {
        let net = tiny_cnn();
        let sample = Tensor::zeros(&[1, 6, 6]);
        assert!(net.parameter_gradients(&sample, &[1.0; 3]).is_err());
    }
}
