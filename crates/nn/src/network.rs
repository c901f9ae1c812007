//! The [`Network`] model type and its reference forward/backward passes.

use dnnip_tensor::{ops, Tensor};

use crate::graph::{self, Node, NodeId, NodeOp};
use crate::layers::{Layer, LayerCache};
use crate::params::{ParamKind, ParamLayout, ParamLocation};
use crate::{NnError, Result};

/// A feed-forward model: a list of [`Layer`]s, the node list that wires them
/// together, and the shape of a single input sample.
///
/// Every model is a `Network`. [`Network::new`] wires the layers as a chain
/// (each feeds the next); [`crate::graph::GraphBuilder`] builds models with
/// residual **Add** and branch-fusing **Concat** nodes. Either way
/// [`Network::layers`] lists the layers in topological order, so a scalar
/// parameter has the same global index however the model was built.
///
/// The network exposes three views that the rest of the workspace builds on:
///
/// 1. **Inference** — [`Network::forward`] / [`Network::predict`].
/// 2. **Gradients** — [`Network::forward_cached`] followed by
///    [`Network::backward`] produce both the input gradient (for gradient-based
///    test synthesis) and the flat parameter-gradient vector (for the
///    validation-coverage metric and for training). This per-sample pair is
///    also the reference the batched engine
///    ([`crate::batch::BatchGradientEngine`]) is tested against.
/// 3. **Flat parameters** — [`Network::parameters_flat`],
///    [`Network::set_parameters_flat`] and the per-index accessors address every
///    scalar parameter through the [`ParamLayout`] coordinate system.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
    nodes: Vec<Node>,
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
    /// Output of every layer in order.
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
    /// Assemble a chain — every layer feeds the next — and validate that the
    /// layer shapes chain together for the given single-sample input shape
    /// (without the batch dimension).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for an empty layer list or the first
    /// shape-inference error encountered while chaining the layers.
    pub fn new(layers: Vec<Layer>, input_shape: &[usize]) -> Result<Self> {
        let nodes = graph::chain(layers.len());
        Self::from_nodes(layers, nodes, input_shape)
    }

    /// Assemble a network from its layers and a node list in topological
    /// order, revalidating every edge and re-inferring every shape. Layer
    /// nodes must take `layers` in order, each once; the last node is the
    /// output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for a node list with no compute
    /// nodes, [`NnError::GraphCycle`] / [`NnError::GraphDanglingEdge`] for
    /// edges that do not point at an earlier existing node, and
    /// [`NnError::GraphShapeMismatch`] (or the layer's own shape error) when
    /// a node cannot take its input shapes.
    pub fn from_nodes(layers: Vec<Layer>, nodes: Vec<Node>, input_shape: &[usize]) -> Result<Self> {
        let nodes = graph::validate(&layers, nodes, input_shape)?;
        let layout = Self::build_layout(&layers);
        Ok(Self {
            layers,
            nodes,
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

    /// The layers in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The nodes in topological order (node 0 is the input placeholder, the
    /// last node the output).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (including the input placeholder).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Every layer with its single-sample output shape, in topological order.
    pub fn layer_shapes(&self) -> impl Iterator<Item = (&Layer, &[usize])> + '_ {
        self.nodes.iter().filter_map(move |node| match node.op() {
            NodeOp::Layer(i) => Some((&self.layers[i], node.output_shape())),
            _ => None,
        })
    }

    /// Whether every layer feeds exactly the next one (no Add/Concat node,
    /// no branch).
    pub fn is_linear(&self) -> bool {
        self.nodes
            .iter()
            .enumerate()
            .skip(1)
            .all(|(id, node)| matches!(node.op(), NodeOp::Layer(_)) && node.inputs() == [id - 1])
    }

    /// Shape of a single input sample (without the batch dimension).
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of output classes (the last dimension of the network output).
    pub fn num_classes(&self) -> usize {
        let output = self.nodes.last().expect("a network has at least two nodes");
        *output
            .output_shape()
            .last()
            .expect("network output has at least one axis")
    }

    /// Total number of "neurons": every element of every activation layer's
    /// single-sample output.
    pub fn num_neuron_units(&self) -> usize {
        self.layer_shapes()
            .filter(|(layer, _)| layer.is_activation())
            .map(|(_, out)| out.iter().product::<usize>())
            .sum()
    }

    /// The flat-parameter layout.
    pub fn param_layout(&self) -> &ParamLayout {
        &self.layout
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.layout.total()
    }

    /// Multi-line human-readable summary: one line per node with its op,
    /// output shape and parameter count, plus its input edges when it is not
    /// fed by the node just above it.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Input {:?}\n", &self.input_shape));
        for (id, node) in self.nodes.iter().enumerate().skip(1) {
            let mut label = graph::op_name(node.op(), &self.layers);
            if node.inputs() != [id - 1] {
                label.push_str(&format!(" <- {:?}", node.inputs()));
            }
            let params = match node.op() {
                NodeOp::Layer(i) => self.layers[i].num_parameters(),
                _ => 0,
            };
            out.push_str(&format!(
                "#{id:<3} {label:<34} -> {:?}  ({params} params)\n",
                node.output_shape()
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

    /// Evaluate one non-input node over the outputs `arg` hands out. With
    /// `cached`, a layer runs [`Layer::forward`] and returns its backward
    /// cache; without, it runs the cacheless [`Layer::infer`].
    fn eval_node<'t>(
        &self,
        node: &Node,
        arg: impl Fn(NodeId) -> &'t Tensor,
        cached: bool,
    ) -> Result<(Tensor, Option<LayerCache>)> {
        Ok(match node.op() {
            NodeOp::Input => unreachable!("node 0 is the only input node"),
            NodeOp::Layer(i) if cached => {
                let (out, cache) = self.layers[i].forward(arg(node.input()))?;
                (out, Some(cache))
            }
            NodeOp::Layer(i) => (self.layers[i].infer(arg(node.input()))?, None),
            op => {
                let inputs: Vec<&Tensor> = node.inputs().iter().map(|&i| arg(i)).collect();
                let out = if op == NodeOp::Add {
                    graph::add_batched(&inputs)?
                } else {
                    graph::concat_batched(&inputs)?
                };
                (out, None)
            }
        })
    }

    /// Forward pass over a batch `[N, ...input_shape]`, returning logits
    /// `[N, classes]`.
    ///
    /// Runs [`Layer::infer`]: convolutions take the blocked im2col + `gemm`
    /// kernel, the same arithmetic as
    /// [`crate::batch::BatchGradientEngine::forward_batch`], so the logits are
    /// bit-identical to the engine's. Golden outputs, IP replay and
    /// [`Network::predict`] all run here. Each node output is dropped once its
    /// last reader has run.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the batch shape does not match the
    /// network's input shape.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.check_batch_input(input)?;
        let last = graph::last_readers(&self.nodes);
        let mut outs: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate().skip(1) {
            let (out, _) = self.eval_node(
                node,
                |i| match i {
                    0 => input,
                    _ => outs[i].as_ref().expect("inputs run before their readers"),
                },
                false,
            )?;
            for &i in node.inputs() {
                if last[i] == id {
                    outs[i] = None;
                }
            }
            outs[id] = Some(out);
        }
        Ok(outs.pop().flatten().expect("the output node ran"))
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
        let mut outs: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        outs.push(input.clone());
        for node in &self.nodes[1..] {
            let (out, cache) = self.eval_node(node, |i| &outs[i], true)?;
            if let Some(cache) = cache {
                caches.push(cache);
                layer_outputs.push(out.clone());
            }
            outs.push(out);
        }
        Ok(ForwardPass {
            output: outs.pop().expect("the output node ran"),
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
    /// Walks the nodes in reverse topological order, summing each node's
    /// output gradient over all of its readers before running its rule: a
    /// layer runs [`Layer::backward`] and writes its parameter gradients into
    /// the flat layout, Add hands the gradient to every input unchanged, and
    /// Concat splits it along the first sample axis. Gradients reach a node's
    /// slot in reverse node order (a node's inputs in listed order), so
    /// repeated runs are bit-identical. Nodes whose output never reaches the
    /// network output get no gradient and their parameters a zero one.
    ///
    /// # Errors
    ///
    /// Returns an error when `grad_output` has the wrong shape or a layer cache
    /// is inconsistent.
    pub fn backward(&self, pass: &ForwardPass, grad_output: &Tensor) -> Result<BackwardResult> {
        let n = self.nodes.len();
        let mut param_grads = vec![0.0f32; self.num_parameters()];
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[n - 1] = Some(grad_output.clone());
        let accumulate = |slot: &mut Option<Tensor>, grad: Tensor| -> Result<()> {
            match slot {
                None => *slot = Some(grad),
                Some(existing) => existing.add_assign(&grad)?,
            }
            Ok(())
        };
        for id in (1..n).rev() {
            let Some(grad) = grads[id].take() else {
                continue;
            };
            let node = &self.nodes[id];
            match node.op() {
                NodeOp::Input => unreachable!("node 0 is the only input node"),
                NodeOp::Layer(i) => {
                    let (grad_in, pgrads) = self.layers[i].backward(&pass.caches[i], &grad)?;
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
                    accumulate(&mut grads[node.input()], grad_in)?;
                }
                NodeOp::Add => {
                    for &input in node.inputs() {
                        accumulate(&mut grads[input], grad.clone())?;
                    }
                }
                NodeOp::Concat => {
                    // Per sample, the joined gradient is the inputs' pieces
                    // side by side.
                    let batch = grad.shape()[0];
                    let per = grad.len() / batch.max(1);
                    let mut offset = 0;
                    for &input in node.inputs() {
                        let shape = self.nodes[input].output_shape();
                        let len: usize = shape.iter().product();
                        let piece = (0..batch)
                            .flat_map(|s| &grad.data()[s * per + offset..s * per + offset + len])
                            .copied()
                            .collect();
                        offset += len;
                        let piece = Tensor::from_vec(piece, &[&[batch], shape].concat())?;
                        accumulate(&mut grads[input], piece)?;
                    }
                }
            }
        }
        let grad_input = match grads[0].take() {
            Some(g) => g,
            None => {
                let mut shape = vec![grad_output.shape()[0]];
                shape.extend_from_slice(&self.input_shape);
                Tensor::zeros(&shape)
            }
        };
        Ok(BackwardResult {
            grad_input,
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
