//! The graph IR: nodes with explicit input edges, deterministic topological
//! execution, and per-node shape inference at construction.

use dnnip_nn::layers::{Layer, LayerCache};
use dnnip_nn::params::{ParamKind, ParamLayout};
use dnnip_nn::{BackwardResult, NnError, Result};
use dnnip_tensor::Tensor;

/// Index of a node inside a [`Graph`].
///
/// Nodes are stored in insertion order, which is also the (unique) topological
/// order the executor uses: every edge points at a strictly smaller index, so
/// cycles are unrepresentable by construction and deserialized streams that
/// contain a forward reference are rejected as [`NnError::GraphCycle`].
pub type NodeId = usize;

/// The operation computed at a graph node.
#[derive(Debug, Clone)]
pub enum GraphOp {
    /// The graph input placeholder (always node 0, exactly one per graph).
    Input,
    /// One of the `dnnip-nn` layer kernels (conv, dense, pool, flatten,
    /// activation). Exactly one input edge.
    Layer(Layer),
    /// Element-wise residual addition of two or more same-shape inputs.
    Add,
    /// Concatenation of two or more inputs along the first sample axis (the
    /// channel axis for image tensors, the feature axis for flat tensors).
    Concat,
}

impl GraphOp {
    /// Human-readable op name (used in summaries and error messages).
    pub fn name(&self) -> String {
        match self {
            GraphOp::Input => "Input".to_string(),
            GraphOp::Layer(layer) => layer.name(),
            GraphOp::Add => "Add".to_string(),
            GraphOp::Concat => "Concat".to_string(),
        }
    }
}

/// One node of a [`Graph`]: an op plus the ids of the nodes feeding it.
#[derive(Debug, Clone)]
pub struct Node {
    op: GraphOp,
    inputs: Vec<NodeId>,
    /// Single-sample output shape (without the batch dimension), inferred at
    /// construction.
    output_shape: Vec<usize>,
}

impl Node {
    /// The operation computed at this node.
    pub fn op(&self) -> &GraphOp {
        &self.op
    }

    /// Ids of the nodes feeding this node (empty only for the input node).
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Single-sample output shape (without the batch dimension).
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    /// Test-only helper to rewire a node (validation tests rebuild the graph
    /// through [`Graph::new`] afterwards, which revalidates the edit).
    #[cfg(test)]
    pub(crate) fn set_inputs_for_test(&mut self, inputs: Vec<NodeId>) {
        self.inputs = inputs;
    }
}

/// Everything captured by a cached graph forward pass, consumed by
/// [`Graph::backward`].
#[derive(Debug, Clone)]
pub struct GraphForwardPass {
    /// Output of the graph's final node, shape `[N, classes]`.
    pub output: Tensor,
    /// Output of every node in topological order (node 0 is the input batch).
    pub node_outputs: Vec<Tensor>,
    /// Backward caches for layer nodes (`None` for Input/Add/Concat nodes).
    pub caches: Vec<Option<LayerCache>>,
}

/// Incremental builder for a [`Graph`].
///
/// The builder validates every edge and infers every output shape as nodes are
/// appended, so wiring mistakes fail at the offending `add_node` call with the
/// node id in the error, not later at execution time. Node 0 is always the
/// input placeholder.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    input_shape: Vec<usize>,
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Start a graph for single-sample inputs of `input_shape` (without the
    /// batch dimension). Node 0 is the input placeholder.
    pub fn new(input_shape: &[usize]) -> Self {
        Self {
            input_shape: input_shape.to_vec(),
            nodes: vec![Node {
                op: GraphOp::Input,
                inputs: Vec::new(),
                output_shape: input_shape.to_vec(),
            }],
        }
    }

    /// Append a node computing `op` over the outputs of `inputs`.
    ///
    /// Returns the id of the new node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::GraphDanglingEdge`] when an input id does not exist
    /// yet, [`NnError::GraphShapeMismatch`] when the input shapes are
    /// incompatible with the op, and propagates layer shape-inference errors.
    pub fn add_node(&mut self, op: GraphOp, inputs: &[NodeId]) -> Result<NodeId> {
        let id = self.nodes.len();
        let shapes: Vec<Vec<usize>> = inputs
            .iter()
            .map(|&input| {
                // Inside the builder every existing id is an earlier id, so a
                // too-large id is always a dangling edge rather than a cycle.
                self.nodes.get(input).map(|n| n.output_shape.clone()).ok_or(
                    NnError::GraphDanglingEdge {
                        node: id,
                        input,
                        num_nodes: self.nodes.len(),
                    },
                )
            })
            .collect::<Result<_>>()?;
        let output_shape = infer_output_shape(id, &op, inputs, &shapes)?;
        self.nodes.push(Node {
            op,
            inputs: inputs.to_vec(),
            output_shape,
        });
        Ok(id)
    }

    /// Append a layer node fed by `input` (convenience for
    /// [`GraphBuilder::add_node`]).
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::add_node`].
    pub fn layer(&mut self, input: NodeId, layer: impl Into<Layer>) -> Result<NodeId> {
        self.add_node(GraphOp::Layer(layer.into()), &[input])
    }

    /// Append an element-wise Add (residual) node.
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::add_node`].
    pub fn add(&mut self, inputs: &[NodeId]) -> Result<NodeId> {
        self.add_node(GraphOp::Add, inputs)
    }

    /// Append a Concat node (first sample axis).
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::add_node`].
    pub fn concat(&mut self, inputs: &[NodeId]) -> Result<NodeId> {
        self.add_node(GraphOp::Concat, inputs)
    }

    /// Finish the graph. The most recently appended node is the graph output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] when no node beyond the input
    /// placeholder was added.
    pub fn finish(self) -> Result<Graph> {
        Graph::new(self.nodes, &self.input_shape)
    }
}

/// Shape inference for one node; shared by the builder and by
/// [`Graph::new`]-time revalidation of deserialized node lists.
fn infer_output_shape(
    id: NodeId,
    op: &GraphOp,
    inputs: &[NodeId],
    input_shapes: &[Vec<usize>],
) -> Result<Vec<usize>> {
    let arity = |minimum: usize, what: &str| -> Result<()> {
        if inputs.len() < minimum {
            return Err(NnError::GraphShapeMismatch {
                node: id,
                op: op.name(),
                reason: format!("needs {what}, got {} input(s)", inputs.len()),
            });
        }
        Ok(())
    };
    match op {
        GraphOp::Input => Err(NnError::GraphShapeMismatch {
            node: id,
            op: "Input".to_string(),
            reason: "only node 0 may be the input placeholder; feed this node from node 0 instead"
                .to_string(),
        }),
        GraphOp::Layer(layer) => {
            if inputs.len() != 1 {
                return Err(NnError::GraphShapeMismatch {
                    node: id,
                    op: layer.name(),
                    reason: format!(
                        "layer nodes take exactly 1 input, got {}; combine branches with an Add \
                         or Concat node first",
                        inputs.len()
                    ),
                });
            }
            // Infer with a batch dimension of 1, exactly like Network::new.
            let mut batched = Vec::with_capacity(input_shapes[0].len() + 1);
            batched.push(1);
            batched.extend_from_slice(&input_shapes[0]);
            let out = layer.output_shape(&batched)?;
            Ok(out[1..].to_vec())
        }
        GraphOp::Add => {
            arity(2, "at least 2 same-shape inputs")?;
            let first = &input_shapes[0];
            for (slot, shape) in input_shapes.iter().enumerate().skip(1) {
                if shape != first {
                    return Err(NnError::GraphShapeMismatch {
                        node: id,
                        op: "Add".to_string(),
                        reason: format!(
                            "input {} (node {}) has shape {shape:?} but input 0 (node {}) has \
                             shape {first:?}; all Add inputs must agree element-wise",
                            slot, inputs[slot], inputs[0]
                        ),
                    });
                }
            }
            Ok(first.clone())
        }
        GraphOp::Concat => {
            arity(2, "at least 2 inputs")?;
            let first = &input_shapes[0];
            if first.is_empty() {
                return Err(NnError::GraphShapeMismatch {
                    node: id,
                    op: "Concat".to_string(),
                    reason: "inputs must have at least one axis".to_string(),
                });
            }
            let mut leading = first[0];
            for (slot, shape) in input_shapes.iter().enumerate().skip(1) {
                if shape.len() != first.len() || shape[1..] != first[1..] {
                    return Err(NnError::GraphShapeMismatch {
                        node: id,
                        op: "Concat".to_string(),
                        reason: format!(
                            "input {} (node {}) has shape {shape:?} but input 0 (node {}) has \
                             shape {first:?}; Concat joins along the first sample axis, so all \
                             other axes must agree",
                            slot, inputs[slot], inputs[0]
                        ),
                    });
                }
                leading += shape[0];
            }
            let mut out = first.clone();
            out[0] = leading;
            Ok(out)
        }
    }
}

/// A validated model graph.
///
/// Nodes are stored in topological order (insertion order of the
/// [`GraphBuilder`]); the last node is the graph output. Construction
/// revalidates every edge and re-infers every shape, so a `Graph` obtained
/// from any source — builder, lowering, or deserialization — carries the same
/// guarantees.
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    input_shape: Vec<usize>,
    layout: ParamLayout,
}

impl Graph {
    /// Assemble a graph from a node list in topological order, revalidating
    /// all edges and re-inferring all shapes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for a graph with no compute nodes,
    /// [`NnError::GraphCycle`] / [`NnError::GraphDanglingEdge`] for edges that
    /// do not point at an earlier existing node, and
    /// [`NnError::GraphShapeMismatch`] when an op cannot combine its input
    /// shapes.
    pub fn new(nodes: Vec<Node>, input_shape: &[usize]) -> Result<Self> {
        if nodes.len() < 2 {
            return Err(NnError::EmptyNetwork);
        }
        if !matches!(nodes[0].op, GraphOp::Input) || !nodes[0].inputs.is_empty() {
            return Err(NnError::GraphShapeMismatch {
                node: 0,
                op: nodes[0].op.name(),
                reason: "node 0 must be the input placeholder with no input edges".to_string(),
            });
        }
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        shapes.push(input_shape.to_vec());
        for (id, node) in nodes.iter().enumerate().skip(1) {
            let mut input_shapes = Vec::with_capacity(node.inputs.len());
            for &input in &node.inputs {
                if input >= nodes.len() {
                    return Err(NnError::GraphDanglingEdge {
                        node: id,
                        input,
                        num_nodes: nodes.len(),
                    });
                }
                if input >= id {
                    return Err(NnError::GraphCycle { node: id, input });
                }
                input_shapes.push(shapes[input].clone());
            }
            shapes.push(infer_output_shape(
                id,
                &node.op,
                &node.inputs,
                &input_shapes,
            )?);
        }
        let mut nodes = nodes;
        for (node, shape) in nodes.iter_mut().zip(&shapes) {
            node.output_shape.clone_from(shape);
        }
        let layout = Self::build_layout(&nodes);
        Ok(Self {
            nodes,
            input_shape: input_shape.to_vec(),
            layout,
        })
    }

    /// Assemble a graph from raw `(op, inputs)` pairs (shapes are inferred by
    /// [`Graph::new`]). Used by the deserializer.
    pub(crate) fn from_raw_nodes(
        pairs: Vec<(GraphOp, Vec<NodeId>)>,
        input_shape: &[usize],
    ) -> Result<Self> {
        let nodes = pairs
            .into_iter()
            .map(|(op, inputs)| Node {
                op,
                inputs,
                output_shape: Vec::new(),
            })
            .collect();
        Self::new(nodes, input_shape)
    }

    /// Flat-parameter layout over parameterized layer nodes in topological
    /// order (weight then bias per node), using node ids as the layout's
    /// `layer_index`. A graph lowered from a [`dnnip_nn::Network`] assigns
    /// every scalar parameter the same global index the network does.
    fn build_layout(nodes: &[Node]) -> ParamLayout {
        let mut parts = Vec::new();
        for (id, node) in nodes.iter().enumerate() {
            if let GraphOp::Layer(layer) = &node.op {
                if let Some((w, b)) = layer.parameters() {
                    parts.push((id, ParamKind::Weight, w.shape().to_vec()));
                    parts.push((id, ParamKind::Bias, b.shape().to_vec()));
                }
            }
        }
        ParamLayout::from_segments(parts)
    }

    // ------------------------------------------------------------------
    // Structure accessors
    // ------------------------------------------------------------------

    /// The nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (including the input placeholder).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Shape of a single input sample (without the batch dimension).
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of output classes (last axis of the final node's output).
    pub fn num_classes(&self) -> usize {
        *self
            .nodes
            .last()
            .expect("graph has at least two nodes")
            .output_shape
            .last()
            .expect("graph output has at least one axis")
    }

    /// The flat-parameter layout (see [`dnnip_nn::params::ParamLayout`]).
    pub fn param_layout(&self) -> &ParamLayout {
        &self.layout
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.layout.total()
    }

    /// Whether the graph is a single-path chain of layer nodes (node `i` feeds
    /// exactly node `i + 1`), i.e. representable as a [`dnnip_nn::Network`].
    pub fn is_linear(&self) -> bool {
        self.nodes
            .iter()
            .enumerate()
            .skip(1)
            .all(|(id, node)| matches!(node.op, GraphOp::Layer(_)) && node.inputs == [id - 1])
    }

    /// Total number of "neurons": elements of every activation node's output
    /// (matching the neuron-coverage unit count of the sequential path).
    pub fn num_neuron_units(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|node| match &node.op {
                GraphOp::Layer(layer) if layer.is_activation() => {
                    Some(node.output_shape.iter().product::<usize>())
                }
                _ => None,
            })
            .sum()
    }

    /// Multi-line human-readable summary: one line per node with its op, input
    /// edges, output shape and parameter count.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Input {:?}\n", &self.input_shape));
        for (id, node) in self.nodes.iter().enumerate().skip(1) {
            let params = match &node.op {
                GraphOp::Layer(layer) => layer.num_parameters(),
                _ => 0,
            };
            out.push_str(&format!(
                "#{id:<3} {:<30} <- {:?}  -> {:?}  ({params} params)\n",
                node.op.name(),
                node.inputs,
                node.output_shape,
            ));
        }
        out.push_str(&format!("Total parameters: {}\n", self.num_parameters()));
        out
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn check_batch_input(&self, input: &Tensor) -> Result<()> {
        let expected_rank = self.input_shape.len() + 1;
        if input.ndim() != expected_rank || input.shape()[1..] != self.input_shape[..] {
            return Err(NnError::BadInputShape {
                layer: "Graph".to_string(),
                got: input.shape().to_vec(),
                expected: format!("[N, {:?}]", self.input_shape),
            });
        }
        Ok(())
    }

    /// Wrap a single sample into a batch of one.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the sample shape does not match.
    pub fn batch_one(&self, sample: &Tensor) -> Result<Tensor> {
        if sample.shape() != self.input_shape {
            return Err(NnError::BadInputShape {
                layer: "Graph".to_string(),
                got: sample.shape().to_vec(),
                expected: format!("{:?}", self.input_shape),
            });
        }
        let mut shape = Vec::with_capacity(self.input_shape.len() + 1);
        shape.push(1);
        shape.extend_from_slice(&self.input_shape);
        Ok(sample.reshape(&shape)?)
    }

    /// Evaluate node `id` on the outputs of the nodes before it. With
    /// `cached`, layer nodes run [`Layer::forward`] and return their backward
    /// cache; without, they run the cacheless [`Layer::infer`].
    fn eval_node(
        &self,
        id: NodeId,
        outputs: &[Tensor],
        cached: bool,
    ) -> Result<(Tensor, Option<LayerCache>)> {
        let node = &self.nodes[id];
        match &node.op {
            GraphOp::Input => unreachable!("input node is seeded before execution"),
            GraphOp::Layer(layer) if cached => {
                let (out, cache) = layer.forward(&outputs[node.inputs[0]])?;
                Ok((out, Some(cache)))
            }
            GraphOp::Layer(layer) => Ok((layer.infer(&outputs[node.inputs[0]])?, None)),
            GraphOp::Add => {
                let mut acc = outputs[node.inputs[0]].clone();
                for &input in &node.inputs[1..] {
                    acc.add_assign(&outputs[input])?;
                }
                Ok((acc, None))
            }
            GraphOp::Concat => {
                let inputs: Vec<&Tensor> = node.inputs.iter().map(|&i| &outputs[i]).collect();
                Ok((concat_batched(&inputs)?, None))
            }
        }
    }

    /// Forward pass over a batch `[N, ...input_shape]`, returning the final
    /// node's output.
    ///
    /// Nodes execute in topological order through [`Layer::infer`], so
    /// convolutions take the blocked im2col + `gemm` kernel. A lowered
    /// sequential graph invokes the identical layer kernels in the identical
    /// order the source [`dnnip_nn::Network::forward`] would, so the result is
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] for a mismatched batch shape and
    /// propagates layer errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.check_batch_input(input)?;
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        outputs.push(input.clone());
        for id in 1..self.nodes.len() {
            let (out, _) = self.eval_node(id, &outputs, false)?;
            outputs.push(out);
        }
        Ok(outputs.pop().expect("graph has at least two nodes"))
    }

    /// Forward pass over a single sample (no batch dimension), returning the
    /// logits as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] when the sample shape does not match.
    pub fn forward_sample(&self, sample: &Tensor) -> Result<Tensor> {
        let batched = self.batch_one(sample)?;
        Ok(self.forward(&batched)?.flatten())
    }

    /// Forward pass that records every node output and the layer caches needed
    /// by [`Graph::backward`].
    ///
    /// Layer nodes run [`Layer::forward`] (direct-loop convolutions), like
    /// [`dnnip_nn::Network::forward_cached`]: the output matches
    /// [`Graph::forward`] within rounding, and bit for bit when every
    /// convolution bias is zero.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] for a mismatched batch shape and
    /// propagates layer errors.
    pub fn forward_cached(&self, input: &Tensor) -> Result<GraphForwardPass> {
        self.check_batch_input(input)?;
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        let mut caches: Vec<Option<LayerCache>> = Vec::with_capacity(self.nodes.len());
        outputs.push(input.clone());
        caches.push(None);
        for id in 1..self.nodes.len() {
            let (out, cache) = self.eval_node(id, &outputs, true)?;
            outputs.push(out);
            caches.push(cache);
        }
        Ok(GraphForwardPass {
            output: outputs.last().expect("graph has nodes").clone(),
            node_outputs: outputs,
            caches,
        })
    }

    /// Backward pass through the whole graph.
    ///
    /// Walks the nodes in reverse topological order, accumulating each node's
    /// output gradient from all of its consumers before running its backward
    /// rule: layer nodes invoke [`Layer::backward`] and write their parameter
    /// gradients into the flat layout, Add fans the gradient out to every
    /// input unchanged, Concat splits it along the first sample axis. The
    /// accumulation order is the deterministic reverse node order, so repeated
    /// runs are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns an error when `grad_output` has the wrong shape or a layer cache
    /// is inconsistent.
    pub fn backward(
        &self,
        pass: &GraphForwardPass,
        grad_output: &Tensor,
    ) -> Result<BackwardResult> {
        let n = self.nodes.len();
        let mut param_grads = vec![0.0f32; self.num_parameters()];
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[n - 1] = Some(grad_output.clone());
        // Accumulate `grad` into the slot for node `input`.
        let accumulate = |slot: &mut Option<Tensor>, grad: Tensor| -> Result<()> {
            match slot {
                None => *slot = Some(grad),
                Some(existing) => existing.add_assign(&grad)?,
            }
            Ok(())
        };
        for id in (1..n).rev() {
            // Dead branches (nodes whose output never reaches the graph
            // output) receive no gradient and are skipped.
            let Some(grad) = grads[id].take() else {
                continue;
            };
            let node = &self.nodes[id];
            match &node.op {
                GraphOp::Input => unreachable!("node 0 is the only input node"),
                GraphOp::Layer(layer) => {
                    let cache = pass.caches[id]
                        .as_ref()
                        .expect("layer node recorded a cache during forward");
                    let (grad_in, pgrads) = layer.backward(cache, &grad)?;
                    if let Some(pg) = pgrads {
                        let range = self
                            .layout
                            .layer_range(id)
                            .expect("parameterized node present in layout");
                        let w_len = pg.weight.len();
                        let dst = &mut param_grads[range];
                        dst[..w_len].copy_from_slice(pg.weight.data());
                        dst[w_len..].copy_from_slice(pg.bias.data());
                    }
                    accumulate(&mut grads[node.inputs[0]], grad_in)?;
                }
                GraphOp::Add => {
                    for &input in &node.inputs {
                        accumulate(&mut grads[input], grad.clone())?;
                    }
                }
                GraphOp::Concat => {
                    let pieces = split_batched(
                        &grad,
                        &node
                            .inputs
                            .iter()
                            .map(|&i| self.nodes[i].output_shape.as_slice())
                            .collect::<Vec<_>>(),
                    )?;
                    for (&input, piece) in node.inputs.iter().zip(pieces) {
                        accumulate(&mut grads[input], piece)?;
                    }
                }
            }
        }
        let grad_input = match grads[0].take() {
            Some(g) => g,
            // The input feeds no live node only in degenerate graphs; the
            // gradient is exactly zero then.
            None => Tensor::zeros(pass.node_outputs[0].shape()),
        };
        Ok(BackwardResult {
            grad_input,
            param_grads,
        })
    }

    /// Gradient of `sum_j c_j · F_j(x)` with respect to every parameter, for a
    /// single sample (the graph counterpart of
    /// [`dnnip_nn::Network::parameter_gradients`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape or `output_weights` length is
    /// wrong.
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

    /// Batched outputs of every activation node in topological order, for a
    /// batch of samples.
    ///
    /// This is the forward-only surface neuron-coverage criteria consume: for
    /// a lowered sequential graph the tensors equal (bit-for-bit) the
    /// activation-layer outputs the batched engine captures on the `Network`
    /// path, in the same order, so covered-unit indexing is identical.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] for a mismatched batch shape and
    /// propagates layer errors.
    pub fn activation_outputs(&self, input: &Tensor) -> Result<Vec<Tensor>> {
        self.check_batch_input(input)?;
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        outputs.push(input.clone());
        let mut captured = Vec::new();
        for id in 1..self.nodes.len() {
            let (out, _) = self.eval_node(id, &outputs, false)?;
            if matches!(&self.nodes[id].op, GraphOp::Layer(l) if l.is_activation()) {
                captured.push(out.clone());
            }
            outputs.push(out);
        }
        Ok(captured)
    }
}

/// Concatenate batched tensors along axis 1 (the first sample axis).
fn concat_batched(inputs: &[&Tensor]) -> Result<Tensor> {
    let batch = inputs[0].shape()[0];
    let mut out_shape = inputs[0].shape().to_vec();
    out_shape[1] = inputs.iter().map(|t| t.shape()[1]).sum();
    let trailing: usize = inputs[0].shape()[2..].iter().product();
    let mut data = Vec::with_capacity(out_shape.iter().product());
    for n in 0..batch {
        for t in inputs {
            let per_sample = t.shape()[1] * trailing;
            data.extend_from_slice(&t.data()[n * per_sample..(n + 1) * per_sample]);
        }
    }
    Ok(Tensor::from_vec(data, &out_shape)?)
}

/// Inverse of [`concat_batched`]: split a batched gradient back into the
/// per-input pieces given the inputs' single-sample shapes.
fn split_batched(grad: &Tensor, sample_shapes: &[&[usize]]) -> Result<Vec<Tensor>> {
    let batch = grad.shape()[0];
    let mut pieces: Vec<Vec<f32>> = sample_shapes
        .iter()
        .map(|s| Vec::with_capacity(batch * s.iter().product::<usize>()))
        .collect();
    let mut offset = 0usize;
    for _ in 0..batch {
        for (piece, shape) in pieces.iter_mut().zip(sample_shapes) {
            let len: usize = shape.iter().product();
            piece.extend_from_slice(&grad.data()[offset..offset + len]);
            offset += len;
        }
    }
    pieces
        .into_iter()
        .zip(sample_shapes)
        .map(|(data, shape)| {
            let mut batched = Vec::with_capacity(shape.len() + 1);
            batched.push(batch);
            batched.extend_from_slice(shape);
            Ok(Tensor::from_vec(data, &batched)?)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_nn::layers::{Activation, ActivationLayer, Conv2d, Dense, Flatten, MaxPool2d};

    fn residual_toy() -> Graph {
        let mut b = GraphBuilder::new(&[1, 4, 4]);
        let stem = b.layer(0, Conv2d::with_seed(1, 2, 3, 1, 1, 1)).unwrap();
        let act = b
            .layer(stem, ActivationLayer::new(Activation::Relu))
            .unwrap();
        let branch = b.layer(act, Conv2d::with_seed(2, 2, 3, 1, 1, 2)).unwrap();
        let sum = b.add(&[branch, act]).unwrap();
        let act2 = b
            .layer(sum, ActivationLayer::new(Activation::Tanh))
            .unwrap();
        let flat = b.layer(act2, Flatten::new()).unwrap();
        b.layer(flat, Dense::with_seed(2 * 16, 3, 3)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builder_infers_shapes_and_counts() {
        let g = residual_toy();
        assert_eq!(g.input_shape(), &[1, 4, 4]);
        assert_eq!(g.num_classes(), 3);
        assert!(!g.is_linear());
        assert_eq!(g.nodes()[4].output_shape(), &[2, 4, 4]);
        let expected = (2 * 9 + 2) + (2 * 2 * 9 + 2) + (32 * 3 + 3);
        assert_eq!(g.num_parameters(), expected);
        assert_eq!(g.num_neuron_units(), 2 * 16 + 2 * 16);
        let summary = g.summary();
        assert!(summary.contains("Add"));
        assert!(summary.contains("Total parameters"));
    }

    #[test]
    fn construction_rejects_bad_wiring() {
        let mut b = GraphBuilder::new(&[4]);
        assert!(matches!(
            b.add_node(GraphOp::Add, &[0, 7]),
            Err(NnError::GraphDanglingEdge { input: 7, .. })
        ));
        assert!(matches!(
            b.add_node(GraphOp::Input, &[]),
            Err(NnError::GraphShapeMismatch { .. })
        ));
        // A layer node takes exactly one input.
        assert!(b
            .add_node(GraphOp::Layer(Dense::with_seed(4, 2, 0).into()), &[0, 0])
            .is_err());
        // Add needs two inputs of the same shape.
        let d2 = b.layer(0, Dense::with_seed(4, 2, 0)).unwrap();
        let d3 = b.layer(0, Dense::with_seed(4, 3, 0)).unwrap();
        let err = b.add(&[d2, d3]).unwrap_err();
        assert!(err.to_string().contains("Add"), "{err}");
        assert!(b.add(&[d2]).is_err());
        // Concat needs matching trailing axes.
        let mut c = GraphBuilder::new(&[1, 4, 4]);
        let p = c.layer(0, MaxPool2d::new(2, 2)).unwrap();
        assert!(c.concat(&[p, 0]).is_err());
        // Empty graphs are rejected.
        assert!(GraphBuilder::new(&[4]).finish().is_err());
    }

    #[test]
    fn graph_new_detects_cycles_and_dangling_edges() {
        let g = residual_toy();
        let mut nodes = g.nodes().to_vec();
        // Point the Add node at itself: cycle.
        nodes[4].inputs = vec![4, 2];
        assert!(matches!(
            Graph::new(nodes, &[1, 4, 4]),
            Err(NnError::GraphCycle { node: 4, input: 4 })
        ));
        let mut nodes = g.nodes().to_vec();
        nodes[4].inputs = vec![3, 99];
        assert!(matches!(
            Graph::new(nodes, &[1, 4, 4]),
            Err(NnError::GraphDanglingEdge { input: 99, .. })
        ));
    }

    #[test]
    fn forward_runs_and_validates_input() {
        let g = residual_toy();
        let batch = Tensor::from_fn(&[3, 1, 4, 4], |i| (i as f32 * 0.11).sin());
        let out = g.forward(&batch).unwrap();
        assert_eq!(out.shape(), &[3, 3]);
        let sample = Tensor::from_fn(&[1, 4, 4], |i| (i as f32 * 0.11).sin());
        let logits = g.forward_sample(&sample).unwrap();
        assert_eq!(logits.shape(), &[3]);
        assert!(g.forward(&Tensor::zeros(&[1, 2, 4, 4])).is_err());
        assert!(g.forward_sample(&Tensor::zeros(&[4, 4])).is_err());
    }

    #[test]
    fn add_backward_matches_finite_differences() {
        let g = residual_toy();
        let sample = Tensor::from_fn(&[1, 4, 4], |i| ((i % 7) as f32 - 3.0) * 0.2);
        let grads = g.parameter_gradients(&sample, &[1.0; 3]).unwrap();
        assert_eq!(grads.len(), g.num_parameters());
        let objective = |g: &Graph, sample: &Tensor| g.forward_sample(sample).unwrap().sum();
        let eps = 1e-2f32;
        // Perturb parameters through serialization-free reconstruction: rebuild
        // the graph with one tweaked conv weight via the node list.
        for idx in [0usize, 5, 25, g.num_parameters() - 1] {
            let perturb = |delta: f32| -> Graph {
                let mut nodes = g.nodes().to_vec();
                let mut remaining = idx;
                for node in nodes.iter_mut() {
                    if let GraphOp::Layer(layer) = &mut node.op {
                        if let Some((w, b)) = layer.parameters_mut() {
                            let count = w.len() + b.len();
                            if remaining < count {
                                if remaining < w.len() {
                                    w.data_mut()[remaining] += delta;
                                } else {
                                    b.data_mut()[remaining - w.len()] += delta;
                                }
                                break;
                            }
                            remaining -= count;
                        }
                    }
                }
                Graph::new(nodes, &[1, 4, 4]).unwrap()
            };
            let num = (objective(&perturb(eps), &sample) - objective(&perturb(-eps), &sample))
                / (2.0 * eps);
            let ana = grads[idx];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "param grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn concat_forward_and_backward_are_consistent() {
        // input(2 features) -> [dense a (3), dense b (2)] -> concat(5) -> dense(2)
        let mut b = GraphBuilder::new(&[2]);
        let da = b.layer(0, Dense::with_seed(2, 3, 1)).unwrap();
        let db = b.layer(0, Dense::with_seed(2, 2, 2)).unwrap();
        let cat = b.concat(&[da, db]).unwrap();
        b.layer(cat, Dense::with_seed(5, 2, 3)).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.nodes()[cat].output_shape(), &[5]);

        let batch = Tensor::from_fn(&[4, 2], |i| (i as f32 * 0.3).cos());
        let out = g.forward(&batch).unwrap();
        assert_eq!(out.shape(), &[4, 2]);

        // Forward value check: concat of the two dense outputs row by row.
        let pass = g.forward_cached(&batch).unwrap();
        let a_out = &pass.node_outputs[da];
        let b_out = &pass.node_outputs[db];
        let cat_out = &pass.node_outputs[cat];
        for n in 0..4 {
            for j in 0..3 {
                assert_eq!(cat_out.get(&[n, j]).unwrap(), a_out.get(&[n, j]).unwrap());
            }
            for j in 0..2 {
                assert_eq!(
                    cat_out.get(&[n, 3 + j]).unwrap(),
                    b_out.get(&[n, j]).unwrap()
                );
            }
        }

        // Gradient check against finite differences on the input.
        let sample = Tensor::from_fn(&[2], |i| 0.4 - i as f32 * 0.3);
        let batched = g.batch_one(&sample).unwrap();
        let pass = g.forward_cached(&batched).unwrap();
        let grad_out = Tensor::ones(pass.output.shape());
        let back = g.backward(&pass, &grad_out).unwrap();
        let eps = 1e-3f32;
        for i in 0..2 {
            let mut sp = sample.clone();
            sp.data_mut()[i] += eps;
            let mut sm = sample.clone();
            sm.data_mut()[i] -= eps;
            let num = (g.forward_sample(&sp).unwrap().sum() - g.forward_sample(&sm).unwrap().sum())
                / (2.0 * eps);
            let ana = back.grad_input.data()[i];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "input grad mismatch at {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn rebuilds_are_deterministic() {
        let a = residual_toy();
        let b = residual_toy();
        assert_eq!(a.num_nodes(), b.num_nodes());
        let x = Tensor::from_fn(&[2, 1, 4, 4], |i| (i as f32 * 0.07).sin());
        let ya = a.forward(&x).unwrap();
        let yb = b.forward(&x).unwrap();
        assert_eq!(ya.data(), yb.data());
    }
}
