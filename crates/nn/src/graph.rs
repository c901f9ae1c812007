//! The node list every [`Network`] executes: nodes with explicit input edges,
//! per-node shape inference, and the [`GraphBuilder`] for models with skip
//! connections or branches.
//!
//! Node 0 is the input placeholder. Every other node is a layer (one input),
//! an element-wise **Add** of same-shape inputs (residual connections) or a
//! **Concat** along the first sample axis (branch fusion). Nodes are stored
//! in topological order, which is also the only order the executors use:
//! every edge points at a strictly earlier node, so cycles cannot be
//! represented. Layer nodes take the network's layers in order, each once,
//! so [`Network::layers`] lists them topologically and the flat parameter
//! layout is the same however a model was built.

use dnnip_tensor::Tensor;

use crate::layers::Layer;
use crate::{Network, NnError, Result};

/// Index of a node inside a [`Network`]'s node list.
///
/// Nodes are stored in topological order: every edge points at a strictly
/// smaller index, so a deserialized stream that contains a forward reference
/// is rejected as [`NnError::GraphCycle`].
pub type NodeId = usize;

/// The operation computed at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOp {
    /// The network input placeholder (always node 0, exactly one per network).
    Input,
    /// Layer `i` of [`Network::layers`]. Exactly one input edge.
    Layer(usize),
    /// Element-wise residual addition of two or more same-shape inputs.
    Add,
    /// Concatenation of two or more inputs along the first sample axis (the
    /// channel axis for image tensors, the feature axis for flat tensors).
    Concat,
}

/// One node of a [`Network`]: an op plus the ids of the nodes feeding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    op: NodeOp,
    inputs: Vec<NodeId>,
    /// Single-sample output shape (without the batch dimension), inferred
    /// when the network is assembled.
    output_shape: Vec<usize>,
}

impl Node {
    /// A node computing `op` over the outputs of `inputs`. Its output shape is
    /// inferred (and its edges validated) by [`Network::from_nodes`].
    pub fn new(op: NodeOp, inputs: Vec<NodeId>) -> Self {
        Self {
            op,
            inputs,
            output_shape: Vec::new(),
        }
    }

    /// The operation computed at this node.
    pub fn op(&self) -> NodeOp {
        self.op
    }

    /// Ids of the nodes feeding this node (empty only for the input node).
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Single-sample output shape (without the batch dimension).
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    /// The node whose output feeds this layer node (its one input).
    pub(crate) fn input(&self) -> NodeId {
        self.inputs[0]
    }
}

/// Human-readable name of a node's op (used in summaries and errors).
pub(crate) fn op_name(op: NodeOp, layers: &[Layer]) -> String {
    match op {
        NodeOp::Input => "Input".to_string(),
        NodeOp::Layer(i) => layers
            .get(i)
            .map_or_else(|| format!("Layer {i}"), Layer::name),
        NodeOp::Add => "Add".to_string(),
        NodeOp::Concat => "Concat".to_string(),
    }
}

/// The nodes of a chain: the input, then one node per layer, each fed by its
/// predecessor.
pub(crate) fn chain(num_layers: usize) -> Vec<Node> {
    std::iter::once(Node::new(NodeOp::Input, Vec::new()))
        .chain((0..num_layers).map(|i| Node::new(NodeOp::Layer(i), vec![i])))
        .collect()
}

/// Validate `nodes` against `layers` and the single-sample `input_shape`,
/// returning them with every output shape inferred.
///
/// Node 0 must be the input placeholder; every other node must pass
/// [`check_node`]; and the layer nodes must use every layer.
pub(crate) fn validate(
    layers: &[Layer],
    mut nodes: Vec<Node>,
    input_shape: &[usize],
) -> Result<Vec<Node>> {
    if nodes.len() < 2 {
        return Err(NnError::EmptyNetwork);
    }
    if nodes[0].op != NodeOp::Input || !nodes[0].inputs.is_empty() {
        return Err(NnError::GraphShapeMismatch {
            node: 0,
            op: op_name(nodes[0].op, layers),
            reason: "node 0 must be the input placeholder with no input edges".to_string(),
        });
    }
    nodes[0].output_shape = checked_shape(0, "Input", input_shape)?;
    for id in 1..nodes.len() {
        nodes[id].output_shape = check_node(layers, &nodes[..id], &nodes[id], nodes.len())?;
    }
    let used = layer_count(&nodes);
    if used != layers.len() {
        let last = nodes.len() - 1;
        return Err(NnError::GraphShapeMismatch {
            node: last,
            op: op_name(nodes[last].op, layers),
            reason: format!(
                "{} layers were given but the nodes use {used}",
                layers.len()
            ),
        });
    }
    Ok(nodes)
}

fn layer_count(nodes: &[Node]) -> usize {
    nodes
        .iter()
        .filter(|n| matches!(n.op, NodeOp::Layer(_)))
        .count()
}

/// Check the node that follows `before` in a list of `num_nodes` and return
/// its output shape: every edge points at an earlier node, a layer node
/// takes the next layer in order, the op accepts its input shapes, and the
/// output's element count fits a `usize`, so nothing downstream overflows on
/// a hostile stream.
fn check_node(
    layers: &[Layer],
    before: &[Node],
    node: &Node,
    num_nodes: usize,
) -> Result<Vec<usize>> {
    let id = before.len();
    for &input in &node.inputs {
        if input >= num_nodes {
            return Err(NnError::GraphDanglingEdge {
                node: id,
                input,
                num_nodes,
            });
        }
        if input >= id {
            return Err(NnError::GraphCycle { node: id, input });
        }
    }
    if let NodeOp::Layer(i) = node.op {
        let next = layer_count(before);
        if i != next {
            return Err(NnError::GraphShapeMismatch {
                node: id,
                op: op_name(node.op, layers),
                reason: format!(
                    "refers to layer {i} where layer {next} comes next; layer nodes take the \
                     layers in order, each once"
                ),
            });
        }
    }
    let shapes: Vec<&[usize]> = node
        .inputs
        .iter()
        .map(|&i| before[i].output_shape.as_slice())
        .collect();
    infer_output_shape(id, node.op, &node.inputs, &shapes, layers)
}

/// `shape` itself, once its element count is known to fit a `usize`.
fn checked_shape(id: NodeId, op: &str, shape: &[usize]) -> Result<Vec<usize>> {
    if shape
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .is_none()
    {
        return Err(NnError::GraphShapeMismatch {
            node: id,
            op: op.to_string(),
            reason: format!("shape {shape:?} has more elements than fit in memory"),
        });
    }
    Ok(shape.to_vec())
}

/// Shape inference for one node.
fn infer_output_shape(
    id: NodeId,
    op: NodeOp,
    inputs: &[NodeId],
    input_shapes: &[&[usize]],
    layers: &[Layer],
) -> Result<Vec<usize>> {
    let name = op_name(op, layers);
    let mismatch = |reason: String| NnError::GraphShapeMismatch {
        node: id,
        op: name.clone(),
        reason,
    };
    let shape = match op {
        NodeOp::Input => {
            return Err(mismatch(
                "only node 0 may be the input placeholder; feed this node from node 0 instead"
                    .to_string(),
            ))
        }
        NodeOp::Layer(i) => {
            if inputs.len() != 1 {
                return Err(mismatch(format!(
                    "layer nodes take exactly 1 input, got {}; combine branches with an Add or \
                     Concat node first",
                    inputs.len()
                )));
            }
            // Infer with a batch dimension of 1.
            let mut batched = Vec::with_capacity(input_shapes[0].len() + 1);
            batched.push(1);
            batched.extend_from_slice(input_shapes[0]);
            layers[i].output_shape(&batched)?[1..].to_vec()
        }
        NodeOp::Add => {
            if inputs.len() < 2 {
                return Err(mismatch(format!(
                    "needs at least 2 same-shape inputs, got {} input(s)",
                    inputs.len()
                )));
            }
            let first = input_shapes[0];
            for (slot, shape) in input_shapes.iter().enumerate().skip(1) {
                if shape != &first {
                    return Err(mismatch(format!(
                        "input {slot} (node {}) has shape {shape:?} but input 0 (node {}) has \
                         shape {first:?}; all Add inputs must agree element-wise",
                        inputs[slot], inputs[0]
                    )));
                }
            }
            first.to_vec()
        }
        NodeOp::Concat => {
            if inputs.len() < 2 {
                return Err(mismatch(format!(
                    "needs at least 2 inputs, got {} input(s)",
                    inputs.len()
                )));
            }
            let first = input_shapes[0];
            if first.is_empty() {
                return Err(mismatch("inputs must have at least one axis".to_string()));
            }
            let mut leading = 0usize;
            for (slot, shape) in input_shapes.iter().enumerate() {
                if shape.len() != first.len() || shape[1..] != first[1..] {
                    return Err(mismatch(format!(
                        "input {slot} (node {}) has shape {shape:?} but input 0 (node {}) has \
                         shape {first:?}; Concat joins along the first sample axis, so all \
                         other axes must agree",
                        inputs[slot], inputs[0]
                    )));
                }
                leading = leading
                    .checked_add(shape[0])
                    .ok_or_else(|| mismatch("joined axis overflows".to_string()))?;
            }
            let mut out = first.to_vec();
            out[0] = leading;
            out
        }
    };
    checked_shape(id, &name, &shape)
}

/// For every node, the last node that reads its output (the node itself when
/// nothing does — the output node, or a dead branch). An executor drops a
/// node's output once that reader has run, so a chain keeps no more alive
/// than one layer's input and output.
pub(crate) fn last_readers(nodes: &[Node]) -> Vec<NodeId> {
    let mut last: Vec<NodeId> = (0..nodes.len()).collect();
    for (id, node) in nodes.iter().enumerate() {
        for &input in &node.inputs {
            last[input] = id;
        }
    }
    last
}

/// Sum of same-shape batched tensors, folded in input order.
pub(crate) fn add_batched(inputs: &[&Tensor]) -> Result<Tensor> {
    let mut acc = inputs[0].clone();
    for t in &inputs[1..] {
        acc.add_assign(t)?;
    }
    Ok(acc)
}

/// Concatenate batched tensors along axis 1 (the first sample axis).
pub(crate) fn concat_batched(inputs: &[&Tensor]) -> Result<Tensor> {
    let batch = inputs[0].shape()[0];
    let mut out_shape = inputs[0].shape().to_vec();
    out_shape[1] = inputs.iter().map(|t| t.shape()[1]).sum();
    let mut data = Vec::with_capacity(out_shape.iter().product());
    for n in 0..batch {
        for t in inputs {
            let per_sample = t.len() / batch;
            data.extend_from_slice(&t.data()[n * per_sample..(n + 1) * per_sample]);
        }
    }
    Ok(Tensor::from_vec(data, &out_shape)?)
}

/// Incremental builder for a [`Network`] with explicit edges.
///
/// Every edge is validated and every output shape inferred as nodes are
/// appended, so a wiring mistake fails at the offending call with the node id
/// in the error, not later at execution time. Node 0 is the input
/// placeholder; the most recently appended node is the network output.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    input_shape: Vec<usize>,
    layers: Vec<Layer>,
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Start a network for single-sample inputs of `input_shape` (without the
    /// batch dimension).
    pub fn new(input_shape: &[usize]) -> Self {
        let mut input = Node::new(NodeOp::Input, Vec::new());
        input.output_shape = input_shape.to_vec();
        Self {
            input_shape: input_shape.to_vec(),
            layers: Vec::new(),
            nodes: vec![input],
        }
    }

    fn push(&mut self, op: NodeOp, inputs: &[NodeId], layer: Option<Layer>) -> Result<NodeId> {
        let mut node = Node::new(op, inputs.to_vec());
        let adds_layer = layer.is_some();
        self.layers.extend(layer);
        // The node does not exist yet, so an edge to its own id dangles.
        match check_node(&self.layers, &self.nodes, &node, self.nodes.len()) {
            Ok(shape) => {
                node.output_shape = shape;
                self.nodes.push(node);
                Ok(self.nodes.len() - 1)
            }
            Err(e) => {
                if adds_layer {
                    self.layers.pop();
                }
                Err(e)
            }
        }
    }

    /// Append a layer node fed by `input`; returns the new node's id.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::GraphDanglingEdge`] when `input` does not exist yet
    /// and propagates the layer's shape-inference error.
    pub fn layer(&mut self, input: NodeId, layer: impl Into<Layer>) -> Result<NodeId> {
        let op = NodeOp::Layer(self.layers.len());
        self.push(op, &[input], Some(layer.into()))
    }

    /// Append an element-wise Add (residual) node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::GraphDanglingEdge`] for an unknown input and
    /// [`NnError::GraphShapeMismatch`] for fewer than two inputs or inputs of
    /// different shapes.
    pub fn add(&mut self, inputs: &[NodeId]) -> Result<NodeId> {
        self.push(NodeOp::Add, inputs, None)
    }

    /// Append a Concat node (first sample axis).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::GraphDanglingEdge`] for an unknown input and
    /// [`NnError::GraphShapeMismatch`] for fewer than two inputs or inputs
    /// whose other axes disagree.
    pub fn concat(&mut self, inputs: &[NodeId]) -> Result<NodeId> {
        self.push(NodeOp::Concat, inputs, None)
    }

    /// Finish the network. The most recently appended node is its output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] when no node beyond the input
    /// placeholder was added.
    pub fn finish(self) -> Result<Network> {
        Network::from_nodes(self.layers, self.nodes, &self.input_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, ActivationLayer, Conv2d, Dense, Flatten, MaxPool2d};

    fn residual_toy() -> Network {
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

    /// `net`'s node list with node `id` rewired to `inputs`.
    fn rewired(net: &Network, id: NodeId, inputs: Vec<NodeId>) -> Vec<Node> {
        let mut nodes = net.nodes().to_vec();
        nodes[id] = Node::new(nodes[id].op(), inputs);
        nodes
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
            b.add(&[0, 7]),
            Err(NnError::GraphDanglingEdge { input: 7, .. })
        ));
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
        // Empty networks are rejected.
        assert!(matches!(
            GraphBuilder::new(&[4]).finish(),
            Err(NnError::EmptyNetwork)
        ));
        // Node lists: a second input placeholder, a layer node with two
        // inputs, layers out of order and unused layers all fail.
        let layers = vec![
            Dense::with_seed(4, 4, 0).into(),
            Dense::with_seed(4, 2, 1).into(),
        ];
        let shape = [4usize];
        let nodes = |spec: &[(NodeOp, &[NodeId])]| -> Vec<Node> {
            spec.iter()
                .map(|(op, i)| Node::new(*op, i.to_vec()))
                .collect()
        };
        for bad in [
            nodes(&[
                (NodeOp::Input, &[]),
                (NodeOp::Input, &[]),
                (NodeOp::Layer(0), &[1]),
            ]),
            nodes(&[
                (NodeOp::Input, &[]),
                (NodeOp::Layer(0), &[0, 0]),
                (NodeOp::Layer(1), &[1]),
            ]),
            nodes(&[
                (NodeOp::Input, &[]),
                (NodeOp::Layer(1), &[0]),
                (NodeOp::Layer(0), &[1]),
            ]),
            nodes(&[(NodeOp::Input, &[]), (NodeOp::Layer(0), &[0])]),
            nodes(&[(NodeOp::Layer(0), &[]), (NodeOp::Layer(1), &[0])]),
        ] {
            let err = Network::from_nodes(layers.clone(), bad, &shape).unwrap_err();
            assert!(matches!(err, NnError::GraphShapeMismatch { .. }), "{err}");
        }
    }

    #[test]
    fn graph_new_detects_cycles_and_dangling_edges() {
        let g = residual_toy();
        // Point the Add node at itself: cycle.
        assert!(matches!(
            Network::from_nodes(g.layers().to_vec(), rewired(&g, 4, vec![4, 2]), &[1, 4, 4]),
            Err(NnError::GraphCycle { node: 4, input: 4 })
        ));
        assert!(matches!(
            Network::from_nodes(g.layers().to_vec(), rewired(&g, 4, vec![3, 99]), &[1, 4, 4]),
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
        // The cached reference agrees with the inference walk: conv biases
        // are zero, so the direct and im2col kernels agree bit for bit.
        let pass = g.forward_cached(&batch).unwrap();
        assert_eq!(pass.output.data(), out.data());
    }

    #[test]
    fn add_backward_matches_finite_differences() {
        let g = residual_toy();
        let sample = Tensor::from_fn(&[1, 4, 4], |i| ((i % 7) as f32 - 3.0) * 0.2);
        let grads = g.parameter_gradients(&sample, &[1.0; 3]).unwrap();
        assert_eq!(grads.len(), g.num_parameters());
        let objective = |g: &Network| g.forward_sample(&sample).unwrap().sum();
        let eps = 1e-2f32;
        for idx in [0usize, 5, 25, g.num_parameters() - 1] {
            let mut plus = g.clone();
            plus.perturb_parameter(idx, eps).unwrap();
            let mut minus = g.clone();
            minus.perturb_parameter(idx, -eps).unwrap();
            let num = (objective(&plus) - objective(&minus)) / (2.0 * eps);
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

        // Forward value check: the last layer's input is the two dense
        // outputs side by side, row by row.
        let pass = g.forward_cached(&batch).unwrap();
        let a_out = &pass.layer_outputs[0];
        let b_out = &pass.layer_outputs[1];
        let crate::layers::LayerCache::Dense { input: cat_out } = &pass.caches[2] else {
            panic!("layer 2 is Dense");
        };
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
        assert_eq!(a.nodes(), b.nodes());
        let x = Tensor::from_fn(&[2, 1, 4, 4], |i| (i as f32 * 0.07).sin());
        let ya = a.forward(&x).unwrap();
        let yb = b.forward(&x).unwrap();
        assert_eq!(ya.data(), yb.data());
    }
}
