//! Batched evaluation engine: stacked forward passes, per-sample parameter
//! gradients.
//!
//! The validation-coverage metric needs `∇θ F(x)` **per sample** — the batch
//! dimension cannot simply be summed away like in training. The naive engine
//! therefore ran one full forward + backward per sample through the layer
//! objects, allocating tensors at every step. [`BatchGradientEngine`]
//! restructures that hot path:
//!
//! * **One node walk** — every forward pass, stacked or not, is the same walk
//!   over the network's nodes in topological order. Each node's stacked
//!   output stays in the pass, and the backward passes read layer inputs and
//!   activation outputs from there in place, so nothing is copied between
//!   nodes. Dense layers over a stacked batch are one matrix–matrix product;
//!   over a single sample they are an axpy over the weight's rows (`gemm`'s
//!   fold at m = 1, without packing a panel). Convolutions are lowering-free
//!   (`dnnip_tensor::conv::ConvPlan`, one per convolution node, built with
//!   the engine): the GEMM tiles read each sample's zero-padded plane in
//!   place through offset tables, and no im2col block is ever written.
//! * **Sample-major parameter gradients** — a sample's forward and backward
//!   passes run back to back. Its forward keeps the plane of every padded
//!   convolution side by side in the arena (an unpadded convolution's plane
//!   is its input, already in the pass), and its backward passes read them
//!   in place for the weight gradient `∂L/∂Wᵀ = cols · ∂L/∂outᵀ`: the tiles
//!   read the plane as the im2col block it stands for, pack only the small
//!   `∂L/∂out`, and store transposed, so `∂L/∂W` (`[OC, C·KH·KW]`) goes
//!   straight into the flat parameter-gradient slice. The input gradient
//!   adds each tap's `Wᵀ · ∂L/∂out` product from registers into the zeroed
//!   image, col2im's fold without its column buffer; where no parameterized
//!   layer lies upstream it is never needed and is skipped. A Dense layer's
//!   two degenerate products are written out: the weight gradient as the
//!   outer product `0.0 + a·g`, the input gradient as an axpy over the rows
//!   of the precomputed `Wᵀ`. Both are the exact folds `gemm` performs for
//!   those shapes.
//! * **Add and Concat** — an Add hands its gradient to every input, a Concat
//!   splits it by channel, and a node read by several others sums their
//!   gradients in the order [`Network::backward`] does. A node read once
//!   receives its gradient buffer by move, so a chain pays nothing for them.
//! * **Multi-projection amortization** — several output projections (e.g. one
//!   per class for the `PerClassMax` coverage policy) share a sample's single
//!   forward pass and its kept planes; only the cheap backward repeats.
//!
//! The engine is deterministic and purely functional over `&Network`, so
//! callers may freely share one engine across worker threads. Per-sample
//! arithmetic does not depend on what else is in the batch, so results do not
//! depend on how samples are distributed over batches, engines or threads.

use std::sync::Arc;

use dnnip_tensor::conv::ConvPlan;
use dnnip_tensor::{ops, ScratchArena, Tensor};

use crate::graph::{self, NodeOp};
use crate::layers::{Activation, Layer, LayerCache};
use crate::{Network, NnError, Result};

/// A completed batched forward pass: every node's stacked output plus the
/// bookkeeping the per-sample backward passes consume.
///
/// Produced by [`BatchGradientEngine::forward_batch`]; opaque outside the
/// engine so the layout can evolve freely.
#[derive(Debug)]
pub struct BatchForwardPass {
    /// Stacked output of every node (node 0: the stacked input; the last
    /// node: the logits `[B, classes]`).
    outputs: Vec<Tensor>,
    /// Per node: a max-pool layer's flat argmax over the batch input (empty
    /// for every other node).
    argmax: Vec<Vec<usize>>,
    /// Per node: where a padded convolution's kept plane starts in the arena
    /// (meaningful only for a forward that keeps its planes).
    plane_offsets: Vec<usize>,
    batch: usize,
}

impl BatchForwardPass {
    /// The stacked logits, shape `[B, classes]`.
    pub fn output(&self) -> &Tensor {
        self.outputs.last().expect("a network has an output node")
    }

    /// Number of samples in the batch.
    pub fn batch_size(&self) -> usize {
        self.batch
    }
}

/// Post-activation outputs captured by a forward-only batched pass
/// ([`BatchGradientEngine::activation_outputs`]).
///
/// Forward-only coverage criteria (neuron-activation thresholds, top-k neuron
/// selection) need the output of every activation layer but no gradients at
/// all; this capture carries exactly that, stacked along the batch axis, plus
/// the final logits.
#[derive(Debug)]
pub struct ActivationCapture {
    /// Stacked post-activation output of each [`Layer::Activation`] layer, in
    /// topological order. Every tensor's leading dimension is the batch size.
    outputs: Vec<Tensor>,
    /// Stacked network logits, shape `[B, classes]`.
    logits: Tensor,
    batch: usize,
}

impl ActivationCapture {
    /// Stacked post-activation outputs, one tensor per activation layer in
    /// topological order (leading dimension = batch size).
    pub fn per_layer(&self) -> &[Tensor] {
        &self.outputs
    }

    /// The stacked network logits, shape `[B, classes]`.
    pub fn logits(&self) -> &Tensor {
        &self.logits
    }

    /// Number of samples in the captured batch.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Per-sample slice length of activation layer `layer` (index into
    /// [`ActivationCapture::per_layer`]).
    pub fn units_per_sample(&self, layer: usize) -> usize {
        self.outputs[layer].len() / self.batch.max(1)
    }

    /// This sample's contiguous slice of activation layer `layer`'s output.
    ///
    /// # Panics
    ///
    /// Panics when `layer` or `sample` is out of range.
    pub fn sample_slice(&self, layer: usize, sample: usize) -> &[f32] {
        let per = self.units_per_sample(layer);
        &self.outputs[layer].data()[sample * per..(sample + 1) * per]
    }
}

/// Batched forward / per-sample backward evaluation engine over one network.
///
/// Construction precomputes the reshaped `[OC, C*K*K]` weight matrices (and
/// their transposes) of every convolution layer, plus the `[out, in]`
/// transposes of every Dense weight — so the `k` per-class backward passes of
/// a `PerClassMax` coverage analysis (and every step of a batched gradient
/// descent) reuse one transpose instead of re-transposing per class. The
/// engine itself is read-only and `Sync`, so one instance can serve many
/// threads.
///
/// The engine **owns** its network as an `Arc<Network>` (and keeps the
/// precomputed matrices behind `Arc`s too), so engines are `'static`, cheaply
/// clonable handles: cloning bumps a few reference counts and re-derives
/// nothing. This is what lets evaluators live in long-lived multi-model
/// registries (the `Workspace` front-door in `dnnip-core`) instead of
/// borrowing from a caller's stack frame.
#[derive(Debug, Clone)]
pub struct BatchGradientEngine {
    network: Arc<Network>,
    /// Per node: the plan of a convolution node, `None` for every other node.
    conv_plans: Arc<[Option<ConvPlan>]>,
    /// Per layer: `Some(weightᵀ)` for Dense layers, `None` otherwise.
    dense_t: Arc<[Option<Tensor>]>,
    /// Per node: whether a parameterized layer lies at or upstream of it. A
    /// parameter-gradient backward pass sends gradients only into such nodes:
    /// in a chain it ends at the first parameterized layer.
    param_path: Arc<[bool]>,
}

/// Where a parameter-gradient backward pass writes, and the planes its
/// convolution weight gradients read.
struct ParamSink<'a> {
    /// The flat parameter-gradient vector, one range per parameterized layer.
    grads: &'a mut [f32],
    /// The sample's zero-padded planes of its padded convolutions, side by
    /// side in node order, as its forward pass left them.
    planes: &'a [f32],
}

/// `out = x · mat` for a row vector `x` and a row-major `[x.len(), out.len()]`
/// matrix, as an axpy over `mat`'s rows: every element starts at `+0.0` and
/// folds the rows in ascending order, which is `gemm`'s fold at m = 1.
fn row_times(x: &[f32], mat: &[f32], out: &mut [f32]) {
    debug_assert_eq!(mat.len(), x.len() * out.len());
    out.fill(0.0);
    for (&a, row) in x.iter().zip(mat.chunks_exact(out.len())) {
        for (acc, &w) in out.iter_mut().zip(row) {
            *acc += a * w;
        }
    }
}

/// Hand `grad` to node `to`: the first gradient to arrive is moved in, later
/// ones are summed into it (`existing + grad`, as [`Network::backward`]'s
/// `add_assign` does) and their buffers go back to `spare`.
fn deliver(slots: &mut [Option<Vec<f32>>], to: usize, grad: Vec<f32>, spare: &mut Vec<Vec<f32>>) {
    match &mut slots[to] {
        None => slots[to] = Some(grad),
        Some(existing) => {
            for (e, &g) in existing.iter_mut().zip(&grad) {
                *e += g;
            }
            spare.push(grad);
        }
    }
}

/// A spare buffer holding a copy of `values`.
fn copy_of(values: &[f32], spare: &mut Vec<Vec<f32>>) -> Vec<f32> {
    let mut buf = spare.pop().unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(values);
    buf
}

impl BatchGradientEngine {
    /// Create an engine for `network` (`&Network` clones into the `Arc`; an
    /// `Arc<Network>` is shared without copying).
    pub fn new(network: impl Into<Arc<Network>>) -> Self {
        let network = network.into();
        let nodes = network.nodes();
        let conv_plans = nodes
            .iter()
            .map(|node| match node.op() {
                NodeOp::Layer(i) => match &network.layers()[i] {
                    Layer::Conv2d(l) => {
                        let (w, b) = l.parameters();
                        let chw = nodes[node.inputs()[0]].output_shape();
                        let chw = [chw[0], chw[1], chw[2]];
                        Some(
                            ConvPlan::new(w, b, l.geometry(), chw)
                                .expect("a built network's convolutions fit their inputs"),
                        )
                    }
                    _ => None,
                },
                _ => None,
            })
            .collect::<Vec<_>>()
            .into();
        let dense_t = network
            .layers()
            .iter()
            .map(|layer| match layer {
                Layer::Dense(l) => {
                    let (w, _) = l.parameters();
                    Some(ops::transpose(w).expect("rank-2 transpose"))
                }
                _ => None,
            })
            .collect::<Vec<_>>()
            .into();
        let layout = network.param_layout();
        let mut param_path: Vec<bool> = Vec::with_capacity(network.num_nodes());
        for node in network.nodes() {
            let own = matches!(node.op(), NodeOp::Layer(i) if layout.layer_range(i).is_some());
            let upstream = node.inputs().iter().any(|&i| param_path[i]);
            param_path.push(own || upstream);
        }
        Self {
            network,
            conv_plans,
            dense_t,
            param_path: param_path.into(),
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Visit the flat parameter-gradient vector of every `(sample, projection)`
    /// pair.
    ///
    /// `projections` are rows of output weights `c`; for each sample `x` and
    /// each projection the engine computes `∇θ (Σ_j c_j · F_j(x))` — exactly
    /// what [`Network::parameter_gradients`] computes per call. Samples run
    /// one after another: each sample's forward lowers every convolution's
    /// block once, and all of its projections' backward passes read them
    /// while they are cache-hot. `visit` receives `(sample_index,
    /// projection_index, grads)`; the gradient slice is only valid for the
    /// duration of the call (the buffer is reused).
    ///
    /// # Errors
    ///
    /// Returns an error when a sample shape does not match the network input or
    /// a projection length differs from the number of classes.
    pub fn for_each_parameter_gradient<F>(
        &self,
        samples: &[Tensor],
        projections: &[Vec<f32>],
        mut visit: F,
    ) -> Result<()>
    where
        F: FnMut(usize, usize, &[f32]),
    {
        if samples.is_empty() || projections.is_empty() {
            return Ok(());
        }
        let classes = self.network.num_classes();
        if let Some(bad) = projections.iter().find(|p| p.len() != classes) {
            return Err(NnError::ParamLengthMismatch {
                expected: classes,
                got: bad.len(),
            });
        }
        // One arena for the whole call: every sample's forward and every
        // (sample, projection) backward reuse the same scratch buffers.
        let mut arena = ScratchArena::new();
        let mut grads = vec![0.0f32; self.network.num_parameters()];
        for (s, sample) in samples.iter().enumerate() {
            let pass = self.forward(std::slice::from_ref(sample), &mut arena, true)?;
            // The kept planes leave the arena while the backward passes
            // borrow it mutably, and go back afterwards for reuse.
            let planes = std::mem::take(&mut arena.planes);
            for (pi, proj) in projections.iter().enumerate() {
                let sink = ParamSink {
                    grads: &mut grads,
                    planes: &planes,
                };
                self.backward_sample(&pass, 0, proj, Some(sink), &mut arena)?;
                visit(s, pi, &grads);
            }
            arena.planes = planes;
        }
        Ok(())
    }

    /// Run the batched forward pass over a slice of samples, retaining every
    /// node's stacked output for later per-sample backward calls
    /// ([`BatchGradientEngine::input_gradient`]).
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input
    /// (or the slice is empty, which stacks to an invalid batch).
    pub fn forward_batch(&self, samples: &[Tensor]) -> Result<BatchForwardPass> {
        self.forward_batch_with(samples, &mut ScratchArena::new())
    }

    /// [`BatchGradientEngine::forward_batch`] with a caller-owned
    /// [`ScratchArena`], so a loop of passes (one per chunk of a coverage
    /// sweep, one per step of a gradient-descent trajectory) reuses the same
    /// scratch allocations instead of growing fresh ones every call. Results
    /// are bit-identical to [`BatchGradientEngine::forward_batch`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`BatchGradientEngine::forward_batch`].
    pub fn forward_batch_with(
        &self,
        samples: &[Tensor],
        arena: &mut ScratchArena,
    ) -> Result<BatchForwardPass> {
        self.forward(samples, arena, false)
    }

    /// Forward-only batched pass capturing every activation layer's
    /// **post-activation** output (stacked `[B, ...]`) plus the final logits.
    ///
    /// This is the entry point for coverage criteria that only look at neuron
    /// outputs: no gradients are computed. It is the forward pass of
    /// [`BatchGradientEngine::forward_batch`] with the activation outputs
    /// handed out, so captured values are the gradient path's intermediate
    /// activations, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input.
    pub fn activation_outputs(&self, samples: &[Tensor]) -> Result<ActivationCapture> {
        let pass = self.forward(samples, &mut ScratchArena::new(), false)?;
        let logits = pass.output().clone();
        let layers = self.network.layers();
        let outputs = pass
            .outputs
            .into_iter()
            .zip(self.network.nodes())
            .filter_map(|(out, node)| match node.op() {
                NodeOp::Layer(i) if layers[i].is_activation() => Some(out),
                _ => None,
            })
            .collect();
        Ok(ActivationCapture {
            outputs,
            logits,
            batch: pass.batch,
        })
    }

    /// Gradient of `Σ_j c_j · F_j(x_s)` with respect to the **input** of sample
    /// `s` of a completed batched forward pass, where `c` is `output_grad`
    /// (one value per class — e.g. a softmax-cross-entropy logit gradient).
    ///
    /// Returns a tensor with the network's single-sample input shape. Parameter
    /// gradients are not materialized on this path, which is what makes the
    /// gradient-descent loops of Algorithm 2 cheap.
    ///
    /// # Errors
    ///
    /// Returns an error when `s` is out of range or `output_grad` does not have
    /// one entry per class.
    pub fn input_gradient(
        &self,
        pass: &BatchForwardPass,
        s: usize,
        output_grad: &[f32],
    ) -> Result<Tensor> {
        self.input_gradient_with(pass, s, output_grad, &mut ScratchArena::new())
    }

    /// [`BatchGradientEngine::input_gradient`] with a caller-owned
    /// [`ScratchArena`] — the gradient-descent loops call this once per
    /// (sample, step), so reusing one arena across the whole trajectory
    /// removes a per-call scratch allocation. Results are bit-identical to
    /// [`BatchGradientEngine::input_gradient`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`BatchGradientEngine::input_gradient`].
    pub fn input_gradient_with(
        &self,
        pass: &BatchForwardPass,
        s: usize,
        output_grad: &[f32],
        arena: &mut ScratchArena,
    ) -> Result<Tensor> {
        let classes = self.network.num_classes();
        if output_grad.len() != classes {
            return Err(NnError::ParamLengthMismatch {
                expected: classes,
                got: output_grad.len(),
            });
        }
        if s >= pass.batch {
            return Err(NnError::BadInputShape {
                layer: "BatchGradientEngine".to_string(),
                got: vec![s],
                expected: format!("sample index < {}", pass.batch),
            });
        }
        let g = self.backward_sample(pass, s, output_grad, None, arena)?;
        let out = Tensor::from_vec(g.clone(), self.network.input_shape())?;
        arena.grads.push(g);
        Ok(out)
    }

    /// Per-sample parameter gradients of one output projection, one `Vec` per
    /// sample — the batched counterpart of [`Network::parameter_gradients`].
    ///
    /// # Errors
    ///
    /// Same error conditions as
    /// [`BatchGradientEngine::for_each_parameter_gradient`].
    pub fn parameter_gradients_batch(
        &self,
        samples: &[Tensor],
        output_weights: &[f32],
    ) -> Result<Vec<Vec<f32>>> {
        let mut out = Vec::with_capacity(samples.len());
        self.for_each_parameter_gradient(
            samples,
            std::slice::from_ref(&output_weights.to_vec()),
            |_, _, grads| out.push(grads.to_vec()),
        )?;
        Ok(out)
    }

    /// One convolution node's batched forward through its plan, returning
    /// the stacked output. The GEMM tiles read each sample's plane in place
    /// (`ConvPlan::plane`: a padded copy in `arena.planes`, or the sample
    /// itself). A copy starts at `arena.planes`' beginning, or, when `keep`
    /// is set (a batch of one), after the planes already kept there, so the
    /// sample's planes for every padded convolution end up side by side in
    /// node order. [`Layer::infer`] runs
    /// the same forward (`conv2d_forward_gemm`), so [`Network::forward`]
    /// agrees with the engine bit for bit.
    fn conv_forward_batch(
        plan: &ConvPlan,
        x: &Tensor,
        arena: &mut ScratchArena,
        keep: bool,
    ) -> Result<Tensor> {
        let b = x.shape()[0];
        let [oc, oh, ow] = plan.output_shape();
        debug_assert!(!keep || b == 1, "only a batch of one keeps its planes");
        let base = if keep { arena.planes.len() } else { 0 };
        let out_len = oc * oh * ow;
        let mut out = vec![0.0f32; b * out_len];
        let samples = x.data().chunks_exact(x.len() / b.max(1));
        for (sample, dst) in samples.zip(out.chunks_exact_mut(out_len)) {
            let plane = plan.plane(sample, &mut arena.planes, base);
            plan.forward(plane, dst, &mut arena.panel);
        }
        Ok(Tensor::from_vec(out, &[b, oc, oh, ow])?)
    }

    /// The engine's one forward pass: stacks `samples` and walks the nodes
    /// over the batch, keeping every node's output for the per-sample
    /// backward passes. With `keep_planes` (a batch of one), each padded
    /// convolution's plane stays in `arena.planes`, side by side in node
    /// order, for that sample's parameter-gradient backward passes.
    fn forward(
        &self,
        samples: &[Tensor],
        arena: &mut ScratchArena,
        keep_planes: bool,
    ) -> Result<BatchForwardPass> {
        let x = ops::stack(samples)?;
        self.network.check_batch_input(&x)?;
        if keep_planes {
            arena.planes.clear();
        }
        let nodes = self.network.nodes();
        let layers = self.network.layers();
        let mut outputs: Vec<Tensor> = Vec::with_capacity(nodes.len());
        let mut argmax = vec![Vec::new(); nodes.len()];
        let mut plane_offsets = vec![0usize; nodes.len()];
        outputs.push(x);
        for (id, node) in nodes.iter().enumerate().skip(1) {
            let x = &outputs[node.inputs()[0]];
            let out = match node.op() {
                NodeOp::Input => unreachable!("node 0 is the only input node"),
                NodeOp::Add | NodeOp::Concat => {
                    let inputs: Vec<&Tensor> = node.inputs().iter().map(|&i| &outputs[i]).collect();
                    if node.op() == NodeOp::Add {
                        graph::add_batched(&inputs)?
                    } else {
                        graph::concat_batched(&inputs)?
                    }
                }
                NodeOp::Layer(i) => match &layers[i] {
                    Layer::Conv2d(_) => {
                        plane_offsets[id] = arena.planes.len();
                        let plan = self.conv_plans[id]
                            .as_ref()
                            .expect("a convolution node has a plan");
                        Self::conv_forward_batch(plan, x, arena, keep_planes)?
                    }
                    Layer::Dense(l) if samples.len() == 1 => {
                        // One sample: `gemm`'s fold at m = 1 without repacking
                        // the weight, then the bias, as `add_row_vector` adds
                        // it.
                        let (w, bias) = l.parameters();
                        let mut out = vec![0.0f32; l.out_features()];
                        row_times(x.data(), w.data(), &mut out);
                        for (v, &b) in out.iter_mut().zip(bias.data()) {
                            *v += b;
                        }
                        Tensor::from_vec(out, &[1, l.out_features()])?
                    }
                    Layer::MaxPool2d(l) => {
                        let (out, cache) = l.forward(x)?;
                        let LayerCache::MaxPool2d { argmax: a, .. } = cache else {
                            unreachable!("MaxPool2d::forward returns a MaxPool2d cache");
                        };
                        argmax[id] = a;
                        out
                    }
                    layer => layer.infer(x)?,
                },
            };
            outputs.push(out);
        }
        Ok(BatchForwardPass {
            outputs,
            argmax,
            plane_offsets,
            batch: samples.len(),
        })
    }

    /// Backward pass for sample `s` of a completed batched forward. Returns
    /// the gradient with respect to the network input as a flat buffer (the
    /// caller hands it back to `arena.grads` so the allocation is reused);
    /// with `params` it returns an empty buffer.
    ///
    /// Nodes run in reverse topological order, each once every reader has
    /// delivered its share of the node's gradient. Gradient buffers come
    /// from and return to the arena — no per-node tensor allocations — and
    /// every node reads its slice of the batch-level outputs directly.
    ///
    /// When `params` is `Some`, the flat parameter-gradient vector is
    /// written into its `grads` (every parameterized range is fully
    /// overwritten — with zeros for a layer no gradient reaches — so the
    /// buffer needs no zeroing between calls), the convolution weight
    /// gradients read the sample's planes (the padded copies in its
    /// `planes`, as a forward of the sample alone kept them, or the layer
    /// input when a convolution has no padding), and gradients flow only
    /// into nodes a
    /// parameterized layer lies at or upstream of. When `None`,
    /// parameter-gradient work is skipped entirely — the input-gradient-only
    /// mode the gradient-descent loops use.
    fn backward_sample(
        &self,
        pass: &BatchForwardPass,
        s: usize,
        projection: &[f32],
        mut params: Option<ParamSink<'_>>,
        arena: &mut ScratchArena,
    ) -> Result<Vec<f32>> {
        let nodes = self.network.nodes();
        let layout = self.network.param_layout();
        let n = nodes.len();
        let all = params.is_none();
        let wanted = |i: usize| all || self.param_path[i];
        let mut spare = std::mem::take(&mut arena.grads);
        let mut slots: Vec<Option<Vec<f32>>> = vec![None; n];
        slots[n - 1] = Some(copy_of(projection, &mut spare));
        for (id, node) in nodes.iter().enumerate().skip(1).rev() {
            let Some(mut cur) = slots[id].take() else {
                // No gradient reaches this node's output: its parameters'
                // gradient is zero.
                if let (Some(p), NodeOp::Layer(i)) = (params.as_mut(), node.op()) {
                    if let Some(range) = layout.layer_range(i) {
                        p.grads[range].fill(0.0);
                    }
                }
                continue;
            };
            let input = node.inputs()[0];
            match node.op() {
                NodeOp::Input => unreachable!("node 0 is the only input node"),
                NodeOp::Add => {
                    // Every input receives the gradient unchanged.
                    for &i in node.inputs().iter().filter(|&&i| wanted(i)) {
                        let copy = copy_of(&cur, &mut spare);
                        deliver(&mut slots, i, copy, &mut spare);
                    }
                    spare.push(cur);
                }
                NodeOp::Concat => {
                    // A sample's joined gradient is its inputs' pieces side
                    // by side.
                    let mut offset = 0;
                    for &i in node.inputs() {
                        let len: usize = nodes[i].output_shape().iter().product();
                        if wanted(i) {
                            let piece = copy_of(&cur[offset..offset + len], &mut spare);
                            deliver(&mut slots, i, piece, &mut spare);
                        }
                        offset += len;
                    }
                    spare.push(cur);
                }
                NodeOp::Layer(li) => match &self.network.layers()[li] {
                    Layer::Conv2d(_) => {
                        let plan = self.conv_plans[id]
                            .as_ref()
                            .expect("a convolution node has a plan");
                        let god = cur.as_slice();
                        let item_len: usize = nodes[input].output_shape().iter().product();
                        if let Some(p) = params.as_mut() {
                            let x = &pass.outputs[input].data()[s * item_len..(s + 1) * item_len];
                            let plane = plan.kept_plane(x, &p.planes[pass.plane_offsets[id]..]);
                            let range = layout
                                .layer_range(li)
                                .expect("parameterized layer present in layout");
                            plan.weight_gradient(plane, god, &mut p.grads[range], &mut arena.panel);
                        }
                        if wanted(input) {
                            let mut nxt = spare.pop().unwrap_or_default();
                            let dst = ScratchArena::sized(&mut nxt, item_len);
                            plan.input_gradient(god, dst, &mut arena.panel);
                            deliver(&mut slots, input, nxt, &mut spare);
                        }
                        spare.push(cur);
                    }
                    Layer::Dense(_) => {
                        let w_t = self.dense_t[li]
                            .as_ref()
                            .expect("dense layer has a precomputed weight transpose");
                        let (out_f, in_f) = (w_t.shape()[0], w_t.shape()[1]);
                        debug_assert_eq!(cur.len(), out_f);
                        let god = cur.as_slice();
                        if let Some(p) = params.as_mut() {
                            let x = &pass.outputs[input].data()[s * in_f..(s + 1) * in_f];
                            let range = layout
                                .layer_range(li)
                                .expect("parameterized layer present in layout");
                            let dst = &mut p.grads[range];
                            let w_len = in_f * out_f;
                            // ∂L/∂W = inputᵀ · ∂L/∂out is an outer product: each
                            // element is `gemm`'s single-term fold `0.0 + a * g`.
                            for (i, &a) in x.iter().enumerate() {
                                let row = &mut dst[i * out_f..(i + 1) * out_f];
                                for (slot, &g) in row.iter_mut().zip(god) {
                                    *slot = 0.0 + a * g;
                                }
                            }
                            // ∂L/∂b over a batch of one is `sum_rows`'
                            // single-term fold `0.0 + g` — written out as such
                            // (not a copy) so -0.0 normalizes to +0.0 exactly
                            // like the reference.
                            for (slot, &g) in dst[w_len..].iter_mut().zip(god) {
                                *slot = 0.0 + g;
                            }
                        }
                        if wanted(input) {
                            // ∂L/∂x = ∂L/∂out · Wᵀ, without repacking Wᵀ for a
                            // one-row product.
                            let mut nxt = spare.pop().unwrap_or_default();
                            row_times(god, w_t.data(), ScratchArena::sized(&mut nxt, in_f));
                            deliver(&mut slots, input, nxt, &mut spare);
                        }
                        spare.push(cur);
                    }
                    Layer::MaxPool2d(_) => {
                        // Scatter-add in argmax order — the exact fold
                        // `maxpool2d_backward` performs on a rebased batch of
                        // one.
                        let item_len: usize = nodes[input].output_shape().iter().product();
                        let argmax = &pass.argmax[id];
                        let per_out = argmax.len() / pass.batch;
                        let base = s * item_len;
                        let mut nxt = spare.pop().unwrap_or_default();
                        let dst = ScratchArena::sized(&mut nxt, item_len);
                        dst.fill(0.0);
                        for (&g, &idx) in cur.iter().zip(&argmax[s * per_out..(s + 1) * per_out]) {
                            dst[idx - base] += g;
                        }
                        deliver(&mut slots, input, nxt, &mut spare);
                        spare.push(cur);
                    }
                    // A sample's flat storage is unchanged by flattening: the
                    // gradient passes through as it is.
                    Layer::Flatten(_) => deliver(&mut slots, input, cur, &mut spare),
                    Layer::Activation(l) => {
                        // Derivative from the kept post-activation output —
                        // bit-identical to `Activation::derivative` at the
                        // pre-activation input (`y = act(x)` is the same bits,
                        // and each rule below is the derivative formula
                        // rewritten in terms of `y`), multiplied exactly like
                        // `zip_map`'s `g * act.derivative(x)`.
                        let output = &pass.outputs[id];
                        let per = output.len() / pass.batch;
                        let ys = &output.data()[s * per..(s + 1) * per];
                        debug_assert_eq!(cur.len(), per);
                        match l.activation() {
                            Activation::Relu => {
                                // `y > 0` ⟺ `x > 0` (negatives, zeros and NaN
                                // all clamp to 0), so the indicator matches
                                // exactly.
                                for (g, &y) in cur.iter_mut().zip(ys) {
                                    *g *= if y > 0.0 { 1.0 } else { 0.0 };
                                }
                            }
                            Activation::Tanh => {
                                for (g, &y) in cur.iter_mut().zip(ys) {
                                    *g *= 1.0 - y * y;
                                }
                            }
                            Activation::Sigmoid => {
                                for (g, &y) in cur.iter_mut().zip(ys) {
                                    *g *= y * (1.0 - y);
                                }
                            }
                            Activation::Identity => {
                                for g in cur.iter_mut() {
                                    *g *= 1.0;
                                }
                            }
                        }
                        deliver(&mut slots, input, cur, &mut spare);
                    }
                },
            }
        }
        let input_grad = match slots[0].take() {
            Some(g) => g,
            None if params.is_some() => Vec::new(),
            // Only a degenerate network leaves its input without a reader on
            // the way to the output; the gradient is exactly zero then.
            None => {
                let mut zeros = spare.pop().unwrap_or_default();
                zeros.clear();
                zeros.resize(pass.outputs[0].len() / pass.batch, 0.0);
                zeros
            }
        };
        spare.extend(slots.into_iter().flatten());
        arena.grads = spare;
        Ok(input_grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::layers::{Activation, ActivationLayer, Conv2d, Dense, Flatten, MaxPool2d};
    use crate::zoo;
    use dnnip_tensor::kernels;

    fn tiny_cnn() -> Network {
        Network::new(
            vec![
                Conv2d::with_seed(1, 3, 3, 1, 1, 1).into(),
                ActivationLayer::new(Activation::Relu).into(),
                MaxPool2d::new(2, 2).into(),
                Flatten::new().into(),
                Dense::with_seed(3 * 4 * 4, 5, 2).into(),
            ],
            &[1, 8, 8],
        )
        .unwrap()
    }

    fn samples(n: usize, shape: &[usize]) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(shape, |j| ((i * 31 + j) as f32 * 0.17).sin()))
            .collect()
    }

    #[test]
    fn batched_gradients_match_per_sample_network_gradients_on_a_cnn() {
        let net = tiny_cnn();
        let engine = BatchGradientEngine::new(&net);
        let inputs = samples(6, &[1, 8, 8]);
        let ones = vec![1.0f32; net.num_classes()];
        let batched = engine.parameter_gradients_batch(&inputs, &ones).unwrap();
        assert_eq!(batched.len(), 6);
        for (i, x) in inputs.iter().enumerate() {
            let reference = net.parameter_gradients(x, &ones).unwrap();
            assert_eq!(batched[i].len(), reference.len());
            for (k, (a, b)) in batched[i].iter().zip(&reference).enumerate() {
                assert!(
                    (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                    "sample {i} grad {k}: batched {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn batched_gradients_are_bit_identical_on_dense_networks() {
        // For Dense/Activation-only networks the engine performs the exact
        // folds of the per-sample path, so results must agree bitwise: the
        // ReLU zeros make signed-zero slips visible, which `==` would hide.
        // Inputs salted with ±0.0, ±Inf and NaN pin the single-sample Dense
        // forward (an axpy over W's rows) to `gemm`'s fold, non-finite
        // values included.
        let net = zoo::tiny_mlp(5, 9, 4, Activation::Relu, 3).unwrap();
        let engine = BatchGradientEngine::new(&net);
        let salts = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut inputs = samples(4 + 2 * salts.len(), &[5]);
        for (i, &salt) in salts.iter().enumerate() {
            // One salted element per sample, then a sample with every salt.
            inputs[4 + i].data_mut()[i] = salt;
            inputs[4 + salts.len() + i]
                .data_mut()
                .copy_from_slice(&salts);
            inputs[4 + salts.len() + i].data_mut().rotate_left(i);
        }
        let ones = vec![1.0f32; 4];
        let batched = engine.parameter_gradients_batch(&inputs, &ones).unwrap();
        for (i, x) in inputs.iter().enumerate() {
            let reference = net.parameter_gradients(x, &ones).unwrap();
            assert_eq!(
                kernels::bit_mismatch(&batched[i], &reference),
                None,
                "sample {i}"
            );
        }
    }

    #[test]
    fn parameter_gradients_stop_at_the_first_parameterized_layer() {
        // Layers below the first Dense carry no parameters, so the
        // parameter-gradient backward never visits them — the gradients must
        // still be bit-identical to the per-sample reference.
        let net = Network::new(
            vec![
                ActivationLayer::new(Activation::Tanh).into(),
                Flatten::new().into(),
                Dense::with_seed(2 * 3 * 3, 7, 4).into(),
                ActivationLayer::new(Activation::Relu).into(),
                Dense::with_seed(7, 3, 5).into(),
            ],
            &[2, 3, 3],
        )
        .unwrap();
        let engine = BatchGradientEngine::new(&net);
        assert_eq!(
            &*engine.param_path,
            &[false, false, false, true, true, true],
            "the backward ends at the first Dense"
        );
        let inputs = samples(4, &[2, 3, 3]);
        let ones = vec![1.0f32; 3];
        let batched = engine.parameter_gradients_batch(&inputs, &ones).unwrap();
        for (i, x) in inputs.iter().enumerate() {
            let reference = net.parameter_gradients(x, &ones).unwrap();
            assert_eq!(batched[i], reference, "sample {i}");
        }
    }

    #[test]
    fn multiple_projections_share_one_forward() {
        let net = tiny_cnn();
        let engine = BatchGradientEngine::new(&net);
        let inputs = samples(3, &[1, 8, 8]);
        let classes = net.num_classes();
        let projections: Vec<Vec<f32>> = (0..classes)
            .map(|c| {
                let mut p = vec![0.0f32; classes];
                p[c] = 1.0;
                p
            })
            .collect();
        let mut seen = Vec::new();
        engine
            .for_each_parameter_gradient(&inputs, &projections, |s, p, grads| {
                seen.push((s, p, grads.to_vec()));
            })
            .unwrap();
        assert_eq!(seen.len(), 3 * classes);
        // Spot-check one (sample, class) pair against the one-shot API.
        let (s, p) = (1usize, 2usize);
        let direct = engine
            .parameter_gradients_batch(&inputs[s..=s], &projections[p])
            .unwrap();
        let from_visit = &seen
            .iter()
            .find(|(vs, vp, _)| *vs == s && *vp == p)
            .unwrap()
            .2;
        assert_eq!(from_visit, &direct[0]);
    }

    #[test]
    fn input_gradients_match_the_network_reference() {
        let net = tiny_cnn();
        let engine = BatchGradientEngine::new(&net);
        let inputs = samples(3, &[1, 8, 8]);
        let pass = engine.forward_batch(&inputs).unwrap();
        assert_eq!(pass.batch_size(), 3);
        assert_eq!(pass.output().shape(), &[3, net.num_classes()]);
        for (s, x) in inputs.iter().enumerate() {
            for class in 0..net.num_classes() {
                let mut proj = vec![0.0f32; net.num_classes()];
                proj[class] = 1.0;
                let batched = engine.input_gradient(&pass, s, &proj).unwrap();
                let reference = net.input_gradient_for_class(x, class).unwrap();
                assert_eq!(batched.shape(), reference.shape());
                for (k, (a, b)) in batched.data().iter().zip(reference.data()).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                        "sample {s} class {class} grad {k}: batched {a} vs reference {b}"
                    );
                }
            }
        }
        // Out-of-range sample index and wrong projection length are rejected.
        assert!(engine.input_gradient(&pass, 3, &[1.0; 5]).is_err());
        assert!(engine.input_gradient(&pass, 0, &[1.0; 2]).is_err());
    }

    #[test]
    fn dense_input_gradients_are_bit_identical_to_the_layer_kernels() {
        // The hoisted Dense weight transpose must not change a single bit
        // relative to `Dense::backward`'s transpose-per-call path.
        let net = zoo::tiny_mlp(5, 9, 4, Activation::Tanh, 8).unwrap();
        let engine = BatchGradientEngine::new(&net);
        let inputs = samples(4, &[5]);
        let pass = engine.forward_batch(&inputs).unwrap();
        for (s, x) in inputs.iter().enumerate() {
            for class in 0..4 {
                let mut proj = vec![0.0f32; 4];
                proj[class] = 1.0;
                let batched = engine.input_gradient(&pass, s, &proj).unwrap();
                let reference = net.input_gradient_for_class(x, class).unwrap();
                assert_eq!(batched.data(), reference.data(), "sample {s} class {class}");
            }
        }
    }

    #[test]
    fn activation_capture_matches_the_network_forward() {
        // On Dense-only networks the capture reuses the exact layer kernels, so
        // post-activation values are bit-identical to `forward_cached`.
        let net = zoo::tiny_mlp(5, 9, 4, Activation::Relu, 3).unwrap();
        let engine = BatchGradientEngine::new(&net);
        let inputs = samples(4, &[5]);
        let capture = engine.activation_outputs(&inputs).unwrap();
        assert_eq!(capture.batch_size(), 4);
        assert_eq!(capture.per_layer().len(), 1, "one activation layer");
        assert_eq!(capture.units_per_sample(0), 9);
        for (s, x) in inputs.iter().enumerate() {
            let pass = net.forward_cached(&net.batch_one(x).unwrap()).unwrap();
            let act_out = net
                .layers()
                .iter()
                .zip(&pass.layer_outputs)
                .find(|(l, _)| l.is_activation())
                .map(|(_, o)| o)
                .unwrap();
            assert_eq!(capture.sample_slice(0, s), act_out.data(), "sample {s}");
        }
        // Logits agree with the gradient engine's batched forward bit-for-bit.
        let pass = engine.forward_batch(&inputs).unwrap();
        assert_eq!(capture.logits().data(), pass.output().data());
    }

    #[test]
    fn activation_capture_covers_cnn_layers() {
        let net = tiny_cnn();
        let engine = BatchGradientEngine::new(&net);
        let inputs = samples(3, &[1, 8, 8]);
        let capture = engine.activation_outputs(&inputs).unwrap();
        assert_eq!(capture.per_layer().len(), 1);
        // 3 channels × 8×8 spatial positions after the stride-1 padded conv.
        assert_eq!(capture.units_per_sample(0), 3 * 8 * 8);
        let pass = engine.forward_batch(&inputs).unwrap();
        assert_eq!(
            capture.logits().data(),
            pass.output().data(),
            "capture and gradient paths share the conv kernels"
        );
        let bad = samples(1, &[1, 7, 7]);
        assert!(engine.activation_outputs(&bad).is_err());
    }

    #[test]
    fn rejects_bad_projections_and_shapes() {
        let net = tiny_cnn();
        let engine = BatchGradientEngine::new(&net);
        let inputs = samples(2, &[1, 8, 8]);
        assert!(engine
            .parameter_gradients_batch(&inputs, &[1.0, 1.0])
            .is_err());
        let bad = samples(2, &[1, 7, 7]);
        let ones = vec![1.0f32; net.num_classes()];
        assert!(engine.parameter_gradients_batch(&bad, &ones).is_err());
        // Empty sample list is a no-op.
        assert!(engine
            .parameter_gradients_batch(&[], &ones)
            .unwrap()
            .is_empty());
        assert_eq!(engine.network().num_classes(), 5);
    }

    /// A conv net of the given geometry: Conv → Tanh → MaxPool 2×2 → Conv →
    /// ReLU → Flatten → Dense, on `[c, hw, hw]` inputs.
    fn conv_net(c: usize, mid: usize, k: usize, stride: usize, pad: usize, hw: usize) -> Network {
        let conv = |i, o, k, s, p, seed| -> Layer {
            let mut l = Conv2d::with_seed(i, o, k, s, p, seed);
            let (_, b) = l.parameters_mut();
            *b = Tensor::from_fn(&[o], |j| (j as f32 * 0.7).sin() * 0.3);
            l.into()
        };
        let pooled = (hw + 2 * pad - k) / stride / 2 + 1;
        let mut layers = vec![
            conv(c, mid, k, stride, pad, 1),
            ActivationLayer::new(Activation::Tanh).into(),
            MaxPool2d::new(2, 2).into(),
            conv(mid, 5, k.min(pooled), 1, pad.min(1), 2),
            ActivationLayer::new(Activation::Relu).into(),
            Flatten::new().into(),
        ];
        let probe = Network::new(layers.clone(), &[c, hw, hw]).unwrap();
        let flat = probe.nodes().last().unwrap().output_shape()[0];
        layers.push(Dense::with_seed(flat, 4, 3).into());
        Network::new(layers, &[c, hw, hw]).unwrap()
    }

    /// Samples of `shape` with the salts at batch index ≥ 1: an all-NaN
    /// sample, one each with a ±Inf, a ±0.0 and a NaN element, and plain
    /// ones.
    fn salted_samples(shape: &[usize]) -> Vec<Tensor> {
        let mut out = samples(7, shape);
        out[1].data_mut().fill(f32::NAN);
        out[2].data_mut()[3] = f32::INFINITY;
        out[2].data_mut()[5] = f32::NEG_INFINITY;
        out[3].data_mut()[0] = -0.0;
        out[3].data_mut()[1] = 0.0;
        out[4].data_mut().fill(-0.0);
        out[5].data_mut()[2] = f32::NAN;
        out
    }

    #[test]
    fn salted_conv_engine_agrees_with_per_sample_passes_and_the_reference() {
        // The engine over a salted batch (NaN, ±Inf, ±0.0 at batch index
        // ≥ 1), with one arena reused across geometries, against each sample
        // alone through fresh arenas: bit for bit. Finite samples also agree
        // with the direct-loop reference within tolerance. Channel counts 1,
        // 3, 13 and 17 straddle the tile edges; stride 2, pads 0 and 2 and
        // 1×1 kernels cover the lowering-free addressing.
        let cases = [
            (1, 8, 3, 1, 1, 10),
            (3, 13, 3, 2, 1, 13),
            (13, 17, 1, 1, 0, 6),
            (17, 3, 3, 1, 0, 9),
            (3, 16, 2, 1, 2, 7),
            (1, 32, 3, 2, 2, 12),
        ];
        let mut arena = ScratchArena::new();
        for (i, &(c, mid, k, stride, pad, hw)) in cases.iter().enumerate() {
            let net = conv_net(c, mid, k, stride, pad, hw);
            let engine = BatchGradientEngine::new(&net);
            let inputs = salted_samples(&[c, hw, hw]);
            let proj = vec![0.5f32, -1.0, 0.25, 2.0];
            let params = engine.parameter_gradients_batch(&inputs, &proj).unwrap();
            let pass = engine.forward_batch_with(&inputs, &mut arena).unwrap();
            for (s, x) in inputs.iter().enumerate() {
                let ctx = format!("case {i} sample {s}");
                let alone = engine.parameter_gradients_batch(std::slice::from_ref(x), &proj);
                let alone = alone.unwrap().pop().unwrap();
                assert_eq!(kernels::bit_mismatch(&params[s], &alone), None, "{ctx}");
                let one = engine.forward_batch(std::slice::from_ref(x)).unwrap();
                let want = engine.input_gradient(&one, 0, &proj).unwrap();
                let got = engine
                    .input_gradient_with(&pass, s, &proj, &mut arena)
                    .unwrap();
                assert_eq!(
                    kernels::bit_mismatch(got.data(), want.data()),
                    None,
                    "{ctx}"
                );
                let logits = &pass.output().data()[s * 4..(s + 1) * 4];
                assert_eq!(
                    kernels::bit_mismatch(logits, one.output().data()),
                    None,
                    "{ctx}"
                );
                if x.data().iter().all(|v| v.is_finite()) {
                    let reference = net.parameter_gradients(x, &proj).unwrap();
                    for (a, b) in params[s].iter().zip(&reference) {
                        assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()), "{ctx}: {a} vs {b}");
                    }
                    let pass_ref = net.forward_cached(&net.batch_one(x).unwrap()).unwrap();
                    let g = Tensor::from_vec(proj.clone(), &[1, 4]).unwrap();
                    let reference = net.backward(&pass_ref, &g).unwrap().grad_input;
                    for (a, b) in got.data().iter().zip(reference.data()) {
                        assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()), "{ctx}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_all_nan_sample_past_index_zero_routes_its_pool_gradient_inside_itself() {
        // Every pool window of the NaN sample has no element above -∞; its
        // argmax must still index its own window, or the backward of
        // sample 1 reads outside its slice.
        let net = conv_net(1, 4, 3, 1, 1, 8);
        let engine = BatchGradientEngine::new(&net);
        let good = samples(1, &[1, 8, 8]).pop().unwrap();
        let nan = Tensor::full(&[1, 8, 8], f32::NAN);
        let pass = engine.forward_batch(&[good, nan.clone()]).unwrap();
        let proj = [1.0f32, 0.0, -1.0, 0.5];
        let got = engine.input_gradient(&pass, 1, &proj).unwrap();
        let alone = engine.forward_batch(&[nan]).unwrap();
        let want = engine.input_gradient(&alone, 0, &proj).unwrap();
        assert_eq!(kernels::bit_mismatch(got.data(), want.data()), None);
    }

    #[test]
    fn a_dead_relu_channel_has_the_reference_positive_zero_bias_gradient() {
        // Bias -100 keeps the ReLU dead and the Dense weights are -0.5, so
        // ∂L/∂out of the convolution is all -0.0: the bias gradient is +0.0,
        // as `conv2d_backward` computes it.
        let mut conv = Conv2d::with_seed(1, 1, 3, 1, 1, 4);
        *conv.parameters_mut().1 = Tensor::full(&[1], -100.0);
        let mut dense = Dense::with_seed(9, 2, 5);
        *dense.parameters_mut().0 = Tensor::full(&[9, 2], -0.5);
        let net = Network::new(
            vec![
                conv.into(),
                ActivationLayer::new(Activation::Relu).into(),
                Flatten::new().into(),
                dense.into(),
            ],
            &[1, 3, 3],
        )
        .unwrap();
        let engine = BatchGradientEngine::new(&net);
        let x = samples(1, &[1, 3, 3]);
        let ones = [1.0f32, 1.0];
        let batched = engine.parameter_gradients_batch(&x, &ones).unwrap();
        let reference = net.parameter_gradients(&x[0], &ones).unwrap();
        assert_eq!(batched[0][9].to_bits(), 0.0f32.to_bits());
        assert_eq!(kernels::bit_mismatch(&batched[0], &reference), None);
    }

    /// A Dense-only graph with a shared input, an Add, a Concat and a dead
    /// branch: every gradient rule of the engine, and sums over several
    /// readers, with nothing but `gemm`-exact folds.
    fn dense_dag() -> Network {
        let mut b = GraphBuilder::new(&[5]);
        let a = b.layer(0, Dense::with_seed(5, 6, 1)).unwrap();
        let a_act = b.layer(a, ActivationLayer::new(Activation::Relu)).unwrap();
        let c = b.layer(0, Dense::with_seed(5, 6, 2)).unwrap();
        let sum = b.add(&[a_act, c, a]).unwrap();
        // A branch nothing reads: its parameters get a zero gradient.
        b.layer(sum, Dense::with_seed(6, 2, 3)).unwrap();
        let d = b.layer(0, Dense::with_seed(5, 3, 4)).unwrap();
        let cat = b.concat(&[sum, d, a_act]).unwrap();
        let act = b
            .layer(cat, ActivationLayer::new(Activation::Tanh))
            .unwrap();
        b.layer(act, Dense::with_seed(15, 4, 5)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn dag_gradients_are_bit_identical_on_dense_graphs() {
        let net = dense_dag();
        let engine = BatchGradientEngine::new(&net);
        let salts = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut inputs = samples(4 + salts.len(), &[5]);
        for (i, &salt) in salts.iter().enumerate() {
            inputs[4 + i].data_mut()[i] = salt;
        }
        let ones = vec![1.0f32; 4];
        let batched = engine.parameter_gradients_batch(&inputs, &ones).unwrap();
        let pass = engine.forward_batch(&inputs).unwrap();
        for (i, x) in inputs.iter().enumerate() {
            let reference = net.parameter_gradients(x, &ones).unwrap();
            assert_eq!(
                kernels::bit_mismatch(&batched[i], &reference),
                None,
                "sample {i}"
            );
            let proj: Vec<f32> = (0..4).map(|c| (c as f32 * 0.7).cos()).collect();
            let batched = engine.input_gradient(&pass, i, &proj).unwrap();
            let pass_ref = net.forward_cached(&net.batch_one(x).unwrap()).unwrap();
            let grad_out = Tensor::from_vec(proj, &[1, 4]).unwrap();
            let reference = net.backward(&pass_ref, &grad_out).unwrap().grad_input;
            assert_eq!(
                kernels::bit_mismatch(batched.data(), reference.data()),
                None,
                "sample {i} input gradient"
            );
        }
        // The dead branch's Dense (layer 3) has an all-zero gradient.
        let dead = net.param_layout().layer_range(3).unwrap();
        assert!(batched[0][dead].iter().all(|&g| g == 0.0));
    }
}
