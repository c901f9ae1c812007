//! Batched evaluation engine: one stacked forward pass, per-sample parameter
//! gradients.
//!
//! The validation-coverage metric needs `∇θ F(x)` **per sample** — the batch
//! dimension cannot simply be summed away like in training. The naive engine
//! therefore ran one full forward + backward per sample, wrapping each input in
//! a batch of one. [`BatchGradientEngine`] restructures that hot path:
//!
//! * **Batched forward** — the whole chunk of samples is stacked along the
//!   batch axis and pushed through every layer once. Dense layers become one
//!   matrix–matrix product instead of per-sample matrix–vector products, and
//!   convolutions run as im2col + matmul, one sample's column block at a time
//!   in a single reused scratch buffer. A convolution keeps only its stacked
//!   input for the backward pass, never the lowered columns (those are
//!   `C·KH·KW` times larger and would fall out of cache between the passes).
//! * **Per-sample backward with matmul kernels** — `∂L/∂W = ∂L/∂out · colsᵀ`
//!   and `∂L/∂x = col2im(Wᵀ · ∂L/∂out)` are two dense products per
//!   convolution layer instead of the branchy seven-deep direct loop nest.
//!   Only the weight gradient needs the columns: before a sample's backward
//!   passes, its blocks for every convolution are lowered again into one
//!   cache-resident scratch buffer. The input gradient below the first
//!   parameterized layer is never needed for parameter gradients and is
//!   skipped.
//! * **Multi-projection amortization** — several output projections (e.g. one
//!   per class for the `PerClassMax` coverage policy) share a single forward
//!   pass and a single re-lowering per sample; only the cheap per-sample
//!   backward repeats.
//!
//! The engine is deterministic and purely functional over `&Network`, so
//! callers may freely share one engine across worker threads; results do not
//! depend on how samples are distributed over engines or threads.

use std::sync::Arc;

use dnnip_tensor::conv::{col2im_slice_into, im2col_block_into};
use dnnip_tensor::{kernels, ops, ScratchArena, Tensor};

use crate::layers::{Activation, Conv2d, Layer, LayerCache};
use crate::{Network, NnError, Result};

/// Per-layer state captured by the engine's batched forward pass.
///
/// Every variant stores **batch-level** data; the per-sample backward passes
/// index straight into it with slice arithmetic instead of materializing
/// batch-of-one tensors per sample.
#[derive(Debug)]
enum BatchCache {
    /// Convolution: the stacked layer input `[B, C, H, W]`, moved in
    /// without a copy. A sample's im2col block is lowered from it again only
    /// when its weight gradient is requested; the input gradient needs just
    /// the `(C, H, W)` geometry for `col2im`.
    Conv { input: Tensor },
    /// Dense: the stacked layer input `[B, in_features]`.
    Dense { input: Tensor },
    /// Max pooling: batch-level argmax bookkeeping and the batched input shape.
    Pool {
        argmax: Vec<usize>,
        input_shape: Vec<usize>,
    },
    /// Flatten: no state — a sample's flat storage is unchanged by flattening,
    /// so its backward pass is the identity on the gradient buffer.
    Flatten,
    /// Activation: the stacked **post-activation** output. Derivatives are
    /// recovered from the output (`tanh'` = `1 - y²`, `σ'` = `y·(1-y)`,
    /// `relu'` = `[y > 0]`), which is bit-identical to re-deriving them from
    /// the pre-activation input but skips the transcendental re-evaluation.
    Act { output: Tensor },
}

/// A completed batched forward pass: the stacked logits plus the per-layer
/// caches the per-sample backward passes consume.
///
/// Produced by [`BatchGradientEngine::forward_batch`]; opaque outside the
/// engine so the cache layout can evolve freely.
#[derive(Debug)]
pub struct BatchForwardPass {
    /// Stacked network output, shape `[B, classes]`.
    output: Tensor,
    caches: Vec<BatchCache>,
    batch: usize,
}

impl BatchForwardPass {
    /// The stacked logits, shape `[B, classes]`.
    pub fn output(&self) -> &Tensor {
        &self.output
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
    /// network order. Every tensor's leading dimension is the batch size.
    outputs: Vec<Tensor>,
    /// Stacked network logits, shape `[B, classes]`.
    logits: Tensor,
    batch: usize,
}

impl ActivationCapture {
    /// Stacked post-activation outputs, one tensor per activation layer in
    /// network order (leading dimension = batch size).
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
/// clonable handles: cloning bumps three reference counts and re-derives
/// nothing. This is what lets evaluators live in long-lived multi-model
/// registries (the `Workspace` front-door in `dnnip-core`) instead of
/// borrowing from a caller's stack frame.
#[derive(Debug, Clone)]
pub struct BatchGradientEngine {
    network: Arc<Network>,
    /// Per layer: `Some((wmat, wmat_t))` for convolution layers, `None` otherwise.
    conv_mats: Arc<[Option<(Tensor, Tensor)>]>,
    /// Per layer: `Some(weightᵀ)` for Dense layers, `None` otherwise.
    dense_t: Arc<[Option<Tensor>]>,
    /// Index of the first layer with parameters (the layer count when there
    /// is none): a parameter-gradient backward pass ends there.
    first_param_layer: usize,
}

/// Where a parameter-gradient backward pass writes, and the column blocks
/// its convolution weight gradients read.
struct ParamSink<'a> {
    /// The flat parameter-gradient vector, one range per parameterized layer.
    grads: &'a mut [f32],
    /// The sample's im2col blocks, as [`BatchGradientEngine::lower_sample`]
    /// lays them out.
    cols: &'a [f32],
}

/// `(B, C, H, W)` of a stacked convolution input.
fn nchw(x: &Tensor) -> (usize, usize, usize, usize) {
    (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3])
}

/// Length of one sample's `[C*KH*KW, OH*OW]` im2col block for convolution
/// `l` over the stacked input `input`.
fn conv_block_len(input: &Tensor, l: &Conv2d) -> Result<usize> {
    let (_, c, h, w) = nchw(input);
    let geom = l.geometry();
    let (oh, ow) = geom.output_hw(h, w)?;
    Ok(c * geom.kh * geom.kw * oh * ow)
}

impl BatchGradientEngine {
    /// Create an engine for `network` (`&Network` clones into the `Arc`; an
    /// `Arc<Network>` is shared without copying).
    pub fn new(network: impl Into<Arc<Network>>) -> Self {
        let network = network.into();
        let conv_mats = network
            .layers()
            .iter()
            .map(|layer| match layer {
                Layer::Conv2d(l) => {
                    let (w, _) = l.parameters();
                    let oc = l.out_channels();
                    let ckk = w.len() / oc;
                    let wmat = w
                        .reshape(&[oc, ckk])
                        .expect("conv weight reshapes to [OC, C*K*K]");
                    let wmat_t = ops::transpose(&wmat).expect("rank-2 transpose");
                    Some((wmat, wmat_t))
                }
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
        let first_param_layer = (0..network.num_layers())
            .find(|&i| layout.layer_range(i).is_some())
            .unwrap_or(network.num_layers());
        Self {
            network,
            conv_mats,
            dense_t,
            first_param_layer,
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The shared handle to the wrapped network (reference-count bump only).
    pub fn network_arc(&self) -> Arc<Network> {
        Arc::clone(&self.network)
    }

    /// Visit the flat parameter-gradient vector of every `(sample, projection)`
    /// pair.
    ///
    /// `projections` are rows of output weights `c`; for each sample `x` and
    /// each projection the engine computes `∇θ (Σ_j c_j · F_j(x))` — exactly
    /// what [`Network::parameter_gradients`] computes per call — but with one
    /// shared batched forward pass for the whole sample slice. `visit` receives
    /// `(sample_index, projection_index, grads)`; the gradient slice is only
    /// valid for the duration of the call (the buffer is reused).
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
        // One arena for the whole call: the forward pass and every
        // (sample, projection) backward reuse the same scratch buffers.
        let mut arena = ScratchArena::new();
        let pass = self.forward_batch_with(samples, &mut arena)?;

        let mut grads = vec![0.0f32; self.network.num_parameters()];
        // The sample's column blocks leave the arena while the backward
        // passes borrow it mutably, and go back afterwards for reuse.
        let mut cols = std::mem::take(&mut arena.cols);
        for s in 0..samples.len() {
            // Lower once per sample; every projection replays the blocks.
            self.lower_sample(&pass.caches, s, &mut cols)?;
            for (pi, proj) in projections.iter().enumerate() {
                let sink = ParamSink {
                    grads: &mut grads,
                    cols: &cols,
                };
                let g = self.backward_sample(&pass.caches, s, proj, Some(sink), &mut arena)?;
                arena.grad_a = g;
                visit(s, pi, &grads);
            }
        }
        arena.cols = cols;
        Ok(())
    }

    /// Run the batched forward pass over a slice of samples, retaining the
    /// stacked logits and per-layer caches for later per-sample backward calls
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
        let batch = ops::stack(samples)?;
        self.network.check_batch_input(&batch)?;
        let (output, caches) = self.forward(batch, arena)?;
        Ok(BatchForwardPass {
            output,
            caches,
            batch: samples.len(),
        })
    }

    /// Forward-only batched pass capturing every activation layer's
    /// **post-activation** output (stacked `[B, ...]`) plus the final logits.
    ///
    /// This is the fast path for coverage criteria that only look at neuron
    /// outputs: no backward caches are built and no gradients are computed.
    /// Convolutions run through the same precomputed im2col weight matrices as
    /// [`BatchGradientEngine::forward_batch`], so captured values are
    /// bit-identical to the gradient path's intermediate activations.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input.
    pub fn activation_outputs(&self, samples: &[Tensor]) -> Result<ActivationCapture> {
        let batch = ops::stack(samples)?;
        self.network.check_batch_input(&batch)?;
        let mut x = batch;
        let mut outputs = Vec::new();
        let mut arena = ScratchArena::new();
        for (i, layer) in self.network.layers().iter().enumerate() {
            x = match layer {
                Layer::Conv2d(l) => self.conv_forward_batch(i, l, &x, &mut arena)?,
                other => other.infer(&x)?,
            };
            if layer.is_activation() {
                outputs.push(x.clone());
            }
        }
        Ok(ActivationCapture {
            outputs,
            logits: x,
            batch: samples.len(),
        })
    }

    /// Gradient of `Σ_j c_j · F_j(x_s)` with respect to the **input** of sample
    /// `s` of a completed batched forward pass, where `c` is `output_grad`
    /// (one value per class — e.g. a softmax-cross-entropy logit gradient).
    ///
    /// Returns a tensor with the network's single-sample input shape. Parameter
    /// gradients are not materialized on this path, which is what makes the
    /// stacked gradient-descent loop of Algorithm 2 cheap.
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
        let g = self.backward_sample(&pass.caches, s, output_grad, None, arena)?;
        let out = Tensor::from_vec(g.clone(), self.network.input_shape())?;
        arena.grad_a = g;
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

    /// One convolution layer's batched forward through its precomputed weight
    /// matrix: per-sample im2col + matmul, returning the stacked output. Each
    /// sample is lowered into the same `arena.cols` block and multiplied while
    /// the block is still cache-hot. Both the gradient path and the
    /// forward-only activation capture go through this single implementation,
    /// so their intermediate values are bit-identical by construction. The
    /// arithmetic (one im2col block per sample, `kernels::gemm`, bias added
    /// after the product) is that of `conv2d_forward_im2col`, which
    /// [`Layer::infer`] runs, so [`Network::forward`] agrees with the engine
    /// bit for bit.
    fn conv_forward_batch(
        &self,
        layer_index: usize,
        l: &Conv2d,
        x: &Tensor,
        arena: &mut ScratchArena,
    ) -> Result<Tensor> {
        let (b, c, h, w) = nchw(x);
        let geom = l.geometry();
        let (oh, ow) = geom.output_hw(h, w)?;
        let oc = l.out_channels();
        let bd = l.parameters().1.data();
        let (wmat, _) = self.conv_mats[layer_index]
            .as_ref()
            .expect("conv layer has precomputed weight matrices");
        let (rows, per) = (c * geom.kh * geom.kw, oh * ow);
        let block = ScratchArena::sized(&mut arena.cols, rows * per);
        let out_len = oc * per;
        let mut out = vec![0.0f32; b * out_len];
        let sample_len = c * h * w;
        for s in 0..b {
            let sample = &x.data()[s * sample_len..(s + 1) * sample_len];
            im2col_block_into(sample, c, h, w, geom, block)?;
            let dst = &mut out[s * out_len..(s + 1) * out_len];
            kernels::gemm(oc, rows, per, wmat.data(), block, dst);
            for (oci, &bv) in bd.iter().enumerate() {
                for v in &mut dst[oci * per..(oci + 1) * per] {
                    *v += bv;
                }
            }
        }
        Ok(Tensor::from_vec(out, &[b, oc, oh, ow])?)
    }

    /// Lower sample `s`'s im2col block for every convolution layer into
    /// `cols`, side by side in layer order (`[C*KH*KW, OH*OW]` each, from the
    /// stacked inputs the forward pass kept). The backward pass walks the
    /// layers in reverse and takes the blocks from the end of the buffer.
    fn lower_sample(&self, caches: &[BatchCache], s: usize, cols: &mut Vec<f32>) -> Result<()> {
        let convs = || {
            caches
                .iter()
                .zip(self.network.layers())
                .filter_map(|pair| match pair {
                    (BatchCache::Conv { input }, Layer::Conv2d(l)) => Some((input, l)),
                    _ => None,
                })
        };
        let total = convs()
            .map(|(input, l)| conv_block_len(input, l))
            .sum::<Result<usize>>()?;
        let mut rest = ScratchArena::sized(cols, total);
        for (input, l) in convs() {
            let (_, c, h, w) = nchw(input);
            let (block, tail) = rest.split_at_mut(conv_block_len(input, l)?);
            let sample_len = c * h * w;
            let sample = &input.data()[s * sample_len..(s + 1) * sample_len];
            im2col_block_into(sample, c, h, w, l.geometry(), block)?;
            rest = tail;
        }
        Ok(())
    }

    /// Batched forward pass recording the per-layer state the per-sample
    /// backward passes need, returning the final stacked output alongside.
    fn forward(
        &self,
        batch: Tensor,
        arena: &mut ScratchArena,
    ) -> Result<(Tensor, Vec<BatchCache>)> {
        let mut caches = Vec::with_capacity(self.network.num_layers());
        let mut x = batch;
        for (i, layer) in self.network.layers().iter().enumerate() {
            match layer {
                Layer::Conv2d(l) => {
                    let out = self.conv_forward_batch(i, l, &x, arena)?;
                    caches.push(BatchCache::Conv { input: x });
                    x = out;
                }
                Layer::Dense(l) => {
                    let out = l.infer(&x)?;
                    caches.push(BatchCache::Dense { input: x });
                    x = out;
                }
                Layer::MaxPool2d(l) => {
                    let (out, cache) = l.forward(&x)?;
                    let LayerCache::MaxPool2d {
                        argmax,
                        input_shape,
                    } = cache
                    else {
                        unreachable!("MaxPool2d::forward returns a MaxPool2d cache");
                    };
                    caches.push(BatchCache::Pool {
                        argmax,
                        input_shape,
                    });
                    x = out;
                }
                Layer::Flatten(l) => {
                    let (out, _) = l.forward(&x)?;
                    caches.push(BatchCache::Flatten);
                    x = out;
                }
                Layer::Activation(l) => {
                    // Retain the output: backward recovers derivatives from it.
                    let out = l.infer(&x);
                    caches.push(BatchCache::Act {
                        output: out.clone(),
                    });
                    x = out;
                }
            }
        }
        Ok((x, caches))
    }

    /// Backward pass for sample `s` of a completed batched forward, returning
    /// the gradient with respect to the layer-0 input as a flat buffer (the
    /// caller hands it back to `arena.grad_a` so the allocation is reused).
    ///
    /// The running gradient lives in a pair of ping-pong buffers borrowed from
    /// the arena — no per-layer or per-sample tensor allocations. Every layer
    /// reads its slice of the batch-level caches directly.
    ///
    /// When `params` is `Some`, the flat parameter-gradient vector is
    /// written into its `grads` (every parameterized range is fully
    /// overwritten, so the buffer needs no zeroing between calls), the
    /// convolution weight gradients read the sample's blocks from its `cols`
    /// (as [`BatchGradientEngine::lower_sample`] laid them out), and the pass
    /// stops at the first parameterized layer without computing that layer's
    /// input gradient — the returned buffer is then scratch. When `None`,
    /// parameter-gradient work is skipped entirely — the input-gradient-only
    /// mode used by the stacked gradient-descent loop.
    fn backward_sample(
        &self,
        caches: &[BatchCache],
        s: usize,
        projection: &[f32],
        mut params: Option<ParamSink<'_>>,
        arena: &mut ScratchArena,
    ) -> Result<Vec<f32>> {
        let mut cur = std::mem::take(&mut arena.grad_a);
        let mut nxt = std::mem::take(&mut arena.grad_b);
        cur.clear();
        cur.extend_from_slice(projection);
        let stop = if params.is_some() {
            self.first_param_layer
        } else {
            0
        };
        // Unconsumed prefix of the sample's column blocks; the backward walk
        // takes each convolution's block off its end.
        let mut cols_left = params.as_ref().map_or(0, |p| p.cols.len());
        for (i, layer) in self.network.layers().iter().enumerate().skip(stop).rev() {
            let input_grad = params.is_none() || i > stop;
            match (&caches[i], layer) {
                (BatchCache::Conv { input }, Layer::Conv2d(l)) => {
                    let (_, c, h, w) = nchw(input);
                    let geom = l.geometry();
                    let (oh, ow) = geom.output_hw(h, w)?;
                    let (ckk, per) = (c * geom.kh * geom.kw, oh * ow);
                    let (_, wmat_t) = self.conv_mats[i]
                        .as_ref()
                        .expect("conv layer has precomputed weight matrices");
                    let oc = l.out_channels();
                    // ∂L/∂out arrives with exactly oc·per elements; its flat
                    // storage *is* the [OC, OH*OW] matrix, so no reshape copy.
                    debug_assert_eq!(cur.len(), oc * per);
                    let god = cur.as_slice();
                    if let Some(p) = params.as_mut() {
                        cols_left -= ckk * per;
                        let block = &p.cols[cols_left..cols_left + ckk * per];
                        let range = self
                            .network
                            .param_layout()
                            .layer_range(i)
                            .expect("parameterized layer present in layout");
                        let dst = &mut p.grads[range];
                        let w_len = oc * ckk;
                        // ∂L/∂W = ∂L/∂out · colsᵀ, written straight into the
                        // flat parameter-gradient slice.
                        kernels::gemm_nt(oc, per, ckk, god, block, &mut dst[..w_len]);
                        for (oci, slot) in dst[w_len..].iter_mut().enumerate() {
                            *slot = god[oci * per..(oci + 1) * per].iter().sum();
                        }
                    }
                    if input_grad {
                        // ∂L/∂x = col2im(Wᵀ · ∂L/∂out), product in arena scratch.
                        let gi_cols = ScratchArena::sized(&mut arena.grad_cols, ckk * per);
                        kernels::gemm(ckk, oc, per, wmat_t.data(), god, gi_cols);
                        col2im_slice_into(gi_cols, geom, c, h, w, &mut nxt)?;
                        std::mem::swap(&mut cur, &mut nxt);
                    }
                }
                (BatchCache::Dense { input }, Layer::Dense(_)) => {
                    let w_t = self.dense_t[i]
                        .as_ref()
                        .expect("dense layer has a precomputed weight transpose");
                    let (out_f, in_f) = (w_t.shape()[0], w_t.shape()[1]);
                    debug_assert_eq!(cur.len(), out_f);
                    let god = cur.as_slice();
                    if let Some(p) = params.as_mut() {
                        let input_s = &input.data()[s * in_f..(s + 1) * in_f];
                        let range = self
                            .network
                            .param_layout()
                            .layer_range(i)
                            .expect("parameterized layer present in layout");
                        let dst = &mut p.grads[range];
                        let w_len = in_f * out_f;
                        // ∂L/∂W = inputᵀ · ∂L/∂out; one sample's input slice
                        // is already its own [in, 1] transpose, so the product
                        // runs straight into the flat parameter slice.
                        kernels::gemm(in_f, 1, out_f, input_s, god, &mut dst[..w_len]);
                        // ∂L/∂b over a batch of one is `sum_rows`' single-term
                        // fold `0.0 + g` — written out as such (not a copy) so
                        // -0.0 normalizes to +0.0 exactly like the reference.
                        for (slot, &g) in dst[w_len..].iter_mut().zip(god) {
                            *slot = 0.0 + g;
                        }
                    }
                    if input_grad {
                        // ∂L/∂x = ∂L/∂out · Wᵀ — the same kernel call
                        // `ops::matmul(grad, w_t)` makes, minus the tensor wrap.
                        let grad_in = ScratchArena::sized(&mut nxt, in_f);
                        kernels::gemm(1, out_f, in_f, god, w_t.data(), grad_in);
                        std::mem::swap(&mut cur, &mut nxt);
                    }
                }
                (
                    BatchCache::Pool {
                        argmax,
                        input_shape,
                    },
                    Layer::MaxPool2d(_),
                ) => {
                    // Scatter-add in argmax order — the exact fold
                    // `maxpool2d_backward` performs on a rebased batch of one.
                    let item_len: usize = input_shape[1..].iter().product();
                    let per_out = argmax.len() / input_shape[0];
                    let base = s * item_len;
                    let dst = ScratchArena::sized(&mut nxt, item_len);
                    dst.fill(0.0);
                    for (&g, &idx) in cur.iter().zip(&argmax[s * per_out..(s + 1) * per_out]) {
                        dst[idx - base] += g;
                    }
                    std::mem::swap(&mut cur, &mut nxt);
                }
                // A sample's flat storage is unchanged by flattening: identity.
                (BatchCache::Flatten, Layer::Flatten(_)) => {}
                (BatchCache::Act { output }, Layer::Activation(l)) => {
                    // Derivative from the cached post-activation output —
                    // bit-identical to `Activation::derivative` at the
                    // pre-activation input (`y = act(x)` is the same bits, and
                    // each rule below is the derivative formula rewritten in
                    // terms of `y`), multiplied exactly like `zip_map`'s
                    // `g * act.derivative(x)`.
                    let per = output.len() / output.shape()[0];
                    let ys = &output.data()[s * per..(s + 1) * per];
                    debug_assert_eq!(cur.len(), per);
                    match l.activation() {
                        Activation::Relu => {
                            // `y > 0` ⟺ `x > 0` (negatives, zeros and NaN all
                            // clamp to 0), so the indicator matches exactly.
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
                }
                _ => unreachable!("cache variant mismatches layer kind"),
            }
        }
        arena.grad_b = nxt;
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, ActivationLayer, Conv2d, Dense, Flatten, MaxPool2d};
    use crate::zoo;

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
        // For Dense/Activation-only networks the engine reuses the exact same
        // kernels as the per-sample path, so results must agree bitwise.
        let net = zoo::tiny_mlp(5, 9, 4, Activation::Relu, 3).unwrap();
        let engine = BatchGradientEngine::new(&net);
        let inputs = samples(4, &[5]);
        let ones = vec![1.0f32; 4];
        let batched = engine.parameter_gradients_batch(&inputs, &ones).unwrap();
        for (i, x) in inputs.iter().enumerate() {
            let reference = net.parameter_gradients(x, &ones).unwrap();
            assert_eq!(batched[i], reference, "sample {i}");
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
        assert_eq!(engine.first_param_layer, 2);
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
}
