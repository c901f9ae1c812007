//! Convolution and pooling primitives on `[N, C, H, W]` tensors.
//!
//! Three formulations of the 2-D convolution are provided:
//!
//! * [`ConvPlan`], the **lowering-free** GEMM convolution: the register tiles
//!   of [`crate::kernels`] read each sample's zero-padded plane in place
//!   through offset tables, for the forward ([`conv2d_forward_gemm`] over a
//!   batch), the weight gradient and the input gradient. It is the one
//!   convolution the programs run: in `dnnip-nn`, inference
//!   (`Layer::infer`, hence `Network::forward`) and the batched gradient
//!   engine.
//! * The **im2col oracle**: [`im2col_block_into`] lowers a sample into its
//!   `[C·KH·KW, OH·OW]` column block, [`conv2d_forward_im2col`] multiplies it
//!   by the weights, and [`col2im_slice_into`] scatters a column-layout
//!   gradient back onto the image. No program calls them (CI checks this);
//!   they stay as the oracle the lowering-free kernels are compared with,
//!   bit for bit.
//! * A **direct** 7-deep loop nest ([`conv2d_forward`], [`conv2d_backward`]):
//!   the independent per-sample reference that `Network::forward_cached`, the
//!   reference gradients and training run. It starts each sum from the bias
//!   where the GEMM formulations add the bias after the product, so the last
//!   bits can differ when the bias is nonzero; with a zero bias the forwards
//!   are bit-identical (both sum the same products in the same order).
//!
//! The lowering oracles move whole rows in fixed 8-lane chunks.
//! [`im2col_block_into`] reads a zero-padded copy of the sample, in which
//! each run of an im2col row is one whole `OW`-wide copy.
//! [`col2im_slice_into`] builds each input-gradient row destination-major,
//! in registers. Both are bit-identical to the per-element loops
//! (`tests/lowering.rs` checks them against those loops), and
//! `tests/conv_plan.rs` checks [`ConvPlan`] against them.
//!
//! All functions operate on single-precision tensors in the layouts used by
//! `dnnip-nn`:
//!
//! * activations: `[N, C, H, W]`
//! * convolution weights: `[OC, C, KH, KW]`
//! * convolution bias: `[OC]`

use crate::kernels::{
    pack_panel, pack_panel_t, row_major, sweep_rows, Lhs, OffsetTable, Run, Store, Strided, NR,
};
use crate::shape::{self, conv_out_dim};
use crate::{Result, ScratchArena, Tensor, TensorError};

/// Geometry of a convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride applied along both spatial axes.
    pub stride: usize,
    /// Zero padding applied on every spatial border.
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Geometry with a square `k`×`k` kernel, the given stride and padding.
    pub fn square(k: usize, stride: usize, pad: usize) -> Self {
        Self {
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// Output spatial size for an input of `h`×`w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the window does not fit.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        Ok((
            conv_out_dim(h, self.kh, self.stride, self.pad)?,
            conv_out_dim(w, self.kw, self.stride, self.pad)?,
        ))
    }
}

fn expect_rank4(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if t.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.shape().to_vec(),
            op,
        });
    }
    Ok((t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]))
}

/// Direct (loop-nest) 2-D convolution forward pass.
///
/// Each output starts from its bias and accumulates the window's products.
/// `dnnip-nn` runs this kernel on its cached (training and reference
/// gradient) path; see the module docs for how it relates to
/// [`conv2d_forward_gemm`].
///
/// * `input` — `[N, C, H, W]`
/// * `weight` — `[OC, C, KH, KW]`
/// * `bias` — `[OC]`
///
/// Returns the output activations `[N, OC, OH, OW]`.
///
/// # Errors
///
/// Returns a [`TensorError`] when tensor ranks, channel counts or window geometry
/// are inconsistent.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: Conv2dGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = expect_rank4(input, "conv2d_forward")?;
    let (oc, wc, kh, kw) = expect_rank4(weight, "conv2d_forward(weight)")?;
    check_conv_args(c, wc, kh, kw, bias, oc, geom)?;
    let (oh, ow) = geom.output_hw(h, w)?;

    let mut out = vec![0.0f32; n * oc * oh * ow];
    let ind = input.data();
    let wd = weight.data();
    let bd = bias.data();

    for ni in 0..n {
        for oci in 0..oc {
            let b = bd[oci];
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = b;
                    for ci in 0..c {
                        for khi in 0..kh {
                            let ih = ohi * geom.stride + khi;
                            if ih < geom.pad || ih - geom.pad >= h {
                                continue;
                            }
                            let ih = ih - geom.pad;
                            for kwi in 0..kw {
                                let iw = owi * geom.stride + kwi;
                                if iw < geom.pad || iw - geom.pad >= w {
                                    continue;
                                }
                                let iw = iw - geom.pad;
                                let iv = ind[((ni * c + ci) * h + ih) * w + iw];
                                let wv = wd[((oci * c + ci) * kh + khi) * kw + kwi];
                                acc += iv * wv;
                            }
                        }
                    }
                    out[((ni * oc + oci) * oh + ohi) * ow + owi] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

fn check_conv_args(
    c: usize,
    wc: usize,
    kh: usize,
    kw: usize,
    bias: &Tensor,
    oc: usize,
    geom: Conv2dGeometry,
) -> Result<()> {
    if wc != c {
        return Err(TensorError::InvalidGeometry {
            reason: format!("weight expects {wc} input channels, input has {c}"),
        });
    }
    if kh != geom.kh || kw != geom.kw {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "weight kernel {kh}x{kw} disagrees with geometry {}x{}",
                geom.kh, geom.kw
            ),
        });
    }
    if bias.ndim() != 1 || bias.shape()[0] != oc {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![oc],
            rhs: bias.shape().to_vec(),
            op: "conv2d(bias)",
        });
    }
    Ok(())
}

/// Lanes per fixed-width chunk in the lowering loops: one 256-bit vector of
/// `f32`.
const LANES: usize = 8;

/// Start of each `LANES`-wide chunk that covers `0..len`. When `len` is not a
/// multiple of `LANES` the last chunk is pulled back to end at `len`,
/// overlapping its predecessor, so every chunk of a run of at least `LANES`
/// elements is full width. A shorter run has the one chunk at `0`.
fn lane_chunks(len: usize) -> impl Iterator<Item = usize> {
    let last = len.saturating_sub(LANES);
    (0..len.div_ceil(LANES).max(1)).map(move |i| (i * LANES).min(last))
}

/// Copy `runs` runs of `len` elements, run `i` from `src[i * src_step..]`
/// to `dst[i * dst_step..]`.
///
/// A `copy_from_slice` of runtime length compiles to a `memcpy` call, and so
/// does a loop over one run's chunks, which LLVM recognises as a copy idiom.
/// Lowering moves thousands of short runs per sample, so the loops here run
/// chunk-major: the inner loop steps across runs, each step one fixed
/// `[f32; LANES]` move, and compiles to plain vector loads and stores. Runs
/// shorter than `LANES` move element by element in the same order.
fn copy_runs(
    dst: &mut [f32],
    dst_step: usize,
    src: &[f32],
    src_step: usize,
    len: usize,
    runs: usize,
) {
    if len < LANES {
        for j in 0..len {
            for i in 0..runs {
                dst[i * dst_step + j] = src[i * src_step + j];
            }
        }
        return;
    }
    for j in lane_chunks(len) {
        for i in 0..runs {
            let from: &[f32; LANES] = src[i * src_step + j..][..LANES]
                .try_into()
                .expect("LANES-wide chunk");
            let to: &mut [f32; LANES] = (&mut dst[i * dst_step + j..][..LANES])
                .try_into()
                .expect("LANES-wide chunk");
            *to = *from;
        }
    }
}

/// The plane [`im2col_scatter`] reads for one `[C, H, W]` sample: a
/// `[C, H+2p, W+2p]` copy in `padded` with a border of `+0.0`, or the sample
/// itself when there is no padding.
fn padded_plane<'a>(
    sd: &'a [f32],
    c: usize,
    h: usize,
    w: usize,
    pad: usize,
    padded: &'a mut Vec<f32>,
) -> &'a [f32] {
    if pad == 0 {
        return sd;
    }
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    padded.clear();
    padded.resize(c * hp * wp, 0.0);
    for ci in 0..c {
        let dst = &mut padded[(ci * hp + pad) * wp + pad..];
        copy_runs(dst, wp, &sd[ci * h * w..], w, w, h);
    }
    padded
}

/// Copy one sample's receptive fields into an im2col block
/// `[C*KH*KW, OH*OW]`.
///
/// `plane` is the sample's `[C, H+2p, W+2p]` zero-padded plane
/// ([`padded_plane`]). Every entry of the block is written, so the target
/// needs no clearing.
///
/// In the padded plane every window lies wholly inside the plane, so each
/// `(row, output row)` pair is one whole `OW`-wide run with no edge cases:
/// fixed-width chunks ([`copy_runs`]) at stride 1, a strided gather
/// otherwise.
#[allow(clippy::too_many_arguments)] // internal hot loop; the args are the full addressing scheme
fn im2col_scatter(
    plane: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let Conv2dGeometry {
        kh,
        kw,
        stride,
        pad,
    } = geom;
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    for ci in 0..c {
        let chan = &plane[ci * hp * wp..(ci + 1) * hp * wp];
        for khi in 0..kh {
            for kwi in 0..kw {
                let r = (ci * kh + khi) * kw + kwi;
                let row = &mut out[r * oh * ow..][..oh * ow];
                let src = &chan[khi * wp + kwi..];
                if stride == 1 {
                    copy_runs(row, ow, src, wp, ow, oh);
                } else {
                    for owi in 0..ow {
                        for ohi in 0..oh {
                            row[ohi * ow + owi] = src[(ohi * wp + owi) * stride];
                        }
                    }
                }
            }
        }
    }
}

/// Add `terms` to `acc`, lane by lane, with the lanes whose `keep` mask is
/// clear reading `+0.0` (their bits cleared).
#[inline(always)]
fn add_masked(acc: &mut [f32; LANES], terms: &[f32; LANES], keep: &[u32; LANES]) {
    for l in 0..LANES {
        acc[l] += f32::from_bits(terms[l].to_bits() & keep[l]);
    }
}

/// Scatter a raw im2col-layout slice back onto a `[C, H, W]` image written
/// into a caller-owned buffer, **summing** overlapping contributions — the
/// adjoint of [`im2col_block_into`].
///
/// `cols` has the im2col layout `[C*KH*KW, OH*OW]`; entry `(r, p)` is added
/// to the input pixel that im2col read into that position (contributions
/// that came from zero padding are dropped). This turns the convolution's
/// input gradient into two dense steps: `grad_cols = Wᵀ · grad_out`, then
/// this scatter.
///
/// The buffer is resized to `c*h*w` and every element is stored exactly once,
/// so a reused arena buffer produces bit-identical results to a fresh
/// allocation.
///
/// The loop is destination-major. Each input row is built in `LANES`-wide
/// chunks of accumulators that start at `+0.0`, add their `KH·KW` taps in
/// `(kh, kw)` order in registers and are stored once. A pixel receives at
/// most one term per tap, so it sums the same terms in the same order as the
/// source-major loop `for (ci, kh, kw, oh, ow) { out[pixel] += cols[..] }`
/// over a zeroed image, without that loop's read-modify-write of
/// overlapping, one-element-shifted runs.
///
/// At stride 1 a tap's terms for a chunk are one whole-width window of
/// `cols`; at larger strides they are gathered. Either way, the lanes the
/// tap does not reach are masked to `+0.0` (their bits cleared). Adding that
/// zero leaves a sum unchanged bit for bit: the sum starts at `+0.0`, so it
/// is never `-0.0`, and `x + 0.0 == x` for every other `x`, NaN and ±Inf
/// included.
///
/// # Errors
///
/// Returns a [`TensorError`] when `cols` is not `C*KH*KW × OH*OW` long or the
/// window does not fit the target image.
pub fn col2im_slice_into(
    cols: &[f32],
    geom: Conv2dGeometry,
    c: usize,
    h: usize,
    w: usize,
    out: &mut Vec<f32>,
) -> Result<()> {
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let ncols = oh * ow;
    if cols.len() != rows * ncols {
        return Err(TensorError::ShapeDataMismatch {
            shape: vec![rows, ncols],
            data_len: cols.len(),
        });
    }
    out.resize(c * h * w, 0.0);
    let Conv2dGeometry {
        kh,
        kw,
        stride,
        pad,
    } = geom;
    let live = w.min(LANES);
    // Per (chunk, kernel column): the output column each lane reads (0 where
    // the tap does not reach it) and the mask that keeps the lanes it does.
    let lanes: Vec<([usize; LANES], [u32; LANES])> = lane_chunks(w)
        .flat_map(|j| {
            (0..kw).map(move |kwi| {
                let (mut at, mut keep) = ([0; LANES], [0; LANES]);
                for l in 0..live {
                    if let Some(t) = (j + l + pad).checked_sub(kwi) {
                        if t % stride == 0 && t / stride < ow {
                            (at[l], keep[l]) = (t / stride, u32::MAX);
                        }
                    }
                }
                (at, keep)
            })
        })
        .collect();
    // Where the output rows of the kernel rows that reach the current input
    // row start in `cols` (kernel column 0).
    let mut reach = Vec::with_capacity(kh);
    for ci in 0..c {
        // `ih + pad == q * stride + rem`, kept up to date without dividing:
        // kernel row `rem + m * stride` reaches input row `ih` from output
        // row `q - m`.
        let (mut q, mut rem) = (pad / stride, pad % stride);
        for ih in 0..h {
            reach.clear();
            for (m, khi) in (rem..kh).step_by(stride).enumerate() {
                if let Some(ohi) = q.checked_sub(m).filter(|&ohi| ohi < oh) {
                    reach.push((ci * kh + khi) * kw * ncols + ohi * ow);
                }
            }
            let dst_row = &mut out[(ci * h + ih) * w..][..w];
            // With `w >= LANES` every chunk is full width; an overlapping
            // last chunk recomputes its shared lanes to the same bits.
            for (ch, j) in lane_chunks(w).enumerate() {
                let mut acc = [0.0f32; LANES];
                for &row_run in &reach {
                    for (kwi, (at, keep)) in lanes[ch * kw..(ch + 1) * kw].iter().enumerate() {
                        let run = row_run + kwi * ncols;
                        let start = (run + j + pad).wrapping_sub(kwi);
                        let window = match stride {
                            1 => cols.get(start..start.wrapping_add(LANES)),
                            _ => None,
                        };
                        match window {
                            Some(window) => {
                                let terms = window.try_into().expect("LANES-wide window");
                                add_masked(&mut acc, terms, keep);
                            }
                            // Strided taps, and windows that run off an end
                            // of `cols`: gather each lane's term.
                            None => {
                                let terms = std::array::from_fn(|l| cols[run + at[l]]);
                                add_masked(&mut acc, &terms, keep);
                            }
                        }
                    }
                }
                match <&mut [f32; LANES]>::try_from(&mut dst_row[j..j + live]) {
                    Ok(dst) => *dst = acc,
                    Err(_) => {
                        for (d, &a) in dst_row.iter_mut().zip(&acc) {
                            *d = a;
                        }
                    }
                }
            }
            rem += 1;
            if rem == stride {
                rem = 0;
                q += 1;
            }
        }
    }
    Ok(())
}

/// Lower one raw `[C, H, W]` sample into a caller-provided im2col block of
/// exactly `rows * per` elements, `rows = C*KH*KW` and `per = OH*OW`;
/// returns `(rows, per)`.
///
/// The block is fully overwritten (zeros where padding lands), so stale
/// contents never leak through — bit-identical to a fresh buffer. Exists so a caller can lower into a slice of a larger
/// scratch buffer (the batched gradient engine keeps one sample's blocks for
/// every convolution layer side by side) and consume each block while it is
/// still cache-hot.
///
/// With padding, the sample is first copied once into `padded`, a
/// caller-owned `[C, H+2p, W+2p]` plane with a `+0.0` border (resized and
/// overwritten here, so its previous contents do not matter). Inside that
/// plane every window lies wholly in bounds, so each of the block's
/// `C·KH·KW·OH` runs is one whole `OW`-wide copy: no per-run split into a
/// zero-filled edge and a valid middle, no bounds arithmetic per tap, and
/// no `memcpy` call per short run. The zeros the padding contributes are
/// the border's `+0.0`, exactly the values a per-element loop writes.
///
/// # Errors
///
/// Returns a [`TensorError`] when `sample` is not `c*h*w` long, the window
/// geometry is invalid, or `block` is not exactly `rows * per` long.
pub fn im2col_block_into(
    sample: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
    block: &mut [f32],
    padded: &mut Vec<f32>,
) -> Result<(usize, usize)> {
    if sample.len() != c * h * w {
        return Err(TensorError::ShapeDataMismatch {
            shape: vec![c, h, w],
            data_len: sample.len(),
        });
    }
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let per = oh * ow;
    if block.len() != rows * per {
        return Err(TensorError::ShapeDataMismatch {
            shape: vec![rows, per],
            data_len: block.len(),
        });
    }
    let plane = padded_plane(sample, c, h, w, geom.pad, padded);
    im2col_scatter(plane, c, h, w, geom, oh, ow, block);
    Ok((rows, per))
}

/// 2-D convolution forward pass via im2col + matrix multiplication: the
/// oracle of [`conv2d_forward_gemm`], which no program calls.
///
/// Each sample is lowered into one column matrix and multiplied by the blocked
/// [`crate::kernels::gemm`]; the bias is added after the product. Matches
/// [`conv2d_forward`] within rounding, and bit for bit when the bias is zero.
///
/// # Errors
///
/// Same error conditions as [`conv2d_forward`].
pub fn conv2d_forward_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: Conv2dGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = expect_rank4(input, "conv2d_forward_im2col")?;
    let (oc, wc, kh, kw) = expect_rank4(weight, "conv2d_forward_im2col(weight)")?;
    check_conv_args(c, wc, kh, kw, bias, oc, geom)?;
    let (oh, ow) = geom.output_hw(h, w)?;

    // Weight matrix [OC, C*KH*KW].
    let wmat = weight.reshape(&[oc, c * kh * kw])?;
    let mut out = vec![0.0f32; n * oc * oh * ow];
    let (rows, per) = (c * kh * kw, oh * ow);
    let mut cols = vec![0.0f32; rows * per];
    let mut padded = Vec::new();
    let bd = bias.data();
    let sample_len = c * h * w;
    let out_len = oc * per;

    for ni in 0..n {
        let sample = &input.data()[ni * sample_len..(ni + 1) * sample_len];
        im2col_block_into(sample, c, h, w, geom, &mut cols, &mut padded)?;
        let dst = &mut out[ni * out_len..(ni + 1) * out_len];
        crate::kernels::gemm(oc, rows, per, wmat.data(), &cols, dst);
        for oci in 0..oc {
            let b = bd[oci];
            for v in &mut dst[oci * per..(oci + 1) * per] {
                *v += b;
            }
        }
    }
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

/// One convolution layer planned for `[C, H, W]` samples of one size: the
/// lowering-free GEMM forward, weight gradient and input gradient of the
/// batched engine and of inference.
///
/// No im2col block is ever written. Every product reads the sample's
/// zero-padded `[C, H+2p, W+2p]` plane (the sample itself when `pad = 0`)
/// in place through two offset tables built here once: the window origin
/// of each output position, `oh·s·Wp + ow·s`, and the offset of each tap
/// `(c, kh, kw)` from that origin, `c·Hp·Wp + kh·Wp + kw`. Entry
/// `(tap, position)` of the im2col block is `plane[tap + position]`, so the
/// tiles read the block they used to read, without the copy.
///
/// * **Forward.** The output positions are the tile rows, the plane is the
///   left operand, the panels are `Wᵀ`, packed here once, and the tiles
///   store transposed into `[OC, OH·OW]`. A panel of `NR` output channels
///   costs the same however few of them are live, so when the channels
///   leave part of a panel empty and every `NR` positions are one run of a
///   plane row (stride 1, `OW` a multiple of `NR`), the output channels are
///   the rows instead: `W` is the left operand, and each panel is `NR`
///   positions' windows, one copied run per tap (timings in the doc of the
///   private `Forward`).
/// * **Weight gradient.** `∂L/∂Wᵀ = cols · ∂L/∂outᵀ` with the taps as the
///   rows and the positions as the steps of the plane operand; only the
///   small `∂L/∂out` is packed, and the tiles store transposed, straight
///   into `[OC, C·KH·KW]`. The bias gradient folds each channel from `+0.0`.
/// * **Input gradient.** Tap by tap in `(kh, kw)` order, the product
///   `Wᵀ_tap · ∂L/∂out` (one row per input channel, folding the output
///   channels upward from `+0.0`) is computed in registers and added,
///   masked to the pixels the tap reaches, into the zeroed image. A pixel
///   receives at most one term per tap, so it sums the terms col2im summed,
///   in col2im's order.
///
/// Every output element is therefore the fold the im2col formulation
/// computes: [`im2col_block_into`], [`col2im_slice_into`] and
/// [`conv2d_forward_im2col`] stay as the oracles the tests compare it with,
/// bit for bit in the sense of [`crate::kernels::bit_mismatch`].
#[derive(Debug, Clone)]
pub struct ConvPlan {
    geom: Conv2dGeometry,
    /// Input channels, height and width.
    chw: [usize; 3],
    /// Output channels, height and width.
    out: [usize; 3],
    /// Window origin of each output position in the padded plane.
    positions: OffsetTable,
    /// Offset of each tap `(c, kh, kw)` from a window's origin.
    taps: OffsetTable,
    /// The forward's weights, laid out for the operand order it runs.
    forward: Forward,
    /// `Wᵀ` as `[C·KH·KW, OC]`, the input gradient's left operand; empty in
    /// a forward-only plan.
    wmat_t: Vec<f32>,
    bias: Vec<f32>,
    /// The runs of input pixels each `(tap, position panel)` pair of the
    /// input gradient adds into, indexed by `run_starts`; none in a
    /// forward-only plan.
    runs: Vec<Run>,
    run_starts: Vec<usize>,
}

/// Which operand of the forward's product sits on the tile rows.
///
/// With the positions on the rows, a panel of `NR` output channels costs the
/// same however few of them are live. With the channels on the rows, the
/// cost grows with their count, plus packing each panel of positions, which
/// is one copy per tap only when its `NR` positions are one run of a plane
/// row. Timed per layer (`ConvPlan::forward`, one thread, fastest of 15 ×
/// 200 calls, 3×3 kernels with pad 1, 2-vCPU AVX-512 host; `x86-64-v3`
/// builds alike), channels on the rows against positions on the rows:
///
/// * 16×16 outputs, one run per panel: 0.52× and 0.64× on `mnist-scaled`'s
///   8-channel layers; on 8 input channels at most 0.99× at every count
///   timed from 4 to 31 output channels but 15 (1.06×) and 16 (1.07×), and
///   1.05× at 32;
/// * 8×8 and 12×12 outputs, panels gathered element by element: 1.15–2.1×
///   on 32 and 64 input channels, for 4 to 64 output channels.
#[derive(Debug, Clone)]
enum Forward {
    /// The output positions are the rows: `Wᵀ` packed into
    /// `[C·KH·KW × NR]` panels, one per `NR` output channels.
    Positions(Vec<f32>),
    /// The output channels are the rows: `W` as `[OC, C·KH·KW]`, the left
    /// operand.
    Channels(Vec<f32>),
}

impl ConvPlan {
    /// Plan the convolution by `weight` (`[OC, C, KH, KW]`) and `bias`
    /// (`[OC]`) of `[C, H, W]` samples, `chw`: its forward, weight gradient
    /// and input gradient.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] when the weight, bias, geometry and sample
    /// size disagree, or the window does not fit.
    pub fn new(
        weight: &Tensor,
        bias: &Tensor,
        geom: Conv2dGeometry,
        chw: [usize; 3],
    ) -> Result<Self> {
        let mut plan = Self::forward_only(weight, bias, geom, chw)?;
        let [c, h, w] = chw;
        let [oc, oh, ow] = plan.out;
        let Conv2dGeometry {
            kh,
            kw,
            stride,
            pad,
        } = geom;
        let ckk = c * kh * kw;
        let wd = weight.data();
        plan.wmat_t = (0..ckk)
            .flat_map(|t| (0..oc).map(move |o| wd[o * ckk + t]))
            .collect();
        let per = oh * ow;
        for tap in 0..kh * kw {
            let (khi, kwi) = (tap / kw, tap % kw);
            for j0 in (0..per).step_by(NR) {
                let first = plan.runs.len();
                for lane in 0..NR.min(per - j0) {
                    let (ohi, owi) = ((j0 + lane) / ow, (j0 + lane) % ow);
                    let ih = (ohi * stride + khi).checked_sub(pad).filter(|&i| i < h);
                    let iw = (owi * stride + kwi).checked_sub(pad).filter(|&i| i < w);
                    let (Some(ih), Some(iw)) = (ih, iw) else {
                        continue;
                    };
                    let dst = ih * w + iw;
                    match plan.runs[first..].last_mut() {
                        Some(run) if run.lane + run.len == lane && run.dst + run.len == dst => {
                            run.len += 1;
                        }
                        _ => plan.runs.push(Run { lane, len: 1, dst }),
                    }
                }
                plan.run_starts.push(plan.runs.len());
            }
        }
        Ok(plan)
    }

    /// The plan of the forward alone: no input-gradient tables.
    fn forward_only(
        weight: &Tensor,
        bias: &Tensor,
        geom: Conv2dGeometry,
        chw: [usize; 3],
    ) -> Result<Self> {
        let [c, h, w] = chw;
        let (oc, wc, kh, kw) = expect_rank4(weight, "ConvPlan(weight)")?;
        check_conv_args(c, wc, kh, kw, bias, oc, geom)?;
        let (oh, ow) = geom.output_hw(h, w)?;
        let (hp, wp) = (h + 2 * geom.pad, w + 2 * geom.pad);
        let stride = geom.stride;
        let ckk = c * kh * kw;
        let positions = (0..oh)
            .flat_map(|ohi| (0..ow).map(move |owi| (ohi * wp + owi) * stride))
            .collect();
        let taps = (0..c)
            .flat_map(|ci| {
                (0..kh).flat_map(move |khi| (0..kw).map(move |kwi| (ci * hp + khi) * wp + kwi))
            })
            .collect();
        let forward = if stride == 1 && ow % NR == 0 && oc % NR != 0 {
            Forward::Channels(weight.data().to_vec())
        } else {
            // Panel `j` holds output channels `j·NR ..` of `Wᵀ`, which are
            // rows `j·NR ..` of `W` transposed.
            let mut panels = vec![0.0f32; ckk * oc.next_multiple_of(NR)];
            for (j, panel) in panels.chunks_exact_mut(ckk * NR).enumerate() {
                let j0 = j * NR;
                pack_panel_t(weight.data(), ckk, j0, NR.min(oc - j0), panel);
            }
            Forward::Positions(panels)
        };
        Ok(Self {
            geom,
            chw,
            out: [oc, oh, ow],
            positions: OffsetTable::new(positions),
            taps: OffsetTable::new(taps),
            forward,
            wmat_t: Vec::new(),
            bias: bias.data().to_vec(),
            runs: Vec::new(),
            run_starts: vec![0],
        })
    }

    /// The output shape `[OC, OH, OW]` of one sample.
    pub fn output_shape(&self) -> [usize; 3] {
        self.out
    }

    /// Length of a sample's zero-padded plane, `C·(H+2p)·(W+2p)`.
    fn plane_len(&self) -> usize {
        let [c, h, w] = self.chw;
        let pad = self.geom.pad;
        c * (h + 2 * pad) * (w + 2 * pad)
    }

    /// The plane the products read for `sample`: the sample itself when
    /// there is no padding, else its zero-padded copy, written into
    /// `buf[at..]`. `buf` is resized to end with that copy; what lies before
    /// `at` is kept, so planes can be kept side by side.
    ///
    /// # Panics
    ///
    /// Panics when `sample` is not `C·H·W` long.
    pub fn plane<'a>(&self, sample: &'a [f32], buf: &'a mut Vec<f32>, at: usize) -> &'a [f32] {
        if self.geom.pad == 0 {
            assert_eq!(sample.len(), self.plane_len(), "sample is not [C, H, W]");
            return sample;
        }
        let plane = &mut ScratchArena::sized(buf, at + self.plane_len())[at..];
        self.pad_into(sample, plane);
        plane
    }

    /// The plane [`ConvPlan::plane`] returned for `sample`, again: the
    /// sample itself when there is no padding, else the copy it wrote, at
    /// the start of `kept`.
    ///
    /// # Panics
    ///
    /// Panics when the plane is longer than `kept`.
    pub fn kept_plane<'a>(&self, sample: &'a [f32], kept: &'a [f32]) -> &'a [f32] {
        if self.geom.pad == 0 {
            sample
        } else {
            &kept[..self.plane_len()]
        }
    }

    /// Write `sample`'s zero-padded plane into `plane`, `plane_len()` long.
    /// Every element is written, so `plane` needs no clearing.
    fn pad_into(&self, sample: &[f32], plane: &mut [f32]) {
        let [c, h, w] = self.chw;
        let pad = self.geom.pad;
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        assert_eq!(sample.len(), c * h * w, "sample is not [C, H, W]");
        assert_eq!(plane.len(), c * hp * wp, "plane is not [C, H+2p, W+2p]");
        plane.fill(0.0);
        for ci in 0..c {
            let dst = &mut plane[(ci * hp + pad) * wp + pad..];
            copy_runs(dst, wp, &sample[ci * h * w..], w, w, h);
        }
    }

    /// One sample's output `[OC, OH·OW]` into `out` (fully overwritten), from
    /// its plane: the products, then the bias, as [`conv2d_forward_im2col`]
    /// computes them. `panel` is scratch.
    ///
    /// # Panics
    ///
    /// Panics when `plane` is not `C·(H+2p)·(W+2p)` long or `out` not
    /// `OC·OH·OW` long.
    pub fn forward(&self, plane: &[f32], out: &mut [f32], panel: &mut Vec<f32>) {
        let [oc, oh, ow] = self.out;
        let (ckk, per) = (self.taps.as_slice().len(), oh * ow);
        assert_eq!(
            plane.len(),
            self.plane_len(),
            "plane is not [C, H+2p, W+2p]"
        );
        assert_eq!(out.len(), oc * per, "out is not [OC, OH*OW]");
        if ckk == 0 {
            out.fill(0.0);
        } else {
            match &self.forward {
                Forward::Positions(panels) => {
                    let windows = Lhs {
                        data: plane,
                        rows: &self.positions,
                        steps: &self.taps,
                    };
                    for (j, wt) in panels.chunks_exact(ckk * NR).enumerate() {
                        let j0 = j * NR;
                        let nr = NR.min(oc - j0);
                        let dst = &mut out[j0 * per..];
                        sweep_rows(per, ckk, windows, wt, nr, dst, Store::Cols(per));
                    }
                }
                Forward::Channels(wmat) => {
                    // Every panel is NR positions of one plane row (see
                    // `Forward`).
                    let panel = ScratchArena::sized(panel, ckk * NR);
                    let positions = self.positions.as_slice();
                    let wmat = row_major(wmat, ckk);
                    for j0 in (0..per).step_by(NR) {
                        pack_windows(plane, self.taps.as_slice(), positions[j0], panel);
                        sweep_rows(oc, ckk, wmat, panel, NR, &mut out[j0..], Store::Rows(per));
                    }
                }
            }
        }
        for (row, &b) in out.chunks_exact_mut(per).zip(&self.bias) {
            for v in row {
                *v += b;
            }
        }
    }

    /// One sample's parameter gradient from its plane and `god` =
    /// `∂L/∂out` (`[OC, OH·OW]`): `∂L/∂W` (`[OC, C·KH·KW]`) then `∂L/∂b`
    /// (`[OC]`), written into `dst` (fully overwritten). `panel` is scratch.
    ///
    /// # Panics
    ///
    /// Panics when a slice length disagrees with the plan.
    pub fn weight_gradient(
        &self,
        plane: &[f32],
        god: &[f32],
        dst: &mut [f32],
        panel: &mut Vec<f32>,
    ) {
        let [oc, oh, ow] = self.out;
        let (ckk, per) = (self.taps.as_slice().len(), oh * ow);
        assert_eq!(
            plane.len(),
            self.plane_len(),
            "plane is not [C, H+2p, W+2p]"
        );
        assert_eq!(god.len(), oc * per, "god is not [OC, OH*OW]");
        assert_eq!(dst.len(), oc * ckk + oc, "dst is not [OC*C*KH*KW + OC]");
        let (dw, db) = dst.split_at_mut(oc * ckk);
        if ckk > 0 {
            let panel = ScratchArena::sized(panel, per * NR);
            let cols = Lhs {
                data: plane,
                rows: &self.taps,
                steps: &self.positions,
            };
            for j0 in (0..oc).step_by(NR) {
                let nr = NR.min(oc - j0);
                pack_panel_t(god, per, j0, nr, panel);
                sweep_rows(
                    ckk,
                    per,
                    cols,
                    panel,
                    nr,
                    &mut dw[j0 * ckk..],
                    Store::Cols(ckk),
                );
            }
        }
        // An explicit fold from +0.0: std's `f32: Sum` starts at -0.0, which
        // would keep a channel whose gradient is all -0.0 at -0.0.
        for (slot, g) in db.iter_mut().zip(god.chunks_exact(per)) {
            *slot = g.iter().fold(0.0, |acc, &v| acc + v);
        }
    }

    /// One sample's input gradient `[C, H, W]` from `god` = `∂L/∂out`
    /// (`[OC, OH·OW]`), written into `dst` (fully overwritten). `panel` is
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics when a slice length disagrees with the plan.
    pub fn input_gradient(&self, god: &[f32], dst: &mut [f32], panel: &mut Vec<f32>) {
        let [c, h, w] = self.chw;
        let [oc, oh, ow] = self.out;
        let per = oh * ow;
        let taps = self.geom.kh * self.geom.kw;
        assert_eq!(god.len(), oc * per, "god is not [OC, OH*OW]");
        assert_eq!(dst.len(), c * h * w, "dst is not [C, H, W]");
        assert_eq!(self.wmat_t.len(), c * taps * oc, "a forward-only plan");
        dst.fill(0.0);
        if oc == 0 {
            return;
        }
        // Every position panel of ∂L/∂out, packed once for all the taps.
        let panels = ScratchArena::sized(panel, per.div_ceil(NR) * oc * NR);
        for (j, p) in panels.chunks_exact_mut(oc * NR).enumerate() {
            pack_panel(god, per, j * NR, NR.min(per - j * NR), p);
        }
        let mut starts = self.run_starts.windows(2);
        for tap in 0..taps {
            let wt = Lhs {
                data: &self.wmat_t[tap * oc..],
                rows: Strided(taps * oc),
                steps: Strided(1),
            };
            for (j, p) in panels.chunks_exact(oc * NR).enumerate() {
                let span = starts.next().expect("one run list per tap and panel");
                let runs = &self.runs[span[0]..span[1]];
                if !runs.is_empty() {
                    let nr = NR.min(per - j * NR);
                    sweep_rows(c, oc, wt, p, nr, dst, Store::Add(h * w, runs));
                }
            }
        }
    }
}

/// Pack the windows of `NR` output positions whose origins are the run
/// `origin ..` of one plane row into a `[C·KH·KW × NR]` panel: row `tap` is
/// `plane[taps[tap] + origin ..][..NR]`, a row of the im2col block.
fn pack_windows(plane: &[f32], taps: &[usize], origin: usize, panel: &mut [f32]) {
    for (dst, &t) in panel.chunks_exact_mut(NR).zip(taps) {
        let src: &[f32; NR] = plane[t + origin..][..NR].try_into().expect("NR-wide run");
        let dst: &mut [f32; NR] = dst.try_into().expect("NR-wide panel row");
        *dst = *src;
    }
}

/// Lowering-free 2-D convolution forward pass: each sample's zero-padded
/// plane is read in place by the GEMM tiles ([`ConvPlan::forward`]), and the
/// bias is added after the product. This is the inference kernel of
/// `dnnip-nn` (`Layer::infer`) and the arithmetic of its batched gradient
/// engine's convolution forward, and it is bit-identical to
/// [`conv2d_forward_im2col`].
///
/// # Errors
///
/// Same error conditions as [`conv2d_forward`].
pub fn conv2d_forward_gemm(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: Conv2dGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = expect_rank4(input, "conv2d_forward_gemm")?;
    let plan = ConvPlan::forward_only(weight, bias, geom, [c, h, w])?;
    let [oc, oh, ow] = plan.output_shape();
    let mut out = vec![0.0f32; n * oc * oh * ow];
    let (mut buf, mut panel) = (Vec::new(), Vec::new());
    if c * h * w > 0 && oc * oh * ow > 0 {
        let samples = input.data().chunks_exact(c * h * w);
        for (sample, dst) in samples.zip(out.chunks_exact_mut(oc * oh * ow)) {
            plan.forward(plan.plane(sample, &mut buf, 0), dst, &mut panel);
        }
    }
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGradients {
    /// Gradient of the loss with respect to the layer input, `[N, C, H, W]`.
    pub grad_input: Tensor,
    /// Gradient of the loss with respect to the weights, `[OC, C, KH, KW]`.
    pub grad_weight: Tensor,
    /// Gradient of the loss with respect to the bias, `[OC]`.
    pub grad_bias: Tensor,
}

/// Full backward pass of the 2-D convolution.
///
/// Given the forward inputs and `grad_output = ∂L/∂output` (`[N, OC, OH, OW]`),
/// computes the gradients with respect to the input, the weights and the bias.
///
/// # Errors
///
/// Returns a [`TensorError`] when any operand shape is inconsistent with the
/// convolution geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    geom: Conv2dGeometry,
) -> Result<Conv2dGradients> {
    let (n, c, h, w) = expect_rank4(input, "conv2d_backward")?;
    let (oc, wc, kh, kw) = expect_rank4(weight, "conv2d_backward(weight)")?;
    if wc != c {
        return Err(TensorError::InvalidGeometry {
            reason: format!("weight expects {wc} input channels, input has {c}"),
        });
    }
    let (oh, ow) = geom.output_hw(h, w)?;
    shape::check_same(
        grad_output.shape(),
        &[n, oc, oh, ow],
        "conv2d_backward(grad_output)",
    )?;

    let mut gi = vec![0.0f32; n * c * h * w];
    let mut gw = vec![0.0f32; oc * c * kh * kw];
    let mut gb = vec![0.0f32; oc];
    let ind = input.data();
    let wd = weight.data();
    let god = grad_output.data();

    for ni in 0..n {
        for oci in 0..oc {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let go = god[((ni * oc + oci) * oh + ohi) * ow + owi];
                    if go == 0.0 {
                        continue;
                    }
                    gb[oci] += go;
                    for ci in 0..c {
                        for khi in 0..kh {
                            let ih = ohi * geom.stride + khi;
                            if ih < geom.pad || ih - geom.pad >= h {
                                continue;
                            }
                            let ih = ih - geom.pad;
                            for kwi in 0..kw {
                                let iw = owi * geom.stride + kwi;
                                if iw < geom.pad || iw - geom.pad >= w {
                                    continue;
                                }
                                let iw = iw - geom.pad;
                                let in_idx = ((ni * c + ci) * h + ih) * w + iw;
                                let w_idx = ((oci * c + ci) * kh + khi) * kw + kwi;
                                gw[w_idx] += ind[in_idx] * go;
                                gi[in_idx] += wd[w_idx] * go;
                            }
                        }
                    }
                }
            }
        }
    }

    Ok(Conv2dGradients {
        grad_input: Tensor::from_vec(gi, &[n, c, h, w])?,
        grad_weight: Tensor::from_vec(gw, &[oc, c, kh, kw])?,
        grad_bias: Tensor::from_vec(gb, &[oc])?,
    })
}

/// Result of [`maxpool2d_forward`]: pooled activations plus the argmax bookkeeping
/// needed by the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPool2dOutput {
    /// Pooled activations, `[N, C, OH, OW]`.
    pub output: Tensor,
    /// For every output element, the flat index into the input tensor of the
    /// element that won the max (used to route gradients).
    pub argmax: Vec<usize>,
}

/// Max-pooling forward pass with a square window and no padding.
///
/// # Errors
///
/// Returns a [`TensorError`] for non-rank-4 input or invalid window geometry.
pub fn maxpool2d_forward(input: &Tensor, k: usize, stride: usize) -> Result<MaxPool2dOutput> {
    let (n, c, h, w) = expect_rank4(input, "maxpool2d_forward")?;
    let oh = conv_out_dim(h, k, stride, 0)?;
    let ow = conv_out_dim(w, k, stride, 0)?;
    let ind = input.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![0usize; n * c * oh * ow];

    for ni in 0..n {
        for ci in 0..c {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let origin = ((ni * c + ci) * h + ohi * stride) * w + owi * stride;
                    // The 2×2 window, the zoo's, as straight-line selects.
                    let (best, best_idx) = if k == 2 {
                        window_max(ind, origin, w, 2)
                    } else {
                        window_max(ind, origin, w, k)
                    };
                    let o_idx = ((ni * c + ci) * oh + ohi) * ow + owi;
                    out[o_idx] = best;
                    argmax[o_idx] = best_idx;
                }
            }
        }
    }
    Ok(MaxPool2dOutput {
        output: Tensor::from_vec(out, &[n, c, oh, ow])?,
        argmax,
    })
}

/// The maximum of the `k`×`k` window whose first element is `x[origin]`
/// (rows `w` apart) and its flat index: a strict `>` from `-∞` in `(kh, kw)`
/// order, so the first of equal maxima wins. A window with no element above
/// `-∞` (all NaN or `-∞`) yields `-∞` at its own first element.
#[inline(always)]
fn window_max(x: &[f32], origin: usize, w: usize, k: usize) -> (f32, usize) {
    let (mut best, mut at) = (f32::NEG_INFINITY, origin);
    for khi in 0..k {
        for kwi in 0..k {
            let idx = origin + khi * w + kwi;
            if x[idx] > best {
                best = x[idx];
                at = idx;
            }
        }
    }
    (best, at)
}

/// Max-pooling backward pass: routes each output gradient to the input element
/// that won the corresponding max.
///
/// # Errors
///
/// Returns a [`TensorError`] when `grad_output` does not match the recorded
/// argmax bookkeeping.
pub fn maxpool2d_backward(
    grad_output: &Tensor,
    argmax: &[usize],
    input_shape: &[usize],
) -> Result<Tensor> {
    if grad_output.len() != argmax.len() {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_output.shape().to_vec(),
            rhs: vec![argmax.len()],
            op: "maxpool2d_backward",
        });
    }
    let mut gi = vec![0.0f32; shape::num_elements(input_shape)];
    for (&g, &idx) in grad_output.data().iter().zip(argmax) {
        if idx >= gi.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![idx],
                shape: input_shape.to_vec(),
            });
        }
        gi[idx] += g;
    }
    Tensor::from_vec(gi, input_shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_input() -> Tensor {
        // 1 sample, 1 channel, 4x4 with values 0..16
        Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32)
    }

    #[test]
    fn conv_identity_kernel_preserves_interior() {
        // 1x1 kernel with weight 1 and no bias reproduces the input exactly.
        let input = simple_input();
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let geom = Conv2dGeometry::square(1, 1, 0);
        let out = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn conv_known_values_3x3() {
        // 3x3 averaging-like kernel of all ones over a 4x4 ramp, valid padding.
        let input = simple_input();
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let bias = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let geom = Conv2dGeometry::square(3, 1, 0);
        let out = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        // Top-left 3x3 window sums 0+1+2+4+5+6+8+9+10 = 45, plus bias 1.
        assert_eq!(out.get(&[0, 0, 0, 0]).unwrap(), 46.0);
        // Bottom-right window sums 5..7,9..11,13..15 = 90, plus bias 1.
        assert_eq!(out.get(&[0, 0, 1, 1]).unwrap(), 91.0);
    }

    #[test]
    fn conv_padding_keeps_spatial_size() {
        let input = simple_input();
        let weight = Tensor::ones(&[2, 1, 3, 3]);
        let bias = Tensor::zeros(&[2]);
        let geom = Conv2dGeometry::square(3, 1, 1);
        let out = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        assert_eq!(out.shape(), &[1, 2, 4, 4]);
        // Corner output only sees a 2x2 valid region: 0+1+4+5 = 10.
        assert_eq!(out.get(&[0, 0, 0, 0]).unwrap(), 10.0);
    }

    #[test]
    fn direct_and_im2col_agree() {
        let input = Tensor::from_fn(&[2, 3, 6, 5], |i| (i as f32 * 0.37).sin());
        let weight = Tensor::from_fn(&[4, 3, 3, 3], |i| (i as f32 * 0.11).cos());
        let bias = Tensor::from_fn(&[4], |i| i as f32 * 0.5);
        for (stride, pad) in [(1, 0), (1, 1), (2, 0), (2, 1)] {
            let geom = Conv2dGeometry::square(3, stride, pad);
            let a = conv2d_forward(&input, &weight, &bias, geom).unwrap();
            let b = conv2d_forward_im2col(&input, &weight, &bias, geom).unwrap();
            assert!(
                a.approx_eq(&b, 1e-4),
                "mismatch at stride {stride} pad {pad}"
            );
        }
    }

    #[test]
    fn batched_im2col_forward_agrees_with_per_sample() {
        let input = Tensor::from_fn(&[3, 2, 5, 6], |i| (i as f32 * 0.23).sin());
        let weight = Tensor::from_fn(&[4, 2, 3, 3], |i| (i as f32 * 0.13).cos());
        let bias = Tensor::from_fn(&[4], |i| i as f32 * 0.25);
        for (stride, pad) in [(1, 0), (1, 1), (2, 1)] {
            let geom = Conv2dGeometry::square(3, stride, pad);
            let batched = conv2d_forward_im2col(&input, &weight, &bias, geom).unwrap();
            let per_out = batched.len() / 3;
            for (s, sample) in input.data().chunks(2 * 5 * 6).enumerate() {
                let sample = Tensor::from_vec(sample.to_vec(), &[1, 2, 5, 6]).unwrap();
                let single = conv2d_forward_im2col(&sample, &weight, &bias, geom).unwrap();
                assert_eq!(
                    single.data(),
                    &batched.data()[s * per_out..(s + 1) * per_out],
                    "sample {s} differs at stride {stride} pad {pad}"
                );
            }
            let direct = conv2d_forward(&input, &weight, &bias, geom).unwrap();
            assert!(batched.approx_eq(&direct, 1e-4));
        }
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
        // of the adjoint, checked on deterministic pseudo-random data.
        let geom = Conv2dGeometry::square(3, 2, 1);
        let (c, h, w) = (2usize, 5usize, 6usize);
        let x = Tensor::from_fn(&[c, h, w], |i| (i as f32 * 0.71).sin());
        let (oh, ow) = geom.output_hw(h, w).unwrap();
        let mut cols = vec![0.0f32; c * 9 * oh * ow];
        im2col_block_into(x.data(), c, h, w, geom, &mut cols, &mut Vec::new()).unwrap();
        let y: Vec<f32> = (0..cols.len()).map(|i| (i as f32 * 0.37).cos()).collect();
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut back = Vec::new();
        col2im_slice_into(&y, geom, c, h, w, &mut back).unwrap();
        let rhs: f32 = x.data().iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
        assert!(col2im_slice_into(&y, geom, c, h, 50, &mut back).is_err());
        assert!(col2im_slice_into(&[0.0; 3], geom, c, h, w, &mut back).is_err());
    }

    #[test]
    fn conv_rejects_inconsistent_shapes() {
        let input = simple_input();
        let weight = Tensor::ones(&[1, 2, 3, 3]); // wrong channel count
        let bias = Tensor::zeros(&[1]);
        let geom = Conv2dGeometry::square(3, 1, 0);
        assert!(conv2d_forward(&input, &weight, &bias, geom).is_err());
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let bad_bias = Tensor::zeros(&[2]);
        assert!(conv2d_forward(&input, &weight, &bad_bias, geom).is_err());
        // Geometry disagreeing with the weight kernel.
        let geom2 = Conv2dGeometry::square(5, 1, 0);
        assert!(conv2d_forward(&input, &weight, &bias, geom2).is_err());
    }

    #[test]
    fn conv_backward_matches_finite_differences() {
        let input = Tensor::from_fn(&[1, 2, 5, 5], |i| ((i * 7 % 13) as f32 - 6.0) * 0.1);
        let weight = Tensor::from_fn(&[3, 2, 3, 3], |i| ((i * 5 % 11) as f32 - 5.0) * 0.1);
        let bias = Tensor::from_fn(&[3], |i| i as f32 * 0.1);
        let geom = Conv2dGeometry::square(3, 1, 1);

        // Loss = sum of outputs, so grad_output = ones.
        let out = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        let grad_out = Tensor::ones(out.shape());
        let grads = conv2d_backward(&input, &weight, &grad_out, geom).unwrap();

        let eps = 1e-2f32;
        let loss =
            |inp: &Tensor, w: &Tensor, b: &Tensor| conv2d_forward(inp, w, b, geom).unwrap().sum();

        // Check a handful of weight gradients by central differences.
        for &idx in &[0usize, 7, 23, 41, 53] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            let ana = grads.grad_weight.data()[idx];
            assert!(
                (num - ana).abs() < 1e-1 * (1.0 + num.abs()),
                "weight grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
        // Check a handful of input gradients.
        for &idx in &[0usize, 11, 24, 37] {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let num = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            let ana = grads.grad_input.data()[idx];
            assert!(
                (num - ana).abs() < 1e-1 * (1.0 + num.abs()),
                "input grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
        // Bias gradient for a sum loss is the number of output pixels per channel.
        let expected_gb = (out.len() / 3) as f32;
        for &g in grads.grad_bias.data() {
            assert!((g - expected_gb).abs() < 1e-3);
        }
    }

    #[test]
    fn im2col_shape_and_content() {
        let sample: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let geom = Conv2dGeometry::square(2, 1, 0);
        let mut cols = vec![f32::NAN; 16];
        let dims = im2col_block_into(&sample, 1, 3, 3, geom, &mut cols, &mut Vec::new()).unwrap();
        assert_eq!(dims, (4, 4));
        // First column is the top-left 2x2 window [0,1,3,4].
        assert_eq!(cols[0], 0.0);
        assert_eq!(cols[4], 1.0);
        assert_eq!(cols[2 * 4], 3.0);
        assert_eq!(cols[3 * 4], 4.0);
        // A sample that is not `c*h*w` long, and a block of the wrong size.
        assert!(im2col_block_into(&sample, 1, 3, 4, geom, &mut cols, &mut Vec::new()).is_err());
        assert!(
            im2col_block_into(&sample, 1, 3, 3, geom, &mut cols[..15], &mut Vec::new()).is_err()
        );
    }

    #[test]
    fn maxpool_forward_and_backward_route_correctly() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let pooled = maxpool2d_forward(&input, 2, 2).unwrap();
        assert_eq!(pooled.output.shape(), &[1, 1, 2, 2]);
        assert_eq!(pooled.output.data(), &[4.0, 8.0, 12.0, 16.0]);

        let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let gi = maxpool2d_backward(&grad_out, &pooled.argmax, input.shape()).unwrap();
        assert_eq!(gi.shape(), input.shape());
        // Gradient lands exactly on the max positions.
        assert_eq!(gi.get(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(gi.get(&[0, 0, 1, 3]).unwrap(), 2.0);
        assert_eq!(gi.get(&[0, 0, 3, 1]).unwrap(), 3.0);
        assert_eq!(gi.get(&[0, 0, 3, 3]).unwrap(), 4.0);
        assert_eq!(gi.sum(), 10.0);
    }

    #[test]
    fn maxpool_argmax_stays_in_a_window_with_nothing_above_neg_infinity() {
        // The second sample's windows are all NaN or all -Inf: each argmax
        // is its own window's first element (not index 0 of the batch), so
        // the backward routes the gradient inside that sample.
        let mut data = vec![1.0f32; 16];
        data.extend([f32::NAN; 8]);
        data.extend([f32::NEG_INFINITY; 8]);
        let input = Tensor::from_vec(data, &[2, 1, 4, 4]).unwrap();
        let pooled = maxpool2d_forward(&input, 2, 2).unwrap();
        assert_eq!(pooled.argmax[4..], [16, 18, 24, 26]);
        assert!(pooled.output.data()[4..]
            .iter()
            .all(|&v| v == f32::NEG_INFINITY));
        for k in [2, 3] {
            let odd = maxpool2d_forward(&input, k, 1).unwrap();
            let per = odd.argmax.len() / 2;
            assert!(odd.argmax[per..].iter().all(|&i| (16..32).contains(&i)));
        }
        let grad = Tensor::ones(pooled.output.shape());
        let gi = maxpool2d_backward(&grad, &pooled.argmax, input.shape()).unwrap();
        assert_eq!(gi.data()[16..].iter().sum::<f32>(), 4.0);
    }

    #[test]
    fn maxpool_rejects_bad_geometry() {
        let input = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(maxpool2d_forward(&input, 4, 2).is_err());
        assert!(maxpool2d_forward(&Tensor::zeros(&[3, 3]), 2, 2).is_err());
        let grad = Tensor::zeros(&[1, 1, 1, 1]);
        assert!(maxpool2d_backward(&grad, &[0, 1], &[1, 1, 3, 3]).is_err());
        assert!(maxpool2d_backward(&grad, &[100], &[1, 1, 3, 3]).is_err());
    }
}
