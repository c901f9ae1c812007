//! Oracle tests for the im2col / col2im lowering kernels.
//!
//! The kernels in `dnnip_tensor::conv` lower from a zero-padded copy of the
//! sample in whole-width runs and build col2im's input gradient
//! destination-major, in fixed 8-lane chunks, instead of testing the padding
//! bounds per element. The per-element loops live on here as naive
//! references, and the proptests below require **bit** equality against them
//! (in the sense of `kernels::bit_mismatch`: a NaN's sign and payload are
//! free) over kernels 1–5, strides 1–3 and paddings 0–3 (padding at or beyond
//! the kernel included), spatial sizes 1–18 (so rows of whole 8-lane chunks,
//! ragged tails and sizes smaller than the kernel all occur wherever the
//! geometry is valid), and data salted with NaN, ±Inf and ±0.0.

mod common;

use common::salted;
use dnnip_tensor::conv::{col2im_slice_into, im2col_block_into, Conv2dGeometry};
use dnnip_tensor::kernels::bit_mismatch;
use proptest::prelude::*;

/// Naive per-element im2col of one `[C, H, W]` sample: `[C*KH*KW, OH*OW]`.
fn im2col_reference(sd: &[f32], c: usize, h: usize, w: usize, geom: Conv2dGeometry) -> Vec<f32> {
    let (oh, ow) = geom.output_hw(h, w).unwrap();
    let ncols = oh * ow;
    let mut out = vec![0.0f32; c * geom.kh * geom.kw * ncols];
    for ci in 0..c {
        for khi in 0..geom.kh {
            for kwi in 0..geom.kw {
                let r = (ci * geom.kh + khi) * geom.kw + kwi;
                for ohi in 0..oh {
                    let ih = ohi * geom.stride + khi;
                    if ih < geom.pad || ih - geom.pad >= h {
                        continue;
                    }
                    let ih = ih - geom.pad;
                    for owi in 0..ow {
                        let iw = owi * geom.stride + kwi;
                        if iw < geom.pad || iw - geom.pad >= w {
                            continue;
                        }
                        let iw = iw - geom.pad;
                        out[r * ncols + ohi * ow + owi] = sd[(ci * h + ih) * w + iw];
                    }
                }
            }
        }
    }
    out
}

/// Naive per-element col2im onto a `[C, H, W]` image, summing overlaps in
/// `(ci, kh, kw, oh, ow)` order.
fn col2im_reference(cols: &[f32], geom: Conv2dGeometry, c: usize, h: usize, w: usize) -> Vec<f32> {
    let (oh, ow) = geom.output_hw(h, w).unwrap();
    let ncols = oh * ow;
    let mut out = vec![0.0f32; c * h * w];
    for ci in 0..c {
        for khi in 0..geom.kh {
            for kwi in 0..geom.kw {
                let r = (ci * geom.kh + khi) * geom.kw + kwi;
                for ohi in 0..oh {
                    let ih = ohi * geom.stride + khi;
                    if ih < geom.pad || ih - geom.pad >= h {
                        continue;
                    }
                    let ih = ih - geom.pad;
                    for owi in 0..ow {
                        let iw = owi * geom.stride + kwi;
                        if iw < geom.pad || iw - geom.pad >= w {
                            continue;
                        }
                        let iw = iw - geom.pad;
                        out[(ci * h + ih) * w + iw] += cols[r * ncols + ohi * ow + owi];
                    }
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn im2col_kernels_match_the_per_element_reference(
        kh in 1usize..6, kw in 1usize..6, stride in 1usize..4, pad in 0usize..4,
        c in 1usize..4, h in 1usize..19, w in 1usize..19, n in 1usize..4, seed in 0u64..1_000_000
    ) {
        let geom = Conv2dGeometry { kh, kw, stride, pad };
        let data = salted(n * c * h * w, seed);
        let sample_len = c * h * w;
        let Ok((oh, ow)) = geom.output_hw(h, w) else {
            // The window does not fit even with padding: the kernel must
            // refuse rather than lower anything.
            let sample = &data[..sample_len];
            let mut block = vec![0.0f32; 1];
            prop_assert!(im2col_block_into(sample, c, h, w, geom, &mut block, &mut Vec::new()).is_err());
            return Ok(());
        };
        let (rows, per) = (c * kh * kw, oh * ow);
        for s in 0..n {
            let sample = &data[s * sample_len..(s + 1) * sample_len];
            let reference = im2col_reference(sample, c, h, w, geom);
            // A NaN-filled block proves every entry is written, padding
            // included; a dirty padded-plane buffer, that its border is.
            let mut block = vec![f32::NAN; rows * per];
            let mut padded = vec![f32::NAN; 7];
            let dims = im2col_block_into(sample, c, h, w, geom, &mut block, &mut padded).unwrap();
            prop_assert_eq!(dims, (rows, per));
            prop_assert_eq!(bit_mismatch(&block, &reference), None);
            // A block lowered again over the previous sample's contents (a
            // reused arena buffer) comes out the same.
            let mut reused = reference.clone();
            reused.reverse();
            im2col_block_into(sample, c, h, w, geom, &mut reused, &mut padded).unwrap();
            prop_assert_eq!(bit_mismatch(&reused, &reference), None);
        }
    }

    #[test]
    fn col2im_matches_the_per_element_reference(
        kh in 1usize..6, kw in 1usize..6, stride in 1usize..4, pad in 0usize..4,
        c in 1usize..4, h in 1usize..19, w in 1usize..19, seed in 0u64..1_000_000
    ) {
        let geom = Conv2dGeometry { kh, kw, stride, pad };
        let Ok((oh, ow)) = geom.output_hw(h, w) else {
            let mut out = Vec::new();
            prop_assert!(col2im_slice_into(&[0.0], geom, c, h, w, &mut out).is_err());
            return Ok(());
        };
        let cols = salted(c * kh * kw * oh * ow, seed);
        let reference = col2im_reference(&cols, geom, c, h, w);
        // A dirty, oversized buffer must come back exactly `c*h*w` long.
        let mut out = vec![f32::NAN; c * h * w + 5];
        col2im_slice_into(&cols, geom, c, h, w, &mut out).unwrap();
        prop_assert_eq!(bit_mismatch(&out, &reference), None);
    }
}

#[test]
fn references_agree_on_a_hand_checked_padded_case() {
    // 1×3×3 ramp, 2×2 kernel, stride 2, pad 1: output 2×2, and every pixel
    // is read by exactly one tap, so col2im puts the image back together.
    let geom = Conv2dGeometry::square(2, 2, 1);
    let sd: Vec<f32> = (1..=9).map(|v| v as f32).collect();
    let cols = im2col_reference(&sd, 1, 3, 3, geom);
    #[rustfmt::skip]
    let expected = [
        0.0, 0.0, 0.0, 5.0, // tap (0, 0)
        0.0, 0.0, 4.0, 6.0, // tap (0, 1)
        0.0, 2.0, 0.0, 8.0, // tap (1, 0)
        1.0, 3.0, 7.0, 9.0, // tap (1, 1)
    ];
    assert_eq!(cols, expected);
    let back = col2im_reference(&cols, geom, 1, 3, 3);
    assert_eq!(back, sd);
}
