//! Differential tests of the lowering-free convolution (`ConvPlan`) against
//! the im2col formulation it replaced, kept as the oracle: the forward
//! against `conv2d_forward_im2col`, the weight gradient against `gemm_nt`
//! over the `im2col_block_into` block, and the input gradient against
//! `col2im_slice_into` of `gemm(Wᵀ, ∂L/∂out)`. All three must agree **bit
//! for bit** in the sense of `kernels::bit_mismatch`, over strides 1–2,
//! paddings 0–2, non-square and 1×1 kernels, channel counts at the tile
//! edges (1, 3, 8, 13, 16, 17, 32) and data salted with NaN, ±Inf and ±0.0,
//! and scratch buffers reused dirty must give the bits fresh ones give.

mod common;

use common::salted;
use dnnip_tensor::conv::{
    col2im_slice_into, conv2d_forward_gemm, conv2d_forward_im2col, im2col_block_into,
    Conv2dGeometry, ConvPlan,
};
use dnnip_tensor::kernels::{bit_mismatch, gemm, gemm_nt};
use dnnip_tensor::Tensor;
use proptest::prelude::*;

/// Mostly finite values with a few salts, so that products over whole
/// windows are not all NaN.
fn lightly_salted(len: usize, seed: u64) -> Vec<f32> {
    salted(len, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            if v.is_finite() && v != 0.0 || i % 53 == 7 {
                v
            } else {
                (i as f32 * 0.37).sin()
            }
        })
        .collect()
}

/// The im2col oracle of one sample's gradients: `(∂L/∂W ++ ∂L/∂b, ∂L/∂x)`.
fn oracle_gradients(
    sample: &[f32],
    weight: &[f32],
    god: &[f32],
    geom: Conv2dGeometry,
    [c, h, w]: [usize; 3],
    oc: usize,
) -> (Vec<f32>, Vec<f32>) {
    let (oh, ow) = geom.output_hw(h, w).unwrap();
    let (ckk, per) = (c * geom.kh * geom.kw, oh * ow);
    let mut cols = vec![0.0f32; ckk * per];
    im2col_block_into(sample, c, h, w, geom, &mut cols, &mut Vec::new()).unwrap();
    let mut params = vec![0.0f32; oc * ckk + oc];
    gemm_nt(ckk, per, oc, &cols, god, &mut params[..oc * ckk]);
    for (o, slot) in params[oc * ckk..].iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for &g in &god[o * per..(o + 1) * per] {
            acc += g;
        }
        *slot = acc;
    }
    let wmat_t: Vec<f32> = (0..ckk * oc)
        .map(|e| weight[(e % oc) * ckk + e / oc])
        .collect();
    let mut grad_cols = vec![0.0f32; ckk * per];
    gemm(ckk, oc, per, &wmat_t, god, &mut grad_cols);
    let mut input = Vec::new();
    col2im_slice_into(&grad_cols, geom, c, h, w, &mut input).unwrap();
    (params, input)
}

/// Checks every product of one planned convolution against the oracle.
fn check_plan(
    geom: Conv2dGeometry,
    chw: [usize; 3],
    oc: usize,
    batch: usize,
    seed: u64,
    salt: fn(usize, u64) -> Vec<f32>,
) -> Result<(), TestCaseError> {
    let [c, h, w] = chw;
    let Ok((oh, ow)) = geom.output_hw(h, w) else {
        return Ok(());
    };
    let input = Tensor::from_vec(salt(batch * c * h * w, seed), &[batch, c, h, w]).unwrap();
    let weight = Tensor::from_vec(
        salt(oc * c * geom.kh * geom.kw, seed ^ 1),
        &[oc, c, geom.kh, geom.kw],
    )
    .unwrap();
    let bias = Tensor::from_vec(salt(oc, seed ^ 2), &[oc]).unwrap();
    let oracle = conv2d_forward_im2col(&input, &weight, &bias, geom).unwrap();
    let fast = conv2d_forward_gemm(&input, &weight, &bias, geom).unwrap();
    prop_assert_eq!(fast.shape(), oracle.shape());
    prop_assert_eq!(bit_mismatch(fast.data(), oracle.data()), None, "forward");

    let plan = ConvPlan::new(&weight, &bias, geom, chw).unwrap();
    prop_assert_eq!(plan.output_shape(), [oc, oh, ow]);
    let per = oh * ow;
    let ckk = c * geom.kh * geom.kw;
    // Scratch reused dirty across samples, against fresh scratch per call.
    let (mut plane_buf, mut panel) = (vec![f32::NAN; 5], vec![f32::NAN; 3]);
    let mut grads = vec![f32::NAN; oc * ckk + oc];
    let mut image = vec![f32::NAN; c * h * w];
    for (s, sample) in input.data().chunks_exact(c * h * w).enumerate() {
        let god = salt(oc * per, seed ^ (100 + s as u64));
        let (params, input_grad) = oracle_gradients(sample, weight.data(), &god, geom, chw, oc);
        let plane = plan.plane(sample, &mut plane_buf, 0).to_vec();
        let mut out = vec![f32::NAN; oc * per];
        plan.forward(&plane, &mut out, &mut panel);
        let expect = &oracle.data()[s * oc * per..(s + 1) * oc * per];
        prop_assert_eq!(bit_mismatch(&out, expect), None, "sample {} forward", s);
        plan.weight_gradient(&plane, &god, &mut grads, &mut panel);
        prop_assert_eq!(
            bit_mismatch(&grads, &params),
            None,
            "sample {} weight gradient",
            s
        );
        plan.input_gradient(&god, &mut image, &mut panel);
        prop_assert_eq!(
            bit_mismatch(&image, &input_grad),
            None,
            "sample {} input gradient",
            s
        );
        let mut fresh = vec![0.0f32; c * h * w];
        plan.input_gradient(&god, &mut fresh, &mut Vec::new());
        prop_assert_eq!(
            bit_mismatch(&fresh, &image),
            None,
            "sample {} fresh scratch",
            s
        );
    }
    Ok(())
}

/// Channel counts on both sides of the tile edges.
const CHANNELS: [usize; 7] = [1, 3, 8, 13, 16, 17, 32];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn planned_convolutions_match_the_im2col_oracle(
        kh in 1usize..5, kw in 1usize..5, stride in 1usize..3, pad in 0usize..3,
        ci in 0usize..7, oi in 0usize..7, h in 1usize..12, w in 1usize..20,
        heavy in 0usize..2, seed in 0u64..1_000_000
    ) {
        let geom = Conv2dGeometry { kh, kw, stride, pad };
        let salt = if heavy == 1 { salted } else { lightly_salted };
        check_plan(geom, [CHANNELS[ci], h, w], CHANNELS[oi], 2, seed, salt)?;
    }
}

#[test]
fn zoo_geometries_match_the_im2col_oracle() {
    // The scaled and full-size zoo models' convolutions, the branching
    // model's stride-2 layer, 1×1 and non-square kernels.
    let cases = [
        (Conv2dGeometry::square(3, 1, 1), [3, 16, 16], 16),
        (Conv2dGeometry::square(3, 1, 1), [16, 16, 16], 16),
        (Conv2dGeometry::square(3, 1, 1), [16, 8, 8], 32),
        (Conv2dGeometry::square(3, 1, 1), [32, 8, 8], 32),
        (Conv2dGeometry::square(3, 1, 1), [1, 16, 16], 8),
        (Conv2dGeometry::square(3, 1, 1), [8, 16, 16], 8),
        (Conv2dGeometry::square(3, 1, 1), [8, 8, 8], 16),
        (Conv2dGeometry::square(3, 1, 0), [3, 32, 32], 64),
        (Conv2dGeometry::square(3, 1, 0), [64, 14, 14], 128),
        (Conv2dGeometry::square(3, 2, 1), [4, 6, 6], 4),
        (Conv2dGeometry::square(1, 1, 0), [17, 5, 7], 13),
        // Two runs of positions per output row, channels on the tile rows.
        (Conv2dGeometry::square(3, 1, 1), [3, 4, 32], 13),
        (
            Conv2dGeometry {
                kh: 2,
                kw: 3,
                stride: 1,
                pad: 2,
            },
            [13, 6, 9],
            17,
        ),
    ];
    for (i, &(geom, chw, oc)) in cases.iter().enumerate() {
        for (seed, salt) in [
            (i as u64, lightly_salted as fn(usize, u64) -> Vec<f32>),
            (99, salted),
        ] {
            check_plan(geom, chw, oc, 2, seed, salt)
                .unwrap_or_else(|e| panic!("case {i} {geom:?} {chw:?} oc {oc}: {e}"));
        }
    }
}

#[test]
fn a_dead_channel_has_a_positive_zero_bias_gradient() {
    // ∂L/∂out all -0.0 (a dead ReLU channel under a negative upstream
    // weight): the bias gradient is the fold from +0.0, so +0.0.
    let geom = Conv2dGeometry::square(3, 1, 1);
    let weight = Tensor::ones(&[1, 1, 3, 3]);
    let plan = ConvPlan::new(&weight, &Tensor::zeros(&[1]), geom, [1, 4, 4]).unwrap();
    let plane = plan.plane(&[1.0; 16], &mut Vec::new(), 0).to_vec();
    let mut grads = vec![f32::NAN; 10];
    plan.weight_gradient(&plane, &[-0.0; 16], &mut grads, &mut Vec::new());
    assert_eq!(grads[9].to_bits(), 0.0f32.to_bits());
    assert!(grads[..9].iter().all(|g| g.to_bits() == 0.0f32.to_bits()));
}

#[test]
fn plans_reject_inconsistent_shapes() {
    let geom = Conv2dGeometry::square(3, 1, 0);
    let weight = Tensor::ones(&[2, 1, 3, 3]);
    assert!(ConvPlan::new(&weight, &Tensor::zeros(&[2]), geom, [2, 5, 5]).is_err());
    assert!(ConvPlan::new(&weight, &Tensor::zeros(&[3]), geom, [1, 5, 5]).is_err());
    assert!(ConvPlan::new(&weight, &Tensor::zeros(&[2]), geom, [1, 2, 5]).is_err());
    assert!(conv2d_forward_gemm(
        &Tensor::zeros(&[1, 5, 5]),
        &weight,
        &Tensor::zeros(&[2]),
        geom
    )
    .is_err());
}
