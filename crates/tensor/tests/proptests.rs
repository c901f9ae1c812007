//! Property-based tests for the tensor substrate.
//!
//! These exercise algebraic invariants of the core kernels on randomly generated
//! shapes and values: commutativity/associativity of element-wise arithmetic,
//! matmul identities, transpose involution, the agreement of the two convolution
//! implementations, and gradient-routing conservation in max pooling.

use dnnip_tensor::conv::{
    col2im_slice_into, conv2d_backward, conv2d_forward, conv2d_forward_im2col, im2col_block_into,
    maxpool2d_backward, maxpool2d_forward, Conv2dGeometry,
};
use dnnip_tensor::kernels::{self, bit_mismatch, MR, NR};
use dnnip_tensor::{ops, Tensor};
use proptest::prelude::*;

mod common;

use common::salted;

/// Dimensions around the register tile: 1, `MR`±1, `NR`±1 and past two
/// full column panels.
const TILE_EDGES: [usize; 8] = [1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1, 2 * NR + 3];

/// The `[cols, rows]` transpose of a row-major `[rows, cols]` matrix.
fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|e| x[(e % rows) * cols + e / rows])
        .collect()
}

/// Strategy producing a tensor of the given shape with values in [-10, 10].
fn tensor_of(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    prop::collection::vec(-10.0f32..10.0, n)
        .prop_map(move |data| Tensor::from_vec(data, &shape).expect("shape/data consistent"))
}

/// Strategy producing two same-shaped tensors.
fn tensor_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    prop::collection::vec(1usize..5, 1..4)
        .prop_flat_map(|shape| (tensor_of(shape.clone()), tensor_of(shape)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutes((a, b) in tensor_pair()) {
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert!(ab.approx_eq(&ba, 1e-5));
    }

    #[test]
    fn add_then_sub_is_identity((a, b) in tensor_pair()) {
        let back = a.add(&b).unwrap().sub(&b).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-3));
    }

    #[test]
    fn scale_distributes_over_add((a, b) in tensor_pair(), k in -3.0f32..3.0) {
        let lhs = a.add(&b).unwrap().scale(k);
        let rhs = a.scale(k).add(&b.scale(k)).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn sum_is_linear((a, b) in tensor_pair()) {
        let s = a.add(&b).unwrap().sum();
        prop_assert!((s - (a.sum() + b.sum())).abs() < 1e-3 * (1.0 + s.abs()));
    }

    #[test]
    fn reshape_preserves_sum_and_len(a in prop::collection::vec(1usize..5, 2..4).prop_flat_map(tensor_of)) {
        let flat = a.flatten();
        prop_assert_eq!(flat.len(), a.len());
        prop_assert!((flat.sum() - a.sum()).abs() < 1e-4);
    }

    #[test]
    fn matmul_identity_left_and_right(
        m in 1usize..6, n in 1usize..6,
        seed in 0u64..1000
    ) {
        let a = Tensor::from_fn(&[m, n], |i| ((i as u64 * 2654435761 + seed) % 97) as f32 / 7.0 - 6.0);
        let eye_m = Tensor::from_fn(&[m, m], |i| if i / m == i % m { 1.0 } else { 0.0 });
        let eye_n = Tensor::from_fn(&[n, n], |i| if i / n == i % n { 1.0 } else { 0.0 });
        prop_assert!(ops::matmul(&eye_m, &a).unwrap().approx_eq(&a, 1e-5));
        prop_assert!(ops::matmul(&a, &eye_n).unwrap().approx_eq(&a, 1e-5));
    }

    #[test]
    fn matmul_transpose_identity(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1000
    ) {
        // (A B)^T == B^T A^T
        let a = Tensor::from_fn(&[m, k], |i| (((i as u64 + seed) * 31) % 23) as f32 * 0.1 - 1.0);
        let b = Tensor::from_fn(&[k, n], |i| (((i as u64 + seed) * 17) % 19) as f32 * 0.1 - 0.9);
        let lhs = ops::transpose(&ops::matmul(&a, &b).unwrap()).unwrap();
        let rhs = ops::matmul(&ops::transpose(&b).unwrap(), &ops::transpose(&a).unwrap()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn transpose_is_involution(m in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
        let a = Tensor::from_fn(&[m, n], |i| ((i as u64 ^ seed) % 101) as f32);
        let tt = ops::transpose(&ops::transpose(&a).unwrap()).unwrap();
        prop_assert_eq!(tt, a);
    }

    #[test]
    fn stack_unstack_round_trip(
        k in 1usize..5, shape in prop::collection::vec(1usize..4, 1..3), seed in 0u64..1000
    ) {
        let items: Vec<Tensor> = (0..k)
            .map(|i| Tensor::from_fn(&shape, |j| ((j as u64 + i as u64 * 7 + seed) % 13) as f32))
            .collect();
        let batch = ops::stack(&items).unwrap();
        prop_assert_eq!(batch.shape()[0], k);
        let back: Vec<Tensor> = batch
            .data()
            .chunks(items[0].len())
            .map(|d| Tensor::from_vec(d.to_vec(), &shape).unwrap())
            .collect();
        prop_assert_eq!(back, items);
    }

    #[test]
    fn softmax_rows_are_distributions(m in 1usize..5, n in 1usize..8, seed in 0u64..1000) {
        let a = Tensor::from_fn(&[m, n], |i| (((i as u64 + seed) * 37) % 29) as f32 - 14.0);
        let s = ops::softmax(&a).unwrap();
        prop_assert!(!s.has_non_finite());
        for i in 0..m {
            let r = ops::row(&s, i).unwrap();
            prop_assert!((r.sum() - 1.0).abs() < 1e-4);
            prop_assert!(r.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn conv_direct_matches_im2col(
        c in 1usize..3, h in 4usize..8, w in 4usize..8, oc in 1usize..3,
        stride in 1usize..3, pad in 0usize..2, seed in 0u64..1000
    ) {
        let input = Tensor::from_fn(&[1, c, h, w], |i| (((i as u64 + seed) * 13) % 31) as f32 * 0.1 - 1.5);
        let weight = Tensor::from_fn(&[oc, c, 3, 3], |i| (((i as u64 + seed) * 7) % 17) as f32 * 0.1 - 0.8);
        let bias = Tensor::from_fn(&[oc], |i| i as f32 * 0.25);
        let geom = Conv2dGeometry::square(3, stride, pad);
        let a = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        let b = conv2d_forward_im2col(&input, &weight, &bias, geom).unwrap();
        prop_assert!(a.approx_eq(&b, 1e-3));
        // With a zero bias both kernels sum the same products in the same
        // order, so they agree bit for bit.
        let zero = Tensor::zeros(&[oc]);
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(conv2d_forward(&input, &weight, &zero, geom).unwrap()),
            bits(conv2d_forward_im2col(&input, &weight, &zero, geom).unwrap())
        );
    }

    #[test]
    fn conv_is_linear_in_input(
        h in 4usize..7, w in 4usize..7, seed in 0u64..1000, alpha in -2.0f32..2.0
    ) {
        // conv(alpha * x) == alpha * conv(x) when bias is zero.
        let input = Tensor::from_fn(&[1, 1, h, w], |i| (((i as u64 + seed) * 11) % 23) as f32 * 0.1);
        let weight = Tensor::from_fn(&[2, 1, 3, 3], |i| (((i as u64 + seed) * 3) % 7) as f32 * 0.2 - 0.5);
        let bias = Tensor::zeros(&[2]);
        let geom = Conv2dGeometry::square(3, 1, 1);
        let lhs = conv2d_forward(&input.scale(alpha), &weight, &bias, geom).unwrap();
        let rhs = conv2d_forward(&input, &weight, &bias, geom).unwrap().scale(alpha);
        prop_assert!(lhs.approx_eq(&rhs, 1e-2));
    }

    #[test]
    fn conv_backward_bias_grad_sums_grad_output(
        h in 4usize..7, w in 4usize..7, oc in 1usize..4, seed in 0u64..1000
    ) {
        let input = Tensor::from_fn(&[1, 2, h, w], |i| (((i as u64 + seed) * 5) % 13) as f32 * 0.1);
        let weight = Tensor::from_fn(&[oc, 2, 3, 3], |i| (((i as u64 + seed) * 9) % 11) as f32 * 0.1);
        let geom = Conv2dGeometry::square(3, 1, 0);
        let bias = Tensor::zeros(&[oc]);
        let out = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        let grad_out = Tensor::from_fn(out.shape(), |i| ((i as u64 % 5) as f32) - 2.0);
        let grads = conv2d_backward(&input, &weight, &grad_out, geom).unwrap();
        // For each output channel, the bias gradient is the sum of that channel's grad_output.
        let (oh, ow) = (out.shape()[2], out.shape()[3]);
        for ch in 0..oc {
            let start = ch * oh * ow;
            let sum: f32 = grad_out.data()[start..start + oh * ow].iter().sum();
            prop_assert!((grads.grad_bias.data()[ch] - sum).abs() < 1e-3);
        }
    }

    #[test]
    fn batched_matmul_equals_per_row_matvec(
        m in 1usize..5, k in 1usize..6, n in 1usize..5, seed in 0u64..1000
    ) {
        // One matrix–matrix product over a stacked batch of row vectors is
        // bit-identical to the per-sample matrix–vector products — the
        // batch-axis guarantee the Dense layers of the batched engine rely on.
        let a = Tensor::from_fn(&[m, k], |i| (((i as u64 + seed) * 19) % 29) as f32 * 0.1 - 1.0);
        let b = Tensor::from_fn(&[k, n], |i| (((i as u64 + seed) * 23) % 31) as f32 * 0.1 - 1.2);
        let stacked = ops::matmul(&a, &b).unwrap();
        for i in 0..m {
            let row = Tensor::from_vec(a.data()[i * k..(i + 1) * k].to_vec(), &[1, k]).unwrap();
            let single = ops::matmul(&row, &b).unwrap();
            prop_assert_eq!(single.data(), &stacked.data()[i * n..(i + 1) * n]);
        }
    }

    #[test]
    fn matmul_nt_equals_matmul_of_transpose(
        m in 1usize..5, k in 1usize..6, n in 1usize..5, seed in 0u64..1000
    ) {
        let a = Tensor::from_fn(&[m, k], |i| (((i as u64 + seed) * 7) % 19) as f32 * 0.2 - 1.0);
        let b = Tensor::from_fn(&[n, k], |i| (((i as u64 + seed) * 3) % 13) as f32 * 0.2 - 0.9);
        let mut fast = vec![f32::NAN; n * m];
        kernels::gemm_nt(m, k, n, a.data(), b.data(), &mut fast);
        let reference = ops::matmul(&a, &ops::transpose(&b).unwrap()).unwrap();
        prop_assert_eq!(transposed(&fast, n, m), reference.data());
    }

    #[test]
    fn batched_conv_equals_per_sample_conv(
        n in 1usize..4, c in 1usize..3, oc in 1usize..4,
        hw in 3usize..7, stride in 1usize..3, pad in 0usize..2, seed in 0u64..1000
    ) {
        // The direct and im2col kernels over a stacked batch agree bit for
        // bit with the same kernel applied sample by sample.
        let input = Tensor::from_fn(&[n, c, hw, hw], |i| (((i as u64 + seed) * 13) % 37) as f32 * 0.1 - 1.7);
        let weight = Tensor::from_fn(&[oc, c, 3, 3], |i| (((i as u64 + seed) * 11) % 23) as f32 * 0.1 - 1.0);
        let bias = Tensor::from_fn(&[oc], |i| i as f32 * 0.3 - 0.4);
        let geom = Conv2dGeometry::square(3, stride, pad);

        let direct_batch = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        let im2col_batch_out = conv2d_forward_im2col(&input, &weight, &bias, geom).unwrap();
        let per_sample_len = direct_batch.len() / n;
        let sample_len = c * hw * hw;
        for s in 0..n {
            let sample = Tensor::from_vec(
                input.data()[s * sample_len..(s + 1) * sample_len].to_vec(),
                &[1, c, hw, hw],
            )
            .unwrap();
            let direct_single = conv2d_forward(&sample, &weight, &bias, geom).unwrap();
            prop_assert_eq!(
                direct_single.data(),
                &direct_batch.data()[s * per_sample_len..(s + 1) * per_sample_len]
            );
            let im2col_single = conv2d_forward_im2col(&sample, &weight, &bias, geom).unwrap();
            prop_assert_eq!(
                im2col_single.data(),
                &im2col_batch_out.data()[s * per_sample_len..(s + 1) * per_sample_len]
            );
        }
        prop_assert!(im2col_batch_out.approx_eq(&direct_batch, 1e-3));
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive_reference(
        m in 1usize..18, k in 1usize..18, n in 1usize..18, seed in 0u64..1000
    ) {
        // Ragged shapes straddle every register-tile remainder path (m % MR,
        // n % NR, short k); the blocked kernels must agree with the naive
        // references bit for bit, not approximately.
        let a = Tensor::from_fn(&[m, k], |i| (((i as u64 + seed) * 29) % 41) as f32 * 0.13 - 2.1);
        let b = Tensor::from_fn(&[k, n], |i| (((i as u64 + seed) * 43) % 37) as f32 * 0.11 - 1.8);
        prop_assert_eq!(ops::matmul(&a, &b).unwrap(), ops::matmul_reference(&a, &b).unwrap());
        let bt = Tensor::from_fn(&[n, k], |i| (((i as u64 + seed) * 53) % 31) as f32 * 0.17 - 2.4);
        // gemm_nt stores the product transposed, as [n, m].
        let mut nt = vec![f32::NAN; n * m];
        kernels::gemm_nt(m, k, n, a.data(), bt.data(), &mut nt);
        let reference = ops::matmul_nt_reference(&a, &bt).unwrap();
        prop_assert_eq!(nt, transposed(reference.data(), m, n));
    }

    #[test]
    fn gemm_nt_with_swapped_operands_is_the_transpose(
        mi in 0usize..8, ni in 0usize..8, ki in 0usize..8, seed in 0u64..1_000_000
    ) {
        // gemm_nt stores a · bᵀ as [n, m], and with its operands swapped it
        // stores b · aᵀ, whose transpose is a · bᵀ as [m, n]: on NaN/±Inf/
        // ±0.0-salted data around every tile edge, both agree with the
        // reference in the sense of the kernels' contract.
        let (m, n, k) = (TILE_EDGES[mi], TILE_EDGES[ni], TILE_EDGES[ki]);
        let a = salted(m * k, seed);
        let b = salted(n * k, seed ^ 0x5eed);
        let reference = ops::matmul_nt_reference(
            &Tensor::from_vec(a.clone(), &[m, k]).unwrap(),
            &Tensor::from_vec(b.clone(), &[n, k]).unwrap(),
        )
        .unwrap();
        let mut direct = vec![f32::NAN; n * m];
        kernels::gemm_nt(m, k, n, &a, &b, &mut direct);
        let expect_t = transposed(reference.data(), m, n);
        prop_assert_eq!(bit_mismatch(&direct, &expect_t), None);
        let mut swapped = vec![f32::NAN; m * n];
        kernels::gemm_nt(n, k, m, &b, &a, &mut swapped);
        prop_assert_eq!(bit_mismatch(&swapped, reference.data()), None);
    }

    #[test]
    fn arena_buffer_reuse_equals_fresh_buffers(
        n in 1usize..3, c in 1usize..3, hw in 3usize..7,
        stride in 1usize..3, pad in 0usize..2, seed in 0u64..1000
    ) {
        // The `_into` kernels must fully overwrite whatever a reused scratch
        // buffer held before — a dirty oversized buffer and a fresh one must
        // produce bit-identical results.
        let geom = Conv2dGeometry::square(3, stride, pad);
        let input = Tensor::from_fn(&[n, c, hw, hw], |i| (((i as u64 + seed) * 13) % 37) as f32 * 0.1 - 1.7);

        let sample_len = c * hw * hw;
        let (oh, ow) = geom.output_hw(hw, hw).unwrap();
        let (rows, cols) = (c * 9, oh * ow);
        for sample in input.data().chunks(sample_len) {
            let mut fresh = vec![0.0; rows * cols];
            let dims = im2col_block_into(sample, c, hw, hw, geom, &mut fresh, &mut Vec::new()).unwrap();
            prop_assert_eq!(dims, (rows, cols));
            let mut dirty = vec![f32::INFINITY; rows * cols];
            let mut dirty_plane = vec![f32::NAN; 7];
            im2col_block_into(sample, c, hw, hw, geom, &mut dirty, &mut dirty_plane).unwrap();
            prop_assert_eq!(&dirty, &fresh);
        }

        let colvals: Vec<f32> = (0..rows * cols).map(|i| (((i as u64 + seed) * 7) % 19) as f32 * 0.2 - 1.9).collect();
        let mut fresh_g = Vec::new();
        col2im_slice_into(&colvals, geom, c, hw, hw, &mut fresh_g).unwrap();
        let mut dirty_g = vec![f32::NAN; fresh_g.len() * 2 + 3];
        col2im_slice_into(&colvals, geom, c, hw, hw, &mut dirty_g).unwrap();
        prop_assert_eq!(&dirty_g, &fresh_g);
    }

    #[test]
    fn maxpool_gradient_is_conserved(
        h in 4usize..9, w in 4usize..9, c in 1usize..3, seed in 0u64..1000
    ) {
        // The sum of the routed input gradient equals the sum of the output gradient.
        let h = h - h % 2;
        let w = w - w % 2;
        let input = Tensor::from_fn(&[1, c, h, w], |i| (((i as u64 * 2654435761) ^ seed) % 1009) as f32 * 0.01);
        let pooled = maxpool2d_forward(&input, 2, 2).unwrap();
        let grad_out = Tensor::from_fn(pooled.output.shape(), |i| (i % 7) as f32 * 0.5);
        let gi = maxpool2d_backward(&grad_out, &pooled.argmax, input.shape()).unwrap();
        prop_assert!((gi.sum() - grad_out.sum()).abs() < 1e-3);
        // Pooled outputs are always >= the corresponding inputs' mean (they are maxima).
        prop_assert!(pooled.output.min().unwrap() >= input.min().unwrap());
        prop_assert!((pooled.output.max().unwrap() - input.max().unwrap()).abs() < 1e-6);
    }
}

/// `t`'s content key, memoized or derived now.
fn key(t: &Tensor) -> (u64, u64) {
    Tensor::content_keys(std::slice::from_ref(t))[0]
}

/// A fresh, unkeyed tensor with `t`'s shape and data.
fn rebuilt(t: &Tensor) -> Tensor {
    Tensor::from_vec(t.data().to_vec(), t.shape()).unwrap()
}

/// The elements as bit patterns, so NaN payloads and signed zeros compare.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// A named in-place change of a tensor.
type Mutation<'a> = (&'static str, &'a dyn Fn(&mut Tensor));

/// A tensor of 1–3 dimensions of 1–4 over NaN/±Inf/±0.0-salted data.
fn salted_tensor() -> impl Strategy<Value = Tensor> {
    (prop::collection::vec(1usize..5, 1..4), 0u64..1_000_000).prop_map(|(shape, seed)| {
        Tensor::from_vec(salted(shape.iter().product(), seed), &shape).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn content_key_follows_clones_and_every_mutation(
        t in salted_tensor(), index in 0usize..64, seed in 0u64..1_000_000
    ) {
        let original = key(&t);
        prop_assert_eq!(key(&t.clone()), original);
        let i = index % t.len();
        let other = Tensor::from_vec(salted(t.len(), seed), t.shape()).unwrap();
        let value = salted(1, seed ^ 0x5eed)[0];
        let mutations: [Mutation; 6] = [
            ("data_mut", &|t| t.data_mut()[i] = f32::from_bits(t.data()[i].to_bits() ^ 1)),
            ("set", &|t| {
                let index: Vec<usize> = t.shape().iter().map(|&d| i % d).collect();
                t.set(&index, value).unwrap();
            }),
            ("add_assign", &|t| t.add_assign(&other).unwrap()),
            ("axpy", &|t| t.axpy(-0.5, &other).unwrap()),
            ("fill", &|t| t.fill(value)),
            ("fill again", &|t| t.fill(value)),
        ];
        // Each mutation runs on a keyed clone, whose key then has to be the
        // one a freshly built tensor of the new content gets, and has to
        // change exactly when some element's bits did.
        let mut current = t.clone();
        for (name, mutate) in mutations {
            let before = (key(&current), bits(&current));
            mutate(&mut current);
            let after = key(&current);
            prop_assert_eq!(after, key(&rebuilt(&current)), "after {}", name);
            prop_assert_eq!(after != before.0, bits(&current) != before.1, "after {}", name);
        }
        // Mutating the clone left the original and its key alone.
        prop_assert_eq!(key(&t), original);
        prop_assert_eq!(key(&rebuilt(&t)), original);
    }

    #[test]
    fn content_key_sees_the_shape(t in salted_tensor()) {
        let original = key(&t);
        prop_assert_eq!(key(&t.reshape(t.shape()).unwrap()), original);
        let mut reversed = t.shape().to_vec();
        reversed.reverse();
        let mut longer = t.shape().to_vec();
        longer.push(1);
        for shape in [reversed, longer, vec![t.len()]] {
            if shape != t.shape() {
                prop_assert_ne!(key(&t.reshape(&shape).unwrap()), original, "{:?}", shape);
            }
        }
    }

    #[test]
    fn batch_content_keys_equal_one_at_a_time_keys(
        batch in prop::collection::vec(salted_tensor(), 0..20), keyed in 0u32..u32::MAX
    ) {
        // Some tensors arrive keyed, the rest are hashed in one call.
        for (i, t) in batch.iter().enumerate() {
            if (keyed >> (i % 32)) & 1 == 1 {
                key(t);
            }
        }
        let keys = Tensor::content_keys(&batch);
        prop_assert_eq!(keys.len(), batch.len());
        for (t, batched) in batch.iter().zip(&keys) {
            prop_assert_eq!(*batched, key(&rebuilt(t)));
            prop_assert_eq!(*batched, key(t));
        }
        prop_assert_eq!(Tensor::content_keys(&batch), keys);
    }

    #[test]
    fn a_keyed_tensor_compares_and_prints_as_an_unkeyed_one(t in salted_tensor()) {
        let unkeyed = rebuilt(&t);
        let equal = t == unkeyed;
        key(&t);
        prop_assert_eq!(t == unkeyed, equal);
        prop_assert_eq!(unkeyed == t, equal);
        prop_assert_eq!(format!("{t:?}"), format!("{unkeyed:?}"));
        // Without NaNs the two are equal.
        let finite = t.map(|x| if x.is_nan() { 0.0 } else { x });
        let unkeyed = rebuilt(&finite);
        key(&finite);
        prop_assert!(finite == unkeyed);
    }
}
