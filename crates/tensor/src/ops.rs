//! Linear-algebra kernels operating on rank-2 [`Tensor`]s.
//!
//! The fully-connected layers of `dnnip-nn` are expressed entirely in terms of
//! these primitives: [`matmul`], [`transpose`], [`add_row_vector`] and the
//! row-wise helpers. Keeping them free functions (rather than methods) makes the
//! rank-2 contract explicit at every call site.

use crate::shape;
use crate::{Result, Tensor, TensorError};

fn expect_rank(t: &Tensor, rank: usize, op: &'static str) -> Result<()> {
    if t.ndim() != rank {
        return Err(TensorError::RankMismatch {
            expected: rank,
            actual: t.shape().to_vec(),
            op,
        });
    }
    Ok(())
}

/// Validate a `[m, k] x [k, n]` (or, with `nt`, `[m, k] x [n, k]`) operand
/// pair and return `(m, k, n)`.
fn matmul_dims(
    a: &Tensor,
    b: &Tensor,
    nt: bool,
    op: &'static str,
) -> Result<(usize, usize, usize)> {
    expect_rank(a, 2, op)?;
    expect_rank(b, 2, op)?;
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = if nt {
        (b.shape()[1], b.shape()[0])
    } else {
        (b.shape()[0], b.shape()[1])
    };
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    Ok((m, k, n))
}

/// Matrix product of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
///
/// Runs the cache-blocked, register-tiled kernel in [`crate::kernels`];
/// results are bit-identical to the naive [`matmul_reference`] loop for all
/// inputs — non-finite values in either operand propagate through the product
/// exactly as IEEE 754 prescribes (`0 · NaN = NaN`, `0 · ∞ = NaN`). An earlier
/// version skipped the inner loop whenever `a[i][p] == 0.0`, silently
/// swallowing NaN/Inf in `b`; the skip is gone.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank-2 and
/// [`TensorError::MatmulDimMismatch`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use dnnip_tensor::{ops, Tensor};
/// # fn main() -> Result<(), dnnip_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2])?;
/// let c = ops::matmul(&a, &b)?;
/// assert_eq!(c.shape(), &[2, 2]);
/// assert_eq!(c.data(), &[4.0, 5.0, 10.0, 11.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b, false, "matmul")?;
    let mut out = vec![0.0f32; m * n];
    crate::kernels::gemm(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Naive i-k-j matrix product — the bit-exact reference for [`matmul`].
///
/// Kept (and exercised by the differential tests) so the blocked kernel always
/// has an independent, obviously-correct implementation to agree with. Each
/// output element accumulates `a[i][p] * b[p][j]` over ascending `p` starting
/// from `0.0`, with no shortcuts: non-finite values propagate.
///
/// # Errors
///
/// Same error conditions as [`matmul`].
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b, false, "matmul_reference")?;
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        for p in 0..k {
            let aik = ad[i * k + p];
            let brow = &bd[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Naive row-dot-product `a · bᵀ` (`[m, k] x [n, k] -> [m, n]`) — transposed,
/// the bit-exact reference for [`crate::kernels::gemm_nt`].
///
/// Every output element is one sequential dot product of two contiguous rows,
/// accumulated over ascending `k` from `0.0` — the same per-element fold as
/// [`matmul_reference`], so the two references agree bitwise under transpose.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank-2 and
/// [`TensorError::MatmulDimMismatch`] if the shared dimension disagrees.
pub fn matmul_nt_reference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b, true, "matmul_nt_reference")?;
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *o = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Transpose of a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the operand is not rank-2.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    expect_rank(a, 2, "transpose")?;
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let ad = a.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = ad[i * n + j];
        }
    }
    Tensor::from_vec(out, &[n, m])
}

/// Add a `[n]` row vector to every row of a `[m, n]` matrix (bias addition).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] when the
/// operands do not have the expected ranks or the row length differs from the
/// vector length.
pub fn add_row_vector(a: &Tensor, v: &Tensor) -> Result<Tensor> {
    expect_rank(a, 2, "add_row_vector")?;
    expect_rank(v, 1, "add_row_vector")?;
    let (m, n) = (a.shape()[0], a.shape()[1]);
    if v.shape()[0] != n {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().to_vec(),
            rhs: v.shape().to_vec(),
            op: "add_row_vector",
        });
    }
    let mut out = a.data().to_vec();
    let vd = v.data();
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] += vd[j];
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Sum the rows of a `[m, n]` matrix into a `[n]` vector (bias-gradient reduction).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the operand is not rank-2.
pub fn sum_rows(a: &Tensor) -> Result<Tensor> {
    expect_rank(a, 2, "sum_rows")?;
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let ad = a.data();
    let mut out = vec![0.0f32; n];
    for i in 0..m {
        for j in 0..n {
            out[j] += ad[i * n + j];
        }
    }
    Tensor::from_vec(out, &[n])
}

/// Extract row `i` of a `[m, n]` matrix as a `[n]` vector.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-2 input and
/// [`TensorError::IndexOutOfBounds`] when `i >= m`.
pub fn row(a: &Tensor, i: usize) -> Result<Tensor> {
    expect_rank(a, 2, "row")?;
    let (m, n) = (a.shape()[0], a.shape()[1]);
    if i >= m {
        return Err(TensorError::IndexOutOfBounds {
            index: vec![i],
            shape: a.shape().to_vec(),
        });
    }
    Tensor::from_vec(a.data()[i * n..(i + 1) * n].to_vec(), &[n])
}

/// Stack `k` equally-shaped tensors along a new leading axis.
///
/// The result has shape `[k, ...item_shape]`. This is how single samples are packed
/// into batches throughout the workspace.
///
/// # Errors
///
/// Returns [`TensorError::EmptyTensor`] when `items` is empty and
/// [`TensorError::ShapeMismatch`] when any item disagrees with the first item's shape.
pub fn stack(items: &[Tensor]) -> Result<Tensor> {
    let first = items
        .first()
        .ok_or(TensorError::EmptyTensor { op: "stack" })?;
    let item_shape = first.shape().to_vec();
    let mut data = Vec::with_capacity(items.len() * first.len());
    for item in items {
        shape::check_same(item.shape(), &item_shape, "stack")?;
        data.extend_from_slice(item.data());
    }
    let mut out_shape = vec![items.len()];
    out_shape.extend_from_slice(&item_shape);
    Tensor::from_vec(data, &out_shape)
}

/// Numerically-stable softmax over the last axis of a rank-1 or rank-2 tensor.
///
/// For rank-2 input the softmax is applied independently to every row.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for ranks other than 1 or 2.
pub fn softmax(a: &Tensor) -> Result<Tensor> {
    match a.ndim() {
        1 => {
            let probs = softmax_slice(a.data());
            Tensor::from_vec(probs, a.shape())
        }
        2 => {
            let (m, n) = (a.shape()[0], a.shape()[1]);
            let mut out = Vec::with_capacity(m * n);
            for i in 0..m {
                out.extend(softmax_slice(&a.data()[i * n..(i + 1) * n]));
            }
            Tensor::from_vec(out, a.shape())
        }
        _ => Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.shape().to_vec(),
            op: "softmax",
        }),
    }
}

fn softmax_slice(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Argmax of every row of a `[m, n]` matrix (predicted class per sample).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-2 input.
pub fn argmax_rows(a: &Tensor) -> Result<Vec<usize>> {
    expect_rank(a, 2, "argmax_rows")?;
    let (m, _n) = (a.shape()[0], a.shape()[1]);
    let mut out = Vec::with_capacity(m);
    for i in 0..m {
        out.push(row(a, i)?.argmax()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a · bᵀ` through the blocked [`crate::kernels::gemm_nt`], which stores
    /// it as `[n, m]`; transposed back here.
    fn gemm_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = matmul_dims(a, b, true, "gemm_nt").unwrap();
        let mut out = vec![f32::NAN; m * n];
        crate::kernels::gemm_nt(m, k, n, a.data(), b.data(), &mut out);
        transpose(&Tensor::from_vec(out, &[n, m]).unwrap()).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(matmul(&a, &eye).unwrap(), a);
        assert_eq!(matmul(&eye, &a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let c = Tensor::zeros(&[6]);
        assert!(matches!(
            matmul(&a, &c),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_values_propagate_and_kernels_stay_bit_identical() {
        // Regression for the zero-skip bug: a zero in `a` must NOT swallow a
        // NaN/Inf sitting in the corresponding `b` entries (0·NaN = NaN,
        // 0·∞ = NaN), and `matmul(a, transpose(b))` must stay bit-identical
        // to `gemm_nt(a, b)` even for NaN/Inf/-0.0 inputs.
        let a = Tensor::from_vec(
            vec![
                0.0, 1.0, -0.0, //
                2.0, 0.0, 0.5, //
                -0.0, -0.0, 0.0,
            ],
            &[3, 3],
        )
        .unwrap();
        // b in [n, k] orientation for gemm_nt.
        let b = Tensor::from_vec(
            vec![
                f32::NAN,
                1.0,
                2.0, //
                f32::INFINITY,
                -0.0,
                3.0, //
                0.25,
                f32::NEG_INFINITY,
                -0.0,
            ],
            &[3, 3],
        )
        .unwrap();
        let bt = transpose(&b).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let via_t = matmul(&a, &bt).unwrap();
        let nt = gemm_nt(&a, &b);
        assert_eq!(bits(&via_t), bits(&nt), "matmul vs gemm_nt");
        // The references agree with the blocked kernels bit-for-bit too.
        assert_eq!(bits(&via_t), bits(&matmul_reference(&a, &bt).unwrap()));
        assert_eq!(bits(&nt), bits(&matmul_nt_reference(&a, &b).unwrap()));

        // Row 0 of `a` is (0, 1, -0): column 0 of bᵀ holds the NaN, so the
        // product's [0,0] must be NaN — the old skip returned a finite value.
        assert!(via_t.get(&[0, 0]).unwrap().is_nan());
        // Row 2 is all zeros; against the ±Inf column the result is NaN.
        assert!(via_t.get(&[2, 1]).unwrap().is_nan());
    }

    #[test]
    fn matmul_matches_reference_on_ragged_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 9, 8), (5, 2, 9), (13, 11, 17)] {
            let a = Tensor::from_fn(&[m, k], |i| ((i as f32) * 0.37).sin() - 0.2);
            let b = Tensor::from_fn(&[k, n], |i| ((i as f32) * 0.53).cos() * 1.5);
            let fast = matmul(&a, &b).unwrap();
            let reference = matmul_reference(&a, &b).unwrap();
            assert_eq!(fast, reference, "[{m},{k}]x[{k},{n}]");
            let bnt = Tensor::from_fn(&[n, k], |i| ((i as f32) * 0.29).sin() + 0.1);
            let fast_nt = gemm_nt(&a, &bnt);
            let reference_nt = matmul_nt_reference(&a, &bnt).unwrap();
            assert_eq!(fast_nt, reference_nt, "nt [{m},{k}]x[{n},{k}]t");
        }
    }

    #[test]
    fn matmul_nt_matches_matmul_of_transpose() {
        let a = Tensor::from_fn(&[3, 4], |i| (i as f32 * 0.7).sin());
        let b = Tensor::from_fn(&[5, 4], |i| (i as f32 * 0.3).cos());
        let fast = gemm_nt(&a, &b);
        let reference = matmul(&a, &transpose(&b).unwrap()).unwrap();
        assert_eq!(fast.shape(), &[3, 5]);
        assert_eq!(fast, reference);
        assert!(matmul_nt_reference(&a, &Tensor::zeros(&[5, 3])).is_err());
        assert!(matmul_nt_reference(&a, &Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_fn(&[3, 5], |i| i as f32);
        let t = transpose(&a).unwrap();
        assert_eq!(t.shape(), &[5, 3]);
        assert_eq!(transpose(&t).unwrap(), a);
        assert_eq!(t.get(&[4, 2]).unwrap(), a.get(&[2, 4]).unwrap());
    }

    #[test]
    fn add_row_vector_broadcasts_per_row() {
        let a = Tensor::zeros(&[2, 3]);
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let out = add_row_vector(&a, &v).unwrap();
        assert_eq!(out.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert!(add_row_vector(&a, &Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn sum_rows_matches_manual() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(sum_rows(&a).unwrap().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn row_extraction() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(row(&a, 1).unwrap().data(), &[3.0, 4.0]);
        assert!(row(&a, 2).is_err());
    }

    #[test]
    fn stack_unstack_round_trip() {
        let items = vec![
            Tensor::from_fn(&[2, 2], |i| i as f32),
            Tensor::from_fn(&[2, 2], |i| (i + 4) as f32),
            Tensor::from_fn(&[2, 2], |i| (i + 8) as f32),
        ];
        let batch = stack(&items).unwrap();
        assert_eq!(batch.shape(), &[3, 2, 2]);
        let back: Vec<Tensor> = batch
            .data()
            .chunks(4)
            .map(|d| Tensor::from_vec(d.to_vec(), &[2, 2]).unwrap())
            .collect();
        assert_eq!(back, items);
        assert!(stack(&[]).is_err());
        let mismatched = vec![Tensor::zeros(&[2]), Tensor::zeros(&[3])];
        assert!(stack(&mismatched).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = softmax(&a).unwrap();
        for i in 0..2 {
            let r = row(&s, i).unwrap();
            assert!((r.sum() - 1.0).abs() < 1e-6);
            assert_eq!(r.argmax().unwrap(), 2);
        }
        // Rank-1 path.
        let v = Tensor::from_vec(vec![1000.0, 1001.0], &[2]).unwrap();
        let sv = softmax(&v).unwrap();
        assert!(!sv.has_non_finite(), "softmax must be numerically stable");
        assert!((sv.sum() - 1.0).abs() < 1e-6);
        assert!(softmax(&Tensor::zeros(&[1, 1, 1])).is_err());
    }

    #[test]
    fn argmax_rows_picks_per_row_max() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.7, 0.3, 0.1], &[2, 3]).unwrap();
        assert_eq!(argmax_rows(&a).unwrap(), vec![1, 0]);
    }
}
