//! The 512-bit register tile: `MR` rows of one `zmm` accumulator each,
//! written in explicit AVX-512F intrinsics.
//!
//! Compiled only when the build enables `avx512f` (see the parent module's
//! "Tile size"), so every intrinsic here runs on a CPU that has it. Each
//! accumulator starts at `+0.0` and takes one `_mm512_mul_ps` and then one
//! `_mm512_add_ps` per step of `k`, in ascending order: the fold of the
//! portable tile and of the naive references, sixteen output columns at a
//! time. The asserts at the top of [`kernel`] bound every offset its pointer
//! reads and writes use.

use std::arch::x86_64::{
    __m512, _mm512_add_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_mul_ps, _mm512_set1_ps,
    _mm512_setzero_ps, _mm512_storeu_ps,
};

use super::{store_cols, Store, NR};

/// Rows per 512-bit register tile.
pub(super) const MR: usize = 12;

/// Runs the tile of `mr ∈ 1..=MR` live rows; see [`kernel`].
#[allow(clippy::too_many_arguments)]
#[inline]
pub(super) fn tile(
    mr: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    panel: &[f32],
    out: &mut [f32],
    ldc: usize,
    nr: usize,
    store: Store,
) {
    dispatch_rows!(
        mr,
        (k, a, lda, panel, out, ldc, nr, store),
        1 2 3 4 5 6 7 8 9 10 11 12
    )
}

/// `MR`×`NR` register-tile micro-kernel with `M ∈ 1..=MR` live rows.
///
/// The arguments mean what they mean for the portable kernel: row `r` of the
/// tile's left operand is `a[r*lda .. r*lda+k]`, `panel` is the packed
/// `[k × NR]` right-hand panel, and the first `nr` columns of the tile go to
/// `out` at stride `ldc`, as rows (one masked store each) or transposed.
#[allow(clippy::too_many_arguments)]
#[inline]
fn kernel<const M: usize>(
    k: usize,
    a: &[f32],
    lda: usize,
    panel: &[f32],
    out: &mut [f32],
    ldc: usize,
    nr: usize,
    store: Store,
) {
    assert!(M >= 1 && (1..=NR).contains(&nr), "tile out of range");
    assert!(a.len() >= (M - 1) * lda + k, "lhs rows out of bounds");
    assert!(panel.len() >= k * NR, "panel shorter than k rows");
    if store == Store::Rows {
        assert!(out.len() >= (M - 1) * ldc + nr, "tile rows out of bounds");
    }
    let (a, panel) = (a.as_ptr(), panel.as_ptr());
    // SAFETY: this module is compiled only when the build enables avx512f.
    // p < k keeps the panel row p*NR .. p*NR+NR inside the panel, and
    // r*lda + p < (M-1)*lda + k keeps every read of `a` inside it (asserted).
    let acc: [__m512; M] = unsafe {
        let mut acc = [_mm512_setzero_ps(); M];
        for p in 0..k {
            let b = _mm512_loadu_ps(panel.add(p * NR));
            for (r, sum) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.add(r * lda + p));
                *sum = _mm512_add_ps(*sum, _mm512_mul_ps(av, b));
            }
        }
        acc
    };
    match store {
        Store::Rows => {
            let mask = u16::MAX >> (NR - nr);
            for (r, sum) in acc.iter().enumerate() {
                // SAFETY: avx512f is enabled (see above); the mask writes
                // lanes 0..nr only, and r*ldc + nr <= out.len() (asserted).
                unsafe { _mm512_mask_storeu_ps(out.as_mut_ptr().add(r * ldc), mask, *sum) };
            }
        }
        Store::Cols => {
            let mut tile = [[0.0f32; NR]; M];
            for (row, sum) in tile.iter_mut().zip(&acc) {
                // SAFETY: avx512f is enabled (see above), and `row` is
                // NR = 16 writable f32s, one zmm register.
                unsafe { _mm512_storeu_ps(row.as_mut_ptr(), *sum) };
            }
            store_cols(&tile, out, ldc, nr);
        }
    }
}
