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
    __m512, _mm512_add_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_compress_ps,
    _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
};

use super::{store_cols, Lhs, Offsets, Store, NR};

/// Rows per 512-bit register tile.
pub(super) const MR: usize = 12;

/// Runs the tile of `mr ∈ 1..=MR` live rows; see [`kernel`].
#[allow(clippy::too_many_arguments)]
#[inline]
pub(super) fn tile<R: Offsets, S: Offsets>(
    mr: usize,
    k: usize,
    a: Lhs<'_, R, S>,
    i0: usize,
    panel: &[f32],
    out: &mut [f32],
    nr: usize,
    store: Store<'_>,
) {
    dispatch_rows!(
        mr,
        (k, a, i0, panel, out, nr, store),
        1 2 3 4 5 6 7 8 9 10 11 12
    )
}

/// Lanes `0..len` of a 16-lane mask.
fn low_lanes(len: usize) -> u16 {
    u16::MAX >> (NR - len)
}

/// `MR`×`NR` register-tile micro-kernel with `M ∈ 1..=MR` live rows.
///
/// The arguments mean what they mean for the portable kernel: tile row `r`
/// is row `i0 + r` of the left operand `a`, `panel` is the packed `[k × NR]`
/// right-hand panel, and the first `nr` columns of the tile go to `out` as
/// `store` says: as rows (one masked store each), transposed, or added run
/// by run (a masked load, add and store per run and row).
#[allow(clippy::too_many_arguments)]
#[inline]
fn kernel<const M: usize, R: Offsets, S: Offsets>(
    k: usize,
    a: Lhs<'_, R, S>,
    i0: usize,
    panel: &[f32],
    out: &mut [f32],
    nr: usize,
    store: Store<'_>,
) {
    assert!(
        M >= 1 && k >= 1 && (1..=NR).contains(&nr),
        "tile out of range"
    );
    let rows: [usize; M] = std::array::from_fn(|r| a.rows.at(i0 + r));
    let top = rows.iter().max().copied().unwrap_or(0) + a.steps.bound(k);
    assert!(top < a.data.len(), "lhs rows out of bounds");
    assert!(panel.len() >= k * NR, "panel shorter than k rows");
    match store {
        Store::Rows(ldc) => assert!(out.len() >= (M - 1) * ldc + nr, "tile rows out of bounds"),
        Store::Add(ldc, runs) => {
            for run in runs {
                assert!(
                    run.len >= 1 && run.lane + run.len <= NR,
                    "run outside the tile"
                );
                assert!(
                    out.len() >= (M - 1) * ldc + run.dst + run.len,
                    "run out of bounds"
                );
            }
        }
        Store::Cols(_) => {}
    }
    let (data, panel) = (a.data.as_ptr(), panel.as_ptr());
    // SAFETY: this module is compiled only when the build enables avx512f.
    // p < k keeps the panel row p*NR .. p*NR+NR inside the panel, and
    // rows[r] + steps.at(p) <= max(rows) + steps.bound(k) < a.data.len()
    // keeps every read of the left operand inside it (asserted).
    let acc: [__m512; M] = unsafe {
        let mut acc = [_mm512_setzero_ps(); M];
        for (p, step) in a.steps.iter(k).enumerate() {
            let b = _mm512_loadu_ps(panel.add(p * NR));
            for (r, sum) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*data.add(rows[r] + step));
                *sum = _mm512_add_ps(*sum, _mm512_mul_ps(av, b));
            }
        }
        acc
    };
    match store {
        Store::Rows(ldc) => {
            let mask = low_lanes(nr);
            for (r, sum) in acc.iter().enumerate() {
                // SAFETY: avx512f is enabled (see above); the mask writes
                // lanes 0..nr only, and r*ldc + nr <= out.len() (asserted).
                unsafe { _mm512_mask_storeu_ps(out.as_mut_ptr().add(r * ldc), mask, *sum) };
            }
        }
        Store::Add(ldc, runs) => {
            for run in runs {
                let lanes = low_lanes(run.len) << run.lane;
                let mask = low_lanes(run.len);
                for (r, sum) in acc.iter().enumerate() {
                    // SAFETY: avx512f is enabled (see above). The compress
                    // moves lanes lane..lane+len down to 0..len, and the
                    // masked load and store touch lanes 0..len only, at
                    // r*ldc + dst + len <= out.len() (asserted).
                    unsafe {
                        let terms = _mm512_maskz_compress_ps(lanes, *sum);
                        let at = out.as_mut_ptr().add(r * ldc + run.dst);
                        let total = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, at), terms);
                        _mm512_mask_storeu_ps(at, mask, total);
                    }
                }
            }
        }
        Store::Cols(ldc) => {
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
