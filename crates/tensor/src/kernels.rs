//! Cache-blocked, register-tiled matrix-multiplication micro-kernels.
//!
//! [`gemm`] is the engine behind [`crate::ops::matmul`]; [`gemm_nt`] computes
//! `a · bᵀ` for the batched gradient engine. Both walk the output matrix in `MR`×`NR` register
//! tiles: the right-hand operand is first packed, `NR` columns at a time, into
//! a `[k × NR]` panel laid out so the micro-kernel streams it sequentially,
//! and each tile keeps its `MR·NR` partial sums in a fixed-size accumulator
//! array the compiler can hold in vector registers. The inner loops have
//! constant trip counts (`MR`, `NR`), so they unroll and auto-vectorize —
//! SIMD lanes map *across output columns*, never across the `k` reduction.
//!
//! # Tile size
//!
//! The tile is 6×16, the BLIS-style sgemm tile for a 16-register vector file
//! (AVX2's `ymm0..15`): a tile row is two 8-lane vectors, so the twelve
//! two-vector accumulators, the two vectors of the current panel row and one
//! broadcast of `a[i][p]` fit in sixteen registers without spilling. On the
//! engine's convolution GEMM shapes 6×16 was faster than 8×8, 12×16 and
//! 8×32.
//!
//! The native build (`target-cpu=native`) runs 256-bit vectors, not 512-bit
//! ones, even on an AVX-512 host: LLVM prefers 256-bit vectors for such CPUs.
//! On an AVX-512 Xeon, `objdump -d perfbench/target/release/perfbench`
//! showed 231 packed `vmulps`/`vaddps` on `ymm` registers, 59 on `xmm` and
//! none on `zmm`, and native and `x86-64-v3` builds measured the same GEMM
//! GFLOP/s.
//!
//! # Full-width panels
//!
//! A panel is full width when `NR` output columns remain (`nr == NR`), which
//! is every panel but the last of a ragged `n`. There, `pack_panel` and
//! `pack_panel_t` write each panel row, and the micro-kernel stores each
//! tile row, as one fixed `[f32; NR]` array. A `copy_from_slice` of runtime
//! length compiles to a `memcpy` call, and on small-`k` products (a
//! convolution's input gradient has `k` = output channels) those calls cost
//! as much as the arithmetic. Edge panels copy `nr` columns and zero the
//! rest.
//!
//! # Bit-identity contract
//!
//! Every output element is produced by **one** accumulator that starts at
//! `+0.0` and folds `a[i][p] * b[p][j]` over `p = 0..k` in ascending order —
//! exactly the accumulation order of the naive reference loops
//! ([`crate::ops::matmul_reference`] / [`crate::ops::matmul_nt_reference`]).
//! Tiling only interleaves *independent* per-element folds; it never splits,
//! reorders or pairwise-reduces a single fold, and rustc never contracts a
//! multiply and an add into an FMA. Results are therefore bit-identical to
//! the references for all inputs, ±Inf and signed zeros included. A NaN
//! result is NaN at exactly the same positions, but its sign and payload are
//! not pinned: Rust leaves them unspecified, and LLVM may commute an `fadd`
//! or `fmul`, which changes which operand's NaN survives. [`bit_mismatch`]
//! is the comparison this contract is stated in. Edge tiles (when
//! `m % MR != 0` or `n % NR != 0`) run the same micro-kernel with fewer live
//! rows/columns; padded panel columns are zeroed and their accumulators
//! discarded, so they cannot contaminate real outputs. The differential
//! proptests in `crates/tensor/tests/proptests.rs` pin this contract across
//! ragged shapes.

/// Rows per register tile (live accumulator rows in the micro-kernel).
pub const MR: usize = 6;
/// Columns per register tile: two 256-bit vectors of `f32` per row.
pub const NR: usize = 16;

/// First lane at which `a` and `b` break the bit-identity contract, or `None`
/// when they keep it.
///
/// Lanes that are not NaN must agree bit for bit (so `+0.0` and `-0.0`
/// differ); NaN must appear in both at exactly the same lanes, with any sign
/// and payload. Slices of different lengths mismatch at the shorter length.
/// This is the comparison the kernel, lowering and engine differentials use.
pub fn bit_mismatch(a: &[f32], b: &[f32]) -> Option<usize> {
    let same = |(x, y): (&f32, &f32)| match (x.is_nan(), y.is_nan()) {
        (true, true) => true,
        (false, false) => x.to_bits() == y.to_bits(),
        _ => false,
    };
    a.iter()
        .zip(b)
        .position(|pair| !same(pair))
        .or((a.len() != b.len()).then(|| a.len().min(b.len())))
}

/// `MR`×`NR` register-tile micro-kernel with `M ∈ 1..=MR` live rows.
///
/// `a` holds the tile's rows at stride `lda` (row `r` is
/// `a[r*lda .. r*lda+k]`), `panel` is the packed `[k × NR]` right-hand panel,
/// and the first `nr` columns of the tile are written to `out` at stride
/// `ldc`. Padded panel columns (`c >= nr`) are computed into accumulators that
/// are simply never written back.
#[inline]
fn kernel<const M: usize>(
    k: usize,
    a: &[f32],
    lda: usize,
    panel: &[f32],
    out: &mut [f32],
    ldc: usize,
    nr: usize,
) {
    let rows: [&[f32]; M] = std::array::from_fn(|r| &a[r * lda..r * lda + k]);
    let mut acc = [[0.0f32; NR]; M];
    for (p, bp) in panel.chunks_exact(NR).take(k).enumerate() {
        for r in 0..M {
            let av = rows[r][p];
            for (accv, &bv) in acc[r].iter_mut().zip(bp) {
                *accv += av * bv;
            }
        }
    }
    if nr == NR {
        // A full-width tile row is one fixed-size store, not a copy call.
        for (r, row) in acc.iter().enumerate() {
            let dst: &mut [f32; NR] = (&mut out[r * ldc..r * ldc + NR])
                .try_into()
                .expect("NR-wide tile row");
            *dst = *row;
        }
    } else {
        for (r, row) in acc.iter().enumerate() {
            out[r * ldc..r * ldc + nr].copy_from_slice(&row[..nr]);
        }
    }
}

/// Pack columns `j0 .. j0+nr` of a row-major `[k, n]` matrix into a `[k × NR]`
/// panel; panel columns past `nr` are zeroed so edge tiles read defined data.
fn pack_panel(b: &[f32], n: usize, j0: usize, nr: usize, panel: &mut [f32]) {
    let rows = b.chunks_exact(n).zip(panel.chunks_exact_mut(NR));
    if nr == NR {
        // Full-width panel: each row is one fixed `[f32; NR]` move.
        for (brow, dst) in rows {
            let src: &[f32; NR] = brow[j0..j0 + NR].try_into().expect("NR-wide run");
            let dst: &mut [f32; NR] = dst.try_into().expect("NR-wide panel row");
            *dst = *src;
        }
        return;
    }
    for (brow, dst) in rows {
        dst[..nr].copy_from_slice(&brow[j0..j0 + nr]);
        for v in &mut dst[nr..] {
            *v = 0.0;
        }
    }
}

/// Pack rows `j0 .. j0+nr` of a row-major `[n, k]` matrix, transposed, into a
/// `[k × NR]` panel (panel entry `(p, c)` = `b[j0+c][p]`); columns past `nr`
/// are zeroed.
fn pack_panel_t(b: &[f32], k: usize, j0: usize, nr: usize, panel: &mut [f32]) {
    if nr == NR {
        // Full-width panel: gather each panel row from the NR source rows and
        // store it as one fixed `[f32; NR]` array.
        let srcs: [&[f32]; NR] = std::array::from_fn(|c| &b[(j0 + c) * k..(j0 + c) * k + k]);
        for (p, dst) in panel.chunks_exact_mut(NR).take(k).enumerate() {
            let dst: &mut [f32; NR] = dst.try_into().expect("NR-wide panel row");
            *dst = std::array::from_fn(|c| srcs[c][p]);
        }
        return;
    }
    for c in 0..nr {
        let brow = &b[(j0 + c) * k..(j0 + c) * k + k];
        for (p, &v) in brow.iter().enumerate() {
            panel[p * NR + c] = v;
        }
    }
    if nr < NR {
        for dst in panel.chunks_exact_mut(NR) {
            for v in &mut dst[nr..] {
                *v = 0.0;
            }
        }
    }
}

/// Shared tile driver: packs one `NR`-column panel at a time, then sweeps the
/// `MR`-row tiles of `out` against it (each packed panel is reused by every
/// row tile, which is where the cache blocking pays off).
fn gemm_tiles(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    out: &mut [f32],
    mut pack: impl FnMut(usize, usize, &mut [f32]),
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty reduction: every element is the empty sum, exactly +0.0.
        out.fill(0.0);
        return;
    }
    let mut panel = vec![0.0f32; k * NR];
    let mut j0 = 0;
    while j0 < n {
        let nr = NR.min(n - j0);
        pack(j0, nr, &mut panel);
        let mut i0 = 0;
        while i0 < m {
            let mr = MR.min(m - i0);
            let a_tile = &a[i0 * k..];
            let out_tile = &mut out[i0 * n + j0..];
            match mr {
                6 => kernel::<6>(k, a_tile, k, &panel, out_tile, n, nr),
                5 => kernel::<5>(k, a_tile, k, &panel, out_tile, n, nr),
                4 => kernel::<4>(k, a_tile, k, &panel, out_tile, n, nr),
                3 => kernel::<3>(k, a_tile, k, &panel, out_tile, n, nr),
                2 => kernel::<2>(k, a_tile, k, &panel, out_tile, n, nr),
                _ => kernel::<1>(k, a_tile, k, &panel, out_tile, n, nr),
            }
            i0 += mr;
        }
        j0 += nr;
    }
}

/// Blocked matrix product on raw row-major slices:
/// `out[m, n] = a[m, k] · b[k, n]`.
///
/// `out` is fully overwritten (it needs no zeroing between reuses), which is
/// what lets the batched gradient engine run this kernel straight into arena
/// scratch buffers and flat parameter-gradient slices. Results are
/// bit-identical to [`crate::ops::matmul_reference`]; see the module docs for
/// the accumulation-order argument.
///
/// # Panics
///
/// Panics when any slice length disagrees with the stated dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm: lhs is not [m, k]");
    assert_eq!(b.len(), k * n, "gemm: rhs is not [k, n]");
    assert_eq!(out.len(), m * n, "gemm: out is not [m, n]");
    gemm_tiles(m, k, n, a, out, |j0, nr, panel| {
        pack_panel(b, n, j0, nr, panel);
    });
}

/// Blocked matrix product with the right-hand side transposed, on raw
/// row-major slices: `out[m, n] = a[m, k] · b[n, k]ᵀ`.
///
/// The transpose happens during panel packing, so the micro-kernel (and
/// therefore the accumulation order) is exactly the one [`gemm`] uses: results
/// are bit-identical to [`crate::ops::matmul_nt_reference`] *and* to
/// `gemm(m, k, n, a, transpose(b), out)` for all inputs, in the sense of the
/// module's contract (NaN at the same positions, sign and payload free).
///
/// # Panics
///
/// Panics when any slice length disagrees with the stated dimensions.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: lhs is not [m, k]");
    assert_eq!(b.len(), n * k, "gemm_nt: rhs is not [n, k]");
    assert_eq!(out.len(), m * n, "gemm_nt: out is not [m, n]");
    gemm_tiles(m, k, n, a, out, |j0, nr, panel| {
        pack_panel_t(b, k, j0, nr, panel);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive i-k-j product, the accumulation order the tiles must reproduce.
    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    fn ramp(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| (((i as u64).wrapping_mul(2654435761) ^ seed) % 97) as f32 * 0.11 - 5.0)
            .collect()
    }

    #[test]
    fn blocked_gemm_is_bit_identical_to_naive_on_ragged_shapes() {
        // Tile-edge shapes: 1, MR±1, NR±1, exact multiples and primes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR, 3, NR),
            (MR - 1, 5, NR - 1),
            (MR + 1, 7, NR + 1),
            (2 * MR, 13, 2 * NR),
            (5, 17, 11),
            (13, 2, 29),
        ] {
            let a = ramp(m * k, 1);
            let b = ramp(k * n, 2);
            let mut out = vec![f32::NAN; m * n]; // stale garbage must be overwritten
            gemm(m, k, n, &a, &b, &mut out);
            let expect = naive(m, k, n, &a, &b);
            assert_eq!(
                bit_mismatch(&out, &expect),
                None,
                "gemm mismatch at [{m},{k}]x[{k},{n}]"
            );
        }
    }

    #[test]
    fn gemm_nt_matches_gemm_of_transpose_bitwise() {
        let (m, k, n) = (MR + 2, 9, NR + 3);
        let a = ramp(m * k, 3);
        let bt = ramp(n * k, 4); // [n, k]
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut fast = vec![0.0f32; m * n];
        let mut reference = vec![0.0f32; m * n];
        gemm_nt(m, k, n, &a, &bt, &mut fast);
        gemm(m, k, n, &a, &b, &mut reference);
        assert_eq!(bit_mismatch(&fast, &reference), None);
    }

    #[test]
    fn bit_mismatch_compares_bits_but_not_nan_sign_or_payload() {
        let neg_nan = f32::from_bits(0xFFC0_0000);
        let payload_nan = f32::from_bits(0x7FC0_0001);
        assert_eq!(bit_mismatch(&[1.0, f32::NAN], &[1.0, neg_nan]), None);
        assert_eq!(bit_mismatch(&[payload_nan], &[f32::NAN]), None);
        assert_eq!(bit_mismatch(&[1.0, 0.0], &[1.0, -0.0]), Some(1));
        assert_eq!(bit_mismatch(&[f32::NAN], &[f32::INFINITY]), Some(0));
        assert_eq!(bit_mismatch(&[2.0, 3.0], &[2.0]), Some(1));
        assert_eq!(bit_mismatch(&[], &[]), None);
    }

    #[test]
    fn non_finite_rhs_values_propagate_through_zero_lhs() {
        // 0 · NaN = NaN and 0 · Inf = NaN: the zero-skip bug this module's
        // kernels must never reintroduce.
        let a = vec![0.0f32, 1.0];
        let b = vec![f32::NAN, f32::INFINITY];
        let mut out = vec![0.0f32; 1];
        gemm(1, 2, 1, &a, &b, &mut out);
        assert!(out[0].is_nan());
        let mut out_nt = vec![0.0f32; 1];
        gemm_nt(1, 2, 1, &a, &b, &mut out_nt);
        assert!(out_nt[0].is_nan());
    }

    #[test]
    fn degenerate_dimensions_are_handled() {
        // k == 0: empty reduction overwrites stale output with +0.0.
        let mut out = vec![f32::NAN; 6];
        gemm(2, 0, 3, &[], &[], &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
        let mut out_nt = vec![f32::NAN; 6];
        gemm_nt(3, 0, 2, &[], &[], &mut out_nt);
        assert!(out_nt.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
        // m == 0 / n == 0: nothing to write.
        gemm(0, 4, 3, &[], &ramp(12, 5), &mut []);
        gemm(3, 4, 0, &ramp(12, 6), &[], &mut []);
    }
}
