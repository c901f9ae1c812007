//! Cache-blocked, register-tiled matrix-multiplication micro-kernels.
//!
//! [`gemm`] is the engine behind [`crate::ops::matmul`]; [`gemm_nt`] computes
//! `a · bᵀ` for the batched gradient engine and stores it transposed. Both
//! walk the output matrix in
//! `MR`×`NR` register tiles: the right-hand operand is first packed, `NR`
//! columns at a time, into a `[k × NR]` panel laid out so the micro-kernel
//! streams it sequentially, and each tile keeps its `MR·NR` partial sums in
//! vector registers. SIMD lanes map *across output columns*, never across the
//! `k` reduction.
//!
//! # Tile size
//!
//! The tile is chosen at build time.
//!
//! * **AVX-512 builds** (`cfg(target_feature = "avx512f")`, which the repo's
//!   default `target-cpu=native` turns on for an AVX-512 host) run a 12×16
//!   tile written in explicit 512-bit intrinsics: a tile row is one `zmm`
//!   register, so the twelve accumulators, the current panel row and one
//!   broadcast of `a[i][p]` use 14 of the 32 vector registers. Timed on the
//!   scaled zoo models' convolution GEMMs (fastest of 3000 calls per
//!   shape), 12×16 and 16×16 tied and 8×16 was 10–30% slower: the input
//!   gradient's small `k` (the output channels) leaves too little work per
//!   8-row tile to hide its loads and stores.
//! * **Every other build** runs the portable 6×16 tile, the BLIS-style sgemm
//!   tile for a 16-register vector file (AVX2's `ymm0..15`): a tile row is
//!   two 8-lane vectors, so the twelve two-vector accumulators, the two
//!   vectors of the current panel row and one broadcast fit in sixteen
//!   registers without spilling. Its inner loops have constant trip counts
//!   (`MR`, `NR`), so they unroll and auto-vectorize. On the engine's
//!   convolution GEMM shapes 6×16 was faster than 8×8, 12×16 and 8×32.
//!
//! The 512-bit tile is written by hand because the compiler does not write
//! it: LLVM prefers 256-bit vectors on AVX-512 CPUs, and a native build of
//! the portable tile has packed `vmulps`/`vaddps` on `ymm` and `xmm`
//! registers only, none on `zmm`. Forcing 512-bit auto-vectorization
//! (`-C target-feature=-prefer-256-bit`) widens the portable tile too, but it
//! changes every other loop of the build as well, and on one `cifar-scaled`
//! sample's convolution GEMMs it stayed slower than the hand-written tile
//! (142 against 128 µs, fastest of 3000 calls per shape). The intrinsics
//! live in the `avx512` submodule, the one module in the workspace where `unsafe_code` is allowed; plain asserts bound every
//! pointer offset it uses before it dereferences one.
//!
//! # Full-width panels
//!
//! A panel is full width when `NR` output columns remain (`nr == NR`), which
//! is every panel but the last of a ragged `n`. There, `pack_panel` and
//! `pack_panel_t` write each panel row, and the portable micro-kernel stores
//! each tile row, as one fixed `[f32; NR]` array. A `copy_from_slice` of
//! runtime length compiles to a `memcpy` call, and on small-`k` products (a
//! convolution's input gradient has `k` = output channels) those calls cost
//! as much as the arithmetic. Edge panels copy `nr` columns and zero the
//! rest; the 512-bit tile writes an edge tile row with one masked store.
//!
//! # Transposed store
//!
//! [`gemm_nt`] runs the same tiles as [`gemm`] but writes tile element
//! `(r, c)` to `out[c][r]`, so the product `a · bᵀ` lands as `[n, m]`. The
//! batched engine's convolution weight gradient computes
//! `∂L/∂Wᵀ = cols · ∂L/∂outᵀ`, reading the large im2col block in place as the
//! left operand and packing only the small `∂L/∂out`, and stores it through
//! this path straight into the `[OC, C·KH·KW]` parameter-gradient slice.
//! Swapping the operands instead would give that layout in row order but
//! pack the large block. A transposed tile spills its accumulators once and
//! writes `nr` runs of `M` contiguous elements.
//!
//! # Bit-identity contract
//!
//! Every output element is produced by **one** accumulator that starts at
//! `+0.0` and folds `a[i][p] * b[p][j]` over `p = 0..k` in ascending order —
//! exactly the accumulation order of the naive reference loops
//! ([`crate::ops::matmul_reference`] / [`crate::ops::matmul_nt_reference`]).
//! Tiling only interleaves *independent* per-element folds; it never splits,
//! reorders or pairwise-reduces a single fold. Neither tile contracts a
//! multiply and an add into an FMA: rustc never does so on its own, and the
//! 512-bit tile issues one `_mm512_mul_ps` and then one `_mm512_add_ps` per
//! step. Results are therefore bit-identical to the references for all
//! inputs, ±Inf and signed zeros included, whichever tile the build runs. A
//! NaN result is NaN at exactly the same positions, but its sign and payload
//! are not pinned: Rust leaves them unspecified, and LLVM may commute an
//! `fadd` or `fmul`, which changes which operand's NaN survives.
//! [`bit_mismatch`] is the comparison this contract is stated in. Edge tiles
//! (when `m % MR != 0` or `n % NR != 0`) run the same micro-kernel with fewer
//! live rows/columns; padded panel columns are zeroed and their accumulators
//! discarded, so they cannot contaminate real outputs. The differential
//! proptests in `crates/tensor/tests/proptests.rs` pin this contract across
//! ragged shapes, and CI runs them in AVX-512, AVX2 and baseline builds.

/// Rows per register tile (live accumulator rows in the micro-kernel): 12
/// in AVX-512 builds, 6 otherwise.
pub const MR: usize = tile::MR;
/// Columns per register tile: one 512-bit or two 256-bit vectors of `f32`
/// per row.
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

/// Where a micro-kernel writes tile element `(r, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    /// To `out[r*ldc + c]`: the product as computed.
    Rows,
    /// To `out[c*ldc + r]`: the product transposed.
    Cols,
}

/// The transposed store of a finished tile: column `c < nr` of `acc` becomes
/// the `M` contiguous elements at `out[c*ldc ..]`.
fn store_cols<const M: usize>(acc: &[[f32; NR]; M], out: &mut [f32], ldc: usize, nr: usize) {
    for (c, dst) in out.chunks_mut(ldc).take(nr).enumerate() {
        let dst: &mut [f32; M] = (&mut dst[..M]).try_into().expect("M-long tile column");
        *dst = std::array::from_fn(|r| acc[r][c]);
    }
}

/// Runs the micro-kernel `kernel::<M>(k, a, lda, panel, out, ldc, nr, store)`
/// for a tile of `$mr` live rows, one monomorphized kernel per listed `M`.
macro_rules! dispatch_rows {
    ($mr:expr, $args:tt, $($m:literal)+) => {
        match $mr {
            $($m => kernel::<$m> $args,)+
            mr => unreachable!("a tile has 1..=MR rows, not {mr}"),
        }
    };
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[allow(unsafe_code)]
mod avx512;
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use avx512 as tile;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
use portable as tile;

/// The portable tile: `MR` rows of two 256-bit vectors, auto-vectorized.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod portable {
    use super::{store_cols, Store, NR};

    /// Rows per portable register tile.
    pub(super) const MR: usize = 6;

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
        dispatch_rows!(mr, (k, a, lda, panel, out, ldc, nr, store), 1 2 3 4 5 6)
    }

    /// `MR`×`NR` register-tile micro-kernel with `M ∈ 1..=MR` live rows.
    ///
    /// `a` holds the tile's rows at stride `lda` (row `r` is
    /// `a[r*lda .. r*lda+k]`), `panel` is the packed `[k × NR]` right-hand
    /// panel, and the first `nr` columns of the tile are written to `out` at
    /// stride `ldc`, as rows or transposed as `store` says. Padded panel
    /// columns (`c >= nr`) are computed into accumulators that are simply
    /// never written back.
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
        match store {
            Store::Cols => store_cols(&acc, out, ldc, nr),
            Store::Rows if nr == NR => {
                // A full-width tile row is one fixed-size store, not a copy
                // call.
                for (r, row) in acc.iter().enumerate() {
                    let dst: &mut [f32; NR] = (&mut out[r * ldc..r * ldc + NR])
                        .try_into()
                        .expect("NR-wide tile row");
                    *dst = *row;
                }
            }
            Store::Rows => {
                for (r, row) in acc.iter().enumerate() {
                    out[r * ldc..r * ldc + nr].copy_from_slice(&row[..nr]);
                }
            }
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
/// row tile, which is where the cache blocking pays off). `out` is `[m, n]`
/// for [`Store::Rows`] and `[n, m]` for [`Store::Cols`].
fn gemm_tiles(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    out: &mut [f32],
    store: Store,
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
            let (out_tile, ldc) = match store {
                Store::Rows => (&mut out[i0 * n + j0..], n),
                Store::Cols => (&mut out[j0 * m + i0..], m),
            };
            tile::tile(mr, k, a_tile, k, &panel, out_tile, ldc, nr, store);
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
    gemm_tiles(m, k, n, a, out, Store::Rows, |j0, nr, panel| {
        pack_panel(b, n, j0, nr, panel);
    });
}

/// Blocked matrix product with the right-hand side transposed, stored
/// transposed: `out[n, m] = (a[m, k] · b[n, k]ᵀ)ᵀ`, so `out[j*m + i]` is the
/// dot product of row `i` of `a` and row `j` of `b`.
///
/// `a` is read in place as the tile rows and only `b` is packed (transposed,
/// into the panels); the tiles are stored transposed (see the module docs'
/// "Transposed store"). Every element is the same fold as in [`gemm`], so
/// results are bit-identical to the transpose of
/// [`crate::ops::matmul_nt_reference`], in the sense of the module's
/// contract. `out` is fully overwritten.
///
/// # Panics
///
/// Panics when any slice length disagrees with the stated dimensions.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: lhs is not [m, k]");
    assert_eq!(b.len(), n * k, "gemm_nt: rhs is not [n, k]");
    assert_eq!(out.len(), m * n, "gemm_nt: out is not [n, m]");
    gemm_tiles(m, k, n, a, out, Store::Cols, |j0, nr, panel| {
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
        let mut fast = vec![f32::NAN; n * m]; // [n, m]
        let mut reference = vec![0.0f32; m * n];
        gemm_nt(m, k, n, &a, &bt, &mut fast);
        gemm(m, k, n, &a, &b, &mut reference);
        let reference_t: Vec<f32> = (0..n * m).map(|t| reference[(t % m) * n + t / m]).collect();
        assert_eq!(bit_mismatch(&fast, &reference_t), None);
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
        gemm_nt(0, 4, 3, &[], &ramp(12, 7), &mut []);
        // m == 0 / n == 0: nothing to write.
        gemm(0, 4, 3, &[], &ramp(12, 5), &mut []);
        gemm(3, 4, 0, &ramp(12, 6), &[], &mut []);
    }
}
