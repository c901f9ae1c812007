//! Cache-blocked, register-tiled matrix-multiplication micro-kernels.
//!
//! [`gemm`] is the engine behind [`crate::ops::matmul`]; [`gemm_nt`] computes
//! `a · bᵀ` and stores it transposed. The lowering-free convolution of
//! [`crate::conv::ConvPlan`] drives the same tiles directly. Every product
//! walks its output in `MR`×`NR` register tiles: the right-hand operand is
//! first packed, `NR` columns at a time, into a `[k × NR]` panel laid out so
//! the micro-kernel streams it sequentially, and each tile keeps its `MR·NR`
//! partial sums in vector registers. SIMD lanes map *across output columns*,
//! never across the `k` reduction.
//!
//! # Left-operand addressing
//!
//! A tile reads its left operand in place, through row and step offsets:
//! element `(r, p)` is `data[row_off(r) + step_off(p)]`. A row-major
//! `[m, k]` matrix is the special case `r·k + p`. A convolution passes two
//! offset tables instead, so its tiles read the zero-padded input plane as
//! the im2col block it stands for, without writing that block: see
//! [`crate::conv::ConvPlan`]. One kernel serves both, in each tile.
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
//! live in the `avx512` submodule, the one module in the workspace where
//! `unsafe_code` is allowed; plain asserts bound every pointer offset it uses
//! before it dereferences one.
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
//! # Transposed store and added runs
//!
//! [`gemm_nt`] runs the same tiles as [`gemm`] but writes tile element
//! `(r, c)` to `out[c][r]`, so the product `a · bᵀ` lands as `[n, m]`. The
//! convolution weight gradient `∂L/∂Wᵀ = cols · ∂L/∂outᵀ` stores through this
//! path straight into the `[OC, C·KH·KW]` parameter-gradient slice, reading
//! the input plane in place as the left operand and packing only the small
//! `∂L/∂out`. A transposed tile spills its accumulators once and writes `nr`
//! runs of `M` contiguous elements.
//!
//! The convolution input gradient adds each finished tile into an image
//! instead of storing it: runs of tile columns, each added into a run of
//! contiguous destination elements, the columns in no run dropped. The
//! 512-bit tile moves each run down to lane 0 with one compress and adds it
//! with a masked load and store.
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

/// Offsets of a tile operand's rows or of its reduction steps.
pub(crate) trait Offsets: Copy {
    /// Offset `i`.
    fn at(self, i: usize) -> usize;
    /// A bound that `at(i)` does not exceed for any `i < n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` runs past the offsets there are.
    fn bound(self, n: usize) -> usize;
    /// Offsets `0 .. n`, in order.
    fn iter(self, n: usize) -> impl Iterator<Item = usize>;
}

/// Offsets `i · stride`: the rows of a row-major matrix (`stride` = its row
/// length) or the steps along one of its rows (`stride` = 1).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Strided(pub usize);

impl Offsets for Strided {
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        i * self.0
    }

    fn bound(self, n: usize) -> usize {
        n.saturating_sub(1) * self.0
    }

    #[inline(always)]
    fn iter(self, n: usize) -> impl Iterator<Item = usize> {
        (0..n).map(move |i| i * self.0)
    }
}

/// Offsets read from a table, whose maximum is found once, when it is built.
#[derive(Debug, Clone, Default)]
pub(crate) struct OffsetTable {
    offs: Vec<usize>,
    max: usize,
}

impl OffsetTable {
    /// The table of `offs`.
    pub(crate) fn new(offs: Vec<usize>) -> Self {
        let max = offs.iter().copied().max().unwrap_or(0);
        Self { offs, max }
    }

    /// The offsets, in order.
    pub(crate) fn as_slice(&self) -> &[usize] {
        &self.offs
    }
}

impl Offsets for &OffsetTable {
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        self.offs[i]
    }

    fn bound(self, n: usize) -> usize {
        assert!(
            n <= self.offs.len(),
            "{n} offsets asked of a table of {}",
            self.offs.len()
        );
        self.max
    }

    #[inline(always)]
    fn iter(self, n: usize) -> impl Iterator<Item = usize> {
        self.offs[..n].iter().copied()
    }
}

/// A tile's left operand: element `(r, p)` is `data[rows.at(r) + steps.at(p)]`.
///
/// A row-major `[m, k]` matrix is `rows = Strided(k)`, `steps = Strided(1)`.
/// A convolution reads its zero-padded input plane in place through two
/// offset tables instead: the window origin of each output position and the
/// offset of each tap `(c, kh, kw)` from that origin (see `conv::ConvPlan`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lhs<'a, R, S> {
    pub(crate) data: &'a [f32],
    pub(crate) rows: R,
    pub(crate) steps: S,
}

/// A row-major `[_, k]` matrix as a tile's left operand.
pub(crate) fn row_major(data: &[f32], k: usize) -> Lhs<'_, Strided, Strided> {
    Lhs {
        data,
        rows: Strided(k),
        steps: Strided(1),
    }
}

/// A run of tile columns added into a destination row: lanes
/// `lane .. lane+len` of tile row `r` are added to the `len` elements at
/// `out[r*ldc + dst ..]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) lane: usize,
    pub(crate) len: usize,
    pub(crate) dst: usize,
}

/// Where a micro-kernel puts tile element `(r, c)`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Store<'a> {
    /// Written to `out[r*ldc + c]`: the product as computed.
    Rows(usize),
    /// Written to `out[c*ldc + r]`: the product transposed.
    Cols(usize),
    /// Added to `out[r*ldc + run.dst + (c - run.lane)]` for the columns of
    /// each run; columns in no run are dropped.
    Add(usize, &'a [Run]),
}

/// The transposed store of a finished tile: column `c < nr` of `acc` becomes
/// the `M` contiguous elements at `out[c*ldc ..]`.
fn store_cols<const M: usize>(acc: &[[f32; NR]; M], out: &mut [f32], ldc: usize, nr: usize) {
    for (c, dst) in out.chunks_mut(ldc).take(nr).enumerate() {
        let dst: &mut [f32; M] = (&mut dst[..M]).try_into().expect("M-long tile column");
        *dst = std::array::from_fn(|r| acc[r][c]);
    }
}

/// Runs the micro-kernel `kernel::<M, _, _>(k, a, i0, panel, out, nr, store)`
/// for a tile of `$mr` live rows, one monomorphized kernel per listed `M`.
macro_rules! dispatch_rows {
    ($mr:expr, $args:tt, $($m:literal)+) => {
        match $mr {
            $($m => kernel::<$m, R, S> $args,)+
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
    use super::{store_cols, Lhs, Offsets, Store, NR};

    /// Rows per portable register tile.
    pub(super) const MR: usize = 6;

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
        dispatch_rows!(mr, (k, a, i0, panel, out, nr, store), 1 2 3 4 5 6)
    }

    /// The `M`×`NR` tile of products: row `r` folds
    /// `data[rows[r] + steps.at(p)] * panel[p][..]` over `p = 0..k` from
    /// `+0.0`.
    ///
    /// The tile is returned by value, so its accumulators stay in
    /// registers, and every row is read through a slice of one common
    /// length, so one bounds check covers a step. Folding into an array the
    /// store then reads kept some accumulators in memory, stored on every
    /// step, and indexing `data` directly checks each row: in an
    /// `x86-64-v3` build those ran the scaled models' convolution products
    /// 1.6–2.1× and 1.2–1.5× slower.
    #[inline(always)]
    fn products<const M: usize, S: Offsets>(
        k: usize,
        data: &[f32],
        rows: [usize; M],
        steps: S,
        panel: &[f32],
    ) -> [[f32; NR]; M] {
        let last = steps.bound(k);
        let lhs: [&[f32]; M] = std::array::from_fn(|r| &data[rows[r]..][..=last]);
        let mut acc = [[0.0f32; NR]; M];
        for (bp, step) in panel.chunks_exact(NR).zip(steps.iter(k)) {
            for r in 0..M {
                let av = lhs[r][step];
                for (accv, &bv) in acc[r].iter_mut().zip(bp) {
                    *accv += av * bv;
                }
            }
        }
        acc
    }

    /// `MR`×`NR` register-tile micro-kernel with `M ∈ 1..=MR` live rows.
    ///
    /// Tile row `r` is row `i0 + r` of the left operand `a`, `panel` is the
    /// packed `[k × NR]` right-hand panel, and the first `nr` columns of the
    /// tile go to `out` as `store` says. Padded panel columns (`c >= nr`) are
    /// computed into accumulators that are simply never written back.
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
        let rows: [usize; M] = std::array::from_fn(|r| a.rows.at(i0 + r));
        // The 512-bit tile's bound on every read of the left operand, so an
        // offset table that runs past its data fails here in both tiles.
        let top = rows.iter().max().copied().unwrap_or(0) + a.steps.bound(k);
        assert!(top < a.data.len(), "lhs rows out of bounds");
        let acc = products::<M, S>(k, a.data, rows, a.steps, panel);
        match store {
            Store::Cols(ldc) => store_cols(&acc, out, ldc, nr),
            Store::Rows(ldc) if nr == NR => {
                // A full-width tile row is one fixed-size store, not a copy
                // call.
                for (r, row) in acc.iter().enumerate() {
                    let dst: &mut [f32; NR] = (&mut out[r * ldc..r * ldc + NR])
                        .try_into()
                        .expect("NR-wide tile row");
                    *dst = *row;
                }
            }
            Store::Rows(ldc) => {
                for (r, row) in acc.iter().enumerate() {
                    out[r * ldc..r * ldc + nr].copy_from_slice(&row[..nr]);
                }
            }
            Store::Add(ldc, runs) => {
                for (r, row) in acc.iter().enumerate() {
                    for run in runs {
                        let dst = &mut out[r * ldc + run.dst..][..run.len];
                        for (d, &v) in dst.iter_mut().zip(&row[run.lane..]) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Pack columns `j0 .. j0+nr` of a row-major `[k, n]` matrix into a `[k × NR]`
/// panel; panel columns past `nr` are zeroed so edge tiles read defined data.
pub(crate) fn pack_panel(b: &[f32], n: usize, j0: usize, nr: usize, panel: &mut [f32]) {
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
        dst[nr..].fill(0.0);
    }
}

/// Pack rows `j0 .. j0+nr` of a row-major `[n, k]` matrix, transposed, into a
/// `[k × NR]` panel (panel entry `(p, c)` = `b[j0+c][p]`); columns past `nr`
/// are zeroed.
pub(crate) fn pack_panel_t(b: &[f32], k: usize, j0: usize, nr: usize, panel: &mut [f32]) {
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
    for dst in panel.chunks_exact_mut(NR).take(k) {
        dst[nr..].fill(0.0);
    }
}

/// Runs every `MR`-row tile of an `m`-row left operand against one packed
/// `[k × NR]` panel whose first `nr` columns are live. `out` starts at the
/// panel's first output column: `out[0]` is element `(0, 0)` of the panel's
/// block, and `store` says where the others go.
pub(crate) fn sweep_rows<R: Offsets, S: Offsets>(
    m: usize,
    k: usize,
    a: Lhs<'_, R, S>,
    panel: &[f32],
    nr: usize,
    out: &mut [f32],
    store: Store<'_>,
) {
    let mut i0 = 0;
    while i0 < m {
        let mr = MR.min(m - i0);
        let at = match store {
            Store::Rows(ldc) | Store::Add(ldc, _) => i0 * ldc,
            Store::Cols(_) => i0,
        };
        tile::tile(mr, k, a, i0, panel, &mut out[at..], nr, store);
        i0 += mr;
    }
}

/// Blocked matrix product on raw row-major slices:
/// `out[m, n] = a[m, k] · b[k, n]`.
///
/// `out` is fully overwritten (it needs no zeroing between reuses). Results
/// are bit-identical to [`crate::ops::matmul_reference`]; see the module docs
/// for the accumulation-order argument.
///
/// # Panics
///
/// Panics when any slice length disagrees with the stated dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm: lhs is not [m, k]");
    assert_eq!(b.len(), k * n, "gemm: rhs is not [k, n]");
    assert_eq!(out.len(), m * n, "gemm: out is not [m, n]");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty reduction: every element is the empty sum, exactly +0.0.
        out.fill(0.0);
        return;
    }
    let mut panel = vec![0.0f32; k * NR];
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        pack_panel(b, n, j0, nr, &mut panel);
        sweep_rows(
            m,
            k,
            row_major(a, k),
            &panel,
            nr,
            &mut out[j0..],
            Store::Rows(n),
        );
    }
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
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mut panel = vec![0.0f32; k * NR];
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        pack_panel_t(b, k, j0, nr, &mut panel);
        sweep_rows(
            m,
            k,
            row_major(a, k),
            &panel,
            nr,
            &mut out[j0 * m..],
            Store::Cols(m),
        );
    }
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
