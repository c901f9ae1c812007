//! Compressed covered-unit sets: the storage format of both cache tiers.
//!
//! A [`CoveredSet`] represents the same mathematical object as a dense
//! [`Bitset`] — "the set of parameters (or neurons) activated by one test
//! input" — but partitions its positions into fixed 4096-bit blocks, each
//! stored adaptively in whichever of four forms is smallest:
//!
//! * `Empty` — no bit set (zero payload bytes),
//! * `Full` — every bit set (zero payload bytes),
//! * `Sparse` — up to [`SPARSE_MAX`] sorted `u16` in-block indices,
//! * `Dense` — the raw `u64` words, with a cached popcount.
//!
//! Forward-only criteria like `neuron-activation` / `topk-neuron` produce
//! very sparse sets, so most blocks collapse to `Empty` or a short `Sparse`
//! run and the cache holds many times more entries at the same byte budget.
//! The coverage kernels (`union_with`, `union_gain`, `count_ones`,
//! `iter_ones`) operate directly on the compressed form, block-wise with
//! `Empty`/`Full` early-exits, and are pinned bit-identical to the dense
//! [`Bitset`] reference by the differential suites in
//! `crates/core/tests/proptests.rs`.
//!
//! Setting `DNNIP_CACHE_COMPRESS=0` (see [`CACHE_COMPRESS_ENV`]) forces every
//! block to the `Dense` form and makes the persistent encoding fall back to
//! the legacy dense payload — an escape hatch for debugging the compressed
//! representation out of the picture.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::bitset::Bitset;

/// Number of bit positions per block (64 backing `u64` words).
pub const BLOCK_BITS: usize = 4096;

/// Words per full block.
const BLOCK_WORDS: usize = BLOCK_BITS / 64;

/// Largest cardinality stored in the `Sparse` form. At 256 two-byte indices a
/// sparse block reaches the 512-byte break-even point with a dense block, the
/// same `bits / 16` threshold Roaring-style containers use.
pub const SPARSE_MAX: usize = BLOCK_BITS / 16;

/// Environment variable disabling the compressed representation (`0`, `false`
/// or `off` force all-dense blocks and the legacy dense disk payload; anything
/// else, or absence, leaves compression on). [`set_compress_enabled`]
/// overrides it at runtime.
pub const CACHE_COMPRESS_ENV: &str = "DNNIP_CACHE_COMPRESS";

/// Sentinel leading a compressed disk payload. A legacy dense payload starts
/// with its position count, and no real set has `u64::MAX` positions, so the
/// first eight bytes disambiguate the two encodings.
const COMPRESSED_SENTINEL: u64 = u64::MAX;

/// Version byte of the compressed payload layout.
const ENCODING_VERSION: u8 = 1;

fn compress_state() -> &'static AtomicBool {
    static STATE: OnceLock<AtomicBool> = OnceLock::new();
    STATE.get_or_init(|| {
        let on = !matches!(
            std::env::var(CACHE_COMPRESS_ENV).as_deref(),
            Ok("0") | Ok("false") | Ok("off")
        );
        AtomicBool::new(on)
    })
}

/// Whether newly built [`CoveredSet`]s use the compressed block forms
/// (default) or all-dense blocks (the `DNNIP_CACHE_COMPRESS=0` escape hatch).
pub fn compress_enabled() -> bool {
    compress_state().load(Ordering::Relaxed)
}

/// Override the [`CACHE_COMPRESS_ENV`] setting at runtime — used by benches
/// to A/B the compressed representation against the dense baseline in one
/// process. Affects only sets built after the call.
pub fn set_compress_enabled(on: bool) {
    compress_state().store(on, Ordering::Relaxed);
}

/// One 4096-bit block in its adaptive storage form.
#[derive(Debug, Clone)]
enum Block {
    /// No bit set.
    Empty,
    /// Every bit of the block (which may be a short tail block) set.
    Full,
    /// Sorted, strictly increasing in-block indices.
    Sparse(Vec<u16>),
    /// Raw words with a cached popcount.
    Dense { words: Box<[u64]>, ones: u32 },
}

impl Block {
    fn ones(&self, block_len: usize) -> usize {
        match self {
            Block::Empty => 0,
            Block::Full => block_len,
            Block::Sparse(idx) => idx.len(),
            Block::Dense { ones, .. } => *ones as usize,
        }
    }

    /// Bytes of heap payload behind this block (the enum header itself is
    /// accounted per-slot by [`CoveredSet::resident_bytes`]).
    fn heap_bytes(&self) -> usize {
        match self {
            Block::Empty | Block::Full => 0,
            Block::Sparse(idx) => idx.len() * 2,
            Block::Dense { words, .. } => words.len() * 8,
        }
    }
}

/// A fixed-length set of covered units stored block-compressed.
///
/// Semantically identical to a dense [`Bitset`] of the same length; see the
/// module docs for the representation.
#[derive(Debug, Clone)]
pub struct CoveredSet {
    len: usize,
    blocks: Vec<Block>,
}

/// Number of positions in block `bi` of a set with `len` positions.
fn block_len_of(len: usize, bi: usize) -> usize {
    (len - bi * BLOCK_BITS).min(BLOCK_BITS)
}

/// Mask of the used bits in the last word of a `bits`-position span.
fn tail_mask(bits: usize) -> u64 {
    let used = bits % 64;
    if used == 0 {
        u64::MAX
    } else {
        (1u64 << used) - 1
    }
}

/// Canonical block for raw words: `Empty` / `Full` / `Sparse` / `Dense` by
/// cardinality when compression is on, always `Dense` when it is off.
fn canonical_block(words: &[u64], block_len: usize, compress: bool) -> Block {
    debug_assert_eq!(words.len(), block_len.div_ceil(64));
    let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
    if !compress {
        return Block::Dense {
            words: words.to_vec().into_boxed_slice(),
            ones: ones as u32,
        };
    }
    if ones == 0 {
        Block::Empty
    } else if ones == block_len {
        Block::Full
    } else if ones <= SPARSE_MAX {
        let mut idx = Vec::with_capacity(ones);
        for (wi, &word) in words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                idx.push((wi * 64 + rest.trailing_zeros() as usize) as u16);
                rest &= rest - 1;
            }
        }
        Block::Sparse(idx)
    } else {
        Block::Dense {
            words: words.to_vec().into_boxed_slice(),
            ones: ones as u32,
        }
    }
}

/// Materialize a block into dense words (length `block_len.div_ceil(64)`).
fn block_to_words(block: &Block, block_len: usize) -> Vec<u64> {
    let nwords = block_len.div_ceil(64);
    match block {
        Block::Empty => vec![0; nwords],
        Block::Full => {
            let mut words = vec![u64::MAX; nwords];
            if let Some(last) = words.last_mut() {
                *last = tail_mask(block_len);
            }
            words
        }
        Block::Sparse(idx) => {
            let mut words = vec![0u64; nwords];
            for &i in idx {
                words[i as usize / 64] |= 1u64 << (i % 64);
            }
            words
        }
        Block::Dense { words, .. } => words.to_vec(),
    }
}

impl CoveredSet {
    /// Create an empty set with `len` positions.
    pub fn new(len: usize) -> Self {
        let compress = compress_enabled();
        let blocks = (0..len.div_ceil(BLOCK_BITS))
            .map(|bi| {
                if compress {
                    Block::Empty
                } else {
                    let nwords = block_len_of(len, bi).div_ceil(64);
                    Block::Dense {
                        words: vec![0u64; nwords].into_boxed_slice(),
                        ones: 0,
                    }
                }
            })
            .collect();
        Self { len, blocks }
    }

    /// Compress a dense [`Bitset`], honoring the [`CACHE_COMPRESS_ENV`]
    /// escape hatch (all-dense blocks when compression is off).
    pub fn from_bitset(bits: &Bitset) -> Self {
        Self::from_bitset_with(bits, compress_enabled())
    }

    /// Compress a dense [`Bitset`] into canonical adaptive blocks, ignoring
    /// the escape hatch — the deterministic constructor the differential
    /// tests use.
    pub fn from_bitset_compressed(bits: &Bitset) -> Self {
        Self::from_bitset_with(bits, true)
    }

    /// Wrap a dense [`Bitset`] in all-dense blocks, ignoring the escape hatch
    /// — the debug representation `DNNIP_CACHE_COMPRESS=0` forces.
    pub fn from_bitset_uncompressed(bits: &Bitset) -> Self {
        Self::from_bitset_with(bits, false)
    }

    fn from_bitset_with(bits: &Bitset, compress: bool) -> Self {
        let len = bits.len();
        let words = bits.words();
        let blocks = (0..len.div_ceil(BLOCK_BITS))
            .map(|bi| {
                let block_len = block_len_of(len, bi);
                let lo = bi * BLOCK_WORDS;
                canonical_block(&words[lo..lo + block_len.div_ceil(64)], block_len, compress)
            })
            .collect();
        Self { len, blocks }
    }

    /// Expand back to the dense [`Bitset`] reference form.
    pub fn to_bitset(&self) -> Bitset {
        let mut words = Vec::with_capacity(self.len.div_ceil(64));
        for (bi, block) in self.blocks.iter().enumerate() {
            words.extend(block_to_words(block, block_len_of(self.len, bi)));
        }
        Bitset::from_words(words, self.len).expect("block words are in-range by construction")
    }

    /// Number of positions (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits — an O(blocks) sum of cached per-block counts.
    pub fn count_ones(&self) -> usize {
        self.blocks
            .iter()
            .enumerate()
            .map(|(bi, b)| b.ones(block_len_of(self.len, bi)))
            .sum()
    }

    /// Fraction of positions set, in `[0, 1]` (0.0 for an empty set) —
    /// bit-identical to [`Bitset::density`].
    pub fn density(&self) -> f32 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f32 / self.len as f32
        }
    }

    /// Whether position `i` is set (out-of-range queries return `false`).
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let off = (i % BLOCK_BITS) as u16;
        match &self.blocks[i / BLOCK_BITS] {
            Block::Empty => false,
            Block::Full => true,
            Block::Sparse(idx) => idx.binary_search(&off).is_ok(),
            Block::Dense { words, .. } => (words[off as usize / 64] >> (off % 64)) & 1 == 1,
        }
    }

    /// In-place union: `self |= other`, block-wise with `Empty`/`Full`
    /// early-exits.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ — unions only make sense over the same
    /// unit space.
    pub fn union_with(&mut self, other: &CoveredSet) {
        assert_eq!(self.len, other.len, "covered-set length mismatch in union");
        let compress = compress_enabled();
        for (bi, (a, b)) in self.blocks.iter_mut().zip(&other.blocks).enumerate() {
            let block_len = block_len_of(self.len, bi);
            let replacement = match (&*a, b) {
                (_, Block::Empty) | (Block::Full, _) => None,
                (_, Block::Full) => Some(Block::Full),
                (Block::Empty, _) => Some(b.clone()),
                (Block::Sparse(ai), Block::Sparse(bi_idx)) => Some(sparse_to_block(
                    merge_sorted(ai, bi_idx),
                    block_len,
                    compress,
                )),
                _ => {
                    let mut words = block_to_words(a, block_len);
                    for (w, o) in words.iter_mut().zip(block_to_words(b, block_len)) {
                        *w |= o;
                    }
                    Some(canonical_block(&words, block_len, compress))
                }
            };
            if let Some(block) = replacement {
                *a = block;
            }
        }
    }

    /// Number of bits set in `other` that are **not** set in `self` — the
    /// marginal coverage gain of adding `other` to a running union, computed
    /// block-wise without materializing the union.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn union_gain(&self, other: &CoveredSet) -> usize {
        assert_eq!(
            self.len, other.len,
            "covered-set length mismatch in union_gain"
        );
        self.blocks
            .iter()
            .zip(&other.blocks)
            .enumerate()
            .map(|(bi, (a, b))| {
                let block_len = block_len_of(self.len, bi);
                match (a, b) {
                    (_, Block::Empty) | (Block::Full, _) => 0,
                    (_, Block::Full) => block_len - a.ones(block_len),
                    (Block::Empty, _) => b.ones(block_len),
                    (Block::Sparse(ai), Block::Sparse(bi_idx)) => {
                        sorted_difference_count(bi_idx, ai)
                    }
                    (Block::Dense { words, .. }, Block::Sparse(bi_idx)) => bi_idx
                        .iter()
                        .filter(|&&i| (words[i as usize / 64] >> (i % 64)) & 1 == 0)
                        .count(),
                    (Block::Sparse(ai), Block::Dense { words, ones }) => {
                        let overlap = ai
                            .iter()
                            .filter(|&&i| (words[i as usize / 64] >> (i % 64)) & 1 == 1)
                            .count();
                        *ones as usize - overlap
                    }
                    (Block::Dense { words: aw, .. }, Block::Dense { words: bw, .. }) => aw
                        .iter()
                        .zip(bw.iter())
                        .map(|(x, y)| (y & !x).count_ones() as usize)
                        .sum(),
                }
            })
            .sum()
    }

    /// Union of an iterator of sets over `len` positions.
    pub fn union_of<'a>(len: usize, sets: impl IntoIterator<Item = &'a CoveredSet>) -> CoveredSet {
        let mut out = CoveredSet::new(len);
        for s in sets {
            out.union_with(s);
        }
        out
    }

    /// Iterate over the indices of the set bits in increasing order, walking
    /// blocks directly in their compressed forms.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(move |(bi, block)| {
            let base = bi * BLOCK_BITS;
            let block_len = block_len_of(self.len, bi);
            match block {
                Block::Empty => BlockOnes::Range(0..0),
                Block::Full => BlockOnes::Range(base..base + block_len),
                Block::Sparse(idx) => BlockOnes::Sparse {
                    base,
                    iter: idx.iter(),
                },
                Block::Dense { words, .. } => BlockOnes::Dense {
                    base,
                    words,
                    wi: 0,
                    cur: words.first().copied().unwrap_or(0),
                },
            }
        })
    }

    /// Bytes this set occupies in memory: the block table plus each block's
    /// heap payload. This is what [`crate::eval::ContentCache`] charges
    /// against its byte budget.
    pub fn resident_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<Block>()
            + self.blocks.iter().map(Block::heap_bytes).sum::<usize>()
    }

    /// Bytes the equivalent dense [`Bitset`] payload would occupy — the
    /// numerator of the cache's compression ratio.
    pub fn logical_bytes(&self) -> usize {
        self.len.div_ceil(64) * 8
    }

    /// Serialize into `out`. All-dense sets (in particular anything built
    /// under `DNNIP_CACHE_COMPRESS=0`) use the legacy dense layout — position
    /// count then raw words, byte-compatible with historical `Bitset`
    /// payloads; otherwise a sentinel-prefixed block-compressed layout.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let all_dense =
            !self.blocks.is_empty() && self.blocks.iter().all(|b| matches!(b, Block::Dense { .. }));
        if all_dense || self.blocks.is_empty() {
            // Legacy dense payload: u64 len, then the words.
            out.extend_from_slice(&(self.len as u64).to_le_bytes());
            for (bi, block) in self.blocks.iter().enumerate() {
                for w in block_to_words(block, block_len_of(self.len, bi)) {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
            return;
        }
        out.extend_from_slice(&COMPRESSED_SENTINEL.to_le_bytes());
        out.push(ENCODING_VERSION);
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for (bi, block) in self.blocks.iter().enumerate() {
            match block {
                Block::Empty => out.push(0),
                Block::Full => out.push(1),
                Block::Sparse(idx) => {
                    out.push(2);
                    out.extend_from_slice(&(idx.len() as u16).to_le_bytes());
                    for &i in idx {
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                }
                Block::Dense { words, ones } => {
                    out.push(3);
                    debug_assert_eq!(words.len(), block_len_of(self.len, bi).div_ceil(64));
                    out.extend_from_slice(&(*ones as u16).to_le_bytes());
                    for w in words.iter() {
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Deserialize a payload produced by [`CoveredSet::encode_into`] **or** a
    /// legacy dense `Bitset` payload. Any structural violation — bad tag,
    /// unsorted or out-of-range sparse index, popcount mismatch, stray bit
    /// past the length, trailing bytes — returns `None`, which the persistent
    /// tier surfaces as a silent cache miss.
    pub fn decode_bytes(bytes: &[u8]) -> Option<Self> {
        let head = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
        if head != COMPRESSED_SENTINEL {
            return Self::decode_legacy(bytes);
        }
        let mut r = Reader { bytes, pos: 8 };
        if r.u8()? != ENCODING_VERSION {
            return None;
        }
        let len = usize::try_from(r.u64()?).ok()?;
        // Every block costs at least its one tag byte, so a length implying
        // more blocks than remaining bytes is corrupt — reject before
        // trusting it for allocation.
        if len.div_ceil(BLOCK_BITS) > bytes.len().saturating_sub(r.pos) {
            return None;
        }
        let compress = compress_enabled();
        let mut blocks = Vec::with_capacity(len.div_ceil(BLOCK_BITS));
        for bi in 0..len.div_ceil(BLOCK_BITS) {
            let block_len = block_len_of(len, bi);
            let block = match r.u8()? {
                0 => Block::Empty,
                1 => Block::Full,
                2 => {
                    let count = r.u16()? as usize;
                    if count > block_len {
                        return None;
                    }
                    let mut idx = Vec::with_capacity(count);
                    let mut prev: Option<u16> = None;
                    for _ in 0..count {
                        let i = r.u16()?;
                        if i as usize >= block_len || prev.is_some_and(|p| p >= i) {
                            return None;
                        }
                        prev = Some(i);
                        idx.push(i);
                    }
                    Block::Sparse(idx)
                }
                3 => {
                    let ones = r.u16()? as usize;
                    let nwords = block_len.div_ceil(64);
                    let mut words = Vec::with_capacity(nwords);
                    for _ in 0..nwords {
                        words.push(r.u64()?);
                    }
                    if words
                        .last()
                        .is_some_and(|&w| w & !tail_mask(block_len) != 0)
                    {
                        return None;
                    }
                    let pop: usize = words.iter().map(|w| w.count_ones() as usize).sum();
                    if pop != ones {
                        return None;
                    }
                    Block::Dense {
                        words: words.into_boxed_slice(),
                        ones: ones as u32,
                    }
                }
                _ => return None,
            };
            // Re-canonicalize: tolerate non-canonical but valid payloads, and
            // honor the escape hatch for the in-memory form. A block already
            // in its canonical form is kept as decoded.
            let block = match block {
                b @ (Block::Empty | Block::Full) if compress => b,
                Block::Sparse(idx)
                    if compress
                        && !idx.is_empty()
                        && idx.len() <= SPARSE_MAX.min(block_len - 1) =>
                {
                    Block::Sparse(idx)
                }
                b @ Block::Dense { ones, .. }
                    if !compress || (SPARSE_MAX < ones as usize && (ones as usize) < block_len) =>
                {
                    b
                }
                other => canonical_block(&block_to_words(&other, block_len), block_len, compress),
            };
            blocks.push(block);
        }
        if r.pos != bytes.len() {
            return None;
        }
        Some(Self { len, blocks })
    }

    /// Decode the legacy dense payload (u64 position count, then the raw
    /// words) written by earlier releases, re-compressing it on the way in.
    fn decode_legacy(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let len = usize::try_from(u64::from_le_bytes(bytes[..8].try_into().ok()?)).ok()?;
        let nwords = len.div_ceil(64);
        if Some(bytes.len()) != nwords.checked_mul(8).and_then(|n| n.checked_add(8)) {
            return None;
        }
        let words: Vec<u64> = bytes[8..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
            .collect();
        Bitset::from_words(words, len).map(|b| Self::from_bitset(&b))
    }
}

/// Convert a merged sparse index list into its canonical block form.
fn sparse_to_block(idx: Vec<u16>, block_len: usize, compress: bool) -> Block {
    if compress && idx.len() <= SPARSE_MAX && idx.len() < block_len {
        if idx.is_empty() {
            Block::Empty
        } else {
            Block::Sparse(idx)
        }
    } else if compress && idx.len() == block_len {
        Block::Full
    } else {
        let mut words = vec![0u64; block_len.div_ceil(64)];
        for &i in &idx {
            words[i as usize / 64] |= 1u64 << (i % 64);
        }
        canonical_block(&words, block_len, compress)
    }
}

/// Merge two sorted strictly-increasing index lists, deduplicating.
fn merge_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Count of elements of `b` absent from `a` (both sorted strictly increasing).
fn sorted_difference_count(b: &[u16], a: &[u16]) -> usize {
    let mut gain = 0;
    let mut i = 0;
    for &x in b {
        while i < a.len() && a[i] < x {
            i += 1;
        }
        if i >= a.len() || a[i] != x {
            gain += 1;
        }
    }
    gain
}

/// Per-block iterator over set-bit indices.
enum BlockOnes<'a> {
    Range(std::ops::Range<usize>),
    Sparse {
        base: usize,
        iter: std::slice::Iter<'a, u16>,
    },
    Dense {
        base: usize,
        words: &'a [u64],
        wi: usize,
        cur: u64,
    },
}

impl Iterator for BlockOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            BlockOnes::Range(r) => r.next(),
            BlockOnes::Sparse { base, iter } => iter.next().map(|&i| *base + i as usize),
            BlockOnes::Dense {
                base,
                words,
                wi,
                cur,
            } => {
                while *cur == 0 {
                    *wi += 1;
                    *cur = *words.get(*wi)?;
                }
                let bit = cur.trailing_zeros() as usize;
                *cur &= *cur - 1;
                Some(*base + *wi * 64 + bit)
            }
        }
    }
}

impl PartialEq for CoveredSet {
    /// Semantic set equality: same length and same set bits, regardless of
    /// which block forms each side happens to use (compressed and
    /// escape-hatch-dense sets of the same bits compare equal).
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.count_ones() == other.count_ones()
            && self.iter_ones().eq(other.iter_ones())
    }
}

impl Eq for CoveredSet {}

impl PartialEq<Bitset> for CoveredSet {
    fn eq(&self, other: &Bitset) -> bool {
        self.len == other.len() && self.iter_ones().eq(other.iter_ones())
    }
}

impl PartialEq<CoveredSet> for Bitset {
    fn eq(&self, other: &CoveredSet) -> bool {
        other == self
    }
}

impl PartialEq<Bitset> for std::sync::Arc<CoveredSet> {
    fn eq(&self, other: &Bitset) -> bool {
        self.as_ref() == other
    }
}

/// Reader over a byte slice with position tracking for exact-consumption
/// validation.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u16(&mut self) -> Option<u16> {
        let v = u16::from_le_bytes(self.bytes.get(self.pos..self.pos + 2)?.try_into().ok()?);
        self.pos += 2;
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let v = u64::from_le_bytes(self.bytes.get(self.pos..self.pos + 8)?.try_into().ok()?);
        self.pos += 8;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_with(len: usize, ones: &[usize]) -> Bitset {
        let mut b = Bitset::new(len);
        for &i in ones {
            b.set(i);
        }
        b
    }

    #[test]
    fn round_trips_through_bitset_across_block_boundaries() {
        for len in [0, 1, 63, 64, 4095, 4096, 4097, 8192, 10_000] {
            let ones: Vec<usize> = (0..len)
                .filter(|i| i % 97 == 0 || i % 4096 == 4095)
                .collect();
            let dense = bits_with(len, &ones);
            let c = CoveredSet::from_bitset_compressed(&dense);
            assert_eq!(c.len(), len);
            assert_eq!(c.count_ones(), dense.count_ones());
            assert_eq!(c.to_bitset(), dense);
            assert_eq!(
                c.iter_ones().collect::<Vec<_>>(),
                dense.iter_ones().collect::<Vec<_>>()
            );
            assert_eq!(c, dense);
        }
    }

    #[test]
    fn adaptive_forms_cover_all_four_variants() {
        // Block 0 full, block 1 empty, block 2 sparse, block 3 dense (tail).
        let len = 3 * BLOCK_BITS + 1000;
        let mut ones: Vec<usize> = (0..BLOCK_BITS).collect();
        ones.extend([2 * BLOCK_BITS + 7, 2 * BLOCK_BITS + 4000]);
        ones.extend((3 * BLOCK_BITS..3 * BLOCK_BITS + 600).step_by(2));
        let dense = bits_with(len, &ones);
        let c = CoveredSet::from_bitset_compressed(&dense);
        assert!(matches!(c.blocks[0], Block::Full));
        assert!(matches!(c.blocks[1], Block::Empty));
        assert!(matches!(c.blocks[2], Block::Sparse(_)));
        assert!(matches!(c.blocks[3], Block::Dense { .. }));
        assert_eq!(c, dense);
        assert!(c.get(0) && c.get(BLOCK_BITS - 1));
        assert!(!c.get(BLOCK_BITS) && !c.get(len) && !c.get(len + 5000));
        assert!(c.get(2 * BLOCK_BITS + 7) && !c.get(2 * BLOCK_BITS + 8));
        assert!(c.get(3 * BLOCK_BITS) && !c.get(3 * BLOCK_BITS + 1));
    }

    #[test]
    fn short_tail_block_can_be_full() {
        let len = BLOCK_BITS + 100;
        let ones: Vec<usize> = (BLOCK_BITS..len).collect();
        let c = CoveredSet::from_bitset_compressed(&bits_with(len, &ones));
        assert!(matches!(c.blocks[1], Block::Full));
        assert_eq!(c.count_ones(), 100);
        assert_eq!(c.to_bitset(), bits_with(len, &ones));
    }

    #[test]
    fn union_matches_dense_reference_across_forms() {
        let len = 2 * BLOCK_BITS + 300;
        let a_ones: Vec<usize> = (0..len).filter(|i| i % 5 == 0).collect();
        let b_ones: Vec<usize> = (0..len).filter(|i| i % 7 == 0 || *i < BLOCK_BITS).collect();
        let (da, db) = (bits_with(len, &a_ones), bits_with(len, &b_ones));
        for (ca, cb) in [
            (
                CoveredSet::from_bitset_compressed(&da),
                CoveredSet::from_bitset_compressed(&db),
            ),
            (
                CoveredSet::from_bitset_uncompressed(&da),
                CoveredSet::from_bitset_compressed(&db),
            ),
            (
                CoveredSet::from_bitset_compressed(&da),
                CoveredSet::from_bitset_uncompressed(&db),
            ),
        ] {
            assert_eq!(ca.union_gain(&cb), da.union_gain(&db));
            assert_eq!(cb.union_gain(&ca), db.union_gain(&da));
            let mut u = ca.clone();
            u.union_with(&cb);
            let mut du = da.clone();
            du.union_with(&db);
            assert_eq!(u, du);
            assert_eq!(u.count_ones(), du.count_ones());
        }
    }

    #[test]
    fn union_of_many_matches_bitset_union_of() {
        let len = BLOCK_BITS + 37;
        let sets: Vec<Bitset> = (0..6)
            .map(|k| bits_with(len, &[(k * 701) % len, (k * 701 + BLOCK_BITS) % len]))
            .collect();
        let compressed: Vec<CoveredSet> = sets
            .iter()
            .map(CoveredSet::from_bitset_compressed)
            .collect();
        let u = CoveredSet::union_of(len, &compressed);
        assert_eq!(u, Bitset::union_of(len, &sets));
    }

    #[test]
    fn uncompressed_and_compressed_forms_compare_equal() {
        let len = BLOCK_BITS + 512;
        let dense = bits_with(len, &[0, 70, 4095, 4096, len - 1]);
        let c = CoveredSet::from_bitset_compressed(&dense);
        let u = CoveredSet::from_bitset_uncompressed(&dense);
        assert!(u.blocks.iter().all(|b| matches!(b, Block::Dense { .. })));
        assert_eq!(c, u);
        assert_eq!(u, dense);
        assert!(u.resident_bytes() >= c.resident_bytes());
    }

    #[test]
    fn sparse_sets_compress_well() {
        let len = 64 * BLOCK_BITS; // 256 Ki positions = 32 KiB dense
        let c = CoveredSet::from_bitset_compressed(&bits_with(len, &[5, 4096 * 10 + 17]));
        assert_eq!(c.logical_bytes(), len / 8);
        assert!(
            c.resident_bytes() * 4 < c.logical_bytes(),
            "resident {} should be well under logical {}",
            c.resident_bytes(),
            c.logical_bytes()
        );
    }

    #[test]
    fn compressed_encoding_round_trips() {
        let len = 3 * BLOCK_BITS + 1000;
        let mut ones: Vec<usize> = (0..BLOCK_BITS).collect();
        ones.extend([2 * BLOCK_BITS + 7]);
        ones.extend((3 * BLOCK_BITS..3 * BLOCK_BITS + 600).step_by(2));
        let c = CoveredSet::from_bitset_compressed(&bits_with(len, &ones));
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        assert_eq!(
            u64::from_le_bytes(buf[..8].try_into().unwrap()),
            COMPRESSED_SENTINEL
        );
        let back = CoveredSet::decode_bytes(&buf).expect("round trip");
        assert_eq!(back, c);
        let mut buf2 = Vec::new();
        back.encode_into(&mut buf2);
        assert_eq!(buf, buf2, "canonical re-encode is byte-identical");
    }

    #[test]
    fn legacy_dense_payload_still_decodes() {
        let dense = bits_with(200, &[0, 64, 130, 199]);
        // The historical Bitset payload: u64 len then LE words.
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&(dense.len() as u64).to_le_bytes());
        for w in dense.words() {
            legacy.extend_from_slice(&w.to_le_bytes());
        }
        let c = CoveredSet::decode_bytes(&legacy).expect("legacy decode");
        assert_eq!(c, dense);
    }

    #[test]
    fn uncompressed_sets_emit_the_legacy_payload() {
        let dense = bits_with(200, &[0, 64, 130, 199]);
        let u = CoveredSet::from_bitset_uncompressed(&dense);
        let mut buf = Vec::new();
        u.encode_into(&mut buf);
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&(dense.len() as u64).to_le_bytes());
        for w in dense.words() {
            legacy.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(buf, legacy);
    }

    #[test]
    fn corrupt_payloads_decode_to_none() {
        let len = BLOCK_BITS + 700;
        let ones: Vec<usize> = (0..len).filter(|i| i % 3 == 0).collect();
        let c = CoveredSet::from_bitset_compressed(&bits_with(len, &ones));
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        assert!(CoveredSet::decode_bytes(&buf).is_some());
        // Truncation.
        assert!(CoveredSet::decode_bytes(&buf[..buf.len() - 1]).is_none());
        // Trailing garbage.
        let mut extended = buf.clone();
        extended.push(0);
        assert!(CoveredSet::decode_bytes(&extended).is_none());
        // Bad version.
        let mut bad = buf.clone();
        bad[8] = 99;
        assert!(CoveredSet::decode_bytes(&bad).is_none());
        // Flip a payload byte: either the popcount check or a structural
        // check must reject it, or (for sparse data bytes) the sorted-index
        // check fires. Flip every byte and require none decode to the
        // original with different bits.
        for i in 9..buf.len() {
            let mut mutated = buf.clone();
            mutated[i] ^= 0x40;
            if let Some(decoded) = CoveredSet::decode_bytes(&mutated) {
                // A surviving decode may only happen if it still represents
                // a structurally valid set; it must then be internally
                // consistent (count matches bits).
                assert_eq!(decoded.count_ones(), decoded.iter_ones().count());
            }
        }
        // Short legacy payloads and word-count mismatches are misses.
        assert!(CoveredSet::decode_bytes(&[1, 2, 3]).is_none());
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&128u64.to_le_bytes());
        legacy.extend_from_slice(&1u64.to_le_bytes()); // one word, need two
        assert!(CoveredSet::decode_bytes(&legacy).is_none());
    }

    #[test]
    fn decode_rejects_unsorted_or_out_of_range_sparse_indices() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&COMPRESSED_SENTINEL.to_le_bytes());
        buf.push(ENCODING_VERSION);
        buf.extend_from_slice(&100u64.to_le_bytes());
        buf.push(2); // sparse
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&7u16.to_le_bytes());
        buf.extend_from_slice(&3u16.to_le_bytes()); // unsorted
        assert!(CoveredSet::decode_bytes(&buf).is_none());
        let mut buf = Vec::new();
        buf.extend_from_slice(&COMPRESSED_SENTINEL.to_le_bytes());
        buf.push(ENCODING_VERSION);
        buf.extend_from_slice(&100u64.to_le_bytes());
        buf.push(2);
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&100u16.to_le_bytes()); // == block_len, out of range
        assert!(CoveredSet::decode_bytes(&buf).is_none());
    }

    #[test]
    fn empty_set_encodes_and_decodes() {
        let c = CoveredSet::new(0);
        assert!(c.is_empty());
        assert_eq!(c.count_ones(), 0);
        assert_eq!(c.density(), 0.0);
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        assert_eq!(CoveredSet::decode_bytes(&buf).expect("empty decode"), c);
    }
}
