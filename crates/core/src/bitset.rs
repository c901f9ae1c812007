//! Compact fixed-size bitsets used as parameter / neuron activation sets.
//!
//! A [`Bitset`] over `n` positions represents "the set of parameters (or neurons)
//! activated by one test input". Coverage of a test *set* is the popcount of the
//! union of its members' bitsets — exactly Eq. 4 of the paper — so the two
//! operations that matter are fast union and fast "how many new bits would this
//! set contribute" queries, both implemented word-wise over `u64`s.
//!
//! It is the only covered-set type: criteria write it, both cache tiers store
//! it (its words are the disk payload) and greedy selection scans it.

/// A fixed-length bitset backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Default for Bitset {
    /// The default bitset has zero positions; it is a placeholder to be replaced
    /// by a properly sized set.
    fn default() -> Self {
        Bitset::new(0)
    }
}

impl Bitset {
    /// Create an empty bitset with `len` positions, all zero.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of positions (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set position `i` to 1.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` — activation sets are always built against a known
    /// parameter count, so an out-of-range index is a logic error.
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// OR a whole word of positions into the set: bit `b` of `bits` targets
    /// position `wi * 64 + b`. This is the bulk entry point the gradient
    /// extraction loops use — building a `u64` mask 64 comparisons at a time
    /// and committing it in one store is markedly faster than 64 bounds-checked
    /// [`Bitset::set`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `wi` is past the last word, or if `bits` has a bit set beyond
    /// the bitset's length (which would corrupt the "no stray high bits"
    /// invariant that [`Bitset::from_words`] validates).
    pub fn or_word(&mut self, wi: usize, bits: u64) {
        assert!(
            wi < self.words.len(),
            "word index {wi} out of range for length {}",
            self.len
        );
        let used = self.len - wi * 64;
        if used < 64 {
            assert_eq!(
                bits >> used,
                0,
                "bits beyond length {} in word {wi}",
                self.len
            );
        }
        self.words[wi] |= bits;
    }

    /// Whether position `i` is set (out-of-range queries return `false`).
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of positions set, in `[0, 1]` (0.0 for an empty bitset).
    pub fn density(&self) -> f32 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f32 / self.len as f32
        }
    }

    /// In-place union: `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ — unions only make sense over the same
    /// parameter space.
    pub fn union_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch in union");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Number of bits set in `other` that are **not** set in `self` — the
    /// marginal coverage gain of adding `other` to a running union.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn union_gain(&self, other: &Bitset) -> usize {
        assert_eq!(self.len, other.len, "bitset length mismatch in union_gain");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (b & !a).count_ones() as usize)
            .sum()
    }

    /// Union of an iterator of bitsets over `len` positions.
    pub fn union_of<'a>(len: usize, sets: impl IntoIterator<Item = &'a Bitset>) -> Bitset {
        let mut out = Bitset::new(len);
        for s in sets {
            out.union_with(s);
        }
        out
    }

    /// Iterate over the indices of the set bits in increasing order.
    ///
    /// Word-wise: each backing `u64` is consumed by clearing its lowest set
    /// bit per step (`trailing_zeros`), so a full pass is O(words + ones)
    /// instead of O(len) bounds-checked [`Bitset::get`] probes — zero words,
    /// the common case for sparse activation sets, cost one comparison each.
    /// Bits past `len` cannot appear: [`Bitset::from_words`] and
    /// [`Bitset::or_word`] reject stray high bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let base = wi * 64;
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1); // clear lowest set bit
                (rest != 0).then_some(rest)
            })
            .map(move |rest| base + rest.trailing_zeros() as usize)
        })
    }

    /// The backing `u64` words (`len.div_ceil(64)` of them, low bits first) —
    /// the stable payload the persistent cache tier serializes.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// A copy of `bits`: the identity conversion the benchmark package still
    /// calls by its old name. Removed by the next benchmark change.
    #[doc(hidden)]
    pub fn from_bitset(bits: &Bitset) -> Self {
        bits.clone()
    }

    /// Rebuild a bitset from its backing words and position count.
    ///
    /// Returns `None` when the word count does not match `len` or a bit
    /// beyond `len` is set — the validation the persistent tier relies on to
    /// turn corrupted payloads into cache misses instead of bogus sets.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if let Some(&last) = words.last() {
            let used = len % 64;
            if used != 0 && (last >> used) != 0 {
                return None;
            }
        }
        Some(Self { words, len })
    }
}

/// A shared handle (what the caches hand out) compares with a freshly
/// computed set by value.
impl PartialEq<Bitset> for std::sync::Arc<Bitset> {
    fn eq(&self, other: &Bitset) -> bool {
        **self == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitset::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert!(!b.get(500));
        assert_eq!(b.count_ones(), 4);
        assert!((b.density() - 4.0 / 130.0).abs() < 1e-6);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut b = Bitset::new(10);
        b.set(10);
    }

    #[test]
    fn or_word_matches_per_bit_sets() {
        let mut words = Bitset::new(130);
        words.or_word(0, 0x8000_0000_0000_0001);
        words.or_word(1, 1);
        words.or_word(2, 0b10);
        let mut bits = Bitset::new(130);
        for i in [0, 63, 64, 129] {
            bits.set(i);
        }
        assert_eq!(words, bits);
        // OR semantics: re-committing a word accumulates, never clears.
        words.or_word(0, 0b100);
        assert!(words.get(0) && words.get(2) && words.get(63));
    }

    #[test]
    #[should_panic(expected = "beyond length")]
    fn or_word_rejects_bits_past_len() {
        let mut b = Bitset::new(70);
        b.or_word(1, 1 << 6); // position 70 does not exist
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn or_word_rejects_word_index_past_end() {
        let mut b = Bitset::new(64);
        b.or_word(1, 1);
    }

    #[test]
    fn union_and_gain() {
        let mut a = Bitset::new(100);
        a.set(1);
        a.set(50);
        let mut b = Bitset::new(100);
        b.set(50);
        b.set(99);
        assert_eq!(a.union_gain(&b), 1);
        assert_eq!(b.union_gain(&a), 1);
        a.union_with(&b);
        assert_eq!(a.count_ones(), 3);
        assert_eq!(a.union_gain(&b), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn union_length_mismatch_panics() {
        let mut a = Bitset::new(10);
        let b = Bitset::new(20);
        a.union_with(&b);
    }

    #[test]
    fn union_of_many() {
        let sets: Vec<Bitset> = (0..5)
            .map(|i| {
                let mut b = Bitset::new(32);
                b.set(i);
                b.set(i + 10);
                b
            })
            .collect();
        let u = Bitset::union_of(32, &sets);
        assert_eq!(u.count_ones(), 10);
        let empty_union = Bitset::union_of(32, std::iter::empty());
        assert_eq!(empty_union.count_ones(), 0);
    }

    #[test]
    fn density_of_zero_length_set() {
        let b = Bitset::new(0);
        assert!(b.is_empty());
        assert_eq!(b.density(), 0.0);
        assert_eq!(b.count_ones(), 0);
    }
}
