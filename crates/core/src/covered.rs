//! Compatibility name for the one covered-set type.
//!
//! Covered-unit sets are dense [`Bitset`](crate::bitset::Bitset)s
//! everywhere: criteria build them, both cache tiers store them and the
//! greedy selection scans them. `CoveredSet` is kept only for the benchmark
//! package, which still names it; the next benchmark change removes it.

#[doc(hidden)]
pub use crate::bitset::Bitset as CoveredSet;
