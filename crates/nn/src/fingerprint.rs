//! Content-addressed network fingerprints.
//!
//! The evaluator layer caches activation sets keyed by *what was evaluated*:
//! the network, the sample and the coverage configuration. A
//! [`NetworkFingerprint`] is a 128-bit digest of the network's full serialized
//! form ([`crate::serialize::to_bytes`]) — architecture, geometry **and** every
//! parameter byte — so any change that could alter a gradient changes the
//! fingerprint and silently invalidates all cached results for the old model.
//!
//! The digest is two independent FNV-1a streams over the same bytes. FNV-1a is
//! not cryptographic, but the cache only needs collision resistance against
//! accidental coincidence between a handful of models and samples inside one
//! process, and 128 bits of independent state makes such a collision
//! astronomically unlikely while keeping the workspace dependency-free.

use crate::serialize;
use crate::Network;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset basis of the second, independent stream (the first basis XORed with
/// an arbitrary odd constant so the two streams never start in the same state).
const FNV_OFFSET_ALT: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// Streaming 64-bit FNV-1a hasher.
///
/// Exposed so callers that need to content-address other byte streams (e.g.
/// sample tensors in the activation-set cache) hash with exactly the same
/// function as the network fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Start a stream from the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Start a stream from the alternate offset basis (independent of
    /// [`Fnv1a::new`] for the same input bytes).
    pub fn new_alt() -> Self {
        Self(FNV_OFFSET_ALT)
    }

    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// A 128-bit content digest of a network's serialized form.
///
/// Two networks with the same architecture and bit-identical parameters have
/// the same fingerprint; flipping any single parameter byte changes it (pinned
/// by the property tests in `crates/nn/tests/proptests.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetworkFingerprint {
    /// Digest of the standard FNV-1a stream.
    pub lo: u64,
    /// Digest of the alternate-basis stream.
    pub hi: u64,
}

impl NetworkFingerprint {
    /// Fingerprint a network: hash its complete serialized byte stream.
    pub fn of(network: &Network) -> Self {
        Self::of_bytes(&serialize::to_bytes(network))
    }

    /// Fingerprint an arbitrary byte string (used by tests and by callers that
    /// already hold the serialized model).
    ///
    /// Both streams advance in one pass over the bytes: each byte is one
    /// multiply per stream, and the two multiplies are independent, so the
    /// pass costs one stream's latency instead of two streams' in sequence.
    /// The digests are exactly those of [`Fnv1a::new`] and
    /// [`Fnv1a::new_alt`] written with the same bytes.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let (mut lo, mut hi) = (FNV_OFFSET, FNV_OFFSET_ALT);
        for &b in bytes {
            lo = (lo ^ b as u64).wrapping_mul(FNV_PRIME);
            hi = (hi ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        Self { lo, hi }
    }
}

impl std::fmt::Display for NetworkFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Error returned when parsing a [`NetworkFingerprint`] from its display form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseFingerprintError;

impl std::fmt::Display for ParseFingerprintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected 32 lowercase hex characters")
    }
}

impl std::error::Error for ParseFingerprintError {}

impl std::str::FromStr for NetworkFingerprint {
    type Err = ParseFingerprintError;

    /// Parse the [`std::fmt::Display`] form back (32 lowercase hex digits,
    /// `hi` then `lo`). The persistent cache tier names its per-model
    /// directories this way, so `Workspace::vacuum` can tell cache
    /// directories it owns apart from unrelated files.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32
            || !s
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            return Err(ParseFingerprintError);
        }
        let hi = u64::from_str_radix(&s[..16], 16).map_err(|_| ParseFingerprintError)?;
        let lo = u64::from_str_radix(&s[16..], 16).map_err(|_| ParseFingerprintError)?;
        Ok(Self { lo, hi })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Activation;
    use crate::zoo;

    #[test]
    fn identical_networks_share_a_fingerprint() {
        let a = zoo::tiny_mlp(4, 8, 3, Activation::Relu, 7).unwrap();
        let b = zoo::tiny_mlp(4, 8, 3, Activation::Relu, 7).unwrap();
        assert_eq!(NetworkFingerprint::of(&a), NetworkFingerprint::of(&b));
        assert_eq!(format!("{}", NetworkFingerprint::of(&a)).len(), 32);
    }

    #[test]
    fn parameter_and_architecture_changes_change_the_fingerprint() {
        let base = zoo::tiny_mlp(4, 8, 3, Activation::Relu, 7).unwrap();
        let fp = NetworkFingerprint::of(&base);

        let mut tweaked = base.clone();
        tweaked.perturb_parameter(0, 1e-3).unwrap();
        assert_ne!(fp, NetworkFingerprint::of(&tweaked));

        let other_seed = zoo::tiny_mlp(4, 8, 3, Activation::Relu, 8).unwrap();
        assert_ne!(fp, NetworkFingerprint::of(&other_seed));

        let other_act = zoo::tiny_mlp(4, 8, 3, Activation::Tanh, 7).unwrap();
        assert_ne!(fp, NetworkFingerprint::of(&other_act));
    }

    #[test]
    fn byte_fingerprints_distinguish_single_byte_flips() {
        let bytes =
            crate::serialize::to_bytes(&zoo::tiny_mlp(3, 5, 2, Activation::Relu, 1).unwrap());
        let fp = NetworkFingerprint::of_bytes(&bytes);
        for i in [0usize, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert_ne!(
                fp,
                NetworkFingerprint::of_bytes(&flipped),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let fp = NetworkFingerprint {
            lo: 0x0123_4567_89ab_cdef,
            hi: 0xfedc_ba98_7654_3210,
        };
        let text = fp.to_string();
        assert_eq!(text.parse::<NetworkFingerprint>(), Ok(fp));
        // Zero-padded components survive the round trip too.
        let small = NetworkFingerprint { lo: 1, hi: 0 };
        assert_eq!(small.to_string().parse::<NetworkFingerprint>(), Ok(small));
        // Anything that is not exactly the display form is rejected.
        for bad in ["", "xyz", "0123", &format!("{fp}0"), &text.to_uppercase()] {
            assert!(bad.parse::<NetworkFingerprint>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn byte_fingerprints_are_the_two_fnv_streams() {
        let bytes =
            crate::serialize::to_bytes(&zoo::tiny_mlp(3, 5, 2, Activation::Relu, 1).unwrap());
        for len in [0, 1, 7, bytes.len()] {
            let (mut lo, mut hi) = (Fnv1a::new(), Fnv1a::new_alt());
            lo.write(&bytes[..len]);
            hi.write(&bytes[..len]);
            let expected = NetworkFingerprint {
                lo: lo.finish(),
                hi: hi.finish(),
            };
            assert_eq!(NetworkFingerprint::of_bytes(&bytes[..len]), expected);
        }
    }

    #[test]
    fn fnv_streams_are_independent_and_order_sensitive() {
        let mut a = Fnv1a::new();
        a.write(b"ab");
        let mut b = Fnv1a::new();
        b.write(b"ba");
        assert_ne!(a.finish(), b.finish());
        let mut alt = Fnv1a::new_alt();
        alt.write(b"ab");
        assert_ne!(a.finish(), alt.finish());
        let mut c = Fnv1a::default();
        c.write_u64(0x6162);
        assert_ne!(c.finish(), Fnv1a::new().finish());
    }
}
