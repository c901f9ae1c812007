//! Network fingerprints: 128-bit content digests of a model, built on the
//! workspace's one hash kernel, [`dnnip_tensor::hash::lane_hashes`].
//!
//! The evaluator layer caches activation sets keyed by *what was evaluated*:
//! the network, the sample and the coverage configuration. A
//! [`NetworkFingerprint`] covers the architecture, the geometry **and** every
//! parameter bit, so any change that could alter a gradient changes the
//! fingerprint and silently invalidates all cached results for the old model.
//! Samples are keyed by their own content key
//! ([`dnnip_tensor::Tensor::content_keys`]), from the same kernel.

use dnnip_tensor::hash::{lane_hashes, mix64, CHAIN_HI, CHAIN_LO};

use crate::serialize;
use crate::Network;

/// A 128-bit content digest of a network: its structure and every parameter
/// bit.
///
/// Two networks with the same architecture and bit-identical parameters have
/// the same fingerprint; flipping any single parameter bit, or changing any
/// structural field, changes it (pinned by the property tests in
/// `crates/nn/tests/proptests.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetworkFingerprint {
    /// The [`CHAIN_LO`] half.
    pub lo: u64,
    /// The [`CHAIN_HI`] half.
    pub hi: u64,
}

impl NetworkFingerprint {
    /// Fingerprint a network without serializing it.
    ///
    /// The model format's writer gives the structure header (input shape,
    /// node list, layer tags and geometry, and each parameter slice's
    /// length) and the parameter slices themselves, in place
    /// (`serialize::structure`). Both chains hash the header as bytes and
    /// each slice as `f32` words, and the slices' digests are folded in
    /// order onto the header's through [`mix64`]. The fold is a bijection in
    /// each slice's digest, so a single flipped parameter bit changes both
    /// halves.
    pub fn of(network: &Network) -> Self {
        let (header, params) = serialize::structure(network);
        let chains = [CHAIN_LO, CHAIN_HI];
        let [lo, hi] = lane_hashes(&params, chains)
            .into_iter()
            .fold(lane_hashes(&[&header[..]], chains)[0], |acc, slice| {
                std::array::from_fn(|c| mix64(acc[c] ^ slice[c]))
            });
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
    fn fingerprint_known_answers() {
        // Pins the fingerprint: a change to these values must come with a
        // bump of the disk tier's format version, whose directories are
        // named by it.
        let fp = |hi, lo| NetworkFingerprint { lo, hi };
        let cases = [
            (
                zoo::tiny_mlp(3, 5, 2, Activation::Relu, 1).unwrap(),
                fp(0xf843_8562_f349_80a6, 0x861a_49ff_43bb_f62d),
            ),
            (
                zoo::tiny_cnn(4, 3, Activation::Tanh, 17).unwrap(),
                fp(0xabe8_5895_eb72_d9f4, 0x6912_3f24_413a_4537),
            ),
            (
                zoo::residual_classifier(7).unwrap(),
                fp(0x8596_7f73_b8f1_5c77, 0xa2c1_ac80_6053_a64c),
            ),
        ];
        for (net, expected) in &cases {
            assert_eq!(NetworkFingerprint::of(net), *expected, "{}", net.summary());
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
}
