//! The vendor/user validation protocol (paper Fig. 1).
//!
//! The vendor trains the model, generates functional tests `X`, computes golden
//! outputs `Y` on the trusted model, and releases `(X, Y)` together with the
//! black-box IP. The user replays `X` on the received IP and compares the
//! observed outputs `Y'` with `Y`: any mismatch means the IP's parameters were
//! perturbed somewhere along the unsecure distribution path.
//!
//! [`FunctionalTestSuite`] is the `(X, Y)` package; [`FunctionalTestSuite::validate`]
//! is the user-side check. It only needs a `&dyn DnnIp`, so the user code cannot
//! accidentally depend on model internals. The same replay drives the detection
//! experiments ([`crate::detection::detection_rate`]), so Tables II/III measure
//! the code the user runs.
//!
//! # Wire format
//!
//! [`FunctionalTestSuite::to_bytes`] writes the model format's tensor stream
//! ([`dnnip_nn::serialize::tensors_to_bytes`]):
//!
//! * the magic `DNNIPSTE` and the format version (2);
//! * the policy tag (0 = argmax, 1 = output tolerance) and the tolerance's
//!   `f32` bits (zero under argmax);
//! * the record count, then every input `X` and after them every golden
//!   output `Y`, each a shape and its length-prefixed little-endian `f32`s;
//! * the model format's 64-bit checksum trailer over everything before it
//!   ([`dnnip_nn::fingerprint::checksum`], the lane-hash kernel that also
//!   checksums the disk tier's records).
//!
//! The decoder is the model decoder's bounded reader: no count it reads sizes
//! an allocation and shape products are checked for overflow, so a hostile
//! stream is an error, never an abort. The checksum catches corruption in
//! transit, not forgery: the paper also encrypts the package, and key
//! management is outside the scope of this reproduction.

use dnnip_accel::ip::DnnIp;
use dnnip_faults::detection::MatchPolicy;
use dnnip_nn::{serialize, Network};
use dnnip_tensor::Tensor;

use crate::eval::Evaluator;
use crate::{CoreError, Result};

const MAGIC: &[u8; 8] = b"DNNIPSTE";
/// Version 2: the lane-hash checksum trailer.
const VERSION: u32 = 2;

/// The vendor's released validation package: functional tests plus golden
/// outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalTestSuite {
    /// The functional-test inputs `X`.
    pub inputs: Vec<Tensor>,
    /// The golden outputs `Y`, one per input, computed on the trusted model.
    pub golden_outputs: Vec<Tensor>,
    /// How the user should compare observed outputs against `Y`.
    pub policy: MatchPolicy,
}

/// The user-side verdict after replaying a suite on an IP.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationOutcome {
    /// `true` when every test's output matched its golden output.
    pub passed: bool,
    /// Index of the first failing test, if any.
    pub first_failure: Option<usize>,
    /// Number of tests whose outputs did not match.
    pub num_mismatches: usize,
    /// Number of tests replayed.
    pub num_tests: usize,
}

fn invalid(reason: String) -> CoreError {
    CoreError::InvalidSuite { reason }
}

impl FunctionalTestSuite {
    fn new(inputs: Vec<Tensor>, golden_outputs: Vec<Tensor>, policy: MatchPolicy) -> Result<Self> {
        let suite = Self {
            inputs,
            golden_outputs,
            policy,
        };
        suite.check()?;
        Ok(suite)
    }

    /// A suite needs at least one test and exactly one golden output per test.
    fn check(&self) -> Result<()> {
        let (tests, golden) = (self.inputs.len(), self.golden_outputs.len());
        if tests == 0 || tests != golden {
            return Err(invalid(format!(
                "{tests} tests with {golden} golden outputs"
            )));
        }
        Ok(())
    }

    /// Vendor side: compute golden outputs for `inputs` on the trusted `network`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSuite`] for an empty test list and propagates
    /// inference errors for incompatible shapes.
    pub fn from_network(
        network: &Network,
        inputs: Vec<Tensor>,
        policy: MatchPolicy,
    ) -> Result<Self> {
        let golden_outputs = inputs
            .iter()
            .map(|x| Ok(network.forward_sample(x)?))
            .collect::<Result<Vec<_>>>()?;
        Self::new(inputs, golden_outputs, policy)
    }

    /// Vendor side, through the evaluator the tests were generated with:
    /// golden outputs come from [`Evaluator::forward_outputs`], fanned out over
    /// the evaluator's execution policy.
    ///
    /// Golden outputs are bit-identical to
    /// [`FunctionalTestSuite::from_network`] on the same network. Smaller
    /// budgets of the same tests are [`FunctionalTestSuite::prefix`]es of this
    /// suite, so no output is computed twice.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSuite`] for an empty test list and propagates
    /// inference errors for incompatible shapes.
    pub fn from_evaluator(
        evaluator: &Evaluator,
        inputs: Vec<Tensor>,
        policy: MatchPolicy,
    ) -> Result<Self> {
        let golden_outputs = evaluator.forward_outputs(&inputs)?;
        Self::new(inputs, golden_outputs, policy)
    }

    /// The suite of the first `n` tests (golden outputs are reused, not
    /// recomputed) — how a vendor derives the nested budgets of the paper's
    /// Table II/III sweeps from one maximal suite.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSuite`] when `n` is zero or exceeds the
    /// suite length.
    pub fn prefix(&self, n: usize) -> Result<Self> {
        let len = self.len();
        if n > len {
            return Err(invalid(format!(
                "prefix length {n} out of range for a suite of {len}"
            )));
        }
        let golden = self.golden_outputs.get(..n).unwrap_or_default();
        Self::new(self.inputs[..n].to_vec(), golden.to_vec(), self.policy)
    }

    /// Number of functional tests in the suite.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the suite contains no tests.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Replay the suite on `ip`, lazily: the indices of the tests whose output
    /// does not match its golden output under the suite's policy, in order.
    pub(crate) fn mismatches<'a>(
        &'a self,
        ip: &'a dyn DnnIp,
    ) -> Result<impl Iterator<Item = Result<usize>> + 'a> {
        self.check()?;
        Ok(self
            .inputs
            .iter()
            .zip(&self.golden_outputs)
            .enumerate()
            .filter_map(move |(i, (input, golden))| match ip.infer(input) {
                Ok(observed) => (!self.policy.matches(golden, &observed)).then_some(Ok(i)),
                Err(e) => Some(Err(invalid(format!(
                    "IP rejected functional test {i}: {e}"
                )))),
            }))
    }

    /// User side: replay the suite against a black-box IP and compare outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSuite`] for an empty suite or one whose
    /// golden outputs do not pair up with its tests, and when the IP rejects
    /// a test input (wrong shape) — a sign the delivered IP does not even
    /// match the advertised interface.
    pub fn validate(&self, ip: &dyn DnnIp) -> Result<ValidationOutcome> {
        let mut first_failure = None;
        let mut num_mismatches = 0usize;
        for i in self.mismatches(ip)? {
            first_failure.get_or_insert(i?);
            num_mismatches += 1;
        }
        Ok(ValidationOutcome {
            passed: num_mismatches == 0,
            first_failure,
            num_mismatches,
            num_tests: self.inputs.len(),
        })
    }

    /// Serialize the suite in the checksummed wire format described in the
    /// module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (tag, tol) = match self.policy {
            MatchPolicy::ArgMax => (0, 0.0f32),
            MatchPolicy::OutputTolerance(t) => (1, t),
        };
        let records: Vec<&Tensor> = self.inputs.iter().chain(&self.golden_outputs).collect();
        serialize::tensors_to_bytes(MAGIC, VERSION, &[tag, tol.to_bits()], &records)
    }

    /// Deserialize a suite written by [`FunctionalTestSuite::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSuite`] for truncated, corrupted
    /// (checksum mismatch) or malformed input, an unsupported format version
    /// and a stream holding no tests or an unpaired record.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let ([tag, tol], mut inputs) = serialize::tensors_from_bytes::<2>(bytes, MAGIC, VERSION)
            .map_err(|e| invalid(e.to_string()))?;
        let policy = match (tag, tol) {
            (0, 0) => MatchPolicy::ArgMax,
            (1, tol) => MatchPolicy::OutputTolerance(f32::from_bits(tol)),
            _ => {
                return Err(invalid(format!(
                    "unknown policy {tag} (tolerance {tol:#x})"
                )))
            }
        };
        let golden_outputs = inputs.split_off(inputs.len() / 2);
        Self::new(inputs, golden_outputs, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_accel::ip::{AcceleratorIp, FloatIp};
    use dnnip_accel::quant::BitWidth;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn net() -> Network {
        zoo::tiny_mlp(5, 12, 3, Activation::Relu, 77).unwrap()
    }

    fn tests_for(net: &Network, n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(net.input_shape(), |j| ((i * 5 + j) as f32 * 0.43).sin()))
            .collect()
    }

    /// The suite of `n` tests released on [`net`] under `policy`.
    fn suite(n: usize, policy: MatchPolicy) -> FunctionalTestSuite {
        let network = net();
        FunctionalTestSuite::from_network(&network, tests_for(&network, n), policy).unwrap()
    }

    /// `words` little-endian behind the magic and a correct checksum trailer.
    fn sealed(words: &[u32]) -> Vec<u8> {
        let mut body = MAGIC.to_vec();
        body.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        let sum = dnnip_nn::fingerprint::checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    #[test]
    fn unmodified_ip_passes_validation() {
        let suite = suite(6, MatchPolicy::OutputTolerance(1e-4));
        assert_eq!(suite.len(), 6);
        assert!(!suite.is_empty());
        let outcome = suite.validate(&FloatIp::new(net())).unwrap();
        assert!(outcome.passed);
        assert_eq!(outcome.num_mismatches, 0);
        assert_eq!(outcome.first_failure, None);
        assert_eq!(outcome.num_tests, 6);
    }

    #[test]
    fn tampered_ip_fails_validation() {
        let suite = suite(6, MatchPolicy::OutputTolerance(1e-4));
        let mut tampered = net();
        let last = tampered.num_parameters() - 1;
        tampered.set_parameter(last, 25.0).unwrap();
        let outcome = suite.validate(&FloatIp::new(tampered)).unwrap();
        assert!(!outcome.passed);
        assert!(outcome.num_mismatches > 0);
        assert!(outcome.first_failure.is_some());
    }

    #[test]
    fn quantized_accelerator_needs_argmax_policy() {
        // With a strict float tolerance the (benign) quantization error itself
        // trips validation; the argmax policy accepts the quantized IP while still
        // catching real attacks (this is why the vendor picks the policy).
        let accel = AcceleratorIp::from_network(&net(), BitWidth::Int8);
        let strict = suite(6, MatchPolicy::OutputTolerance(1e-6));
        assert!(!strict.validate(&accel).unwrap().passed);
        assert!(
            suite(6, MatchPolicy::ArgMax)
                .validate(&accel)
                .unwrap()
                .passed
        );
    }

    #[test]
    fn wrong_interface_is_reported_as_error() {
        let other = zoo::tiny_mlp(9, 4, 3, Activation::Relu, 1).unwrap();
        let suite = suite(2, MatchPolicy::ArgMax);
        assert!(suite.validate(&FloatIp::new(other)).is_err());
    }

    #[test]
    fn empty_suite_is_rejected() {
        let network = net();
        assert!(FunctionalTestSuite::from_network(&network, vec![], MatchPolicy::ArgMax).is_err());
    }

    #[test]
    fn evaluator_built_suite_and_its_prefixes_match_from_network() {
        use crate::coverage::CoverageConfig;
        let network = net();
        let inputs = tests_for(&network, 6);
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        let policy = MatchPolicy::OutputTolerance(1e-4);
        let via_eval =
            FunctionalTestSuite::from_evaluator(&evaluator, inputs.clone(), policy).unwrap();
        let via_net = FunctionalTestSuite::from_network(&network, inputs.clone(), policy).unwrap();
        assert_eq!(via_eval, via_net, "golden outputs must be bit-identical");
        for n in [1usize, 3, 6] {
            let sub = FunctionalTestSuite::from_evaluator(&evaluator, inputs[..n].to_vec(), policy)
                .unwrap();
            assert_eq!(sub.golden_outputs, via_net.golden_outputs[..n].to_vec());
        }
        // The prefix helper agrees with a freshly built sub-suite.
        let pre = via_eval.prefix(3).unwrap();
        assert_eq!(pre.len(), 3);
        assert_eq!(pre.golden_outputs, via_net.golden_outputs[..3].to_vec());
        assert!(pre.validate(&FloatIp::new(network.clone())).unwrap().passed);
        assert!(via_eval.prefix(0).is_err());
        assert!(via_eval.prefix(7).is_err());
        assert!(
            FunctionalTestSuite::from_evaluator(&evaluator, vec![], MatchPolicy::ArgMax).is_err()
        );
    }

    #[test]
    fn serialization_round_trip() {
        let suite = suite(4, MatchPolicy::OutputTolerance(1e-3));
        let bytes = suite.to_bytes();
        let restored = FunctionalTestSuite::from_bytes(&bytes).unwrap();
        assert_eq!(restored, suite);
        // Corruptions are rejected.
        assert!(FunctionalTestSuite::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(FunctionalTestSuite::from_bytes(&bad).is_err());
        let mut trailing = bytes;
        trailing.push(7);
        assert!(FunctionalTestSuite::from_bytes(&trailing).is_err());
        assert!(FunctionalTestSuite::from_bytes(&[]).is_err());
    }

    #[test]
    fn a_huge_test_count_is_an_error_not_an_allocation() {
        // Magic, policy tag 0, a zero tolerance, then a count of u32::MAX: the
        // 17 bytes that once made the decoder request 206 GB up front.
        let bytes = [&MAGIC[..], &[0], &[0; 4], &u32::MAX.to_le_bytes()].concat();
        assert_eq!(bytes.len(), 17);
        assert!(FunctionalTestSuite::from_bytes(&bytes).is_err());
        // The same lie in today's layout, behind a valid checksum.
        assert!(FunctionalTestSuite::from_bytes(&sealed(&[VERSION, 0, 0, u32::MAX])).is_err());
    }

    #[test]
    fn a_lying_ndim_is_an_error_not_an_allocation() {
        // Version, policy tag, tolerance, count, then the first input record:
        // ndim 1, its one dim, its length and its values.
        let bytes = suite(1, MatchPolicy::ArgMax).to_bytes();
        let mut words: Vec<u32> = bytes[MAGIC.len()..bytes.len() - 8]
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(words[..6], [VERSION, 0, 0, 2, 1, 5]);
        for lie in [0, 2, 0x4000_0000, u32::MAX] {
            words[4] = lie;
            assert!(
                FunctionalTestSuite::from_bytes(&sealed(&words)).is_err(),
                "ndim {lie}"
            );
        }
    }

    #[test]
    fn argmax_suite_round_trips_policy() {
        let suite = suite(2, MatchPolicy::ArgMax);
        let restored = FunctionalTestSuite::from_bytes(&suite.to_bytes()).unwrap();
        assert_eq!(restored.policy, MatchPolicy::ArgMax);
    }
}
