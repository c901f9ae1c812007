//! Detection-rate evaluation, the measurement behind the paper's Tables II and
//! III: each trial perturbs the model with a fresh attack and replays the
//! released functional-test suite on it through the user's own replay
//! ([`FunctionalTestSuite::validate`]'s, stopped at the first mismatch). The
//! perturbation counts as *detected* if any test's output no longer matches
//! its golden output.

use dnnip_accel::ip::FloatIp;
use dnnip_faults::attacks::Attack;
use dnnip_nn::Network;
use dnnip_tensor::hash::mix64;
use dnnip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::par::{self, ExecPolicy};
use crate::protocol::FunctionalTestSuite;
use crate::Result;

/// Configuration of a detection-rate experiment. The output comparison policy
/// is the suite's own ([`FunctionalTestSuite::policy`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionConfig {
    /// Number of independent perturbation trials.
    pub trials: usize,
    /// Base RNG seed; each trial derives its own independent stream from it.
    pub seed: u64,
    /// How trials execute. Each trial is an independent attack + replay with
    /// its own seed-derived RNG, so serial and threaded runs produce identical
    /// reports.
    pub exec: ExecPolicy,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        Self {
            trials: 200,
            seed: 0,
            exec: ExecPolicy::Serial,
        }
    }
}

/// Per-trial RNG seed: a SplitMix64 step over `(seed, trial)`, so every trial
/// owns an independent deterministic stream regardless of which worker runs it
/// (and of how many trials ran before it).
fn trial_seed(seed: u64, trial: u64) -> u64 {
    mix64(seed.wrapping_add(trial.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Result of a detection-rate experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectionReport {
    /// Number of trials executed.
    pub trials: usize,
    /// Trials in which the functional tests exposed the perturbation.
    pub detected: usize,
}

impl DetectionReport {
    /// Fraction of trials detected, in `[0, 1]`.
    pub fn detection_rate(&self) -> f32 {
        self.detected as f32 / self.trials.max(1) as f32
    }
}

/// Run a detection-rate experiment: `trials` independent perturbations of
/// `network` generated by `attack`, each replayed against `suite` — the
/// vendor's released package for `network`, whose golden outputs and match
/// policy decide what counts as detected.
///
/// `probes` are the victim inputs that attacks which need them (GDA,
/// effective SBA) draw from; attacks that need none ignore them.
///
/// Trials are distributed over [`DetectionConfig::exec`] workers. Each trial
/// seeds its own RNG from `(config.seed, trial index)`, so the report is
/// bit-identical for every execution policy (pinned by
/// `tests/parallel_equivalence.rs`).
///
/// # Errors
///
/// Returns an error if the suite is empty or unpaired, the attack fails, or
/// shapes are inconsistent.
pub fn detection_rate(
    network: &Network,
    attack: &dyn Attack,
    probes: &[Tensor],
    suite: &FunctionalTestSuite,
    config: &DetectionConfig,
) -> Result<DetectionReport> {
    let trial_indices: Vec<u64> = (0..config.trials as u64).collect();
    let detected = par::try_map(config.exec, &trial_indices, |&trial| -> Result<bool> {
        let mut rng = StdRng::seed_from_u64(trial_seed(config.seed, trial));
        let perturbation = attack.generate(network, probes, &mut rng)?;
        let tampered_ip = FloatIp::new(perturbation.apply_to_network(network)?);
        let first_mismatch = suite.mismatches(&tampered_ip)?.next().transpose()?;
        Ok(first_mismatch.is_some())
    })?;
    Ok(DetectionReport {
        trials: config.trials,
        detected: detected.into_iter().filter(|&d| d).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_faults::attacks::{RandomPerturbation, SingleBiasAttack};
    use dnnip_faults::detection::MatchPolicy;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn net() -> Network {
        zoo::tiny_mlp(6, 16, 4, Activation::Relu, 21).unwrap()
    }

    fn inputs(n: usize, offset: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(&[6], |j| (((i + offset) * 6 + j) as f32 * 0.19).sin()))
            .collect()
    }

    /// The suite of [`inputs`]`(n, offset)` released on [`net`] under `policy`.
    fn suite(n: usize, offset: usize, policy: MatchPolicy) -> FunctionalTestSuite {
        FunctionalTestSuite::from_network(&net(), inputs(n, offset), policy).unwrap()
    }

    #[test]
    fn golden_outputs_and_detection_round_trip() {
        let ip = FloatIp::new(net());
        let suite = suite(5, 0, MatchPolicy::default());
        assert_eq!(suite.golden_outputs.len(), 5);
        // The unmodified IP is never flagged.
        assert!(suite.validate(&ip).unwrap().passed);
        // A grossly tampered IP is flagged.
        let mut tampered = net();
        let last = tampered.num_parameters() - 1;
        tampered.set_parameter(last, 50.0).unwrap();
        assert!(!suite.validate(&FloatIp::new(tampered)).unwrap().passed);
        // Mismatched suite lengths are rejected.
        let mut unpaired = suite.clone();
        unpaired.golden_outputs.truncate(3);
        assert!(unpaired.validate(&ip).is_err());
    }

    #[test]
    fn detection_rate_reports_are_consistent() {
        let network = net();
        let attack = SingleBiasAttack::with_magnitude(20.0);
        let probes = inputs(6, 0);
        let tests = suite(10, 100, MatchPolicy::OutputTolerance(1e-4));
        let config = DetectionConfig {
            trials: 25,
            seed: 3,
            exec: ExecPolicy::Serial,
        };
        let report = detection_rate(&network, &attack, &probes, &tests, &config).unwrap();
        assert_eq!(report.trials, 25);
        assert!(report.detected <= report.trials);
        assert!((0.0..=1.0).contains(&report.detection_rate()));
        // A 20.0 bias overwrite on a tiny network with a strict tolerance policy
        // is essentially always visible on 10 tests.
        let rate = report.detection_rate();
        assert!(rate > 0.9, "rate {rate}");
    }

    #[test]
    fn more_tests_never_decrease_detection() {
        let network = net();
        let attack = RandomPerturbation {
            num_params: 2,
            std: 0.8,
        };
        let probes = inputs(4, 0);
        let many = suite(20, 200, MatchPolicy::OutputTolerance(1e-4));
        let config = DetectionConfig {
            trials: 40,
            seed: 11,
            exec: ExecPolicy::Threads(2),
        };
        let few = many.prefix(2).unwrap();
        let few_report = detection_rate(&network, &attack, &probes, &few, &config).unwrap();
        let many_report = detection_rate(&network, &attack, &probes, &many, &config).unwrap();
        assert!(
            many_report.detected >= few_report.detected,
            "more tests should detect at least as many perturbations ({} vs {})",
            many_report.detected,
            few_report.detected
        );
    }

    #[test]
    fn detection_trials_are_execution_policy_invariant() {
        let network = net();
        let probes = inputs(5, 0);
        let tests = suite(8, 50, MatchPolicy::ArgMax);
        let attacks: [Box<dyn Attack>; 2] = [
            Box::new(SingleBiasAttack::with_magnitude(3.0)),
            Box::new(RandomPerturbation {
                num_params: 3,
                std: 0.4,
            }),
        ];
        for attack in &attacks {
            let base = DetectionConfig {
                trials: 30,
                seed: 9,
                exec: ExecPolicy::Serial,
            };
            let serial = detection_rate(&network, attack.as_ref(), &probes, &tests, &base).unwrap();
            for threads in [2usize, 4, 64] {
                let threaded = detection_rate(
                    &network,
                    attack.as_ref(),
                    &probes,
                    &tests,
                    &DetectionConfig {
                        exec: ExecPolicy::Threads(threads),
                        ..base
                    },
                )
                .unwrap();
                assert_eq!(
                    serial,
                    threaded,
                    "{}: report diverged under Threads({threads})",
                    attack.name()
                );
            }
        }
    }

    #[test]
    fn trial_seeds_are_distinct_and_deterministic() {
        let mut seen = std::collections::HashSet::new();
        for trial in 0..100 {
            let s = trial_seed(7, trial);
            assert_eq!(s, trial_seed(7, trial));
            assert!(seen.insert(s), "trial {trial} repeated a seed");
        }
        assert_ne!(trial_seed(7, 0), trial_seed(8, 0));
    }

    #[test]
    fn empty_suite_is_rejected_and_empty_report_is_safe() {
        let network = net();
        let attack = SingleBiasAttack::default();
        let config = DetectionConfig::default();
        let empty = FunctionalTestSuite {
            inputs: vec![],
            golden_outputs: vec![],
            policy: MatchPolicy::default(),
        };
        assert!(detection_rate(&network, &attack, &inputs(2, 0), &empty, &config).is_err());
        let empty = DetectionReport::default();
        assert_eq!(empty.detection_rate(), 0.0);
    }
}
