//! Differential pinning of the `Workspace` front door against the reference
//! oracle (the paper's naive Algorithm 1, `greedy_select_naive`, over the
//! per-sample reference covered sets), under the paper's default
//! `ParamGradient` criterion and a fixed (or `DNNIP_SEED`-overridden) seed:
//!
//! * greedy-selection **indices** and coverage fractions,
//! * the detection table built from both suites.
//!
//! Any drift between `Workspace::run(TestGenRequest)` and the oracle is a
//! correctness regression, not a tolerance question — every comparison
//! below is exact.

use dnnip::core::coverage::CoverageConfig;
use dnnip::core::generator::GenerationMethod;
use dnnip::core::select::{greedy_select_naive, SelectionResult};
use dnnip::core::workspace::{TestGenRequest, Workspace};
use dnnip::prelude::*;

/// Pin against `DNNIP_SEED` when set (so the whole differential suite can be
/// replayed under another stream), defaulting like the experiment binaries.
fn seed() -> u64 {
    std::env::var("DNNIP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(41)
}

fn model() -> Network {
    zoo::tiny_cnn(2, 3, Activation::Relu, seed()).unwrap()
}

fn pool(n: usize) -> Vec<Tensor> {
    let network = model();
    let shape = network.input_shape().to_vec();
    (0..n)
        .map(|i| Tensor::from_fn(&shape, |j| ((i * 97 + j) as f32 * 0.13).sin().abs()))
        .collect()
}

fn workspace() -> (Workspace, dnnip::nn::fingerprint::NetworkFingerprint) {
    let ws = Workspace::new();
    let key = ws.register("cnn", model(), CoverageConfig::default());
    (ws, key)
}

/// The reference oracle's selection of `budget` tests from `candidates`.
fn oracle(candidates: &[Tensor], budget: usize) -> SelectionResult {
    let network = model();
    let evaluator = Evaluator::with_cache_bytes(&network, CoverageConfig::default(), 0);
    let sets: Vec<_> = candidates
        .iter()
        .map(|x| evaluator.activation_set_reference(x).unwrap())
        .collect();
    greedy_select_naive(&sets, network.num_parameters(), budget).unwrap()
}

#[test]
fn selection_indices_and_coverage_fractions_are_bit_identical() {
    let (ws, key) = workspace();
    let candidates = pool(18);
    let budget = 6;

    let report = ws
        .run(
            &TestGenRequest::new(key, GenerationMethod::TrainingSetSelection, budget)
                .with_candidates(candidates.clone()),
        )
        .unwrap();

    let expected = oracle(&candidates, budget);
    assert_eq!(report.selected_indices(), expected.selected);
    assert_eq!(
        report.tests.coverage_curve.len(),
        expected.coverage_curve.len()
    );
    for (a, b) in report
        .tests
        .coverage_curve
        .iter()
        .zip(&expected.coverage_curve)
    {
        assert_eq!(a.to_bits(), b.to_bits(), "coverage fraction drifted");
    }
    assert_eq!(
        report.final_coverage().to_bits(),
        expected.final_coverage().to_bits()
    );
}

#[test]
fn detection_tables_from_both_paths_are_identical() {
    let (ws, key) = workspace();
    let candidates = pool(16);

    let via_workspace = ws
        .run(
            &TestGenRequest::new(key, GenerationMethod::TrainingSetSelection, 8)
                .with_candidates(candidates.clone()),
        )
        .unwrap()
        .tests
        .inputs;
    let oracle_tests: Vec<Tensor> = oracle(&candidates, 8)
        .selected
        .iter()
        .map(|&i| candidates[i].clone())
        .collect();

    let network = model();
    let probes = &candidates[..6];
    let config = DetectionConfig {
        trials: 12,
        seed: seed().wrapping_add(100),
        exec: dnnip::core::par::ExecPolicy::auto(),
    };
    let release = |tests: &[Tensor]| {
        FunctionalTestSuite::from_network(&network, tests.to_vec(), MatchPolicy::ArgMax).unwrap()
    };
    let attacks: [Box<dyn Attack>; 2] = [
        Box::new(SingleBiasAttack::default()),
        Box::new(RandomPerturbation {
            num_params: 8,
            std: 0.5,
        }),
    ];
    // Greedy selection saturates early on this small model: compare the
    // tables of the first test and of the whole suite.
    assert_eq!(
        via_workspace.len(),
        oracle_tests.len(),
        "suite sizes differ"
    );
    for (n, attack) in attacks.iter().enumerate() {
        for tests in [&via_workspace[..1], &via_workspace[..]] {
            let m = tests.len();
            let a = detection_rate(&network, attack.as_ref(), probes, &release(tests), &config)
                .unwrap();
            let b = detection_rate(
                &network,
                attack.as_ref(),
                probes,
                &release(&oracle_tests[..m]),
                &config,
            )
            .unwrap();
            assert_eq!(a, b, "attack {n} at budget {m}: detection table drifted");
        }
    }
}
