//! Detection-rate behaviour across attacks and test-generation methods — the
//! qualitative claims behind the paper's Tables II and III on a small model.

use dnnip::core::par::ExecPolicy;
use dnnip::dataset::digits::{synthetic_mnist, DigitConfig};
use dnnip::nn::train::{train, TrainConfig};
use dnnip::nn::zoo;
use dnnip::prelude::*;

struct Fixture {
    model: Network,
    training: Vec<Tensor>,
}

fn fixture() -> Fixture {
    let data = synthetic_mnist(&DigitConfig::with_size(8), 150, 33);
    let mut model = zoo::tiny_cnn(6, 10, Activation::Relu, 41).unwrap();
    train(
        &mut model,
        &data.inputs,
        &data.labels,
        &TrainConfig {
            epochs: 3,
            batch_size: 16,
            ..TrainConfig::default()
        },
    )
    .unwrap();
    Fixture {
        model,
        training: data.inputs,
    }
}

/// `budget` tests from the training pool with `method`, through a fresh
/// workspace.
fn generate(fix: &Fixture, method: GenerationMethod, budget: usize) -> Vec<Tensor> {
    let ws = Workspace::new();
    let key = ws.register("model", fix.model.clone(), CoverageConfig::default());
    ws.run(&TestGenRequest::new(key, method, budget).with_candidates(fix.training.clone()))
        .unwrap()
        .tests
        .inputs
}

fn proposed_tests(fix: &Fixture, budget: usize) -> Vec<Tensor> {
    generate(fix, GenerationMethod::Combined, budget)
}

fn baseline_tests(fix: &Fixture, budget: usize) -> Vec<Tensor> {
    generate(fix, GenerationMethod::NeuronCoverageBaseline, budget)
}

/// The vendor's released package of `tests` on the fixture model.
fn release(fix: &Fixture, tests: &[Tensor], policy: MatchPolicy) -> FunctionalTestSuite {
    FunctionalTestSuite::from_network(&fix.model, tests.to_vec(), policy).unwrap()
}

#[test]
fn proposed_tests_detect_sba_at_high_rate() {
    let fix = fixture();
    let tests = proposed_tests(&fix, 15);
    let report = detection_rate(
        &fix.model,
        &SingleBiasAttack::with_magnitude(10.0),
        &fix.training[..10],
        &release(&fix, &tests, MatchPolicy::OutputTolerance(1e-4)),
        &DetectionConfig {
            trials: 40,
            seed: 1,
            exec: ExecPolicy::auto(),
        },
    )
    .unwrap();
    assert!(
        report.detection_rate() > 0.8,
        "SBA detection rate {} too low",
        report.detection_rate()
    );
}

#[test]
fn proposed_tests_beat_or_match_neuron_coverage_baseline() {
    // Tables II/III: at the same budget, parameter-coverage tests detect at least
    // as many perturbations as neuron-coverage tests for every attack model.
    let fix = fixture();
    let budget = 10usize;
    let policy = MatchPolicy::OutputTolerance(1e-4);
    let proposed = release(&fix, &proposed_tests(&fix, budget), policy);
    let baseline = release(&fix, &baseline_tests(&fix, budget), policy);
    let probes = &fix.training[..10];
    let config = DetectionConfig {
        trials: 40,
        seed: 7,
        exec: ExecPolicy::auto(),
    };
    let attacks: Vec<(&str, Box<dyn Attack>)> = vec![
        ("sba", Box::new(SingleBiasAttack::default())),
        ("gda", Box::new(GradientDescentAttack::default())),
        (
            "random",
            Box::new(RandomPerturbation {
                num_params: 8,
                std: 1.0,
            }),
        ),
    ];
    for (name, attack) in &attacks {
        let p = detection_rate(&fix.model, attack.as_ref(), probes, &proposed, &config).unwrap();
        let b = detection_rate(&fix.model, attack.as_ref(), probes, &baseline, &config).unwrap();
        assert!(
            p.detected + 2 >= b.detected,
            "{name}: proposed detected {} but baseline detected {}",
            p.detected,
            b.detected
        );
    }
}

#[test]
fn detection_rate_grows_with_the_number_of_tests() {
    // The monotone trend down each column of Tables II/III.
    let fix = fixture();
    let tests = release(
        &fix,
        &proposed_tests(&fix, 20),
        MatchPolicy::OutputTolerance(1e-4),
    );
    let probes = &fix.training[..10];
    let config = DetectionConfig {
        trials: 30,
        seed: 13,
        exec: ExecPolicy::auto(),
    };
    let attack = RandomPerturbation {
        num_params: 4,
        std: 0.6,
    };
    let small = detection_rate(
        &fix.model,
        &attack,
        probes,
        &tests.prefix(3).unwrap(),
        &config,
    )
    .unwrap();
    let large = detection_rate(&fix.model, &attack, probes, &tests, &config).unwrap();
    assert!(
        large.detected >= small.detected,
        "20 tests detected {} but 3 tests detected {}",
        large.detected,
        small.detected
    );
}

#[test]
fn argmax_policy_is_weaker_than_output_tolerance() {
    // Exact-output comparison can only detect more than argmax comparison.
    let fix = fixture();
    let tests = proposed_tests(&fix, 10);
    let probes = &fix.training[..10];
    let attack = RandomPerturbation {
        num_params: 4,
        std: 0.4,
    };
    let config = DetectionConfig {
        trials: 30,
        seed: 3,
        exec: ExecPolicy::auto(),
    };
    let strict = detection_rate(
        &fix.model,
        &attack,
        probes,
        &release(&fix, &tests, MatchPolicy::OutputTolerance(1e-5)),
        &config,
    )
    .unwrap();
    let argmax = detection_rate(
        &fix.model,
        &attack,
        probes,
        &release(&fix, &tests, MatchPolicy::ArgMax),
        &config,
    )
    .unwrap();
    assert!(strict.detected >= argmax.detected);
}
