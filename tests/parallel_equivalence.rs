//! Differential serial/parallel test harness.
//!
//! The batched multi-threaded coverage engine promises that execution policy is
//! *unobservable* in the results: `ExecPolicy::Serial` and
//! `ExecPolicy::Threads(n)` must produce **bit-identical** activation bitsets,
//! coverage fractions, greedy selections, synthetic tests and combined-generator
//! output — for any chunking. These tests pin that contract on several zoo
//! networks and seeded datasets; any divergence (a data race, an
//! order-dependent reduction, thread-dependent RNG use) fails exactly, not
//! within a tolerance.

use dnnip::core::combined::TestSource;
use dnnip::core::coverage::CoverageConfig;
use dnnip::core::eval::Evaluator;
use dnnip::core::gradgen::{GradGenConfig, GradientGenerator};
use dnnip::core::par::ExecPolicy;
use dnnip::core::select::greedy_select_naive;
use dnnip::dataset::digits::{synthetic_mnist, DigitConfig};
use dnnip::nn::zoo;
use dnnip::prelude::*;

/// The networks the differential harness sweeps: MLPs and CNNs, saturating and
/// non-saturating activations.
fn zoo_networks() -> Vec<(&'static str, Network)> {
    vec![
        (
            "tiny_mlp_relu",
            zoo::tiny_mlp(6, 14, 4, Activation::Relu, 5).unwrap(),
        ),
        (
            "tiny_mlp_tanh",
            zoo::tiny_mlp(6, 14, 4, Activation::Tanh, 5).unwrap(),
        ),
        (
            "tiny_cnn_relu",
            zoo::tiny_cnn(6, 10, Activation::Relu, 9).unwrap(),
        ),
        (
            "tiny_cnn_tanh",
            zoo::tiny_cnn(6, 10, Activation::Tanh, 9).unwrap(),
        ),
    ]
}

/// Seeded inputs matching `net`'s input shape: a rendered digit dataset for
/// image-shaped networks, deterministic pseudo-random vectors otherwise.
fn seeded_inputs(net: &Network, n: usize, seed: u64) -> Vec<Tensor> {
    let shape = net.input_shape().to_vec();
    if shape.len() == 3 && shape[0] == 1 {
        synthetic_mnist(&DigitConfig::with_size(shape[1]), n, seed)
            .inputs
            .into_iter()
            .collect()
    } else {
        (0..n)
            .map(|i| {
                Tensor::from_fn(&shape, |j| {
                    ((seed as usize + i * 131 + j * 7) as f32 * 0.23).sin()
                })
            })
            .collect()
    }
}

fn config_with(exec: ExecPolicy, batch_size: usize) -> CoverageConfig {
    CoverageConfig {
        exec,
        batch_size,
        ..CoverageConfig::default()
    }
}

#[test]
fn activation_sets_are_bit_identical_across_policies_and_chunkings() {
    for (name, net) in zoo_networks() {
        let inputs = seeded_inputs(&net, 10, 3);
        let serial = CoverageAnalyzer::new(&net, config_with(ExecPolicy::Serial, 32));
        let baseline = serial.activation_sets(&inputs).unwrap();
        for (exec, batch_size) in [
            (ExecPolicy::Serial, 1),
            (ExecPolicy::Serial, 3),
            (ExecPolicy::Threads(2), 3),
            (ExecPolicy::Threads(4), 1),
            (ExecPolicy::Threads(4), 4),
            (ExecPolicy::Threads(4), 64),
        ] {
            let analyzer = CoverageAnalyzer::new(&net, config_with(exec, batch_size));
            let sets = analyzer.activation_sets(&inputs).unwrap();
            assert_eq!(
                sets, baseline,
                "{name}: activation sets diverged under {exec:?} batch {batch_size}"
            );
        }
        // The single-sample entry point agrees bit-for-bit with the batch path.
        for (i, x) in inputs.iter().enumerate() {
            assert_eq!(
                serial.activation_set(x).unwrap(),
                baseline[i],
                "{name}: single-sample path diverged at {i}"
            );
        }
    }
}

#[test]
fn batched_engine_matches_the_per_sample_reference() {
    // The reference path uses the direct convolution kernels; the batched
    // engine uses im2col + matmul. On ReLU networks activation is an exact
    // non-zero test over structurally identical gradients, and on the Tanh
    // networks the relative-threshold rule sees identically ordered
    // accumulations — both must agree bit-for-bit here.
    for (name, net) in zoo_networks() {
        let analyzer = CoverageAnalyzer::new(&net, CoverageConfig::default());
        for (i, x) in seeded_inputs(&net, 6, 11).iter().enumerate() {
            assert_eq!(
                analyzer.activation_set(x).unwrap(),
                analyzer.activation_set_reference(x).unwrap(),
                "{name}: engine and reference disagree on sample {i}"
            );
        }
    }
}

#[test]
fn coverage_fractions_are_bit_identical_across_policies() {
    for (name, net) in zoo_networks() {
        let inputs = seeded_inputs(&net, 9, 7);
        let serial = CoverageAnalyzer::new(&net, config_with(ExecPolicy::Serial, 4));
        let threaded = CoverageAnalyzer::new(&net, config_with(ExecPolicy::Threads(4), 4));
        // Exact f32 equality — no tolerance.
        assert_eq!(
            serial.coverage_of_set(&inputs).unwrap(),
            threaded.coverage_of_set(&inputs).unwrap(),
            "{name}: set coverage diverged"
        );
        assert_eq!(
            serial.mean_sample_coverage(&inputs).unwrap(),
            threaded.mean_sample_coverage(&inputs).unwrap(),
            "{name}: mean coverage diverged"
        );
        assert_eq!(
            serial.coverage_of_sample(&inputs[0]).unwrap(),
            threaded.coverage_of_sample(&inputs[0]).unwrap(),
            "{name}: sample coverage diverged"
        );
    }
}

/// `Workspace::run` of `request` (built for the registered key) on `net`
/// registered under `config`.
fn run(
    net: &Network,
    config: CoverageConfig,
    request: impl FnOnce(dnnip::nn::fingerprint::NetworkFingerprint) -> TestGenRequest,
) -> TestGenReport {
    let ws = Workspace::new();
    let key = ws.register("net", net.clone(), config);
    ws.run(&request(key)).unwrap()
}

#[test]
fn greedy_selection_picks_identical_tests_under_every_policy() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 18, 13);
        let select = |config| {
            run(&net, config, |key| {
                TestGenRequest::new(key, GenerationMethod::TrainingSetSelection, 8)
                    .with_candidates(pool.clone())
            })
        };
        let a = select(config_with(ExecPolicy::Serial, 32));
        let b = select(config_with(ExecPolicy::Threads(4), 5));
        assert_eq!(
            a.selected_indices(),
            b.selected_indices(),
            "{name}: selected indices diverged"
        );
        assert_eq!(
            a.tests.coverage_curve, b.tests.coverage_curve,
            "{name}: coverage curve diverged"
        );
        // Both equal the reference oracle: the naive greedy over the
        // per-sample reference sets.
        let analyzer = CoverageAnalyzer::new(&net, CoverageConfig::default());
        let reference: Vec<_> = pool
            .iter()
            .map(|x| analyzer.activation_set_reference(x).unwrap())
            .collect();
        let oracle = greedy_select_naive(&reference, net.num_parameters(), 8).unwrap();
        assert_eq!(a.selected_indices(), oracle.selected, "{name}: oracle");
        assert_eq!(a.tests.coverage_curve, oracle.coverage_curve, "{name}");
    }
}

#[test]
fn gradient_generator_is_execution_policy_invariant() {
    let net = zoo::tiny_mlp(6, 16, 4, Activation::Relu, 33).unwrap();
    let mut serial = GradientGenerator::new(
        &net,
        GradGenConfig {
            steps: 8,
            seed: 21,
            exec: ExecPolicy::Serial,
            ..GradGenConfig::default()
        },
    );
    let mut threaded = GradientGenerator::new(
        &net,
        GradGenConfig {
            steps: 8,
            seed: 21,
            exec: ExecPolicy::Threads(4),
            ..GradGenConfig::default()
        },
    );
    // Two rounds: round 0 is the all-zeros start, round 1 draws RNG inits —
    // both must match because inits are drawn before the workers fan out.
    for round in 0..2 {
        let a = serial.generate_batch().unwrap();
        let b = threaded.generate_batch().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.input, y.input, "round {round}: synthetic input diverged");
            assert_eq!(x.target_class, y.target_class);
            assert_eq!(x.classified_correctly, y.classified_correctly);
            assert_eq!(x.final_loss.to_bits(), y.final_loss.to_bits());
        }
    }
}

#[test]
fn combined_generator_is_execution_policy_invariant() {
    let net = zoo::tiny_cnn(6, 10, Activation::Relu, 17).unwrap();
    let pool = seeded_inputs(&net, 12, 29);
    let combined = |exec: ExecPolicy| {
        run(&net, config_with(exec, 4), |key| {
            TestGenRequest::new(key, GenerationMethod::Combined, 8)
                .with_gradgen(GradGenConfig {
                    steps: 5,
                    exec,
                    ..GradGenConfig::default()
                })
                .with_candidates(pool.clone())
        })
        .tests
    };
    let a = combined(ExecPolicy::Serial);
    let b = combined(ExecPolicy::Threads(4));
    assert_eq!(a.inputs, b.inputs, "combined tests diverged");
    // Equal provenance also pins the switch point: the first synthetic test.
    assert_eq!(a.provenance, b.provenance, "combined sources diverged");
    assert_eq!(
        a.coverage_curve, b.coverage_curve,
        "combined curve diverged"
    );
    assert!(a
        .provenance
        .iter()
        .any(|s| matches!(s, TestSource::TrainingSample(_))));
}

#[test]
fn evaluator_cached_results_are_bit_identical_across_policies_and_reruns() {
    // The acceptance contract of the evaluator layer: serial, threaded, cold
    // and warm cache reads are all interchangeable — exact bit equality, no
    // tolerance.
    for (name, net) in zoo_networks() {
        let inputs = seeded_inputs(&net, 10, 17);
        let uncached = CoverageAnalyzer::new(&net, config_with(ExecPolicy::Serial, 32));
        let baseline = uncached.activation_sets(&inputs).unwrap();
        let serial = Evaluator::new(&net, config_with(ExecPolicy::Serial, 32));
        let threaded = Evaluator::new(&net, config_with(ExecPolicy::Threads(4), 3));
        for evaluator in [&serial, &threaded] {
            let cold = evaluator.activation_sets(&inputs).unwrap();
            let warm = evaluator.activation_sets(&inputs).unwrap();
            assert_eq!(cold, baseline, "{name}: cold evaluator diverged");
            assert_eq!(warm, baseline, "{name}: warm evaluator diverged");
            let stats = evaluator.cache_stats();
            assert_eq!(
                stats.misses as usize,
                inputs.len(),
                "{name}: wrong miss count"
            );
            assert_eq!(
                stats.hits as usize,
                inputs.len(),
                "{name}: warm run not served from cache"
            );
        }
        // Coverage fractions through the cache match the uncached analyzer exactly.
        assert_eq!(
            serial.coverage_of_set(&inputs).unwrap(),
            uncached.coverage_of_set(&inputs).unwrap(),
            "{name}: cached set coverage diverged"
        );
        assert_eq!(
            threaded.mean_sample_coverage(&inputs).unwrap(),
            uncached.mean_sample_coverage(&inputs).unwrap(),
            "{name}: cached mean coverage diverged"
        );
    }
}

#[test]
fn detection_reports_are_bit_identical_across_policies() {
    let net = zoo::tiny_mlp(6, 14, 4, Activation::Relu, 5).unwrap();
    let probes = seeded_inputs(&net, 6, 23);
    let tests = seeded_inputs(&net, 8, 31);
    let attack = SingleBiasAttack::with_magnitude(5.0);
    let run = |exec: ExecPolicy| {
        detection_rate(
            &net,
            &attack,
            &probes,
            &tests,
            &DetectionConfig {
                trials: 24,
                seed: 41,
                policy: MatchPolicy::ArgMax,
                exec,
            },
        )
        .unwrap()
    };
    let serial = run(ExecPolicy::Serial);
    for threads in [2usize, 4, 32] {
        assert_eq!(
            serial,
            run(ExecPolicy::Threads(threads)),
            "detection report diverged under Threads({threads})"
        );
    }
}
