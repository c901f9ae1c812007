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

use std::sync::Arc;

mod common;

use common::seeded_inputs;
use dnnip::core::combined::TestSource;
use dnnip::core::coverage::CoverageConfig;
use dnnip::core::criterion::{criterion_from_spec, GradientObjective};
use dnnip::core::eval::Evaluator;
use dnnip::core::gradgen::{GradGenConfig, GradientGenerator, LineSearchConfig, SyntheticTest};
use dnnip::core::par::ExecPolicy;
use dnnip::core::select::greedy_select_naive;
use dnnip::nn::zoo;
use dnnip::prelude::*;
use dnnip::tensor::kernels::bit_mismatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shared zoo networks plus a saturating CNN.
fn zoo_networks() -> Vec<(&'static str, Network)> {
    let mut nets = common::zoo_networks();
    nets.push((
        "tiny_cnn_tanh",
        zoo::tiny_cnn(6, 10, Activation::Tanh, 9).unwrap(),
    ));
    nets
}

fn config_with(exec: ExecPolicy, batch_size: usize) -> CoverageConfig {
    CoverageConfig {
        exec,
        batch_size,
        ..CoverageConfig::default()
    }
}

/// A budget-0 evaluator: every call computes afresh, so two of them are two
/// independent computations.
fn uncached(net: &Network, exec: ExecPolicy, batch_size: usize) -> Evaluator {
    Evaluator::with_cache_bytes(net, config_with(exec, batch_size), 0)
}

#[test]
fn activation_sets_are_bit_identical_across_policies_and_chunkings() {
    // Requests shorter than `batch_size × workers` are cut into one chunk
    // per worker, so the sizes below give full, ragged, one-sample and
    // more-workers-than-samples chunkings.
    for (name, net) in zoo_networks() {
        for n in [1, 2, 5, 10, 33] {
            let inputs = seeded_inputs(&net, n, 3);
            let serial = uncached(&net, ExecPolicy::Serial, 32);
            let baseline = serial.activation_sets(&inputs).unwrap();
            for threads in 1..=4 {
                for batch_size in [1, 7, 32] {
                    let exec = ExecPolicy::Threads(threads);
                    let sets = uncached(&net, exec, batch_size)
                        .activation_sets(&inputs)
                        .unwrap();
                    assert_eq!(
                        sets, baseline,
                        "{name}: {n} activation sets diverged under {exec:?} batch {batch_size}"
                    );
                }
            }
            // The single-sample entry point agrees bit-for-bit with the batch path.
            for (i, x) in inputs.iter().enumerate() {
                assert_eq!(
                    serial.activation_set(x).unwrap(),
                    baseline[i],
                    "{name}: single-sample path diverged at {i} of {n}"
                );
            }
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
        let evaluator = uncached(&net, ExecPolicy::Serial, 32);
        for (i, x) in seeded_inputs(&net, 6, 11).iter().enumerate() {
            assert_eq!(
                evaluator.activation_set(x).unwrap(),
                evaluator.activation_set_reference(x).unwrap(),
                "{name}: engine and reference disagree on sample {i}"
            );
        }
    }
}

#[test]
fn coverage_fractions_are_bit_identical_across_policies() {
    for (name, net) in zoo_networks() {
        let inputs = seeded_inputs(&net, 9, 7);
        let serial = uncached(&net, ExecPolicy::Serial, 4);
        let threaded = uncached(&net, ExecPolicy::Threads(4), 4);
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
        let evaluator = uncached(&net, ExecPolicy::Serial, 32);
        let reference: Vec<_> = pool
            .iter()
            .map(|x| evaluator.activation_set_reference(x).unwrap())
            .collect();
        let oracle = greedy_select_naive(&reference, net.num_parameters(), 8).unwrap();
        assert_eq!(a.selected_indices(), oracle.selected, "{name}: oracle");
        assert_eq!(a.tests.coverage_curve, oracle.coverage_curve, "{name}");
    }
}

/// The synthesis variants the sharded-descent tests sweep: `(name, line
/// search, criterion spec)`. A criterion spec brings that criterion's
/// gradient objective; `None` is the paper's cross-entropy descent.
fn gradgen_variants() -> [(&'static str, Option<LineSearchConfig>, Option<&'static str>); 4] {
    let ls = Some(LineSearchConfig::default());
    let neuron = Some("neuron-activation:0.25");
    [
        ("fixed step", None, None),
        ("line search", ls, None),
        ("criterion objective", None, neuron),
        ("criterion objective, line search", ls, neuron),
    ]
}

/// The synthesis objective of the criterion `spec`, if it supplies one.
fn objective_of(spec: Option<&str>) -> Option<Arc<dyn GradientObjective>> {
    let criterion = criterion_from_spec(spec?, &CoverageConfig::default()).unwrap();
    criterion.gradient_objective()
}

/// Panics unless `test` is, bit for bit, the one-state descent
/// `generator.synthesize(init, class)` of its class.
fn assert_one_state_descent(
    generator: &GradientGenerator,
    init: &Tensor,
    test: &SyntheticTest,
    what: &str,
) {
    let class = test.target_class;
    let reference = generator.synthesize(init, class).unwrap();
    assert_eq!(
        bit_mismatch(test.input.data(), reference.input.data()),
        None,
        "{what}: class {class} input diverged from the one-state descent"
    );
    assert_eq!(
        bit_mismatch(&[test.final_loss], &[reference.final_loss]),
        None,
        "{what}: class {class} loss diverged"
    );
    assert_eq!(
        test.classified_correctly, reference.classified_correctly,
        "{what}: class {class} prediction diverged"
    );
}

#[test]
fn gradient_generator_is_execution_policy_invariant() {
    // k = 10 states per batch: Threads(3) cuts uneven 4/3/3 shards and
    // Threads(k + 3) has more workers than states. Round 0 starts all-zero,
    // which on the ReLU net (zero biases) is the dead start: no hidden unit
    // is active and ∇x J is zero. Round 1 starts from the seeded RNG's
    // draws, made class by class before any descent runs.
    for activation in [Activation::Relu, Activation::Tanh] {
        let net = zoo::tiny_mlp(6, 16, 10, activation, 33).unwrap();
        let (k, shape) = (net.num_classes(), net.input_shape().to_vec());
        for (variant, line_search, spec) in gradgen_variants() {
            let config = GradGenConfig {
                steps: 8,
                seed: 21,
                line_search,
                ..GradGenConfig::default()
            };
            let generator = |exec| {
                GradientGenerator::new(&net, GradGenConfig { exec, ..config })
                    .with_objective(objective_of(spec))
            };
            let mut rng = StdRng::seed_from_u64(config.seed);
            let rounds: [Vec<Tensor>; 2] = [
                vec![Tensor::zeros(&shape); k],
                (0..k)
                    .map(|_| Tensor::from_fn(&shape, |_| rng.gen_range(0.0..config.init_noise)))
                    .collect(),
            ];
            let single = generator(ExecPolicy::Serial);
            for exec in [
                ExecPolicy::Serial,
                ExecPolicy::Threads(2),
                ExecPolicy::Threads(3),
                ExecPolicy::Threads(4),
                ExecPolicy::Threads(k + 3),
            ] {
                let mut sharded = generator(exec);
                for (round, inits) in rounds.iter().enumerate() {
                    let batch = sharded.generate_batch().unwrap();
                    assert_eq!(batch.len(), k);
                    let what = format!("{activation:?} {variant} {exec:?} round {round}");
                    for (class, (test, init)) in batch.iter().zip(inits).enumerate() {
                        assert_eq!(test.target_class, class, "{what}");
                        assert_one_state_descent(&single, init, test, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn combined_generator_is_execution_policy_invariant() {
    // 10 classes, so Threads(3) cuts uneven 4/3/3 shards and Threads(13)
    // has more workers than states. The budget outgrows the 12-sample pool,
    // so every run switches to synthesis.
    let net = zoo::tiny_cnn(6, 10, Activation::Relu, 17).unwrap();
    let k = net.num_classes();
    let pool = seeded_inputs(&net, 12, 29);
    for (variant, line_search, spec) in gradgen_variants() {
        let gradgen = |exec| GradGenConfig {
            steps: 5,
            exec,
            line_search,
            ..GradGenConfig::default()
        };
        let combined = |exec: ExecPolicy| {
            run(&net, config_with(exec, 4), |key| {
                let request = TestGenRequest::new(key, GenerationMethod::Combined, 16)
                    .with_gradgen(gradgen(exec))
                    .with_candidates(pool.clone());
                match spec {
                    Some(spec) => request.with_criterion_spec(spec),
                    None => request,
                }
            })
            .tests
        };
        let a = combined(ExecPolicy::Serial);
        for exec in [
            ExecPolicy::Threads(2),
            ExecPolicy::Threads(3),
            ExecPolicy::Threads(4),
            ExecPolicy::Threads(k + 3),
        ] {
            let b = combined(exec);
            assert_eq!(
                a.inputs, b.inputs,
                "{variant} {exec:?}: combined tests diverged"
            );
            // Equal provenance also pins the switch point: the first synthetic test.
            assert_eq!(
                a.provenance, b.provenance,
                "{variant} {exec:?}: combined sources diverged"
            );
            assert_eq!(
                a.coverage_curve, b.coverage_curve,
                "{variant} {exec:?}: combined curve diverged"
            );
        }
        assert!(a
            .provenance
            .iter()
            .any(|s| matches!(s, TestSource::TrainingSample(_))));
        // The first synthetic tests come from round 0, the all-zero (on this
        // ReLU net, dead) start, in class order: each is its class's
        // one-state descent.
        let single = GradientGenerator::new(&net, gradgen(ExecPolicy::Serial))
            .with_objective(objective_of(spec));
        let zeros = Tensor::zeros(net.input_shape());
        let synthetic: Vec<(&Tensor, usize)> = a
            .inputs
            .iter()
            .zip(&a.provenance)
            .filter_map(|(x, source)| match source {
                TestSource::Synthetic(class) => Some((x, *class)),
                TestSource::TrainingSample(_) => None,
            })
            .take(k)
            .collect();
        assert!(!synthetic.is_empty(), "{variant}: no synthetic test");
        for (x, class) in synthetic {
            let reference = single.synthesize(&zeros, class).unwrap();
            assert_eq!(
                bit_mismatch(x.data(), reference.input.data()),
                None,
                "{variant}: class {class} diverged from the one-state descent"
            );
        }
    }
}

#[test]
fn evaluator_cached_results_are_bit_identical_across_policies_and_reruns() {
    // The acceptance contract of the evaluator layer: serial, threaded, cold
    // and warm cache reads are all interchangeable — exact bit equality, no
    // tolerance.
    for (name, net) in zoo_networks() {
        let inputs = seeded_inputs(&net, 10, 17);
        let fresh = uncached(&net, ExecPolicy::Serial, 32);
        let baseline = fresh.activation_sets(&inputs).unwrap();
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
        // Coverage fractions through the cache match the uncached evaluator exactly.
        assert_eq!(
            serial.coverage_of_set(&inputs).unwrap(),
            fresh.coverage_of_set(&inputs).unwrap(),
            "{name}: cached set coverage diverged"
        );
        assert_eq!(
            threaded.mean_sample_coverage(&inputs).unwrap(),
            fresh.mean_sample_coverage(&inputs).unwrap(),
            "{name}: cached mean coverage diverged"
        );
    }
}

#[test]
fn detection_reports_are_bit_identical_across_policies() {
    let net = zoo::tiny_mlp(6, 14, 4, Activation::Relu, 5).unwrap();
    let probes = seeded_inputs(&net, 6, 23);
    let tests =
        FunctionalTestSuite::from_network(&net, seeded_inputs(&net, 8, 31), MatchPolicy::ArgMax)
            .unwrap();
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
