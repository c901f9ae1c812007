//! CI smoke test: the full paper pipeline (train a tiny model, generate
//! functional tests, validate clean / tampered / quantized IPs) at sizes small
//! enough to run in seconds even in debug builds.
//!
//! This mirrors `examples/quickstart.rs` end-to-end so the quickstart path can
//! never silently rot; everything is seeded, so the run is deterministic.

use dnnip::dataset::digits::{synthetic_mnist, DigitConfig};
use dnnip::nn::train::{train, TrainConfig};
use dnnip::prelude::*;
use rand::SeedableRng;

#[test]
fn quickstart_pipeline_end_to_end() {
    // Vendor side: train a tiny CNN on a tiny synthetic digit set.
    let data = synthetic_mnist(&DigitConfig::with_size(8), 80, 1);
    let (train_set, _) = data.split(0.9, 2);

    let mut model = zoo::tiny_cnn(6, 10, Activation::Relu, 7).expect("model construction");
    let config = TrainConfig {
        epochs: 2,
        batch_size: 8,
        learning_rate: 0.05,
        ..TrainConfig::default()
    };
    let report = train(&mut model, &train_set.inputs, &train_set.labels, &config)
        .expect("training the tiny model");
    assert_eq!(report.epochs.len(), 2);
    assert!(report.final_accuracy().is_finite());

    // Vendor side: generate functional tests with the paper's combined method.
    let ws = Workspace::new();
    let key = ws.register("tiny-cnn", model.clone(), CoverageConfig::default());
    let tests = ws
        .run(
            &TestGenRequest::new(key, GenerationMethod::Combined, 6)
                .with_candidates(train_set.inputs.clone()),
        )
        .expect("test generation")
        .tests;
    assert!(!tests.inputs.is_empty());
    assert!(tests.len() <= 6);
    let coverage = tests.final_coverage();
    assert!(
        coverage > 0.0 && coverage <= 1.0,
        "coverage {coverage} out of (0, 1]"
    );

    let suite = FunctionalTestSuite::from_network(
        &model,
        tests.inputs.clone(),
        MatchPolicy::OutputTolerance(1e-3),
    )
    .expect("suite packaging");

    // Suite round-trips through its on-the-wire form (vendor -> user handoff).
    let suite = FunctionalTestSuite::from_bytes(&suite.to_bytes()).expect("suite round trip");

    // User side: a clean IP passes validation.
    let clean = FloatIp::new(model.clone());
    let verdict = suite.validate(&clean).expect("clean validation");
    assert!(
        verdict.passed,
        "clean IP must pass its own functional tests"
    );
    assert_eq!(verdict.num_mismatches, 0);

    // User side: a tampered IP (single bias attack) is caught.
    let attack = SingleBiasAttack::with_magnitude(10.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let perturbation = attack
        .generate(&model, &train_set.inputs[..4], &mut rng)
        .expect("attack generation");
    let tampered = perturbation
        .apply_to_network(&model)
        .expect("applying the perturbation");
    let verdict = suite
        .validate(&FloatIp::new(tampered))
        .expect("tampered validation");
    assert!(!verdict.passed, "a 10.0-magnitude SBA must be detected");

    // User side: the quantized accelerator IP still matches on predictions.
    let accel = AcceleratorIp::from_network(&model, BitWidth::Int16);
    let argmax_suite =
        FunctionalTestSuite::from_network(&model, tests.inputs.clone(), MatchPolicy::ArgMax)
            .expect("argmax suite");
    let verdict = argmax_suite
        .validate(&accel)
        .expect("accelerator validation");
    assert!(
        verdict.passed,
        "Int16 quantization must preserve predicted classes on the functional tests"
    );
}
