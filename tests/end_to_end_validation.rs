//! End-to-end vendor → user flow: train a model on synthetic digits, generate a
//! functional-test suite with the combined method, ship a quantized accelerator
//! IP, and check that clean deliveries validate while tampered ones are caught.

use dnnip::dataset::digits::{synthetic_mnist, DigitConfig};
use dnnip::faults::attacks::random_bit_flips;
use dnnip::nn::train::{train, TrainConfig};
use dnnip::nn::zoo;
use dnnip::prelude::*;
use rand::SeedableRng;

/// Shared fixture: a small trained CNN on 8x8 digits plus its training data.
fn trained_model() -> (Network, Vec<Tensor>, Vec<usize>) {
    let data = synthetic_mnist(&DigitConfig::with_size(8), 200, 3);
    let mut model = zoo::tiny_cnn(6, 10, Activation::Tanh, 5).unwrap();
    let config = TrainConfig {
        epochs: 3,
        batch_size: 16,
        learning_rate: 0.05,
        ..TrainConfig::default()
    };
    train(&mut model, &data.inputs, &data.labels, &config).unwrap();
    (model, data.inputs, data.labels)
}

/// Generate `budget` tests from `pool` with `method` through a fresh
/// workspace.
fn generate(
    model: &Network,
    pool: &[Tensor],
    method: GenerationMethod,
    budget: usize,
) -> dnnip::core::generator::GeneratedTests {
    let ws = Workspace::new();
    let key = ws.register("model", model.clone(), CoverageConfig::default());
    ws.run(&TestGenRequest::new(key, method, budget).with_candidates(pool.to_vec()))
        .unwrap()
        .tests
}

#[test]
fn clean_ip_passes_and_tampered_ip_fails() {
    let (model, training, _) = trained_model();
    let tests = generate(&model, &training, GenerationMethod::Combined, 15);
    assert!(
        tests.final_coverage() > 0.5,
        "combined tests should cover most parameters"
    );

    let suite =
        FunctionalTestSuite::from_network(&model, tests.inputs.clone(), MatchPolicy::ArgMax)
            .unwrap();

    // Clean float IP and clean quantized accelerator both validate.
    assert!(suite.validate(&FloatIp::new(model.clone())).unwrap().passed);
    let accel = AcceleratorIp::from_network(&model, BitWidth::Int16);
    assert!(suite.validate(&accel).unwrap().passed);

    // A single-bias attack (parameter substitution on the delivered model) is
    // caught. The attack is applied to the float parameters — the scenario of
    // Liu et al.'s fault injection; the quantized-memory attack surface is
    // exercised separately by `bit_flips_in_weight_memory_are_detected`, because
    // the accelerator's fixed-point format clamps out-of-range bias overwrites.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let attack = SingleBiasAttack::with_magnitude(10.0);
    let perturbation = attack.generate(&model, &training[..8], &mut rng).unwrap();
    let tampered = perturbation.apply_to_network(&model).unwrap();
    let verdict = suite.validate(&FloatIp::new(tampered)).unwrap();
    assert!(
        !verdict.passed,
        "SBA must be detected by the functional tests"
    );
    assert!(verdict.first_failure.is_some());
}

#[test]
fn suite_survives_serialization_and_still_detects_attacks() {
    let (model, training, _) = trained_model();
    let tests = generate(
        &model,
        &training,
        GenerationMethod::TrainingSetSelection,
        10,
    );
    let suite =
        FunctionalTestSuite::from_network(&model, tests.inputs, MatchPolicy::OutputTolerance(1e-3))
            .unwrap();
    let restored = FunctionalTestSuite::from_bytes(&suite.to_bytes()).unwrap();
    assert_eq!(restored.len(), suite.len());

    // Detection still works through the serialization round trip.
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let perturbation = GradientDescentAttack::default()
        .generate(&model, &training[..6], &mut rng)
        .unwrap();
    let tampered = perturbation.apply_to_network(&model).unwrap();
    assert!(!restored.validate(&FloatIp::new(tampered)).unwrap().passed);
}

#[test]
fn bit_flips_in_weight_memory_are_detected() {
    let (model, training, _) = trained_model();
    let tests = generate(&model, &training, GenerationMethod::Combined, 12);
    // A strict output-tolerance policy catches even small memory corruptions.
    let suite =
        FunctionalTestSuite::from_network(&model, tests.inputs, MatchPolicy::OutputTolerance(1e-4))
            .unwrap();
    // Golden outputs must be produced by the *shipped* (quantized) IP for a strict
    // policy, so build the suite against the accelerator's effective network.
    let accel = AcceleratorIp::from_network(&model, BitWidth::Int16);
    let effective = accel.effective_network().unwrap();
    let suite = FunctionalTestSuite::from_network(
        &effective,
        suite.inputs,
        MatchPolicy::OutputTolerance(1e-4),
    )
    .unwrap();
    assert!(suite.validate(&accel).unwrap().passed);

    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let mut detected = 0;
    let trials = 10;
    for _ in 0..trials {
        let mut tampered = AcceleratorIp::from_network(&model, BitWidth::Int16);
        // Flip a burst of 32 random bits (MSB flips move parameters a lot, LSB
        // flips barely; a burst is almost always visible).
        let fault = random_bit_flips(tampered.memory().num_bits(), 32, &mut rng).unwrap();
        fault.apply(&mut tampered).unwrap();
        if !suite.validate(&tampered).unwrap().passed {
            detected += 1;
        }
    }
    assert!(
        detected >= trials * 7 / 10,
        "only {detected}/{trials} bit-flip bursts were detected"
    );
}

#[test]
fn training_actually_learns_the_synthetic_digits() {
    let (model, inputs, labels) = trained_model();
    let accuracy = dnnip::nn::train::evaluate(&model, &inputs, &labels).unwrap();
    assert!(
        accuracy > 0.5,
        "tiny CNN should learn the 8x8 synthetic digits well above chance, got {accuracy}"
    );
}
