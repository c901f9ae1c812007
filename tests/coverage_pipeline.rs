//! Cross-crate coverage behaviour: the mechanics behind the paper's Fig. 2 and
//! Fig. 3 on a small trained ReLU model.
//!
//! These tests pin down the *mechanical* properties the experiments rely on
//! (well-formed coverage values, monotone curves, greedy dominance, saturation).
//! The *empirical* orderings of Fig. 2/Fig. 3 (training images vs OOD vs noise,
//! method comparison at paper scale) are produced by the experiment binaries in
//! `dnnip-bench` and recorded in EXPERIMENTS.md, because they depend on model
//! scale and training budget rather than on code correctness.

use dnnip::dataset::digits::{synthetic_mnist, DigitConfig};
use dnnip::dataset::{noise, ood};
use dnnip::nn::train::{train, TrainConfig};
use dnnip::nn::zoo;
use dnnip::prelude::*;

/// `budget` tests from `pool` with `method` under `criterion`, through a
/// fresh workspace.
fn generate(
    model: &Network,
    pool: &[Tensor],
    method: GenerationMethod,
    criterion: &str,
    budget: usize,
) -> dnnip::core::generator::GeneratedTests {
    let ws = Workspace::new();
    let key = ws.register("model", model.clone(), CoverageConfig::default());
    ws.run(
        &TestGenRequest::new(key, method, budget)
            .with_criterion_spec(criterion)
            .with_candidates(pool.to_vec()),
    )
    .unwrap()
    .tests
}

fn trained_relu_cnn() -> (Network, Vec<Tensor>) {
    let data = synthetic_mnist(&DigitConfig::with_size(8), 150, 21);
    let mut model = zoo::tiny_cnn(6, 10, Activation::Relu, 9).unwrap();
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
    (model, data.inputs)
}

#[test]
fn image_families_produce_valid_and_distinct_coverage() {
    let (model, training) = trained_relu_cnn();
    let evaluator = Evaluator::new(&model, CoverageConfig::default());
    let n = 30;
    let train_cov = evaluator.mean_sample_coverage(&training[..n]).unwrap();
    let ood_imgs = ood::ood_images(1, 8, n, &ood::OodConfig::default(), 2);
    let ood_cov = evaluator.mean_sample_coverage(&ood_imgs).unwrap();
    let noise_imgs = noise::noise_images(&[1, 8, 8], n, &noise::NoiseConfig::default(), 2);
    let noise_cov = evaluator.mean_sample_coverage(&noise_imgs).unwrap();

    for (name, cov) in [("train", train_cov), ("ood", ood_cov), ("noise", noise_cov)] {
        assert!(
            cov > 0.0 && cov <= 1.0,
            "{name} coverage {cov} outside (0, 1]"
        );
    }
    // A ReLU model never has every parameter active for the average single image:
    // dead units leave their fan-in/fan-out weights unactivated.
    assert!(
        train_cov < 1.0,
        "per-image coverage should not saturate at 100% on a ReLU model"
    );
    // Training images of a trained model activate a measurable share of
    // parameters (the premise of Algorithm 1). The absolute level depends on
    // model scale; the 8x8 ReLU fixture sits low because digit backgrounds leave
    // most spatial units dead.
    assert!(
        train_cov > 0.05,
        "training-image coverage {train_cov} suspiciously low"
    );
}

#[test]
fn greedy_selection_curve_is_monotone_and_saturates() {
    let (model, training) = trained_relu_cnn();
    let result = generate(
        &model,
        &training,
        GenerationMethod::TrainingSetSelection,
        "param-gradient",
        40,
    );
    let curve = &result.coverage_curve;
    assert!(!curve.is_empty());
    for w in curve.windows(2) {
        assert!(w[1] >= w[0] - 1e-6, "coverage curve must be non-decreasing");
    }
    // Greedy marginal gains are non-increasing (submodularity), so the first
    // test's contribution is the largest single-step gain.
    if curve.len() >= 3 {
        let first_gain = curve[0];
        let last_gain = curve[curve.len() - 1] - curve[curve.len() - 2];
        assert!(
            first_gain >= last_gain - 1e-6,
            "first gain {first_gain} vs last gain {last_gain}"
        );
    }
    // Either the budget was used up or the selection stopped because no candidate
    // added coverage — both are valid saturation behaviours.
    assert!(curve.len() <= 40);
    assert!(result.final_coverage() <= 1.0);
}

#[test]
fn combined_generation_beats_training_only_at_equal_budget() {
    let (model, training) = trained_relu_cnn();
    let coverage =
        |method| generate(&model, &training, method, "param-gradient", 20).final_coverage();
    let combined = coverage(GenerationMethod::Combined);
    let training_only = coverage(GenerationMethod::TrainingSetSelection);
    let random = coverage(GenerationMethod::RandomSelection);
    assert!(combined >= training_only - 1e-6);
    assert!(training_only >= random - 1e-6);
}

#[test]
fn full_neuron_coverage_does_not_imply_full_parameter_coverage() {
    // The paper's motivating observation (Section II-B): covering every neuron
    // with *some* test does not exercise every weight, because a weight needs its
    // source and destination neurons active in the *same* test.
    let (model, training) = trained_relu_cnn();
    let param = Evaluator::with_cache_bytes(&model, CoverageConfig::default(), 0);
    let neuron = Evaluator::with_criterion(
        &model,
        CoverageConfig::default(),
        std::sync::Arc::new(NeuronActivation { threshold: 0.0 }),
    );
    // Use the whole training pool: neuron coverage gets as high as it ever will.
    let neuron_cov = neuron.coverage_of_set(&training).unwrap();
    let param_cov_best_10 = {
        let chosen = generate(
            &model,
            &training,
            GenerationMethod::TrainingSetSelection,
            "neuron-activation:0",
            10,
        )
        .inputs;
        param.coverage_of_set(&chosen).unwrap()
    };
    assert!(
        neuron_cov > 0.1,
        "neuron coverage of the whole pool is {neuron_cov}"
    );
    assert!(
        param_cov_best_10 < 1.0,
        "10 neuron-coverage tests should not accidentally cover every parameter"
    );
}
