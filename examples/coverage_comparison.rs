//! Parameter coverage vs neuron coverage on the same model and budget — the
//! comparison that motivates the paper (its Tables II/III baseline), plus the
//! Fig. 2 image-family ranking (training set vs out-of-distribution vs noise)
//! and a sweep over the pluggable coverage criteria.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example coverage_comparison
//! ```

use dnnip::core::criterion::builtin_criteria;
use dnnip::dataset::digits::{synthetic_mnist, DigitConfig};
use dnnip::dataset::{noise, ood};
use dnnip::nn::train::{train, TrainConfig};
use dnnip::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = synthetic_mnist(&DigitConfig::with_size(16), 300, 9);
    let mut model = zoo::mnist_model_scaled(13)?;
    train(
        &mut model,
        &data.inputs,
        &data.labels,
        &TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..TrainConfig::default()
        },
    )?;

    // --- Fig. 2 style comparison: mean per-image validation coverage. ---
    // One Workspace serves every criterion below from one shared cache budget.
    let ws = Workspace::new();
    let key = ws.register("mnist-scaled", model.clone(), CoverageConfig::default());
    let evaluator = ws.default_evaluator(key)?;
    let n_images = 50;
    let training_images = &data.inputs[..n_images];
    let ood_images = ood::ood_images(1, 16, n_images, &ood::OodConfig::default(), 4);
    let noise_images =
        noise::noise_images(&[1, 16, 16], n_images, &noise::NoiseConfig::default(), 4);
    println!("Mean per-image validation coverage (Fig. 2 analogue):");
    println!(
        "  training images : {:.1}%",
        evaluator.mean_sample_coverage(training_images)? * 100.0
    );
    println!(
        "  OOD images      : {:.1}%",
        evaluator.mean_sample_coverage(&ood_images)? * 100.0
    );
    println!(
        "  noise images    : {:.1}%",
        evaluator.mean_sample_coverage(&noise_images)? * 100.0
    );

    // --- Same budget, two selection metrics. ---
    let budget = 15usize;
    let param_tests = ws
        .run(
            &TestGenRequest::new(key, GenerationMethod::Combined, budget)
                .with_candidates(data.inputs.clone()),
        )?
        .tests;
    let neuron_tests = ws
        .run(
            &TestGenRequest::new(key, GenerationMethod::NeuronCoverageBaseline, budget)
                .with_candidates(data.inputs.clone()),
        )?
        .tests
        .inputs;
    // The baseline's own metric, for scoring both suites under it.
    let neuron_evaluator = ws.evaluator(key, &CriterionSpec::Spec("neuron-activation".into()))?;

    println!("\nWith a budget of {budget} functional tests:");
    println!(
        "  proposed (parameter coverage) : parameter coverage {:.1}%, neuron coverage {:.1}%",
        param_tests.final_coverage() * 100.0,
        neuron_evaluator.coverage_of_set(&param_tests.inputs)? * 100.0
    );
    println!(
        "  baseline (neuron coverage)    : parameter coverage {:.1}%, neuron coverage {:.1}%",
        evaluator.coverage_of_set(&neuron_tests)? * 100.0,
        neuron_evaluator.coverage_of_set(&neuron_tests)? * 100.0
    );

    // --- Every pluggable criterion over the same suite: one greedy selection
    // each, all served by criterion-keyed evaluator caches. ---
    println!("\nPer-criterion greedy selection (budget {budget}):");
    for criterion in builtin_criteria(&CoverageConfig::default()) {
        let selection = ws.run(
            &TestGenRequest::new(key, GenerationMethod::TrainingSetSelection, budget)
                .with_criterion(criterion)
                .with_candidates(data.inputs[..100].to_vec()),
        )?;
        println!(
            "  {:<18}: {:>6} units, final coverage {:.1}% with {} tests",
            selection.criterion_id,
            selection.num_units,
            selection.final_coverage() * 100.0,
            selection.tests.len()
        );
    }

    // --- And the consequence: detection rates under the three attack models. ---
    let probes = &data.inputs[..12];
    let detection = DetectionConfig {
        trials: 60,
        seed: 5,
        exec: dnnip::core::par::ExecPolicy::auto(),
    };
    let proposed_suite =
        FunctionalTestSuite::from_network(&model, param_tests.inputs.clone(), MatchPolicy::ArgMax)?;
    let baseline_suite =
        FunctionalTestSuite::from_network(&model, neuron_tests, MatchPolicy::ArgMax)?;
    println!(
        "\nDetection rate over {} trials (argmax policy):",
        detection.trials
    );
    for (label, attack) in [
        ("SBA", &SingleBiasAttack::default() as &dyn Attack),
        ("GDA", &GradientDescentAttack::default() as &dyn Attack),
        ("random", &RandomPerturbation::default() as &dyn Attack),
    ] {
        let proposed = detection_rate(&model, attack, probes, &proposed_suite, &detection)?;
        let baseline = detection_rate(&model, attack, probes, &baseline_suite, &detection)?;
        println!(
            "  {label:<7}: proposed {:.1}%  vs  neuron-coverage baseline {:.1}%",
            proposed.detection_rate() * 100.0,
            baseline.detection_rate() * 100.0
        );
    }
    Ok(())
}
