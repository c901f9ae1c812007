//! The full IP-vendor flow of the paper's Fig. 1, including shipping the model
//! as a quantized hardware accelerator IP:
//!
//! 1. train the model;
//! 2. generate functional tests (Algorithm 1 → Algorithm 2 combined);
//! 3. compute golden outputs and package the `(X, Y)` suite;
//! 4. build the accelerator IP (architecture + quantized weight memory);
//! 5. serialize everything the vendor releases.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example ip_vendor_flow
//! ```

use dnnip::dataset::objects::{synthetic_cifar, ObjectConfig};
use dnnip::nn::serialize;
use dnnip::nn::train::{evaluate, train, TrainConfig};
use dnnip::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the CIFAR-like model (scaled profile for CPU friendliness).
    let data = synthetic_cifar(&ObjectConfig::with_size(16), 300, 11);
    let (train_set, test_set) = data.split(0.8, 3);
    let mut model = zoo::cifar_model_scaled(21)?;
    // 0.02, not the MNIST example's 0.05: SGD with momentum diverges on the
    // ReLU CIFAR model at the higher rate (same guard as the bench harness),
    // and a diverged vendor model cannot pass its own validation suite.
    let config = TrainConfig {
        epochs: 2,
        batch_size: 16,
        learning_rate: 0.02,
        ..TrainConfig::default()
    };
    train(&mut model, &train_set.inputs, &train_set.labels, &config)?;
    println!(
        "Vendor model trained: held-out accuracy {:.1}%",
        evaluate(&model, &test_set.inputs, &test_set.labels)? * 100.0
    );

    // 2. Generate functional tests with the combined method through the
    //    vendor's session Workspace (with `DiskCacheConfig::from_env()` this
    //    would additionally persist covered sets across vendor runs).
    let ws = Workspace::new();
    let key = ws.register("cifar-scaled", model.clone(), CoverageConfig::default());
    let evaluator = ws.default_evaluator(key)?;
    let report = ws.run(
        &TestGenRequest::new(key, GenerationMethod::Combined, 15)
            .with_candidates(train_set.inputs.clone()),
    )?;
    let combined = &report.tests;
    let from_pool = combined.pool_indices().len();
    println!(
        "Generated {} tests ({} from the training set, {} synthetic), coverage {:.1}%",
        combined.len(),
        from_pool,
        combined.len() - from_pool,
        combined.final_coverage() * 100.0
    );

    // 3. Package the released suite: tests + golden outputs + comparison policy.
    //    The argmax policy tolerates the accelerator's benign quantization error.
    //    A smaller budget of the same tests is a `prefix` of this suite, which
    //    reuses its golden outputs instead of recomputing them.
    let suite = FunctionalTestSuite::from_evaluator(
        &evaluator,
        combined.inputs.clone(),
        MatchPolicy::ArgMax,
    )?;
    let suite_bytes = suite.to_bytes();

    // 4. Build the accelerator IP the vendor actually ships: the architecture plus
    //    an 8-bit quantized weight memory.
    let ip = AcceleratorIp::from_network(&model, BitWidth::Int8);
    println!(
        "Accelerator IP: {} parameters in a {}-byte weight memory ({} bits/param)",
        ip.memory().num_parameters(),
        ip.memory().num_bytes(),
        ip.memory().width().bits()
    );

    // 5. Serialize the vendor artefacts (model for the vendor's archive, suite for
    //    the user).
    let model_bytes = serialize::to_bytes(&model);
    println!(
        "Released artefacts: model archive {} bytes, functional-test suite {} bytes",
        model_bytes.len(),
        suite_bytes.len()
    );

    // The user receives the IP + suite and validates before first use.
    let restored_suite = FunctionalTestSuite::from_bytes(&suite_bytes)?;
    let verdict = restored_suite.validate(&ip)?;
    println!(
        "User-side validation of the delivered IP: passed = {} ({} tests)",
        verdict.passed, verdict.num_tests
    );
    assert!(verdict.passed, "a clean delivery must validate");
    Ok(())
}
