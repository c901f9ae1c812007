//! Differential pins for the pluggable coverage-criterion layer.
//!
//! Two contracts are enforced exactly, with no tolerances:
//!
//! 1. **The default criterion is the paper's metric, bit for bit.** The
//!    [`ParamGradient`] criterion (and the `Evaluator::new` path that builds
//!    it implicitly) must reproduce the independent pre-batching reference
//!    pipeline — `Network::parameter_gradients` with the direct convolution
//!    kernels — on activation sets, coverage fractions and greedy selections.
//!    That reference path predates the criterion refactor and is unchanged,
//!    so agreement here pins the refactor against pre-refactor behaviour.
//! 2. **Every criterion is a first-class citizen end to end.** All three
//!    built-in criteria run through `Workspace::run` (selection and the
//!    combined generator), with cached, fresh, serial and threaded results
//!    all bit-identical per criterion, and selections equal to the reference
//!    oracle: `greedy_select_naive` over `covered_units_reference` sets.

use std::sync::Arc;

mod common;

use common::{seeded_inputs, zoo_networks};
use dnnip::core::combined::TestSource;
use dnnip::core::coverage::CoverageConfig;
use dnnip::core::criterion::builtin_criteria;
use dnnip::core::eval::Evaluator;
use dnnip::core::gradgen::GradGenConfig;
use dnnip::core::par::ExecPolicy;
use dnnip::core::select::{greedy_select_naive, SelectionResult};
use dnnip::prelude::*;

/// A workspace with `net` registered, plus its key.
fn workspace(net: &Network) -> (Workspace, dnnip::nn::fingerprint::NetworkFingerprint) {
    let ws = Workspace::new();
    let key = ws.register("net", net.clone(), CoverageConfig::default());
    (ws, key)
}

/// Greedy selection of `budget` tests from `pool` under `criterion`,
/// through the workspace front door.
fn select(
    ws: &Workspace,
    key: dnnip::nn::fingerprint::NetworkFingerprint,
    criterion: &Arc<dyn CoverageCriterion>,
    pool: &[Tensor],
    budget: usize,
) -> TestGenReport {
    ws.run(
        &TestGenRequest::new(key, GenerationMethod::TrainingSetSelection, budget)
            .with_criterion(Arc::clone(criterion))
            .with_candidates(pool.to_vec()),
    )
    .unwrap()
}

/// The reference oracle: the paper's naive Algorithm 1 over the criterion's
/// independent per-sample reference sets (`covered_units_reference`).
fn reference_selection(
    net: &Network,
    criterion: &Arc<dyn CoverageCriterion>,
    pool: &[Tensor],
    budget: usize,
) -> SelectionResult {
    let evaluator =
        Evaluator::with_criterion(net, CoverageConfig::default(), Arc::clone(criterion));
    let sets: Vec<_> = pool
        .iter()
        .map(|x| evaluator.activation_set_reference(x).unwrap())
        .collect();
    greedy_select_naive(&sets, evaluator.num_units(), budget).unwrap()
}

/// A report's selection and coverage curve equal the oracle's, bit for bit.
fn assert_matches_oracle(report: &TestGenReport, oracle: &SelectionResult, what: &str) {
    assert_eq!(
        report.selected_indices(),
        oracle.selected,
        "{what}: indices"
    );
    let bits = |curve: &[f32]| curve.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&report.tests.coverage_curve),
        bits(&oracle.coverage_curve),
        "{what}: coverage curve"
    );
}

#[test]
fn param_gradient_criterion_is_bit_identical_to_the_reference_pipeline() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 12, 3);
        let config = CoverageConfig::default();
        let implicit = Evaluator::new(&net, config);
        let explicit =
            Evaluator::with_criterion(&net, config, Arc::new(ParamGradient::from_config(&config)));
        assert_eq!(implicit.criterion().id(), "param-gradient");
        assert_eq!(implicit.num_units(), net.num_parameters(), "{name}");

        // The independent reference path: per-sample, non-batched, direct
        // conv kernels — untouched by the criterion refactor.
        let reference: Vec<_> = pool
            .iter()
            .map(|x| implicit.activation_set_reference(x).unwrap())
            .collect();
        let a = implicit.activation_sets(&pool).unwrap();
        let b = explicit.activation_sets(&pool).unwrap();
        assert_eq!(a, reference, "{name}: implicit evaluator diverged");
        assert_eq!(b, reference, "{name}: explicit criterion diverged");

        // Coverage fractions are exactly the reference-set densities.
        let direct = implicit.coverage_of_set(&pool).unwrap();
        let from_reference =
            dnnip::core::bitset::Bitset::union_of(net.num_parameters(), &reference).density();
        assert_eq!(direct, from_reference, "{name}: coverage fraction diverged");

        // Greedy selection through the workspace, under its default
        // criterion, equals the naive greedy over the reference sets.
        let (ws, key) = workspace(&net);
        let via_workspace = ws
            .run(
                &TestGenRequest::new(key, GenerationMethod::TrainingSetSelection, 6)
                    .with_candidates(pool.clone()),
            )
            .unwrap();
        let via_reference = greedy_select_naive(&reference, net.num_parameters(), 6).unwrap();
        assert_matches_oracle(&via_workspace, &via_reference, name);
    }
}

#[test]
fn every_criterion_selects_end_to_end_with_cached_equals_fresh() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 14, 7);
        let (ws, key) = workspace(&net);
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            let id = criterion.id();
            let cold = select(&ws, key, &criterion, &pool, 6);
            let warm = select(&ws, key, &criterion, &pool, 6);
            assert_eq!(
                warm.cache.misses, cold.cache.misses,
                "{name}/{id}: warm selection recomputed covered sets"
            );
            assert!(
                !cold.selected_indices().is_empty(),
                "{name}/{id}: nothing selected"
            );
            assert!(cold.final_coverage() > 0.0, "{name}/{id}");
            let oracle = reference_selection(&net, &criterion, &pool, 6);
            assert_matches_oracle(&cold, &oracle, &format!("{name}/{id} cold"));
            assert_matches_oracle(&warm, &oracle, &format!("{name}/{id} warm"));
            // A brand-new workspace (fresh cache) agrees bit for bit.
            let (fresh_ws, fresh_key) = workspace(&net);
            let fresh = select(&fresh_ws, fresh_key, &criterion, &pool, 6);
            assert_matches_oracle(&fresh, &oracle, &format!("{name}/{id} fresh"));
        }
    }
}

#[test]
fn every_criterion_generates_combined_suites_deterministically() {
    let net = zoo::tiny_mlp(6, 16, 4, Activation::Relu, 17).unwrap();
    let pool = seeded_inputs(&net, 10, 11);
    for criterion in builtin_criteria(&CoverageConfig::default()) {
        let id = criterion.id();
        let run = || {
            let (ws, key) = workspace(&net);
            ws.run(
                &TestGenRequest::new(key, GenerationMethod::Combined, 8)
                    .with_criterion(Arc::clone(&criterion))
                    .with_gradgen(GradGenConfig {
                        steps: 5,
                        ..GradGenConfig::default()
                    })
                    .with_candidates(pool.clone()),
            )
            .unwrap()
            .tests
        };
        let a = run();
        let b = run();
        assert_eq!(a.inputs.len(), 8, "{id}");
        assert_eq!(
            a.inputs, b.inputs,
            "{id}: combined generation not deterministic"
        );
        assert_eq!(a.provenance, b.provenance, "{id}");
        assert_eq!(a.coverage_curve, b.coverage_curve, "{id}");
        // The curve is non-decreasing under every criterion.
        for w in a.coverage_curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "{id}: coverage curve decreased");
        }
    }
}

#[test]
fn combined_runs_the_greedy_selection_until_the_switch() {
    // Section IV-D: the combined generator runs Algorithm 1 until Algorithm 2
    // offers more per test. Its pool picks come from its own argmax scan, not
    // from the lazy greedy behind `TrainingSetSelection`, so every pool pick
    // before the first synthetic test must be the selection's pick at the
    // same position, for as long as the selection lasts (it stops once no
    // candidate adds coverage).
    let budget = 10;
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 16, 5);
        for spec in ["param-gradient", "neuron-activation:0.25"] {
            let (ws, key) = workspace(&net);
            let run = |method| {
                ws.run(
                    &TestGenRequest::new(key, method, budget)
                        .with_criterion_spec(spec)
                        .with_gradgen(GradGenConfig {
                            steps: 5,
                            ..GradGenConfig::default()
                        })
                        .with_candidates(pool.clone()),
                )
                .unwrap()
            };
            let combined = run(GenerationMethod::Combined);
            let selection = run(GenerationMethod::TrainingSetSelection).selected_indices();
            let before_switch: Vec<usize> = combined
                .tests
                .provenance
                .iter()
                .map_while(|source| match source {
                    TestSource::TrainingSample(i) => Some(*i),
                    TestSource::Synthetic(_) => None,
                })
                .collect();
            let n = before_switch.len().min(selection.len());
            assert!(n > 0, "{name}/{spec}: no pool pick to compare");
            assert_eq!(
                before_switch[..n],
                selection[..n],
                "{name}/{spec}: combined left Algorithm 1's order before the switch"
            );
        }
    }
}

#[test]
fn criteria_are_execution_policy_invariant() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 10, 13);
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            let id = criterion.id();
            let serial = Evaluator::with_criterion(
                &net,
                CoverageConfig {
                    exec: ExecPolicy::Serial,
                    batch_size: 32,
                    ..CoverageConfig::default()
                },
                criterion.clone(),
            );
            let threaded = Evaluator::with_criterion(
                &net,
                CoverageConfig {
                    exec: ExecPolicy::Threads(4),
                    batch_size: 3,
                    ..CoverageConfig::default()
                },
                criterion.clone(),
            );
            assert_eq!(
                serial.activation_sets(&pool).unwrap(),
                threaded.activation_sets(&pool).unwrap(),
                "{name}/{id}: covered sets diverged across policies"
            );
            assert_eq!(
                serial.coverage_of_set(&pool).unwrap(),
                threaded.coverage_of_set(&pool).unwrap(),
                "{name}/{id}: coverage diverged across policies"
            );
        }
    }
}

#[test]
fn criterion_generated_suites_detect_tampering() {
    // The whole point of a test suite, under every criterion: an unmodified IP
    // passes, a parameter-tampered IP fails.
    let net = zoo::tiny_mlp(6, 16, 4, Activation::Relu, 29).unwrap();
    let pool = seeded_inputs(&net, 12, 19);
    let (ws, key) = workspace(&net);
    for criterion in builtin_criteria(&CoverageConfig::default()) {
        let id = criterion.id();
        let tests = select(&ws, key, &criterion, &pool, 6).tests.inputs;
        let evaluator = ws
            .evaluator(key, &CriterionSpec::Instance(criterion))
            .unwrap();
        let suite = FunctionalTestSuite::from_evaluator(
            &evaluator,
            tests,
            MatchPolicy::OutputTolerance(1e-5),
        )
        .unwrap();
        let clean = FloatIp::new(net.clone());
        assert!(
            suite.validate(&clean).unwrap().passed,
            "{id}: clean IP failed"
        );
        let mut tampered = net.clone();
        let last = tampered.num_parameters() - 1;
        tampered.set_parameter(last, 30.0).unwrap();
        assert!(
            !suite.validate(&FloatIp::new(tampered)).unwrap().passed,
            "{id}: tampering went undetected"
        );
    }
}
