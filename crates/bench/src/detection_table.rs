//! Shared driver for the Table II / Table III detection-rate experiments.

use dnnip_core::detection::{detection_rate, DetectionConfig};
use dnnip_core::generator::GenerationMethod;
use dnnip_core::gradgen::GradGenConfig;
use dnnip_core::par::ExecPolicy;
use dnnip_core::protocol::FunctionalTestSuite;
use dnnip_core::workspace::{TestGenRequest, Workspace};
use dnnip_faults::attacks::{Attack, GradientDescentAttack, RandomPerturbation, SingleBiasAttack};
use dnnip_faults::detection::MatchPolicy;
use dnnip_tensor::Tensor;

use crate::{criterion_spec_from_env, pct, register_model, ExperimentProfile, PreparedModel};

/// One row of a detection table: a test budget and the six detection rates
/// (SBA/GDA/random for the neuron-coverage baseline and for the proposed
/// parameter-coverage tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionRow {
    /// Number of functional tests used.
    pub num_tests: usize,
    /// Detection rates of the neuron-coverage baseline `[sba, gda, random]`.
    pub baseline: [f32; 3],
    /// Detection rates of the proposed tests `[sba, gda, random]`.
    pub proposed: [f32; 3],
}

/// Compute the full detection table for a prepared model through `ws`.
///
/// # Panics
///
/// Panics on generation or detection errors — the experiment cannot continue
/// meaningfully and all configurations used here are statically valid.
pub fn detection_table(
    ws: &Workspace,
    model: &PreparedModel,
    profile: ExperimentProfile,
    seed: u64,
) -> Vec<DetectionRow> {
    // The proposed tests are generated under the criterion selected by
    // `DNNIP_CRITERION` (the paper's parameter-gradient metric when unset);
    // the comparison baseline stays fixed at neuron coverage either way.
    let fingerprint = register_model(ws, model);
    let pool_size = profile.candidate_pool().min(model.dataset.len());
    let pool = &model.dataset.inputs[..pool_size];
    // Key the pool once: both requests below run on clones of it, and
    // clones carry their source's content keys.
    Tensor::content_keys(pool);
    let probes: Vec<Tensor> = model.dataset.inputs[..profile.probe_count().min(pool_size)].to_vec();

    let max_budget = *profile
        .table_test_counts()
        .iter()
        .max()
        .expect("non-empty budgets");

    // Generate the largest suites once; smaller budgets are prefixes, which is
    // exactly how the paper sweeps N (the greedy orders are nested). Each is
    // released as one package with its golden outputs; the budget sweep replays
    // prefixes of it.
    //
    // The paper's user checks whether the IP "functions correctly" on the
    // shared tests; the argmax policy models a classification-API user and is
    // the discriminative setting (an exact-output comparison detects nearly
    // every perturbation and saturates both methods at ~100%).
    let release = |tests: Vec<Tensor>| {
        FunctionalTestSuite::from_network(&model.network, tests, MatchPolicy::ArgMax)
            .expect("golden outputs")
    };
    let proposed_all = release(
        ws.run(
            &TestGenRequest::new(fingerprint, GenerationMethod::Combined, max_budget)
                .with_criterion_selector(criterion_spec_from_env())
                .with_gradgen(GradGenConfig {
                    exec: ExecPolicy::auto(),
                    ..GradGenConfig::default()
                })
                .with_candidates(pool.to_vec()),
        )
        .expect("combined generation")
        .tests
        .inputs,
    );
    let baseline_all = release(
        ws.run(
            &TestGenRequest::new(
                fingerprint,
                GenerationMethod::NeuronCoverageBaseline,
                max_budget,
            )
            .with_candidates(pool.to_vec()),
        )
        .expect("neuron-coverage selection")
        .tests
        .inputs,
    );

    // The paper does not say how many parameters its "random gaussian noise"
    // perturbation touches. A fixed handful (e.g. 16) out of tens of thousands is
    // almost never visible in the argmax of any test, so the random model here
    // corrupts 1% of the parameters — dense enough to matter, sparse enough that
    // test quality still decides whether it is caught.
    let random_params = (model.network.num_parameters() / 100).max(16);
    let attacks: [(&str, Box<dyn Attack>); 3] = [
        ("sba", Box::new(SingleBiasAttack::default())),
        ("gda", Box::new(GradientDescentAttack::default())),
        (
            "random",
            Box::new(RandomPerturbation {
                num_params: random_params,
                std: 0.5,
            }),
        ),
    ];

    // Detection trials are independent attack + replay runs; fan them out over
    // the hardware threads (reports are bit-identical to serial).
    let config = DetectionConfig {
        trials: profile.detection_trials(),
        seed,
        exec: ExecPolicy::auto(),
    };
    let mut rows = Vec::new();
    for &n in &profile.table_test_counts() {
        let budget =
            |suite: &FunctionalTestSuite| suite.prefix(n.min(suite.len())).expect("prefix");
        let (baseline_tests, proposed_tests) = (budget(&baseline_all), budget(&proposed_all));
        let mut row = DetectionRow {
            num_tests: n,
            baseline: [0.0; 3],
            proposed: [0.0; 3],
        };
        for (i, (_, attack)) in attacks.iter().enumerate() {
            row.baseline[i] = detection_rate(
                &model.network,
                attack.as_ref(),
                &probes,
                &baseline_tests,
                &config,
            )
            .expect("baseline detection")
            .detection_rate();
            row.proposed[i] = detection_rate(
                &model.network,
                attack.as_ref(),
                &probes,
                &proposed_tests,
                &config,
            )
            .expect("proposed detection")
            .detection_rate();
        }
        rows.push(row);
    }
    rows
}

/// Print a detection table in the layout of the paper's Tables II/III.
pub fn print_detection_table(
    ws: &Workspace,
    model: &PreparedModel,
    profile: ExperimentProfile,
    seed: u64,
) {
    let criterion_id = crate::criterion_from_env(&model.coverage).id();
    println!(
        "{}: {} parameters, {} trials per cell, train acc {}, criterion {}",
        model.name,
        model.network.num_parameters(),
        profile.detection_trials(),
        pct(model.train_accuracy, 7),
        criterion_id
    );
    println!("{}", crate::cache_banner(ws));
    println!(
        "\n              |  tests with neuron coverage   |  proposed with {criterion_id} coverage"
    );
    println!("  #tests      |    SBA      GDA     Random    |    SBA      GDA     Random");
    println!("  ------------+-------------------------------+----------------------------------");
    for row in detection_table(ws, model, profile, seed) {
        println!(
            "  N={:<10} | {} {} {}   | {} {} {}",
            row.num_tests,
            pct(row.baseline[0], 8),
            pct(row.baseline[1], 8),
            pct(row.baseline[2], 8),
            pct(row.proposed[0], 8),
            pct(row.proposed[1], 8),
            pct(row.proposed[2], 8),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare_mnist;

    #[test]
    fn smoke_table_has_expected_shape_and_ranges() {
        let profile = ExperimentProfile::Smoke;
        let model = prepare_mnist(profile, 3);
        let ws = Workspace::new();
        let rows = detection_table(&ws, &model, profile, 5);
        assert_eq!(rows.len(), profile.table_test_counts().len());
        for row in &rows {
            for rate in row.baseline.iter().chain(&row.proposed) {
                assert!((0.0..=1.0).contains(rate));
            }
        }
        // More tests never hurt the proposed method's SBA detection (prefix property).
        if rows.len() >= 2 {
            assert!(rows[rows.len() - 1].proposed[0] >= rows[0].proposed[0] - 1e-6);
        }
    }
}
