//! Differential pinning of concurrent `Workspace::run` calls against
//! sequential ones: fanning a mixed request set over worker threads that
//! share one workspace (as the `dnnip-serve` worker pool does) must not
//! change a single generated bit.
//!
//! The contract under test (see [`run_all`]):
//!
//! * reports come back **in request order**, one per request;
//! * every strategy draws randomness only from its request's own seeds, so a
//!   report's payload — test inputs, coverage-curve bits, provenance,
//!   selection indices, criterion — is bit-identical however the fan-out
//!   schedules it;
//! * a failing request yields its error in its own slot.
//!
//! Cache/disk counter snapshots and wall times are deliberately NOT compared:
//! they observe whatever traffic happened to precede them and are the one
//! schedule-dependent part of a report.

use dnnip::core::coverage::CoverageConfig;
use dnnip::core::generator::GenerationMethod;
use dnnip::core::gradgen::GradGenConfig;
use dnnip::core::par::ExecPolicy;
use dnnip::core::workspace::{TestGenRequest, Workspace};
use dnnip::nn::fingerprint::NetworkFingerprint;
use dnnip::prelude::*;

/// Pin against `DNNIP_SEED` when set, defaulting like the experiment
/// binaries.
fn seed() -> u64 {
    std::env::var("DNNIP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(41)
}

fn models() -> Vec<Network> {
    vec![
        zoo::tiny_mlp(6, 14, 4, Activation::Relu, seed()).unwrap(),
        zoo::tiny_mlp(6, 10, 3, Activation::Tanh, seed() + 1).unwrap(),
    ]
}

fn pool(n: usize, salt: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            Tensor::from_fn(&[6], |j| {
                ((i * 97 + j * 13 + salt) as f32 * 0.17).sin().abs()
            })
        })
        .collect()
}

/// A fresh workspace with both models registered, plus their keys.
fn workspace() -> (Workspace, Vec<NetworkFingerprint>) {
    let ws = Workspace::new();
    let keys = models()
        .into_iter()
        .enumerate()
        .map(|(i, m)| ws.register(format!("m{i}"), m, CoverageConfig::default()))
        .collect();
    (ws, keys)
}

/// Run every request against one shared workspace, fanned out over
/// `policy`, returning the results in request order.
fn run_all(
    ws: &Workspace,
    requests: &[TestGenRequest],
    policy: ExecPolicy,
) -> Vec<dnnip::core::Result<TestGenReport>> {
    dnnip::core::par::map(policy, requests, |request| ws.run(request))
}

/// The mixed request set: both models × three criteria × several strategies
/// and seeds — the shape of traffic `dnnip-serve` handles.
fn mixed_requests(keys: &[NetworkFingerprint]) -> Vec<TestGenRequest> {
    let gradgen = GradGenConfig {
        steps: 4,
        ..GradGenConfig::default()
    };
    let mut requests = Vec::new();
    for (m, &key) in keys.iter().enumerate() {
        let candidates = pool(14, m * 1000);
        for (c, criterion) in ["param-gradient", "neuron-activation:0.25", "topk-neuron:2"]
            .iter()
            .enumerate()
        {
            for (s, strategy) in [
                GenerationMethod::TrainingSetSelection,
                GenerationMethod::RandomSelection,
                GenerationMethod::Combined,
            ]
            .iter()
            .enumerate()
            {
                requests.push(
                    TestGenRequest::new(key, *strategy, 4)
                        .with_seed(seed() + (m * 100 + c * 10 + s) as u64)
                        .with_criterion_spec(*criterion)
                        .with_gradgen(gradgen)
                        .with_candidates(candidates.clone()),
                );
            }
        }
    }
    requests
}

/// Exact comparison of everything in a report that the determinism contract
/// covers (counters and wall time excluded by design).
fn assert_reports_identical(a: &TestGenReport, b: &TestGenReport, context: &str) {
    assert_eq!(a.model, b.model, "{context}: model");
    assert_eq!(a.model_name, b.model_name, "{context}: model name");
    assert_eq!(a.strategy, b.strategy, "{context}: strategy");
    assert_eq!(a.criterion_id, b.criterion_id, "{context}: criterion");
    assert_eq!(a.num_units, b.num_units, "{context}: unit count");
    assert_eq!(
        a.tests.inputs.len(),
        b.tests.inputs.len(),
        "{context}: test count"
    );
    for (i, (x, y)) in a.tests.inputs.iter().zip(&b.tests.inputs).enumerate() {
        assert_eq!(x, y, "{context}: test input {i} drifted");
    }
    assert_eq!(
        a.tests.coverage_curve.len(),
        b.tests.coverage_curve.len(),
        "{context}: curve length"
    );
    for (i, (x, y)) in a
        .tests
        .coverage_curve
        .iter()
        .zip(&b.tests.coverage_curve)
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: curve point {i}");
    }
    assert_eq!(
        a.tests.provenance, b.tests.provenance,
        "{context}: provenance"
    );
    assert_eq!(
        a.selected_indices(),
        b.selected_indices(),
        "{context}: selection indices"
    );
}

#[test]
fn run_all_under_threads_is_bit_identical_to_sequential_run() {
    let (sequential_ws, keys) = workspace();
    let requests = mixed_requests(&keys);
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| sequential_ws.run(r).unwrap())
        .collect();

    // A fresh workspace (cold caches) fanned out over 4 workers: same bits.
    let (threaded_ws, threaded_keys) = workspace();
    assert_eq!(keys, threaded_keys, "registration must be deterministic");
    let threaded = run_all(&threaded_ws, &requests, ExecPolicy::Threads(4));
    assert_eq!(threaded.len(), requests.len());
    for (i, (fanned, sequential)) in threaded.iter().zip(&sequential).enumerate() {
        let fanned = fanned.as_ref().expect("request succeeds under fan-out");
        // Order: slot i must hold request i's strategy/model, not just any
        // successful report.
        assert_eq!(fanned.model, requests[i].model, "slot {i} out of order");
        assert_eq!(fanned.strategy, requests[i].strategy);
        assert_reports_identical(fanned, sequential, &format!("request {i}"));
    }
}

#[test]
fn serial_policy_and_auto_fanout_agree() {
    let (ws_a, keys) = workspace();
    let requests = mixed_requests(&keys)[..6].to_vec();
    let serial = run_all(&ws_a, &requests, ExecPolicy::Serial);
    let (ws_b, _) = workspace();
    let auto = run_all(&ws_b, &requests, ExecPolicy::auto());
    for (i, (a, b)) in serial.iter().zip(&auto).enumerate() {
        assert_reports_identical(
            a.as_ref().unwrap(),
            b.as_ref().unwrap(),
            &format!("request {i}"),
        );
    }
}

#[test]
fn warm_and_cold_fanout_return_the_same_bits() {
    // Running the same batch twice through ONE workspace: the second pass is
    // served largely from the shared cache, and must still be bit-identical.
    let (ws, keys) = workspace();
    let requests = mixed_requests(&keys)[..9].to_vec();
    let cold = run_all(&ws, &requests, ExecPolicy::Threads(3));
    let warm = run_all(&ws, &requests, ExecPolicy::Threads(3));
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_reports_identical(
            c.as_ref().unwrap(),
            w.as_ref().unwrap(),
            &format!("request {i}"),
        );
    }
}

#[test]
fn failing_requests_keep_their_slots_under_fanout() {
    let (ws, keys) = workspace();
    let mut requests = mixed_requests(&keys)[..4].to_vec();
    // Slot 1: unregistered model. Slot 3: malformed criterion spec.
    requests[1].model = NetworkFingerprint { lo: 1, hi: 2 };
    requests[3] = requests[3].clone().with_criterion_spec("no-such-criterion");
    let results = run_all(&ws, &requests, ExecPolicy::Threads(4));
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok());
    assert!(results[1].is_err(), "unregistered model fails alone");
    assert!(results[2].is_ok());
    assert!(results[3].is_err(), "bad criterion fails alone");
    let sequential = ws.run(&requests[0]).unwrap();
    assert_reports_identical(results[0].as_ref().unwrap(), &sequential, "slot 0");
}
