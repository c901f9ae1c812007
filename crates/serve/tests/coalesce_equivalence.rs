//! Differential pin: the coalescing dispatcher (`max_batch > 1`) returns
//! responses **bit-identical** (everything except `wall_ms`) to a one-worker
//! coalescing-off engine given the same per-request seeds — including streams
//! where some requests carry already-expired deadlines. This is the serving
//! layer's end of the batch-of-N ≡ batch-of-1 determinism contract.

use std::sync::mpsc;

use dnnip_serve::json::Json;
use dnnip_serve::{Engine, EngineConfig, Handled};

/// Every response field that must agree bit-for-bit across engines
/// (`wall_ms` is schedule-dependent and excluded by construction).
const PINNED_FIELDS: &[&str] = &[
    "ok",
    "model",
    "strategy",
    "criterion",
    "num_units",
    "num_tests",
    "final_coverage",
    "coverage_curve",
    "selected_indices",
    "error",
];

/// A mixed multi-model request stream with overlapping synthetic pools,
/// several strategies/criteria, a bad request and expired deadlines.
fn stream() -> Vec<String> {
    let mut lines = Vec::new();
    // Same-model burst sharing one pool seed: the coalescing engine must
    // dedupe these across requests without changing any answer.
    for i in 0..6 {
        lines.push(format!(
            r#"{{"id":"burst{i}","model":"tiny-relu","budget":3,"seed":{i},"pool":{{"synthetic":12,"seed":40}}}}"#
        ));
    }
    // Mixed models, strategies and criteria.
    lines.push(
        r#"{"id":"tanh","model":"tiny-tanh","strategy":"random-selection","budget":2,"seed":5,"pool":{"synthetic":8,"seed":2}}"#
            .to_string(),
    );
    lines.push(
        r#"{"id":"wide","model":"mlp-wide","strategy":"combined","budget":4,"seed":7,"criterion":"topk-neuron:2","gradgen_steps":3,"pool":{"synthetic":10,"seed":9}}"#
            .to_string(),
    );
    lines.push(
        r#"{"id":"neuron","model":"tiny-relu","budget":2,"criterion":"neuron-activation:0.1","pool":{"synthetic":12,"seed":40}}"#
            .to_string(),
    );
    // Expired in queue: must fail without compute, identically, in both.
    lines.push(
        r#"{"id":"dead1","model":"mnist-scaled","budget":4,"deadline_ms":0,"pool":{"synthetic":16,"seed":1}}"#
            .to_string(),
    );
    lines.push(
        r#"{"id":"dead2","model":"tiny-relu","budget":3,"deadline_ms":0,"pool":{"synthetic":12,"seed":40}}"#
            .to_string(),
    );
    // A bad request resolving against the registry, mid-stream.
    lines.push(r#"{"id":"bogus","model":"no-such-model"}"#.to_string());
    lines
}

fn run_stream(engine: Engine, lines: &[String]) -> Vec<(String, Json)> {
    let (tx, rx) = mpsc::channel();
    for line in lines {
        assert_eq!(engine.handle(line, &tx), Handled::Continue);
    }
    engine.drain();
    drop(tx);
    let mut out: Vec<(String, Json)> = rx
        .into_iter()
        .map(|line| {
            let json = Json::parse(&line).expect("valid response JSON");
            let id = json
                .get("id")
                .and_then(Json::as_str)
                .expect("response carries id")
                .to_string();
            (id, json)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn coalescing_engine_matches_sequential_engine_bit_for_bit() {
    let lines = stream();
    let sequential = run_stream(
        Engine::in_memory(EngineConfig {
            workers: 1,
            queue_depth: 32,
            ..EngineConfig::default() // max_batch 1: coalescing off
        }),
        &lines,
    );
    let coalescing_engine = Engine::in_memory(EngineConfig {
        workers: 2,
        queue_depth: 32,
        max_batch: 4,
        batch_window_ms: 5,
        ..EngineConfig::default()
    });
    let coalesced = run_stream(coalescing_engine, &lines);
    assert_eq!(sequential.len(), lines.len());
    assert_eq!(coalesced.len(), lines.len());
    for ((id_a, a), (id_b, b)) in sequential.iter().zip(&coalesced) {
        assert_eq!(id_a, id_b);
        for field in PINNED_FIELDS {
            assert_eq!(
                a.get(field).map(Json::to_string),
                b.get(field).map(Json::to_string),
                "field {field:?} of response {id_a:?} drifted under coalescing"
            );
        }
    }
}

#[test]
fn same_model_burst_forms_batches_and_shares_samples() {
    let engine = Engine::in_memory(EngineConfig {
        workers: 1, // one worker: the burst backlog coalesces behind job 1
        queue_depth: 32,
        max_batch: 16,
        // The worker lingers for the rest of the burst after taking job 1,
        // so the batch forms even when it would finish job 1 before the
        // next submission.
        batch_window_ms: 20,
        ..EngineConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    for i in 0..10 {
        let line = format!(
            r#"{{"id":"b{i}","model":"tiny-relu","budget":3,"seed":{i},"pool":{{"synthetic":12,"seed":40}}}}"#
        );
        engine.handle(&line, &tx);
    }
    // The whole burst arrives within the batch window, so the worker drains
    // it as one batch.
    let stats = engine.drain();
    drop(tx);
    let responses: Vec<Json> = rx.into_iter().map(|l| Json::parse(&l).unwrap()).collect();
    assert_eq!(responses.len(), 10);
    for r in &responses {
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    }
    assert!(stats.batches >= 1, "burst must form at least one batch");
    assert!(stats.requests >= 2);
    assert!(
        stats.shared_samples > 0,
        "identical pools across a batch must dedupe"
    );
    assert!(stats.mean_batch_size() >= 2.0);
}
