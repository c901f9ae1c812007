//! Load harness for the `dnnip-serve` engine: replays hundreds of mixed
//! model/criterion/strategy requests through the bounded worker pool and
//! reports throughput plus per-request latency percentiles, then replays a
//! same-model burst twice — coalescing off, then on — so the artifact
//! records what the batching dispatcher actually shares on this host.
//!
//! The mixed request stream cycles deterministically (seeded) over the
//! builtin model zoo, the three coverage criteria and three selection
//! strategies, with varying seeds and pool sizes — the traffic shape a
//! validation lab's queue has, where cache reuse across requests is
//! partial, not total. The burst stream is the opposite extreme: one
//! model, one criterion, one shared candidate pool — the traffic
//! cross-request coalescing targets. Latency is measured per request from
//! submission to response; throughput over the whole replay wall time.
//!
//! ```text
//! cargo run --release -p dnnip-bench --bin load_gen [smoke|default|paper] [--coalesce]
//! ```
//!
//! `--coalesce` turns the batching dispatcher on for the mixed replay
//! (`max_batch 8`, `batch_window_ms 2`); the burst comparison always runs
//! both ways. The final `coalesced_batches=N` line is machine-readable —
//! CI greps it to assert the burst actually formed batches.
//!
//! Results are printed and written to `crates/bench/results/serve_load.json`
//! (smoke keeps the committed default-profile file: CI runs smoke on every
//! push and must not churn the tracked results).

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dnnip_bench::{seed_from_env_or, ExperimentProfile};
use dnnip_core::eval::CacheStats;
use dnnip_serve::json::Json;
use dnnip_serve::protocol::BUILTIN_MODELS;
use dnnip_serve::{CoalesceSnapshot, Engine, EngineConfig, Handled};

const CRITERIA: &[&str] = &["param-gradient", "neuron-activation:0.25", "topk-neuron:2"];
const STRATEGIES: &[&str] = &["training-set-selection", "random-selection", "combined"];

/// The burst stream's fixed shape (recorded in the artifact).
const BURST_MODEL: &str = "tiny-relu";
const BURST_CRITERION: &str = "param-gradient";

/// One replayed request: the NDJSON line plus its measured latency.
struct Sample {
    id: usize,
    latency_ms: f64,
    ok: bool,
    timeout: bool,
}

/// Everything one replay of a request stream measures.
struct ReplayOutcome {
    wall_s: f64,
    /// Per-request latencies, sorted ascending.
    latencies_ms: Vec<f64>,
    errors: usize,
    timeouts: usize,
    coalesce: CoalesceSnapshot,
    /// Final activation-set cache statistics (hits, misses, residency).
    cache: CacheStats,
}

impl ReplayOutcome {
    fn throughput_rps(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s
    }

    fn p(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }
}

fn request_line(i: usize, seed: u64) -> String {
    // Deterministic mixed traffic: models cycle slowest so consecutive
    // requests hit different engines (the worst case for cache locality).
    let model = BUILTIN_MODELS[i % BUILTIN_MODELS.len()];
    let criterion = CRITERIA[(i / BUILTIN_MODELS.len()) % CRITERIA.len()];
    let strategy = STRATEGIES[(i / (BUILTIN_MODELS.len() * CRITERIA.len())) % STRATEGIES.len()];
    let pool = 8 + (i % 3) * 4; // 8 / 12 / 16-sample pools
    let budget = 2 + i % 3;
    // A handful of distinct pool seeds per model keeps the cache hit rate
    // partial: some requests recompute, some reuse.
    let pool_seed = seed + (i % 5) as u64;
    format!(
        r#"{{"id":"q{i}","model":"{model}","strategy":"{strategy}","budget":{budget},"seed":{},"criterion":"{criterion}","gradgen_steps":2,"pool":{{"synthetic":{pool},"seed":{pool_seed}}}}}"#,
        seed + i as u64
    )
}

/// One burst request: same model, same criterion, one shared pool seed —
/// every request's candidate tensors are identical, so a coalescing batch
/// materializes the pool once and computes the covered-unit sets once for
/// the whole group. Each request carries a (generous, never-firing)
/// deadline, the way SLO-bound burst traffic does: the sequential engine
/// then pays one supervision helper thread per request, while a coalesced
/// batch shares a single helper — the amortization the dispatcher exists
/// for.
fn burst_line(i: usize, seed: u64) -> String {
    format!(
        r#"{{"id":"q{i}","model":"{BURST_MODEL}","strategy":"training-set-selection","budget":3,"seed":{},"criterion":"{BURST_CRITERION}","deadline_ms":5000,"pool":{{"synthetic":12,"seed":{seed}}}}}"#,
        seed + i as u64
    )
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    // Nearest-rank on a sorted slice.
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// Replay `lines` (ids `q0..qN`) through a fresh engine built from
/// `config`, measuring per-request latency and the engine's final
/// coalescing totals. Panics if any request errors out or goes unanswered.
fn replay(config: EngineConfig, lines: &[String]) -> ReplayOutcome {
    let requests = lines.len();
    let engine = Engine::in_memory(config);
    let (out_tx, out_rx) = mpsc::channel::<String>();

    // Submission stamps; the collector thread matches responses by id and
    // computes per-request latency.
    let submitted: Arc<Mutex<Vec<Option<Instant>>>> = Arc::new(Mutex::new(vec![None; requests]));
    let collector_submitted = Arc::clone(&submitted);
    let collector = std::thread::spawn(move || -> Vec<Sample> {
        out_rx
            .into_iter()
            .map(|line| {
                let done = Instant::now();
                let response = Json::parse(&line).expect("service responses are valid JSON");
                let id: usize = response
                    .get("id")
                    .and_then(Json::as_str)
                    .and_then(|s| s.strip_prefix('q'))
                    .and_then(|s| s.parse().ok())
                    .expect("response ids echo the request ids");
                let start = collector_submitted.lock().unwrap()[id].expect("id was submitted");
                let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
                let timeout = response
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    == Some("timeout");
                Sample {
                    id,
                    latency_ms: done.duration_since(start).as_secs_f64() * 1e3,
                    ok,
                    timeout,
                }
            })
            .collect()
    });

    let replay_start = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        submitted.lock().unwrap()[i] = Some(Instant::now());
        // A full queue blocks here: submission rate adapts to service rate.
        assert_eq!(engine.handle(line, &out_tx), Handled::Continue);
    }
    let (coalesce, cache) = engine.drain_with_cache_stats();
    let wall_s = replay_start.elapsed().as_secs_f64();
    drop(out_tx);
    let samples = collector.join().expect("collector thread");

    assert_eq!(samples.len(), requests, "every request must be answered");
    let mut seen = vec![false; requests];
    for s in &samples {
        assert!(!seen[s.id], "duplicate response for q{}", s.id);
        seen[s.id] = true;
    }
    let errors = samples.iter().filter(|s| !s.ok).count();
    let timeouts = samples.iter().filter(|s| s.timeout).count();
    assert_eq!(
        errors, 0,
        "the replayed streams contain no invalid requests"
    );

    let mut latencies_ms: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    latencies_ms.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ReplayOutcome {
        wall_s,
        latencies_ms,
        errors,
        timeouts,
        coalesce,
        cache,
    }
}

/// Replay `lines` `rounds` times on fresh engines and keep the
/// best-throughput round, since a single ~2 ms burst replay is at the mercy
/// of one scheduler hiccup.
fn best_of(rounds: usize, config: &EngineConfig, lines: &[String]) -> ReplayOutcome {
    (0..rounds)
        .map(|_| replay(config.clone(), lines))
        .max_by(|a, b| {
            a.throughput_rps()
                .partial_cmp(&b.throughput_rps())
                .expect("finite throughput")
        })
        .expect("at least one round")
}

fn print_outcome(label: &str, o: &ReplayOutcome) {
    println!(
        "  {label}: {:.2} s wall, {:.1} req/s, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        o.wall_s,
        o.throughput_rps(),
        o.p(50.0),
        o.p(95.0),
        o.p(99.0)
    );
}

fn main() {
    let profile = ExperimentProfile::from_env_or_args();
    let coalesce = std::env::args().any(|a| a == "--coalesce");
    let seed = seed_from_env_or(1);
    let requests = match profile {
        ExperimentProfile::Smoke => 60,
        ExperimentProfile::Default => 240,
        ExperimentProfile::Paper => 960,
    };
    let workers = std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(2);
    println!("== serve load harness: {requests} mixed requests over {workers} workers ==");
    println!(
        "profile: {}, seed: {seed}, coalesce: {}",
        profile.name(),
        if coalesce { "on" } else { "off" }
    );

    let mixed_lines: Vec<String> = (0..requests).map(|i| request_line(i, seed)).collect();
    let mixed = replay(
        EngineConfig {
            workers,
            queue_depth: 64,
            default_deadline_ms: None,
            max_batch: if coalesce { 8 } else { 1 },
            batch_window_ms: if coalesce { 2 } else { 0 },
        },
        &mixed_lines,
    );
    println!("\nmixed replay:");
    print_outcome("all", &mixed);
    println!(
        "  errors:     {} ({} timeouts)",
        mixed.errors, mixed.timeouts
    );
    println!(
        "  cache:      {} entries resident in {} bytes ({:.0} bytes/entry)",
        mixed.cache.entries,
        mixed.cache.resident_bytes,
        mixed.cache.bytes_per_entry()
    );
    if coalesce {
        println!(
            "  coalesced:  {} batches, mean {:.1} req/batch, {} shared samples",
            mixed.coalesce.batches,
            mixed.coalesce.mean_batch_size(),
            mixed.coalesce.shared_samples
        );
    }

    // The burst comparison always runs both ways on fresh single-worker
    // engines (off first): same stream, same host, the only difference is
    // the dispatcher. This is the pair the acceptance artifact records.
    let burst_requests = match profile {
        ExperimentProfile::Smoke => 24,
        ExperimentProfile::Default => 96,
        ExperimentProfile::Paper => 384,
    };
    let burst_rounds = 3;
    println!(
        "\n== same-model burst: {burst_requests} {BURST_MODEL}/{BURST_CRITERION} requests, shared pool, best of {burst_rounds} =="
    );
    let burst_lines: Vec<String> = (0..burst_requests).map(|i| burst_line(i, seed)).collect();
    let burst_base = EngineConfig {
        workers: 1, // one worker: the backlog queues behind job 1 either way
        queue_depth: 64,
        default_deadline_ms: None,
        ..EngineConfig::default()
    };
    let burst_off = best_of(burst_rounds, &burst_base, &burst_lines);
    // No linger window for the on-run: the backlog queues up behind the
    // first (cold) request by itself, and a multi-millisecond wait would
    // dwarf the microsecond-scale warm requests it batches.
    let burst_on = best_of(
        burst_rounds,
        &EngineConfig {
            max_batch: 16,
            ..burst_base
        },
        &burst_lines,
    );
    print_outcome("coalesce off", &burst_off);
    print_outcome("coalesce on ", &burst_on);
    println!(
        "  shared:     {} batches, mean {:.1} req/batch, {} shared samples",
        burst_on.coalesce.batches,
        burst_on.coalesce.mean_batch_size(),
        burst_on.coalesce.shared_samples
    );
    // Machine-readable gate line: CI asserts the burst formed batches.
    println!("coalesced_batches={}", burst_on.coalesce.batches);

    let json = format!(
        "{{\n  \"bench\": \"dnnip-serve mixed-traffic load replay\",\n  \
         \"profile\": \"{}\",\n  \"requests\": {requests},\n  \"workers\": {workers},\n  \
         \"seed\": {seed},\n  \"coalesce\": {coalesce},\n  \"wall_s\": {:.3},\n  \
         \"throughput_rps\": {:.2},\n  \"p50_ms\": {:.3},\n  \
         \"p95_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \"errors\": {},\n  \
         \"timeouts\": {},\n  \"cache\": {{\n    \
         \"entries\": {},\n    \"resident_bytes\": {},\n    \
         \"bytes_per_entry\": {:.2}\n  }},\n  \"burst\": {{\n    \
         \"model\": \"{BURST_MODEL}\",\n    \"criterion\": \"{BURST_CRITERION}\",\n    \
         \"requests\": {burst_requests},\n    \"rounds\": {burst_rounds},\n    \"off\": {{\n      \
         \"wall_s\": {:.3},\n      \"throughput_rps\": {:.2},\n      \
         \"p50_ms\": {:.3},\n      \"p95_ms\": {:.3}\n    }},\n    \"on\": {{\n      \
         \"wall_s\": {:.3},\n      \"throughput_rps\": {:.2},\n      \
         \"p50_ms\": {:.3},\n      \"p95_ms\": {:.3},\n      \
         \"batches\": {},\n      \"mean_batch_size\": {:.2},\n      \
         \"shared_samples\": {}\n    }}\n  }}\n}}\n",
        profile.name(),
        mixed.wall_s,
        mixed.throughput_rps(),
        mixed.p(50.0),
        mixed.p(95.0),
        mixed.p(99.0),
        mixed.errors,
        mixed.timeouts,
        mixed.cache.entries,
        mixed.cache.resident_bytes,
        mixed.cache.bytes_per_entry(),
        burst_off.wall_s,
        burst_off.throughput_rps(),
        burst_off.p(50.0),
        burst_off.p(95.0),
        burst_on.wall_s,
        burst_on.throughput_rps(),
        burst_on.p(50.0),
        burst_on.p(95.0),
        burst_on.coalesce.batches,
        burst_on.coalesce.mean_batch_size(),
        burst_on.coalesce.shared_samples,
    );
    if profile == ExperimentProfile::Smoke {
        // CI smoke must not rewrite the committed default-profile results.
        println!("\nsmoke profile: leaving results/serve_load.json untouched");
        return;
    }
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let out_path = format!("{out_dir}/serve_load.json");
    std::fs::create_dir_all(out_dir).expect("create results dir");
    std::fs::write(&out_path, &json).expect("write results json");
    println!("\nwrote {out_path}");
}
