//! Schema gate for the committed benchmark artifacts.
//!
//! Default mode walks every `crates/bench/results/*.json`, requires each to
//! parse as a JSON object, and checks the known files for their expected
//! top-level keys — so a refactor that silently changes an artifact's shape
//! (or a bench that starts writing truncated output) fails CI instead of
//! producing a plot-breaking file months later. Unknown files only need to
//! parse: adding a new bench doesn't require touching this gate.
//!
//! ```text
//! cargo run --release -p dnnip-bench --bin validate_results
//! cargo run --release -p dnnip-bench --bin validate_results -- --ndjson out.ndjson --expect 3
//! ```
//!
//! The `--ndjson` mode validates a `dnnip-serve` transcript instead: `FILE`
//! must hold exactly `--expect N` lines, each a JSON object carrying `id`
//! and `ok` — CI's serve smoke pipes a session through the binary and gates
//! on this.

use std::path::Path;
use std::process::ExitCode;

use dnnip_serve::json::Json;

/// Required top-level keys per known artifact.
const EXPECTED: &[(&str, &[&str])] = &[
    (
        "criteria_sweep.json",
        &[
            "bench",
            "pool_size",
            "budget",
            "seed",
            "cache_dir",
            "disk_hits",
            "disk_misses",
            "disk_writes",
            "disk_write_errors",
            "results",
        ],
    ),
    (
        "eval_cache.json",
        &[
            "bench",
            "budgets",
            "sweep_rounds",
            "seed",
            "uncached_best_ms",
            "cached_best_ms",
            "speedup_cached_vs_uncached",
            "cache",
        ],
    ),
    (
        "parallel_coverage.json",
        &[
            "bench",
            "cache_dir",
            "batch_size",
            "seed",
            "available_parallelism",
            "warnings",
            "results",
        ],
    ),
    (
        "workspace_cache.json",
        &[
            "bench",
            "cache_dir",
            "pool_size",
            "budget",
            "seed",
            "shared_budget",
            "disk",
            "results",
        ],
    ),
    (
        "serve_load.json",
        &[
            "bench",
            "profile",
            "requests",
            "workers",
            "seed",
            "coalesce",
            "wall_s",
            "throughput_rps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "errors",
            "timeouts",
            "cache",
            "burst",
        ],
    ),
    (
        "graph_sweep.json",
        &[
            "bench",
            "profile",
            "seed",
            "model",
            "nodes",
            "num_parameters",
            "pool_size",
            "budget",
            "results",
        ],
    ),
];

/// Fields every cache-stats block (in-memory tier residency) must carry,
/// wherever an artifact embeds one.
const CACHE_STATS_KEYS: &[&str] = &["resident_bytes", "bytes_per_entry"];

/// Per-row keys of `parallel_coverage.json`'s `results` array — the fields the
/// CI speedup gate greps for and the oversubscription warnings derive from.
const PARALLEL_ROW_KEYS: &[&str] = &[
    "engine",
    "exec",
    "threads_requested",
    "effective_workers",
    "oversubscribed",
    "best_ms",
    "samples_per_sec",
    "speedup_vs_reference",
];

/// Deep checks for `parallel_coverage.json`: every result row carries the
/// effective-worker fields, and `warnings` is an array of strings (empty on
/// hosts with enough hardware threads for every requested configuration).
fn check_parallel_coverage(value: &Json) -> Result<(), String> {
    let rows = value
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| "\"results\" is not an array".to_string())?;
    if rows.is_empty() {
        return Err("\"results\" is empty".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        for key in PARALLEL_ROW_KEYS {
            if row.get(key).is_none() {
                return Err(format!("results[{i}]: missing key {key:?}"));
            }
        }
    }
    let warnings = value
        .get("warnings")
        .and_then(Json::as_array)
        .ok_or_else(|| "\"warnings\" is not an array".to_string())?;
    if warnings.iter().any(|w| w.as_str().is_none()) {
        return Err("\"warnings\" contains a non-string entry".to_string());
    }
    Ok(())
}

/// Deep checks for `serve_load.json`'s `burst` block: the off/on replay
/// pair both carry their latency/throughput fields, and the coalescing
/// totals the `on` run recorded are present and numeric.
fn check_serve_load(value: &Json) -> Result<(), String> {
    let burst = value
        .get("burst")
        .ok_or_else(|| "\"burst\" is missing".to_string())?;
    for key in ["model", "criterion", "requests", "rounds", "off", "on"] {
        if burst.get(key).is_none() {
            return Err(format!("burst: missing key {key:?}"));
        }
    }
    for side in ["off", "on"] {
        let run = burst.get(side).expect("checked above");
        for key in ["wall_s", "throughput_rps", "p50_ms", "p95_ms"] {
            if run.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("burst.{side}: missing numeric key {key:?}"));
            }
        }
    }
    let on = burst.get("on").expect("checked above");
    for key in ["batches", "mean_batch_size", "shared_samples"] {
        if on.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("burst.on: missing numeric key {key:?}"));
        }
    }
    let cache = value
        .get("cache")
        .ok_or_else(|| "\"cache\" is missing".to_string())?;
    for key in CACHE_STATS_KEYS {
        if cache.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("cache: missing numeric key {key:?}"));
        }
    }
    Ok(())
}

/// Deep checks for `workspace_cache.json`'s `shared_budget` block: the
/// residency fields of the shared in-memory tier are present
/// and numeric.
fn check_workspace_cache(value: &Json) -> Result<(), String> {
    let shared = value
        .get("shared_budget")
        .ok_or_else(|| "\"shared_budget\" is missing".to_string())?;
    for key in ["entries", "bytes", "models"] {
        if shared.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("shared_budget: missing numeric key {key:?}"));
        }
    }
    for key in CACHE_STATS_KEYS {
        if shared.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("shared_budget: missing numeric key {key:?}"));
        }
    }
    Ok(())
}

/// Deep checks for `graph_sweep.json`: every criterion row covers a nonzero
/// number of units (a graph model whose selection covers nothing means the
/// engine's Add/Concat walk broke), and the paper's `param-gradient`
/// criterion has a row — the graph model runs it like any other model.
fn check_graph_sweep(value: &Json) -> Result<(), String> {
    let rows = value
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| "\"results\" is not an array".to_string())?;
    if rows.is_empty() {
        return Err("\"results\" is empty".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        for key in ["criterion", "criterion_id", "num_units", "covered_units"] {
            if row.get(key).is_none() {
                return Err(format!("results[{i}]: missing key {key:?}"));
            }
        }
        let covered = row
            .get("covered_units")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("results[{i}]: \"covered_units\" is not numeric"))?;
        if covered <= 0.0 {
            return Err(format!("results[{i}]: covered_units is {covered}, not > 0"));
        }
    }
    if !rows
        .iter()
        .any(|row| row.get("criterion_id").and_then(Json::as_str) == Some("param-gradient"))
    {
        return Err("no \"param-gradient\" row".to_string());
    }
    Ok(())
}

fn check_artifact(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
    let value = Json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    if value.as_object().is_none() {
        return Err(format!("{}: top level is not an object", path.display()));
    }
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    if let Some((_, keys)) = EXPECTED.iter().find(|(known, _)| *known == name) {
        for key in *keys {
            if value.get(key).is_none() {
                return Err(format!("{}: missing top-level key {key:?}", path.display()));
            }
        }
    }
    if name == "parallel_coverage.json" {
        check_parallel_coverage(&value).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if name == "serve_load.json" {
        check_serve_load(&value).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if name == "workspace_cache.json" {
        check_workspace_cache(&value).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if name == "graph_sweep.json" {
        check_graph_sweep(&value).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn check_results_dir() -> Result<usize, String> {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results"));
    let mut checked = 0;
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: unreadable: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        check_artifact(&path)?;
        println!("ok: {}", path.display());
        checked += 1;
    }
    // Every known artifact must actually exist: a bench that stopped writing
    // its file is as broken as one writing a malformed one.
    for (name, _) in EXPECTED {
        let path = dir.join(name);
        if !path.exists() {
            return Err(format!("{}: expected artifact is missing", path.display()));
        }
    }
    Ok(checked)
}

fn check_ndjson(path: &Path, expect: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() != expect {
        return Err(format!(
            "{}: expected {expect} response lines, found {}",
            path.display(),
            lines.len()
        ));
    }
    for (i, line) in lines.iter().enumerate() {
        let value = Json::parse(line)
            .map_err(|e| format!("{}: line {}: invalid JSON: {e}", path.display(), i + 1))?;
        for key in ["id", "ok"] {
            if value.get(key).is_none() {
                return Err(format!(
                    "{}: line {}: response lacks {key:?}",
                    path.display(),
                    i + 1
                ));
            }
        }
    }
    println!("ok: {} ({expect} responses)", path.display());
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            let checked = check_results_dir()?;
            println!("validated {checked} artifacts");
            Ok(())
        }
        [ndjson_flag, file, expect_flag, n]
            if ndjson_flag == "--ndjson" && expect_flag == "--expect" =>
        {
            let expect: usize = n.parse().map_err(|e| format!("--expect: {e}"))?;
            check_ndjson(Path::new(file), expect)
        }
        _ => Err("usage: validate_results [--ndjson FILE --expect N]".to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("validate_results: {message}");
            ExitCode::FAILURE
        }
    }
}
