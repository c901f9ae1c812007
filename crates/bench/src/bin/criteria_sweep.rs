//! Per-criterion coverage/runtime sweep, recorded as JSON under
//! `crates/bench/results/`.
//!
//! For every built-in [`dnnip_core::criterion::CoverageCriterion`]
//! (param-gradient, neuron-activation, topk-neuron) on the scaled MNIST
//! model, measures:
//!
//! * covered-unit-set computation for a 32-sample batch (uncached),
//! * a greedy budget-10 selection through a **cold** in-memory workspace
//!   (registry + evaluator construction paid inside the timed region), then a
//!   warm rerun through the session workspace (all covered-set cache hits),
//! * the criterion's unit count and the selection's final coverage.
//!
//! The session workspace resolves its persistent tier from `DNNIP_CACHE_DIR`
//! / `DNNIP_CACHE_PERSIST`, so running this binary twice against the same
//! directory reports nonzero `disk_hits` on the second run — the CI
//! cross-process cache check greps exactly that from the JSON. Results are
//! printed and written to `crates/bench/results/criteria_sweep.json`.
//!
//! ```text
//! cargo run --release -p dnnip-bench --bin criteria_sweep [smoke|default|paper]
//! DNNIP_CACHE_DIR=/tmp/c cargo run --release -p dnnip-bench --bin criteria_sweep
//! ```

use dnnip_bench::{cache_banner, seed_from_env_or, workspace_from_env, ExperimentProfile};
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::criterion::builtin_criteria;
use dnnip_core::eval::{CacheStats, Evaluator};
use dnnip_core::generator::GenerationMethod;
use dnnip_core::par::ExecPolicy;
use dnnip_core::workspace::{TestGenRequest, Workspace};
use dnnip_nn::zoo;
use dnnip_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

struct Row {
    criterion: &'static str,
    units: usize,
    sets_ms: f64,
    select_cold_ms: f64,
    select_warm_ms: f64,
    final_coverage: f32,
    hit_rate: f64,
}

fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One untimed warm-up rep, then the best of `reps` timed runs.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let profile = ExperimentProfile::from_env_or_args();
    let seed = seed_from_env_or(1);
    let pool_size = 32usize;
    let budget = 10usize;
    let reps = if profile == ExperimentProfile::Smoke {
        2
    } else {
        5
    };
    println!("== Criterion sweep (pool = {pool_size}, budget = {budget}, scaled MNIST model) ==");
    let ws = workspace_from_env();
    println!("profile: {}, seed: {seed}", profile.name());
    println!("{}\n", cache_banner(&ws));

    let net = zoo::mnist_model_scaled(seed).expect("scaled MNIST geometry");
    let pool: Vec<Tensor> = (0..pool_size)
        .map(|i| Tensor::from_fn(&[1, 16, 16], |j| ((i * 256 + j) as f32 * 0.07).sin().abs()))
        .collect();
    // Key the pool once: each criterion's request runs on a clone of it,
    // and clones carry their source's content keys.
    Tensor::content_keys(&pool);
    let config = CoverageConfig {
        exec: ExecPolicy::auto(),
        ..CoverageConfig::default()
    };
    let fingerprint = ws.register("mnist-scaled", net.clone(), config);

    let mut rows: Vec<Row> = Vec::new();
    for criterion in builtin_criteria(&config) {
        let id = criterion.id();
        let request =
            TestGenRequest::new(fingerprint, GenerationMethod::TrainingSetSelection, budget)
                .with_criterion(criterion.clone())
                .with_candidates(pool.clone());

        // Covered-set computation, uncached (budget 0 disables the cache).
        let raw = Evaluator::with_criterion_cache_bytes(&net, config, criterion.clone(), 0);
        let sets_ms = time_ms(reps, || {
            black_box(raw.activation_sets(black_box(&pool)).expect("sets"));
        });

        // Cold selection: a fresh in-memory workspace (registration, engine
        // and evaluator construction all inside the timed region, no
        // persistent tier so later reps stay genuinely cold). The request is
        // reused as-is — fingerprints are content-addressed, so the cold
        // workspace resolves the same key — and built outside the closure so
        // the timing measures selection, not candidate-pool cloning.
        let select_cold_ms = time_ms(reps, || {
            let cold = Workspace::new();
            cold.register("mnist-scaled", net.clone(), config);
            black_box(cold.run(black_box(&request)).expect("selection"));
        });

        // Session-workspace run: first pass computes (or loads from the
        // persistent tier in a second process), the timed reruns are
        // in-memory warm. This iteration is the only session traffic of its
        // criterion, so the change in the workspace-wide counters is the
        // criterion's own hit rate.
        let before = ws.cache_stats();
        let result = ws.run(&request).expect("selection");
        let select_warm_ms = time_ms(reps, || {
            black_box(ws.run(black_box(&request)).expect("warm selection"));
        });
        let after = ws.cache_stats();
        let traffic = CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            ..CacheStats::default()
        };
        rows.push(Row {
            criterion: id,
            units: result.num_units,
            sets_ms,
            select_cold_ms,
            select_warm_ms,
            final_coverage: result.final_coverage(),
            hit_rate: traffic.hit_rate(),
        });
    }

    println!("  criterion          units   sets ms  select cold  select warm  coverage  hit rate");
    println!("  ------------------ ------- -------- ------------ ------------ --------- --------");
    for row in &rows {
        println!(
            "  {:<18} {:>7} {:>8.2} {:>12.2} {:>12.3} {:>8.1}% {:>7.1}%",
            row.criterion,
            row.units,
            row.sets_ms,
            row.select_cold_ms,
            row.select_warm_ms,
            row.final_coverage * 100.0,
            row.hit_rate * 100.0
        );
    }
    let disk = ws.disk_stats();
    if let Some(d) = &disk {
        println!(
            "\n  disk tier: {} hits / {} misses, {} writes ({} errors)",
            d.hits, d.misses, d.writes, d.write_errors
        );
    }
    // Machine-readable counter for CI's cross-process cache check: a literal
    // `disk_hits=<n>` line is far more robust to grep than sed over JSON.
    println!(
        "disk_hits={}",
        disk.as_ref().map(|d| d.hits).unwrap_or_default()
    );

    // Hand-rolled JSON (the workspace has no serde): flat and diff-friendly.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"per-criterion selection sweep, scaled MNIST model\",\n");
    json.push_str(&format!("  \"pool_size\": {pool_size},\n"));
    json.push_str(&format!("  \"budget\": {budget},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"cache_dir\": {:?},\n",
        ws.cache_dir()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "none".to_string())
    ));
    let (dh, dm, dw, de) = disk
        .map(|d| (d.hits, d.misses, d.writes, d.write_errors))
        .unwrap_or_default();
    json.push_str(&format!("  \"disk_hits\": {dh},\n"));
    json.push_str(&format!("  \"disk_misses\": {dm},\n"));
    json.push_str(&format!("  \"disk_writes\": {dw},\n"));
    json.push_str(&format!("  \"disk_write_errors\": {de},\n"));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"criterion\": \"{}\", \"units\": {}, \"sets_best_ms\": {:.3}, \
             \"select_cold_best_ms\": {:.3}, \"select_warm_best_ms\": {:.3}, \
             \"final_coverage\": {:.4}, \"cache_hit_rate\": {:.4}}}{}\n",
            row.criterion,
            row.units,
            row.sets_ms,
            row.select_cold_ms,
            row.select_warm_ms,
            row.final_coverage,
            row.hit_rate,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let out_path = format!("{out_dir}/criteria_sweep.json");
    std::fs::create_dir_all(out_dir).expect("create results dir");
    std::fs::write(&out_path, &json).expect("write results json");
    println!("\nwrote {out_path}");
}
