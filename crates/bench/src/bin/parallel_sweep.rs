//! Throughput sweep of the batched multi-threaded coverage engine, recorded as
//! JSON under `crates/bench/results/`.
//!
//! Measures activation-set computation for a 32-sample batch on the scaled
//! MNIST model under:
//!
//! * the per-sample reference engine (the pre-batching serial baseline),
//! * the batched engine with `ExecPolicy::Serial`,
//! * the batched engine with `ExecPolicy::Threads(n)` for n ∈ {2, 4, 8}.
//!
//! Every row runs through a budget-0 `Evaluator` (the uncached compute path):
//! the reference row calls `Evaluator::activation_set_reference` per sample,
//! the batched rows `Evaluator::activation_sets` on the whole batch.
//!
//! Each threaded row records the **effective** worker count — `min(requested,
//! hardware threads)` — alongside the requested one, and rows requesting more
//! workers than the machine has are flagged as oversubscribed (their numbers
//! measure scheduler churn, not scaling). Results (wall time, throughput,
//! speedup vs. the reference, worker accounting, warnings) are printed and
//! written to `crates/bench/results/parallel_coverage.json` so before/after
//! numbers ride with the repository. The line `batched_serial_speedup=<x>` on
//! stdout is machine-readable; CI gates on it staying ≥ 5.
//!
//! ```text
//! cargo run --release -p dnnip-bench --bin parallel_sweep [smoke|default|paper]
//! DNNIP_SEED=123 cargo run --release -p dnnip-bench --bin parallel_sweep
//! ```

use dnnip_bench::{seed_from_env_or, ExperimentProfile};
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::eval::Evaluator;
use dnnip_core::par::ExecPolicy;
use dnnip_core::workspace::DiskCacheConfig;
use dnnip_nn::zoo;
use dnnip_tensor::Tensor;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

/// One measured configuration.
struct Row {
    engine: &'static str,
    exec: String,
    threads_requested: usize,
    effective_workers: usize,
    oversubscribed: bool,
    time_ms: f64,
    throughput: f64,
}

fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One untimed warm-up rep, then the best of `reps` timed runs (minimum is
    // the standard low-noise estimator for single-machine comparisons).
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
    let batch_size = 32usize;
    let reps = if profile == ExperimentProfile::Smoke {
        2
    } else {
        5
    };
    // Hardware thread count straight from the OS — deliberately NOT
    // `ExecPolicy::auto()`, which the DNNIP_THREADS override may redirect;
    // oversubscription is a statement about the hardware.
    let hardware = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    println!("== Parallel coverage sweep (batch = {batch_size}, scaled MNIST model) ==");
    // This sweep measures the raw engine and the in-memory tier, so its
    // evaluators stay standalone; the resolved persistent-cache settings are
    // still echoed (and recorded in the JSON) like every experiment binary.
    let cache = DiskCacheConfig::from_env();
    println!(
        "profile: {}, seed: {seed}, available parallelism: {hardware}",
        profile.name()
    );
    println!(
        "cache dir: {} (persist {})\n",
        cache.dir.display(),
        if cache.enabled { "on" } else { "off" }
    );

    let net = zoo::mnist_model_scaled(seed).expect("scaled MNIST geometry");
    let samples: Vec<Tensor> = (0..batch_size)
        .map(|i| Tensor::from_fn(&[1, 16, 16], |j| ((i * 256 + j) as f32 * 0.07).sin().abs()))
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    let reference = Evaluator::with_cache_bytes(&net, CoverageConfig::default(), 0);
    let t = time_ms(reps, || {
        for s in black_box(&samples) {
            black_box(
                reference
                    .activation_set_reference(s)
                    .expect("reference set"),
            );
        }
    });
    rows.push(Row {
        engine: "per-sample-reference",
        exec: "serial".to_string(),
        threads_requested: 1,
        effective_workers: 1,
        oversubscribed: false,
        time_ms: t,
        throughput: batch_size as f64 / (t / 1e3),
    });

    let configs = [
        ("serial", ExecPolicy::Serial),
        ("threads(2)", ExecPolicy::Threads(2)),
        ("threads(4)", ExecPolicy::Threads(4)),
        ("threads(8)", ExecPolicy::Threads(8)),
    ];
    for (name, exec) in configs {
        let evaluator = Evaluator::with_cache_bytes(
            &net,
            CoverageConfig {
                exec,
                ..CoverageConfig::default()
            },
            0,
        );
        let t = time_ms(reps, || {
            black_box(
                evaluator
                    .activation_sets(black_box(&samples))
                    .expect("batched sets"),
            );
        });
        let requested = exec.threads();
        rows.push(Row {
            engine: "batched",
            exec: name.to_string(),
            threads_requested: requested,
            effective_workers: requested.min(hardware),
            oversubscribed: requested > hardware,
            time_ms: t,
            throughput: batch_size as f64 / (t / 1e3),
        });
    }

    let warnings: Vec<String> = rows
        .iter()
        .filter(|r| r.oversubscribed)
        .map(|r| {
            format!(
                "{} requests {} workers but only {hardware} hardware thread{} available; \
                 its timing measures oversubscription, not scaling",
                r.exec,
                r.threads_requested,
                if hardware == 1 { " is" } else { "s are" }
            )
        })
        .collect();

    let baseline = rows[0].time_ms;
    println!("  engine                 exec        workers   best ms   samples/s   speedup");
    println!("  ---------------------- ----------- --------- --------- ----------- -------");
    for row in &rows {
        println!(
            "  {:<22} {:<11} {:>4}/{:<4} {:>9.2} {:>11.1} {:>6.2}x{}",
            row.engine,
            row.exec,
            row.effective_workers,
            row.threads_requested,
            row.time_ms,
            row.throughput,
            baseline / row.time_ms,
            if row.oversubscribed {
                "  [oversub]"
            } else {
                ""
            }
        );
    }
    for w in &warnings {
        println!("  warning: {w}");
    }
    let batched_serial = rows
        .iter()
        .find(|r| r.engine == "batched" && r.exec == "serial")
        .expect("batched serial row");
    // Machine-readable acceptance line: CI greps this and gates on >= 5.
    println!(
        "batched_serial_speedup={:.3}",
        baseline / batched_serial.time_ms
    );

    // Hand-rolled JSON (the workspace has no serde): flat and diff-friendly.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"activation sets, scaled MNIST model\",\n");
    json.push_str(&format!(
        "  \"cache_dir\": {:?},\n",
        cache.dir.display().to_string()
    ));
    json.push_str(&format!("  \"batch_size\": {batch_size},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"available_parallelism\": {hardware},\n"));
    json.push_str("  \"warnings\": [");
    for (i, w) in warnings.iter().enumerate() {
        json.push_str(&format!("{}{w:?}", if i == 0 { "" } else { ", " }));
    }
    json.push_str("],\n");
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"exec\": \"{}\", \"threads_requested\": {}, \
             \"effective_workers\": {}, \"oversubscribed\": {}, \"best_ms\": {:.3}, \
             \"samples_per_sec\": {:.1}, \"speedup_vs_reference\": {:.3}}}{}\n",
            row.engine,
            row.exec,
            row.threads_requested,
            row.effective_workers,
            row.oversubscribed,
            row.time_ms,
            row.throughput,
            baseline / row.time_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let out_path = format!("{out_dir}/parallel_coverage.json");
    std::fs::create_dir_all(out_dir).expect("create results dir");
    std::fs::write(&out_path, &json).expect("write results json");
    println!("\nwrote {out_path}");

    eval_cache_sweep(&net, &samples, reps, seed, out_dir);
}

/// The evaluator-layer acceptance measurement: a repeated Fig. 3-style budget
/// sweep (coverage of nested prefixes, run twice end to end) through the
/// content-addressed cache vs a budget-0 (uncached) evaluator, recorded as
/// `results/eval_cache.json`.
///
/// The cached run constructs its `Evaluator` *inside* the timed region, so
/// fingerprinting and the cold first pass are paid honestly; the speedup comes
/// entirely from prefix overlap and the sweep repeat.
fn eval_cache_sweep(
    net: &dnnip_nn::Network,
    samples: &[Tensor],
    reps: usize,
    seed: u64,
    out_dir: &str,
) {
    let budgets: Vec<usize> = [1usize, 5, 10, 20, 32]
        .into_iter()
        .filter(|&b| b <= samples.len())
        .collect();
    let sweep_rounds = 2usize;
    let evaluated: usize = budgets.iter().sum::<usize>() * sweep_rounds;
    println!(
        "\n== Evaluator cache: repeated budget sweep (budgets {budgets:?}, x{sweep_rounds}) =="
    );

    let config = CoverageConfig::default();
    let uncached_ms = time_ms(reps, || {
        let evaluator = Evaluator::with_cache_bytes(net, config, 0);
        for _ in 0..sweep_rounds {
            for &b in &budgets {
                black_box(
                    evaluator
                        .coverage_of_set(black_box(&samples[..b]))
                        .expect("uncached sweep"),
                );
            }
        }
    });
    let cached_ms = time_ms(reps, || {
        let evaluator = Evaluator::new(net, config);
        for _ in 0..sweep_rounds {
            for &b in &budgets {
                black_box(
                    evaluator
                        .coverage_of_set(black_box(&samples[..b]))
                        .expect("cached sweep"),
                );
            }
        }
    });
    // Stats from one representative (untimed) cached run.
    let evaluator = Evaluator::new(net, config);
    for _ in 0..sweep_rounds {
        for &b in &budgets {
            evaluator
                .coverage_of_set(&samples[..b])
                .expect("stats sweep");
        }
    }
    let stats = evaluator.cache_stats();
    let speedup = uncached_ms / cached_ms;

    println!("  path      best ms   sample-evals   hit rate");
    println!("  --------- --------- -------------- --------");
    println!(
        "  uncached  {uncached_ms:>9.2} {evaluated:>14} {:>7.1}%",
        0.0
    );
    println!(
        "  cached    {cached_ms:>9.2} {:>14} {:>7.1}%",
        stats.misses,
        stats.hit_rate() * 100.0
    );
    println!("  end-to-end speedup: {speedup:.2}x (acceptance gate: >= 2x)");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"repeated coverage budget sweep, scaled MNIST model\",\n");
    json.push_str(&format!("  \"budgets\": {budgets:?},\n"));
    json.push_str(&format!("  \"sweep_rounds\": {sweep_rounds},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"uncached_best_ms\": {uncached_ms:.3},\n"));
    json.push_str(&format!("  \"cached_best_ms\": {cached_ms:.3},\n"));
    json.push_str(&format!(
        "  \"speedup_cached_vs_uncached\": {speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \"entries\": {}, \"evictions\": {}, \"bytes\": {}}}\n",
        stats.hits,
        stats.misses,
        stats.hit_rate(),
        stats.entries,
        stats.evictions,
        stats.bytes
    ));
    json.push_str("}\n");
    let out_path = format!("{out_dir}/eval_cache.json");
    std::fs::write(&out_path, &json).expect("write eval cache json");
    println!("\nwrote {out_path}");
}
