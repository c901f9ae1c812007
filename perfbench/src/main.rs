//! The repository's benchmark: one command, two workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite-cold|sweep-warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed correctness
//! check makes the run exit with code 1. See `perfbench/README.md`.

mod common;
mod probes;
mod report;
mod rng;
mod serve;
mod stats;
mod suites;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Ctx, Outcome, Scratch};

/// Every end-to-end metric, with its unit, in output order.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("suite_ms_p50", "ms"),
    ("suite_ms_tail", "ms"),
    ("suites_per_s", "1/s"),
    ("suite_coverage", "ratio"),
    ("req_ms_p50", "ms"),
    ("req_ms_tail", "ms"),
    ("goodput_rps", "1/s"),
    ("req_ms_p50_low", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric of the traced run, with its unit.
const PER_LAYER: [(&str, &str); 44] = [
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("nn.cifar-scaled.forward_ms", "ms"),
    ("nn.cifar-scaled.param_grad_ms", "ms"),
    ("nn.cifar-scaled.input_grad_ms", "ms"),
    ("nn.cifar-scaled.forward_gflops", "GFLOP/s"),
    ("nn.mnist-scaled.forward_ms", "ms"),
    ("nn.mnist-scaled.param_grad_ms", "ms"),
    ("nn.mnist-scaled.input_grad_ms", "ms"),
    ("nn.mnist-scaled.forward_gflops", "GFLOP/s"),
    ("criterion.param-gradient.ms", "ms"),
    ("criterion.neuron-activation.ms", "ms"),
    ("criterion.topk-neuron.ms", "ms"),
    ("graph.covered_units_ms", "ms"),
    ("eval.activation_sets_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.flight_hits", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_bytes", "bytes"),
    ("cache.compression_ratio", "ratio"),
    ("disk.hits", "count"),
    ("disk.misses", "count"),
    ("disk.writes", "count"),
    ("disk.write_errors", "count"),
    ("disk.hit_rate", "ratio"),
    ("disk.first_probe_ms", "ms"),
    ("select.greedy_ms", "ms"),
    ("gradgen.generate_ms", "ms"),
    ("gradgen.steps_per_s", "1/s"),
    ("protocol.golden_ms", "ms"),
    ("protocol.validate_ms", "ms"),
    ("workspace.run_ms", "ms"),
    ("workspace.unattributed_ms", "ms"),
    ("serve.handle_us", "us"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.timeouts", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch_size", "count"),
    ("serve.shared_samples", "count"),
    ("serve.overhead_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

const WORKLOADS: [&str; 2] = ["suite-cold", "sweep-warm"];

/// `--seconds` when the flag is absent; the suite counts and tail
/// percentiles in `perfbench/README.md` are sized for it.
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, DEFAULT_SECONDS, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The build's target directory (the binary lives in `<target>/release`):
/// scratch tiers and result files go there, outside the source tree.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
}

fn isa() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        if std::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
        if found.is_empty() {
            "x86_64".to_string()
        } else {
            found.join("+")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// The checked-out commit, read from `.git` when the working directory is a
/// repository.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(Path::new(".git").join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|_| {
            std::fs::read_to_string(".git/packed-refs").map(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .unwrap_or("unknown")
                    .to_string()
            })
        })
        .unwrap_or_else(|_| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let target = target_dir();
    let work = target
        .join("perfbench-work")
        .join(std::process::id().to_string());
    let scratch = match Scratch::new(work) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch space: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch,
    };
    let mut out: Outcome = match args.workload.as_str() {
        "suite-cold" => suites::suite_cold(&ctx),
        _ => suites::sweep_warm(&ctx),
    };

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.metrics.set("ok_frac", ok);
        out.metrics.set("peak_rss_mb", common::peak_rss_mb());
    }
    let mut missing = Vec::new();
    let metrics: Vec<(&str, f64, &str)> = wanted
        .iter()
        .map(|&(name, unit)| match out.metrics.0.get(name) {
            Some(&v) if v.is_finite() => (name, v, unit),
            _ => {
                missing.push(name);
                (name, 0.0, unit)
            }
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0 && missing.is_empty();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cores", cores.to_string()),
        ("isa", isa()),
        ("git", git_rev()),
        ("serve_rate", format!("{}/s (traced runs)", serve::RATE)),
    ];
    for (k, v) in &provenance {
        println!("# {k}: {v}");
    }
    for note in &out.notes {
        println!("# {note}");
    }
    if !missing.is_empty() {
        println!("# missing metrics: {missing:?}");
    }
    let line = report::result_line(correct, out.attempted, out.failed, &metrics);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let results = target.join("perfbench-results");
    match report::write_results(&results, &stem, &provenance, &line, &out) {
        Ok(()) => println!(
            "# results: {}",
            results.join(format!("{stem}.json")).display()
        ),
        Err(e) => eprintln!("perfbench: cannot write results: {e}"),
    }
    drop(ctx);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
