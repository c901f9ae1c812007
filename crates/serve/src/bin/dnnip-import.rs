//! `dnnip-import` — export and re-import models through the versioned,
//! checksummed model format, then drive an imported model end to end.
//!
//! ```text
//! dnnip-import export <path> [--model residual|branching] [--seed N]
//! dnnip-import run <path> [--criterion SPEC] [--budget N] [--pool N] [--seed N]
//! ```
//!
//! `export` builds a zoo graph model and writes it to `<path>` with
//! `dnnip_nn::serialize`. `run` is the vendor-side import path: it loads the
//! file (rejecting tampered or truncated bytes), fingerprints it, registers
//! it in an environment-configured [`Workspace`] and runs one greedy
//! training-set selection under the given criterion (`param-gradient`, the
//! paper's, included).
//!
//! Both modes end with machine-readable `key=value` lines (`fingerprint=`,
//! and for `run` also `covered_units=`) that CI greps to gate the importer
//! round trip: export → re-import → fingerprints equal → a run that covers a
//! nonzero number of units.

use std::process::ExitCode;

use dnnip_core::coverage::CoverageConfig;
use dnnip_core::generator::GenerationMethod;
use dnnip_core::workspace::{TestGenRequest, Workspace};
use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_nn::{serialize, zoo};
use dnnip_serve::graph_pool;

struct ExportArgs {
    path: String,
    model: String,
    seed: u64,
}

struct RunArgs {
    path: String,
    criterion: String,
    budget: usize,
    pool: usize,
    seed: u64,
}

enum Mode {
    Export(ExportArgs),
    Run(RunArgs),
}

const USAGE: &str = "usage: dnnip-import export <path> [--model residual|branching] [--seed N]\n\
       dnnip-import run <path> [--criterion SPEC] [--budget N] [--pool N] [--seed N]";

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or_else(|| USAGE.to_string())?;
    let path = args.next().ok_or_else(|| USAGE.to_string())?;
    let mut flags: Vec<(String, String)> = Vec::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.push((flag, value));
    }
    let take = |name: &str| -> Option<&str> {
        flags
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    };
    for (flag, _) in &flags {
        let known = match mode.as_str() {
            "export" => matches!(flag.as_str(), "--model" | "--seed"),
            _ => matches!(
                flag.as_str(),
                "--criterion" | "--budget" | "--pool" | "--seed"
            ),
        };
        if !known {
            return Err(format!("unknown flag {flag:?}\n{USAGE}"));
        }
    }
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        take(name)
            .map_or(Ok(default), str::parse)
            .map_err(|e| format!("{name}: {e}"))
    };
    match mode.as_str() {
        "export" => Ok(Mode::Export(ExportArgs {
            path,
            model: take("--model").unwrap_or("residual").to_string(),
            seed: parse_u64("--seed", 15)?,
        })),
        "run" => Ok(Mode::Run(RunArgs {
            path,
            criterion: take("--criterion")
                .unwrap_or("neuron-activation:0.1")
                .to_string(),
            budget: parse_u64("--budget", 4)? as usize,
            pool: parse_u64("--pool", 16)? as usize,
            seed: parse_u64("--seed", 1)?,
        })),
        other => Err(format!("unknown mode {other:?}\n{USAGE}")),
    }
}

fn export(args: &ExportArgs) -> Result<(), String> {
    let graph = match args.model.as_str() {
        "residual" => zoo::residual_classifier(args.seed),
        "branching" => zoo::branching_classifier(args.seed),
        other => return Err(format!("unknown model {other:?} (residual or branching)")),
    }
    .map_err(|e| e.to_string())?;
    serialize::to_file(&graph, args.path.as_ref()).map_err(|e| e.to_string())?;
    println!("model={}", args.model);
    println!("nodes={}", graph.num_nodes());
    println!("num_parameters={}", graph.num_parameters());
    println!("fingerprint={}", NetworkFingerprint::of(&graph));
    Ok(())
}

fn run(args: &RunArgs) -> Result<(), String> {
    let graph = serialize::from_file(args.path.as_ref()).map_err(|e| e.to_string())?;
    let fingerprint = NetworkFingerprint::of(&graph);
    let pool = graph_pool(&graph, args.pool, args.seed);
    let name = std::path::Path::new(&args.path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("imported")
        .to_string();
    let workspace = Workspace::from_env();
    let model = workspace.register(name, graph, CoverageConfig::default());
    let report = workspace
        .run(
            &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, args.budget)
                .with_criterion_spec(args.criterion.clone())
                .with_seed(args.seed)
                .with_candidates(pool),
        )
        .map_err(|e| e.to_string())?;
    // Density is exactly covered/num_units, so the rounded product recovers
    // the integer covered-unit count.
    let covered = (f64::from(report.final_coverage()) * report.num_units as f64).round() as u64;
    println!("fingerprint={fingerprint}");
    println!("model_key={model}");
    println!("criterion={}", report.criterion_id);
    println!("num_units={}", report.num_units);
    println!("num_tests={}", report.tests.len());
    println!("final_coverage={}", report.final_coverage());
    println!("covered_units={covered}");
    Ok(())
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(mode) => mode,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &mode {
        Mode::Export(args) => export(args),
        Mode::Run(args) => run(args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("dnnip-import: {message}");
            ExitCode::FAILURE
        }
    }
}
