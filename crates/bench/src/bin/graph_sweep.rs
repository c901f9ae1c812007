//! Graph-model sweep: the zoo models with Add/Concat nodes driven end to end
//! through the workspace, recorded as JSON under `crates/bench/results/`.
//!
//! Runs the `DNNIP_MODEL`-selected graph model (residual by default — a skip
//! connection no chain of layers can express) through a greedy training-set
//! selection under each builtin criterion, the paper's `param-gradient`
//! included, and reports per criterion the unit count, covered units and
//! warm selection time.
//!
//! ```text
//! cargo run --release -p dnnip-bench --bin graph_sweep [smoke|default|paper]
//! DNNIP_MODEL=branching cargo run --release -p dnnip-bench --bin graph_sweep
//! ```

use std::sync::Arc;
use std::time::Instant;

use dnnip_bench::{
    cache_banner, seed_from_env_or, workspace_from_env, ExperimentProfile, ModelSpec,
};
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::generator::GenerationMethod;
use dnnip_core::workspace::TestGenRequest;
use dnnip_serve::graph_pool;
use dnnip_tensor::Tensor;
use std::hint::black_box;

/// The criteria swept, each a row of the JSON.
const CRITERIA: &[&str] = &["neuron-activation:0.1", "topk-neuron:2", "param-gradient"];

struct Row {
    criterion: String,
    criterion_id: &'static str,
    num_units: usize,
    covered_units: u64,
    final_coverage: f32,
    select_warm_ms: f64,
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
    let seed = seed_from_env_or(15);
    let spec = match ModelSpec::from_env() {
        // This binary exists to exercise graph models; with no override it
        // runs the residual classifier rather than a sequential default.
        ModelSpec::Default => ModelSpec::Residual,
        other => other,
    };
    let (pool_size, budget, reps) = match profile {
        ExperimentProfile::Smoke => (16usize, 4usize, 2usize),
        ExperimentProfile::Default => (32, 8, 5),
        ExperimentProfile::Paper => (128, 16, 5),
    };
    println!(
        "== Graph-model sweep (model = {}, pool = {pool_size}, budget = {budget}) ==",
        spec.name()
    );
    let ws = workspace_from_env();
    println!("profile: {}, seed: {seed}", profile.name());
    println!("{}\n", cache_banner(&ws));

    let graph = Arc::new(
        spec.build_graph(seed)
            .expect("graph_sweep always resolves to a graph model"),
    );
    let pool = graph_pool(&graph, pool_size, seed);
    // Key the pool once: each criterion's request runs on a clone of it,
    // and clones carry their source's content keys.
    Tensor::content_keys(&pool);
    let model = ws.register(spec.name(), graph.clone(), CoverageConfig::default());

    let mut rows: Vec<Row> = Vec::new();
    for criterion in CRITERIA {
        let request = TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, budget)
            .with_criterion_spec(criterion.to_string())
            .with_seed(seed)
            .with_candidates(pool.clone());
        let result = ws.run(&request).expect("graph selection");
        let select_warm_ms = time_ms(reps, || {
            black_box(ws.run(black_box(&request)).expect("warm graph selection"));
        });
        // Density is exactly covered/num_units, so the rounded product
        // recovers the integer covered-unit count.
        let covered_units =
            (f64::from(result.final_coverage()) * result.num_units as f64).round() as u64;
        rows.push(Row {
            criterion: (*criterion).to_string(),
            criterion_id: result.criterion_id,
            num_units: result.num_units,
            covered_units,
            final_coverage: result.final_coverage(),
            select_warm_ms,
        });
    }

    println!("  criterion                units  covered  coverage  select warm");
    println!("  ----------------------- ------ -------- --------- ------------");
    for row in &rows {
        println!(
            "  {:<23} {:>6} {:>8} {:>8.1}% {:>10.3}ms",
            row.criterion,
            row.num_units,
            row.covered_units,
            row.final_coverage * 100.0,
            row.select_warm_ms
        );
    }
    // Machine-readable lines for CI: covered_units is the minimum across
    // criteria (every criterion must cover something), and the
    // param-gradient row's count on its own.
    println!(
        "covered_units={}",
        rows.iter().map(|r| r.covered_units).min().unwrap_or(0)
    );
    for row in rows.iter().filter(|r| r.criterion_id == "param-gradient") {
        println!("param_gradient_covered_units={}", row.covered_units);
    }

    // Hand-rolled JSON (the workspace has no serde): flat and diff-friendly.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"bench\": \"graph-model sweep: zoo models with Add/Concat nodes through the workspace\",\n",
    );
    json.push_str(&format!("  \"profile\": \"{}\",\n", profile.name()));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"model\": \"{}\",\n", spec.name()));
    json.push_str(&format!("  \"nodes\": {},\n", graph.num_nodes()));
    json.push_str(&format!(
        "  \"num_parameters\": {},\n",
        graph.num_parameters()
    ));
    json.push_str(&format!("  \"pool_size\": {pool_size},\n"));
    json.push_str(&format!("  \"budget\": {budget},\n"));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"criterion\": \"{}\", \"criterion_id\": \"{}\", \"num_units\": {}, \
             \"covered_units\": {}, \"final_coverage\": {:.4}, \"select_warm_best_ms\": {:.3}}}{}\n",
            row.criterion,
            row.criterion_id,
            row.num_units,
            row.covered_units,
            row.final_coverage,
            row.select_warm_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let out_path = format!("{out_dir}/graph_sweep.json");
    std::fs::create_dir_all(out_dir).expect("create results dir");
    std::fs::write(&out_path, &json).expect("write results json");
    println!("\nwrote {out_path}");
}
