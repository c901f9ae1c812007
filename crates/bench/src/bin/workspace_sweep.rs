//! Workspace cache-tier sweep: cold vs in-memory-warm vs disk-warm timings
//! across two models sharing **one** cache budget, recorded as JSON.
//!
//! Three phases over the same budget-`B` greedy selection per model:
//!
//! 1. **cold** — a fresh [`Workspace`] over an empty cache directory: every
//!    covered set is computed (and spilled to disk, persistence being on).
//! 2. **mem-warm** — the same workspace re-runs the request: answered from
//!    the shared in-memory cache.
//! 3. **disk-warm** — a *fresh* workspace (empty memory cache, simulating a
//!    second process) over the now-populated directory: answered from the
//!    persistent tier.
//!
//! Both models (the scaled MNIST-Tanh and CIFAR-ReLU architectures) register
//! in one workspace, so the in-memory phase also demonstrates the single
//! shared LRU budget. Results are written to
//! `crates/bench/results/workspace_cache.json`.
//!
//! ```text
//! cargo run --release -p dnnip-bench --bin workspace_sweep [smoke|default|paper]
//! DNNIP_CACHE_DIR=/tmp/c cargo run --release -p dnnip-bench --bin workspace_sweep
//! ```

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dnnip_bench::{coverage_config_for, seed_from_env_or, ExperimentProfile};
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::generator::GenerationMethod;
use dnnip_core::par::ExecPolicy;
use dnnip_core::workspace::{DiskCacheConfig, TestGenRequest, Workspace, WorkspaceConfig};
use dnnip_nn::layers::Activation;
use dnnip_nn::{zoo, Network};
use dnnip_tensor::Tensor;

struct ModelUnderTest {
    name: &'static str,
    network: Network,
    coverage: CoverageConfig,
    pool: Vec<Tensor>,
}

struct Row {
    name: &'static str,
    params: usize,
    units: usize,
    cold_ms: f64,
    mem_warm_ms: f64,
    disk_warm_ms: f64,
}

fn time_once<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (ms, out) = time_once(&mut f);
        black_box(out);
        best = best.min(ms);
    }
    best
}

fn pool_for(network: &Network, n: usize) -> Vec<Tensor> {
    let shape = network.input_shape().to_vec();
    (0..n)
        .map(|i| Tensor::from_fn(&shape, |j| ((i * 641 + j) as f32 * 0.079).sin().abs()))
        .collect()
}

fn workspace_at(dir: &Path) -> Workspace {
    Workspace::with_config(WorkspaceConfig {
        disk: DiskCacheConfig::at(dir),
        ..WorkspaceConfig::default()
    })
}

fn request_for(ws: &Workspace, model: &ModelUnderTest, budget: usize) -> TestGenRequest {
    let fingerprint = ws.register(model.name, model.network.clone(), model.coverage);
    TestGenRequest::new(fingerprint, GenerationMethod::TrainingSetSelection, budget)
        .with_candidates(model.pool.clone())
}

fn main() {
    let profile = ExperimentProfile::from_env_or_args();
    let seed = seed_from_env_or(1);
    let (pool_size, budget, reps) = match profile {
        ExperimentProfile::Smoke => (12usize, 4usize, 2usize),
        _ => (24, 8, 3),
    };

    // The sweep owns a subdirectory of the resolved cache root so wiping it
    // for a reproducible cold phase never touches another run's entries.
    let dir = DiskCacheConfig::from_env().dir.join("workspace_sweep");
    let _ = std::fs::remove_dir_all(&dir);

    println!("== Workspace sweep: cold vs mem-warm vs disk-warm (two models, one budget) ==");
    println!(
        "profile: {}, seed: {seed}, pool: {pool_size}, budget: {budget}, cache dir: {}\n",
        profile.name(),
        dir.display()
    );

    let exec_cfg = |activation: Activation| CoverageConfig {
        exec: ExecPolicy::auto(),
        ..coverage_config_for(activation)
    };
    let mnist = zoo::mnist_model_scaled(seed).expect("scaled MNIST geometry");
    let cifar = zoo::cifar_model_scaled(seed).expect("scaled CIFAR geometry");
    let models = [
        ModelUnderTest {
            name: "mnist-scaled",
            pool: pool_for(&mnist, pool_size),
            coverage: exec_cfg(Activation::Tanh),
            network: mnist,
        },
        ModelUnderTest {
            name: "cifar-scaled",
            pool: pool_for(&cifar, pool_size),
            coverage: exec_cfg(Activation::Relu),
            network: cifar,
        },
    ];

    // Phase 1+2: one workspace serves both models from one shared budget.
    let warm_ws = workspace_at(&dir);
    let mut rows = Vec::new();
    for model in &models {
        let request = request_for(&warm_ws, model, budget);
        let (cold_ms, report) = time_once(|| warm_ws.run(&request).expect("cold run"));
        let mem_warm_ms = best_of(reps, || warm_ws.run(&request).expect("mem-warm run"));
        rows.push(Row {
            name: model.name,
            params: model.network.num_parameters(),
            units: report.num_units,
            cold_ms,
            mem_warm_ms,
            disk_warm_ms: f64::NAN,
        });
    }
    let shared = warm_ws.cache_stats();
    let spilled = warm_ws.disk_stats().expect("persistence on");

    // Phase 3: a fresh workspace (second-process simulation) over the same
    // directory — the in-memory cache starts empty, every set loads from disk.
    let disk_ws = workspace_at(&dir);
    for (model, row) in models.iter().zip(&mut rows) {
        let request = request_for(&disk_ws, model, budget);
        row.disk_warm_ms = best_of(1, || disk_ws.run(&request).expect("disk-warm run"));
    }
    let disk = disk_ws.disk_stats().expect("persistence on");
    assert!(
        disk.hits > 0,
        "second workspace over the same directory must hit the disk tier"
    );

    println!(
        "  model         params   units    cold ms   mem-warm ms  disk-warm ms  mem x   disk x"
    );
    println!(
        "  ------------- -------- -------- --------- ------------ ------------- ------- -------"
    );
    for row in &rows {
        println!(
            "  {:<13} {:>8} {:>8} {:>9.2} {:>12.3} {:>13.2} {:>6.1}x {:>6.1}x",
            row.name,
            row.params,
            row.units,
            row.cold_ms,
            row.mem_warm_ms,
            row.disk_warm_ms,
            row.cold_ms / row.mem_warm_ms,
            row.cold_ms / row.disk_warm_ms,
        );
    }
    println!(
        "\n  shared budget: {} entries, {} bytes across {} models (one LRU, global eviction)",
        shared.entries,
        shared.bytes,
        rows.len()
    );
    println!(
        "  residency: {} payload bytes ({:.0} bytes/entry)",
        shared.resident_bytes,
        shared.bytes_per_entry()
    );
    println!(
        "  disk tier: {} writes in the cold phase; fresh workspace: {} hits / {} misses",
        spilled.writes, disk.hits, disk.misses
    );

    // Hand-rolled JSON (the workspace has no serde): flat and diff-friendly.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"workspace cache tiers: cold vs in-memory-warm vs disk-warm\",\n");
    json.push_str(&format!(
        "  \"cache_dir\": {:?},\n",
        dir.display().to_string()
    ));
    json.push_str(&format!("  \"pool_size\": {pool_size},\n"));
    json.push_str(&format!("  \"budget\": {budget},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"shared_budget\": {{\"entries\": {}, \"bytes\": {}, \"models\": {}, \
         \"resident_bytes\": {}, \"bytes_per_entry\": {:.2}}},\n",
        shared.entries,
        shared.bytes,
        rows.len(),
        shared.resident_bytes,
        shared.bytes_per_entry()
    ));
    json.push_str(&format!(
        "  \"disk\": {{\"cold_writes\": {}, \"second_process_hits\": {}, \"second_process_misses\": {}}},\n",
        spilled.writes, disk.hits, disk.misses
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"params\": {}, \"units\": {}, \"cold_ms\": {:.3}, \
             \"mem_warm_ms\": {:.3}, \"disk_warm_ms\": {:.3}, \
             \"mem_warm_speedup\": {:.2}, \"disk_warm_speedup\": {:.2}}}{}\n",
            row.name,
            row.params,
            row.units,
            row.cold_ms,
            row.mem_warm_ms,
            row.disk_warm_ms,
            row.cold_ms / row.mem_warm_ms,
            row.cold_ms / row.disk_warm_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let out_path = format!("{out_dir}/workspace_cache.json");
    std::fs::create_dir_all(out_dir).expect("create results dir");
    std::fs::write(&out_path, &json).expect("write results json");
    println!("\nwrote {out_path}");
}
