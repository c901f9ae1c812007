//! Criterion benches for the pluggable coverage-criterion layer: covered-set
//! computation and greedy selection per built-in criterion.
//!
//! The forward-only criteria (neuron-activation, topk-neuron) skip the
//! backward pass entirely, so their `covered_sets` rows quantify how much of
//! the param-gradient cost is gradient work. The JSON counterpart
//! (`crates/bench/results/criteria_sweep.json`) is produced by
//! `cargo run -p dnnip-bench --bin criteria_sweep`.

use criterion::{criterion_group, criterion_main, Criterion};
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::criterion::builtin_criteria;
use dnnip_core::eval::Evaluator;
use dnnip_core::generator::GenerationMethod;
use dnnip_core::workspace::{TestGenRequest, Workspace};
use dnnip_nn::zoo;
use dnnip_tensor::Tensor;
use std::hint::black_box;

fn batch(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| Tensor::from_fn(&[1, 16, 16], |j| ((i * 256 + j) as f32 * 0.11).sin().abs()))
        .collect()
}

fn bench_covered_sets_per_criterion(c: &mut Criterion) {
    let net = zoo::mnist_model_scaled(1).unwrap();
    let samples = batch(16);
    let config = CoverageConfig::default();
    let mut group = c.benchmark_group("covered_sets_batch16");
    group.sample_size(10);
    for criterion in builtin_criteria(&config) {
        let evaluator = Evaluator::with_criterion_cache_bytes(&net, config, criterion.clone(), 0);
        group.bench_function(criterion.id(), |b| {
            b.iter(|| evaluator.activation_sets(black_box(&samples)).unwrap())
        });
    }
    group.finish();
}

fn bench_selection_per_criterion(c: &mut Criterion) {
    let net = zoo::tiny_cnn(6, 10, dnnip_nn::layers::Activation::Relu, 4).unwrap();
    let pool: Vec<Tensor> = (0..24)
        .map(|i| Tensor::from_fn(&[1, 8, 8], |j| ((i * 64 + j) as f32 * 0.17).sin().abs()))
        .collect();
    let config = CoverageConfig::default();
    let ws = Workspace::new();
    let key = ws.register("tiny-cnn", net, config);
    let mut group = c.benchmark_group("greedy_select_budget8");
    group.sample_size(10);
    for criterion in builtin_criteria(&config) {
        let request = TestGenRequest::new(key, GenerationMethod::TrainingSetSelection, 8)
            .with_criterion(criterion.clone())
            .with_candidates(pool.clone());
        // Warm the covered-set cache so the bench isolates selection itself —
        // the repeated-sweep shape the detection tables actually run.
        ws.run(&request).unwrap();
        group.bench_function(criterion.id(), |b| {
            b.iter(|| ws.run(black_box(&request)).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_covered_sets_per_criterion, bench_selection_per_criterion
}
criterion_main!(benches);
