//! Criterion benches for the unified evaluator layer and its content-addressed
//! activation-set cache.
//!
//! * `cold` — cache cleared before every iteration: the full compute cost plus
//!   the (small) hashing/insertion overhead.
//! * `warm` — the cache is pre-populated, every iteration is pure lookups: the
//!   cost repeated Fig. 3 budget sweeps and Table II/III prefix evaluations
//!   actually pay after the first pass.
//! * `uncached` — a budget-0 evaluator (the raw compute path), for the
//!   overhead comparison.
//!
//! The JSON counterpart (end-to-end sweep speedup, recorded in
//! `crates/bench/results/eval_cache.json`) is produced by
//! `cargo run -p dnnip-bench --bin parallel_sweep`.

use criterion::{criterion_group, criterion_main, Criterion};
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::eval::Evaluator;
use dnnip_nn::zoo;
use dnnip_tensor::Tensor;
use std::hint::black_box;

fn batch(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| Tensor::from_fn(&[1, 16, 16], |j| ((i * 256 + j) as f32 * 0.11).sin().abs()))
        .collect()
}

fn bench_cached_activation_sets(c: &mut Criterion) {
    let net = zoo::mnist_model_scaled(1).unwrap();
    let samples = batch(16);
    let mut group = c.benchmark_group("evaluator_activation_sets_batch16");
    group.sample_size(10);

    let uncached = Evaluator::with_cache_bytes(&net, CoverageConfig::default(), 0);
    group.bench_function("uncached", |b| {
        b.iter(|| uncached.activation_sets(black_box(&samples)).unwrap())
    });

    let evaluator = Evaluator::new(&net, CoverageConfig::default());
    group.bench_function("cold", |b| {
        b.iter(|| {
            evaluator.clear_cache();
            evaluator.activation_sets(black_box(&samples)).unwrap()
        })
    });

    evaluator.clear_cache();
    evaluator.activation_sets(&samples).unwrap();
    group.bench_function("warm", |b| {
        b.iter(|| evaluator.activation_sets(black_box(&samples)).unwrap())
    });
    group.finish();
}

fn bench_repeated_budget_sweep(c: &mut Criterion) {
    // The Fig. 3 shape in miniature: coverage of nested prefixes of one pool.
    let net = zoo::tiny_cnn(6, 10, dnnip_nn::layers::Activation::Relu, 4).unwrap();
    let pool: Vec<Tensor> = (0..24)
        .map(|i| Tensor::from_fn(&[1, 8, 8], |j| ((i * 64 + j) as f32 * 0.17).sin().abs()))
        .collect();
    let budgets = [1usize, 4, 8, 16, 24];
    let mut group = c.benchmark_group("prefix_sweep_tiny_cnn");
    group.sample_size(10);

    let uncached = Evaluator::with_cache_bytes(&net, CoverageConfig::default(), 0);
    group.bench_function("uncached", |b| {
        b.iter(|| {
            budgets
                .iter()
                .map(|&n| uncached.coverage_of_set(&pool[..n]).unwrap())
                .collect::<Vec<_>>()
        })
    });

    let evaluator = Evaluator::new(&net, CoverageConfig::default());
    evaluator.coverage_of_set(&pool).unwrap();
    group.bench_function("cached", |b| {
        b.iter(|| {
            budgets
                .iter()
                .map(|&n| evaluator.coverage_of_set(&pool[..n]).unwrap())
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cached_activation_sets, bench_repeated_budget_sweep
}
criterion_main!(benches);
