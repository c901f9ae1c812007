//! Criterion benches for the batched multi-threaded coverage engine.
//!
//! Compares three ways of computing the activation sets of a 32-sample batch on
//! the scaled MNIST model:
//!
//! * `per_sample_reference` — the pre-batching engine: one full forward +
//!   backward per sample through the direct convolution kernels
//!   (`Evaluator::activation_set_reference`).
//! * `batched_serial` — the batched engine (`ExecPolicy::Serial`): one stacked
//!   forward per chunk, im2col/matmul per-sample backward.
//! * `batched_threads4` — the same engine with chunks distributed over four
//!   scoped worker threads (`ExecPolicy::Threads(4)`), bit-identical results.
//!
//! The acceptance gate for the engine PR is `batched_*` ≥ 2× the reference
//! throughput at batch ≥ 32; `cargo run -p dnnip-bench --bin parallel_sweep`
//! records the same comparison as JSON in `crates/bench/results/`.

use criterion::{criterion_group, criterion_main, Criterion};
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::eval::Evaluator;
use dnnip_core::par::ExecPolicy;
use dnnip_nn::zoo;
use dnnip_tensor::Tensor;
use std::hint::black_box;

fn batch(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| Tensor::from_fn(&[1, 16, 16], |j| ((i * 256 + j) as f32 * 0.07).sin().abs()))
        .collect()
}

fn bench_batched_coverage(c: &mut Criterion) {
    let net = zoo::mnist_model_scaled(1).unwrap();
    let samples = batch(32);
    let mut group = c.benchmark_group("coverage_batch32_mnist_scaled");
    group.sample_size(10);

    let reference = Evaluator::with_cache_bytes(&net, CoverageConfig::default(), 0);
    group.bench_function("per_sample_reference", |b| {
        b.iter(|| {
            black_box(&samples)
                .iter()
                .map(|s| reference.activation_set_reference(s).unwrap())
                .collect::<Vec<_>>()
        })
    });

    for (name, exec) in [
        ("batched_serial", ExecPolicy::Serial),
        ("batched_threads4", ExecPolicy::Threads(4)),
    ] {
        let evaluator = Evaluator::with_cache_bytes(
            &net,
            CoverageConfig {
                exec,
                ..CoverageConfig::default()
            },
            0,
        );
        group.bench_function(name, |b| {
            b.iter(|| evaluator.activation_sets(black_box(&samples)).unwrap())
        });
    }
    group.finish();
}

fn bench_parallel_selection_pipeline(c: &mut Criterion) {
    // Algorithm 1 end to end (activation sets + greedy union) on a smaller
    // model, serial vs threaded — the union step stays serial by design.
    let net = zoo::tiny_cnn(6, 10, dnnip_nn::layers::Activation::Relu, 2).unwrap();
    let pool: Vec<Tensor> = (0..48)
        .map(|i| Tensor::from_fn(&[1, 8, 8], |j| ((i * 64 + j) as f32 * 0.19).sin().abs()))
        .collect();
    let mut group = c.benchmark_group("select_48_candidates_tiny_cnn");
    group.sample_size(10);
    for (name, exec) in [
        ("serial", ExecPolicy::Serial),
        ("threads4", ExecPolicy::Threads(4)),
    ] {
        // Cache disabled: this bench measures the *compute* pipeline; the
        // cached path is measured separately by `eval_benches`.
        let evaluator = Evaluator::with_cache_bytes(
            &net,
            CoverageConfig {
                exec,
                ..CoverageConfig::default()
            },
            0,
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let sets = evaluator.activation_sets(black_box(&pool)).unwrap();
                dnnip_core::select::greedy_select_covered(&sets, evaluator.num_units(), 10).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batched_coverage, bench_parallel_selection_pipeline
}
criterion_main!(benches);
