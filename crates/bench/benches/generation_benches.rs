//! Criterion benches for the three functional-test generation methods (the
//! compute behind Fig. 3) at a fixed small budget.

use criterion::{criterion_group, criterion_main, Criterion};
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::generator::GenerationMethod;
use dnnip_core::gradgen::{GradGenConfig, GradientGenerator};
use dnnip_core::workspace::{TestGenRequest, Workspace, WorkspaceConfig};
use dnnip_nn::layers::Activation;
use dnnip_nn::zoo;
use dnnip_tensor::Tensor;
use std::hint::black_box;

fn pool(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| Tensor::from_fn(&[1, 8, 8], |j| ((i * 64 + j) as f32 * 0.13).sin().abs()))
        .collect()
}

fn bench_generation_methods(c: &mut Criterion) {
    let net = zoo::tiny_cnn(6, 10, Activation::Relu, 5).unwrap();
    // Cache disabled so every iteration measures real generation work.
    let ws = Workspace::with_config(WorkspaceConfig {
        cache_bytes: 0,
        ..WorkspaceConfig::default()
    });
    let key = ws.register("tiny-cnn", net, CoverageConfig::default());
    let candidates = pool(60);
    let mut group = c.benchmark_group("generate_10_tests_tiny_cnn");
    group.sample_size(10);
    for method in [
        GenerationMethod::TrainingSetSelection,
        GenerationMethod::GradientBased,
        GenerationMethod::Combined,
        GenerationMethod::NeuronCoverageBaseline,
    ] {
        let request = TestGenRequest::new(key, method, 10)
            .with_gradgen(GradGenConfig {
                steps: 10,
                ..GradGenConfig::default()
            })
            .with_candidates(candidates.clone());
        group.bench_function(method.name(), |bench| {
            bench.iter(|| ws.run(black_box(&request)).unwrap())
        });
    }
    group.finish();
}

fn bench_gradient_batch(c: &mut Criterion) {
    let net = zoo::mnist_model_scaled(9).unwrap();
    c.bench_function("gradgen_batch_mnist_scaled", |bench| {
        bench.iter(|| {
            let mut generator = GradientGenerator::new(
                &net,
                GradGenConfig {
                    steps: 5,
                    ..GradGenConfig::default()
                },
            );
            generator.generate_batch().unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generation_methods, bench_gradient_batch
}
criterion_main!(benches);
