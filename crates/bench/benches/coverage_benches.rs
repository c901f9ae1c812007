//! Criterion benches for the coverage analysis (the inner loop of Fig. 2 and of
//! Algorithm 1) and the lazy-vs-naive greedy selection ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use dnnip_core::bitset::Bitset;
use dnnip_core::coverage::{CoverageAnalyzer, CoverageConfig};
use dnnip_core::select::{greedy_select_covered, greedy_select_naive};
use dnnip_nn::layers::Activation;
use dnnip_nn::zoo;
use dnnip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

fn bench_activation_set(c: &mut Criterion) {
    let net = zoo::mnist_model_scaled(1).unwrap();
    let analyzer = CoverageAnalyzer::new(&net, CoverageConfig::default());
    let sample = Tensor::from_fn(&[1, 16, 16], |i| (i as f32 * 0.07).sin().abs());
    c.bench_function("activation_set_mnist_scaled", |bench| {
        bench.iter(|| analyzer.activation_set(black_box(&sample)).unwrap())
    });

    let tiny = zoo::tiny_cnn(6, 10, Activation::Relu, 2).unwrap();
    let tiny_analyzer = CoverageAnalyzer::new(&tiny, CoverageConfig::default());
    let tiny_sample = Tensor::from_fn(&[1, 8, 8], |i| (i as f32 * 0.19).sin().abs());
    c.bench_function("activation_set_tiny_cnn", |bench| {
        bench.iter(|| {
            tiny_analyzer
                .activation_set(black_box(&tiny_sample))
                .unwrap()
        })
    });
}

fn random_sets(n: usize, bits: usize, density: f64, seed: u64) -> Vec<Bitset> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut b = Bitset::new(bits);
            for i in 0..bits {
                if rng.gen_bool(density) {
                    b.set(i);
                }
            }
            b
        })
        .collect()
}

fn bench_greedy_selection(c: &mut Criterion) {
    // Ablation: lazy (CELF) greedy vs the paper's naive Algorithm 1 loop.
    let sets = random_sets(200, 12_000, 0.05, 7);
    let handles: Vec<Arc<Bitset>> = sets.iter().cloned().map(Arc::new).collect();
    let mut group = c.benchmark_group("greedy_select_200x12k");
    group.sample_size(10);
    group.bench_function("lazy", |bench| {
        bench.iter(|| greedy_select_covered(black_box(&handles), 12_000, 30).unwrap())
    });
    group.bench_function("naive", |bench| {
        bench.iter(|| greedy_select_naive(black_box(&sets), 12_000, 30).unwrap())
    });
    group.finish();
}

fn bench_bitset_union(c: &mut Criterion) {
    let sets = random_sets(64, 50_000, 0.1, 3);
    c.bench_function("bitset_union_64x50k", |bench| {
        bench.iter(|| Bitset::union_of(50_000, black_box(&sets)).count_ones())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_activation_set, bench_greedy_selection, bench_bitset_union
}
criterion_main!(benches);
