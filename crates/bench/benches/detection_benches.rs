//! Criterion benches for the detection-rate harness (the compute behind Tables
//! II/III): attack generation plus suite replay per trial.

use criterion::{criterion_group, criterion_main, Criterion};
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::detection::{detection_rate, DetectionConfig};
use dnnip_core::generator::GenerationMethod;
use dnnip_core::protocol::FunctionalTestSuite;
use dnnip_core::workspace::{TestGenRequest, Workspace};
use dnnip_faults::attacks::{GradientDescentAttack, RandomPerturbation, SingleBiasAttack};
use dnnip_faults::detection::MatchPolicy;
use dnnip_nn::layers::Activation;
use dnnip_nn::zoo;
use dnnip_tensor::Tensor;
use std::hint::black_box;

fn bench_detection(c: &mut Criterion) {
    let net = zoo::tiny_cnn(6, 10, Activation::Relu, 31).unwrap();
    let pool: Vec<Tensor> = (0..40)
        .map(|i| Tensor::from_fn(&[1, 8, 8], |j| ((i * 64 + j) as f32 * 0.21).sin().abs()))
        .collect();
    let ws = Workspace::new();
    let key = ws.register("tiny-cnn", net.clone(), CoverageConfig::default());
    let tests = ws
        .run(
            &TestGenRequest::new(key, GenerationMethod::Combined, 10).with_candidates(pool.clone()),
        )
        .unwrap()
        .tests
        .inputs;
    let tests =
        FunctionalTestSuite::from_network(&net, tests, MatchPolicy::OutputTolerance(1e-4)).unwrap();
    let probes = &pool[..8];
    let config = DetectionConfig {
        trials: 10,
        seed: 3,
        exec: dnnip_core::par::ExecPolicy::Serial,
    };

    let mut group = c.benchmark_group("detection_rate_10_trials_10_tests");
    group.sample_size(10);
    group.bench_function("sba", |bench| {
        bench.iter(|| {
            detection_rate(
                black_box(&net),
                &SingleBiasAttack::default(),
                probes,
                &tests,
                &config,
            )
            .unwrap()
        })
    });
    group.bench_function("gda", |bench| {
        bench.iter(|| {
            detection_rate(
                black_box(&net),
                &GradientDescentAttack::default(),
                probes,
                &tests,
                &config,
            )
            .unwrap()
        })
    });
    group.bench_function("random", |bench| {
        bench.iter(|| {
            detection_rate(
                black_box(&net),
                &RandomPerturbation::default(),
                probes,
                &tests,
                &config,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_detection
}
criterion_main!(benches);
