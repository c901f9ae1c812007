//! Direct calls into single layers for the traced run: the same shapes and
//! models the workloads use, timed one public function at a time.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dnnip_accel::perf::PerfModel;
use dnnip_core::coverage::{CoverageConfig, DEFAULT_COVERAGE_BATCH};
use dnnip_core::criterion::{criterion_from_spec, CoverageCriterion, ParamGradient};
use dnnip_core::gradgen::GradGenConfig;
use dnnip_core::par::ExecPolicy;
use dnnip_core::select::greedy_select_covered;
use dnnip_core::workspace::Workspace;
use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::layers::Layer;
use dnnip_nn::Network;
use dnnip_tensor::kernels;

use crate::common::{ms_since, Ctx, Model, Outcome};
use crate::rng::Rng;
use crate::stats::Dist;

/// Each probe repeats its call until this much time has passed (and at least
/// three times), then reports the median.
const PROBE_MS: f64 = 150.0;

fn median_ms(mut call: impl FnMut()) -> f64 {
    call();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || ms_since(start) < PROBE_MS {
        let t = Instant::now();
        call();
        samples.push(ms_since(t));
    }
    Dist::of(&samples).map_or(0.0, |d| d.p50)
}

/// `(m, k, n)` of every convolution's im2col gemm in `network`.
fn im2col_shapes(network: &Network) -> Vec<(usize, usize, usize)> {
    let mut shape = vec![1];
    shape.extend_from_slice(network.input_shape());
    let mut out = Vec::new();
    for layer in network.layers() {
        let next = layer.output_shape(&shape).expect("validated network");
        if let Layer::Conv2d(c) = layer {
            out.push((
                c.out_channels(),
                c.in_channels() * c.kernel() * c.kernel(),
                next[2] * next[3],
            ));
        }
        shape = next;
    }
    out
}

/// Every probe.
pub fn run_all(ctx: &Ctx, out: &mut Outcome, models: &[Model]) {
    let mut rng = Rng::new(ctx.seed, 4);
    let batch = DEFAULT_COVERAGE_BATCH;

    // tensor: gemm on the engines' im2col shapes.
    let (mut flops, mut seconds) = (0.0, 0.0);
    for m in models {
        for (mm, k, n) in im2col_shapes(&m.network) {
            let a: Vec<f32> = (0..mm * k).map(|_| rng.unit() as f32).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.unit() as f32).collect();
            let mut c = vec![0.0f32; mm * n];
            let ms = median_ms(|| {
                kernels::gemm(mm, k, n, black_box(&a), black_box(&b), &mut c);
                black_box(&c);
            });
            flops += 2.0 * (mm * k * n) as f64;
            seconds += ms / 1e3;
        }
    }
    out.metrics.set("tensor.gemm_gflops", flops / seconds / 1e9);

    // nn: one coverage batch per engine call, per model.
    for m in models {
        let chunk = rng.pool(&m.input_shape, batch);
        let engine = BatchGradientEngine::new(Arc::clone(&m.network));
        let classes = m.network.num_classes();
        let ones = vec![1.0f32; classes];
        let forward = median_ms(|| {
            black_box(engine.forward_batch(&chunk).expect("probe batch"));
        });
        let param = median_ms(|| {
            black_box(
                engine
                    .parameter_gradients_batch(&chunk, &ones)
                    .expect("probe batch"),
            );
        });
        let pass = engine.forward_batch(&chunk).expect("probe batch");
        let input = median_ms(|| {
            for s in 0..batch {
                black_box(engine.input_gradient(&pass, s, &ones).expect("probe batch"));
            }
        });
        let macs: u64 = PerfModel::default()
            .layer_costs(&m.network)
            .iter()
            .map(|c| c.macs)
            .sum();
        let p = format!("nn.{}", m.name);
        let met = &mut out.metrics;
        met.set(format!("{p}.forward_ms"), forward);
        met.set(format!("{p}.param_grad_ms"), param);
        met.set(format!("{p}.input_grad_ms"), input);
        met.set(
            format!("{p}.forward_gflops"),
            2.0 * macs as f64 * batch as f64 / (forward / 1e3) / 1e9,
        );
    }

    // criterion: `covered_units` per batch on the smallest suite model.
    let m = models.last().expect("suite models");
    let chunk = rng.pool(&m.input_shape, batch);
    let engine = BatchGradientEngine::new(Arc::clone(&m.network));
    let criteria: [Arc<dyn CoverageCriterion>; 3] = [
        Arc::new(ParamGradient::from_config(&m.coverage)),
        criterion_from_spec("neuron-activation:0.25", &m.coverage).expect("spec"),
        criterion_from_spec("topk-neuron:2", &m.coverage).expect("spec"),
    ];
    for c in criteria {
        let ms = median_ms(|| {
            black_box(c.covered_units(&engine, &chunk).expect("probe batch"));
        });
        out.metrics.set(format!("criterion.{}.ms", c.id()), ms);
    }

    // graph: the served residual model under a forward-only criterion.
    let graph = dnnip_graph::zoo::residual_classifier(15).expect("fixed geometry");
    let graph_chunk = rng.pool(graph.input_shape(), batch);
    let c =
        criterion_from_spec("neuron-activation:0.25", &CoverageConfig::default()).expect("spec");
    let ms = median_ms(|| {
        black_box(
            c.covered_units_graph(&graph, &graph_chunk)
                .expect("graph path")
                .expect("probe batch"),
        );
    });
    out.metrics.set("graph.covered_units_ms", ms);

    // select: greedy over a full pool of the largest model's sets.
    let big = &models[0];
    let ws = Workspace::new();
    let key = ws.register(big.name, Arc::clone(&big.network), big.coverage);
    let evaluator = ws.default_evaluator(key).expect("registered");
    let pool = rng.pool(&big.input_shape, crate::suites::pool_size());
    let sets = evaluator.activation_sets(&pool).expect("probe pool");
    let units = evaluator.num_units();
    let budget = *crate::suites::SWEEP_BUDGETS.last().expect("budgets");
    let greedy = median_ms(|| {
        black_box(greedy_select_covered(&sets, units, budget).expect("probe selection"));
    });
    out.metrics.set("select.greedy_ms", greedy);

    // gradgen: one synthesis batch (one test per class) on the small model.
    let ws = Workspace::new();
    let key = ws.register(m.name, Arc::clone(&m.network), m.coverage);
    let evaluator = ws.default_evaluator(key).expect("registered");
    let config = GradGenConfig {
        seed: ctx.seed,
        exec: ExecPolicy::auto(),
        ..GradGenConfig::default()
    };
    let classes = m.network.num_classes();
    let gen = median_ms(|| {
        black_box(
            evaluator
                .gradient_generator(config)
                .generate(classes)
                .expect("probe synthesis"),
        );
    });
    out.metrics.set("gradgen.generate_ms", gen);
    out.metrics.set(
        "gradgen.steps_per_s",
        (classes * config.steps) as f64 / (gen / 1e3),
    );
}
