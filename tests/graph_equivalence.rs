//! Differential pinning of models with Add/Concat nodes against the
//! per-sample reference passes of `Network`.
//!
//! Every model is a `Network`. A "lowered" model here is a chain written
//! node by node through `GraphBuilder`: it must be the very model
//! `Network::new` builds — same nodes, bytes and fingerprint, bit-identical
//! on every surface. The graph models (`residual`, `branching`) must agree
//! between the batched engine and `Network::forward_cached`/`backward`, the
//! one per-sample oracle:
//!
//! * the engine's logits equal `Network::forward` bit for bit;
//! * parameter and input gradients agree within the convolution tolerance;
//! * covered-unit sets under every builtin criterion, the paper's
//!   `param-gradient` included, equal the reference sets;
//! * `Workspace::run` selects what a greedy pass over the reference sets
//!   selects.
//!
//! The suite also pins deterministic topological order across rebuilds and
//! serialization round trips.

use dnnip::core::coverage::CoverageConfig;
use dnnip::core::criterion::builtin_criteria;
use dnnip::core::eval::Evaluator;
use dnnip::core::generator::GenerationMethod;
use dnnip::core::gradgen::GradGenConfig;
use dnnip::core::select::greedy_select_covered;
use dnnip::core::workspace::{TestGenRequest, Workspace};
use dnnip::nn::batch::BatchGradientEngine;
use dnnip::nn::fingerprint::NetworkFingerprint;
use dnnip::nn::graph::GraphBuilder;
use dnnip::nn::serialize;
use dnnip::prelude::*;

/// Pin against `DNNIP_SEED` when set (so the whole differential suite can be
/// replayed under another stream), defaulting like the experiment binaries.
fn seed() -> u64 {
    std::env::var("DNNIP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(23)
}

/// Chain zoo models covering both activation families.
fn models() -> Vec<Network> {
    vec![
        zoo::tiny_cnn(2, 3, Activation::Relu, seed()).unwrap(),
        zoo::tiny_cnn(2, 3, Activation::Tanh, seed().wrapping_add(1)).unwrap(),
    ]
}

/// The zoo's models with Add and Concat nodes.
fn graph_models() -> Vec<Network> {
    vec![
        zoo::residual_classifier(seed()).unwrap(),
        zoo::branching_classifier(seed()).unwrap(),
    ]
}

/// `network`'s layers written node by node through the builder.
fn lowered(network: &Network) -> Network {
    let mut b = GraphBuilder::new(network.input_shape());
    let mut prev = 0;
    for layer in network.layers() {
        prev = b.layer(prev, layer.clone()).unwrap();
    }
    b.finish().unwrap()
}

fn batch_for(network: &Network, n: usize) -> Tensor {
    let mut shape = vec![n];
    shape.extend_from_slice(network.input_shape());
    Tensor::from_fn(&shape, |j| ((j * 31 + 7) as f32 * 0.11).sin())
}

fn pool_for(network: &Network, n: usize) -> Vec<Tensor> {
    let shape = network.input_shape().to_vec();
    (0..n)
        .map(|i| Tensor::from_fn(&shape, |j| ((i * 97 + j) as f32 * 0.13).sin().abs()))
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length drifted");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} drifted");
    }
}

fn assert_close(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length drifted");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() < 1e-4 * (1.0 + y.abs()),
            "{what}: element {i}: engine {x} vs reference {y}"
        );
    }
}

#[test]
fn lowered_forwards_are_bit_identical() {
    for network in models() {
        let graph = lowered(&network);
        assert!(graph.is_linear());
        assert_eq!(graph.nodes(), network.nodes());
        assert_eq!(serialize::to_bytes(&graph), serialize::to_bytes(&network));
        let batch = batch_for(&network, 4);
        assert_bits_eq(
            network.forward(&batch).unwrap().data(),
            graph.forward(&batch).unwrap().data(),
            "forward",
        );
    }
    for network in graph_models() {
        let pool = pool_for(&network, 4);
        let engine = BatchGradientEngine::new(&network);
        let stacked = dnnip::tensor::ops::stack(&pool).unwrap();
        assert_bits_eq(
            engine.forward_batch(&pool).unwrap().output().data(),
            network.forward(&stacked).unwrap().data(),
            "engine forward",
        );
        // The zoo's biases are zero, so the reference's direct convolutions
        // agree with the engine's im2col ones bit for bit.
        assert_bits_eq(
            network.forward_cached(&stacked).unwrap().output.data(),
            network.forward(&stacked).unwrap().data(),
            "forward_cached output",
        );
    }
}

#[test]
fn lowered_backwards_and_parameter_gradients_are_bit_identical() {
    for network in models() {
        let graph = lowered(&network);
        let batch = batch_for(&network, 3);
        let net_pass = network.forward_cached(&batch).unwrap();
        let graph_pass = graph.forward_cached(&batch).unwrap();
        let grad_output =
            Tensor::from_fn(net_pass.output.shape(), |j| ((j + 1) as f32 * 0.21).cos());
        let net_back = network.backward(&net_pass, &grad_output).unwrap();
        let graph_back = graph.backward(&graph_pass, &grad_output).unwrap();
        assert_bits_eq(
            net_back.grad_input.data(),
            graph_back.grad_input.data(),
            "grad_input",
        );
        assert_bits_eq(
            &net_back.param_grads,
            &graph_back.param_grads,
            "param_grads",
        );
    }
    // Graph models: the engine's per-sample gradients against the oracle.
    for network in graph_models() {
        let engine = BatchGradientEngine::new(&network);
        let pool = pool_for(&network, 4);
        let classes = network.num_classes();
        let weights: Vec<f32> = (0..classes).map(|c| (c as f32 * 0.9).cos()).collect();
        let batched = engine.parameter_gradients_batch(&pool, &weights).unwrap();
        let pass = engine.forward_batch(&pool).unwrap();
        for (s, sample) in pool.iter().enumerate() {
            let reference = network.parameter_gradients(sample, &weights).unwrap();
            assert_close(&batched[s], &reference, "parameter gradients");
            let class = s % classes;
            let mut onehot = vec![0.0f32; classes];
            onehot[class] = 1.0;
            assert_close(
                engine.input_gradient(&pass, s, &onehot).unwrap().data(),
                network
                    .input_gradient_for_class(sample, class)
                    .unwrap()
                    .data(),
                "input gradient",
            );
        }
    }
}

#[test]
fn lowered_covered_sets_match_the_batched_engine() {
    for network in models().into_iter().chain(graph_models()) {
        let pool = pool_for(&network, 6);
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            let evaluator =
                Evaluator::with_criterion(&network, CoverageConfig::default(), criterion.clone());
            let engine_sets = evaluator.activation_sets(&pool).unwrap();
            assert_eq!(engine_sets.len(), pool.len());
            for (i, (set, sample)) in engine_sets.iter().zip(&pool).enumerate() {
                let reference = criterion.covered_units_reference(&network, sample).unwrap();
                assert_eq!(set.len(), criterion.num_units(&network));
                assert!(
                    **set == reference,
                    "{}: covered set {i} drifted from the reference",
                    criterion.id()
                );
            }
            assert!(engine_sets.iter().any(|s| s.count_ones() > 0));
        }
    }
}

#[test]
fn lowered_workspace_selections_are_bit_identical() {
    // A builder-written chain is byte-identical to its `Network::new` form
    // (`lowered_forwards_are_bit_identical`), so both register as one model.
    for network in models() {
        let ws = Workspace::new();
        let key = ws.register("seq", network.clone(), CoverageConfig::default());
        let again = ws.register("seq", lowered(&network), CoverageConfig::default());
        assert_eq!(key, again);
        assert_eq!(ws.models().len(), 1);
    }
    // Graph models: the workspace selects what greedy selection over the
    // reference sets selects.
    for network in graph_models() {
        let ws = Workspace::new();
        let key = ws.register("graph", network.clone(), CoverageConfig::default());
        let pool = pool_for(&network, 12);
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            let report = ws
                .run(
                    &TestGenRequest::new(key, GenerationMethod::TrainingSetSelection, 5)
                        .with_criterion(criterion.clone())
                        .with_candidates(pool.clone()),
                )
                .unwrap();
            let reference: Vec<_> = pool
                .iter()
                .map(|x| {
                    std::sync::Arc::new(criterion.covered_units_reference(&network, x).unwrap())
                })
                .collect();
            let greedy =
                greedy_select_covered(&reference, criterion.num_units(&network), 5).unwrap();
            assert_eq!(
                report.selected_indices(),
                greedy.selected,
                "{}",
                criterion.id()
            );
            assert_eq!(
                report.final_coverage().to_bits(),
                greedy.final_coverage().to_bits(),
                "{}",
                criterion.id()
            );
        }
    }
}

#[test]
fn topological_order_is_deterministic_across_rebuilds_and_round_trips() {
    let first = zoo::residual_classifier(seed()).unwrap();
    let second = zoo::residual_classifier(seed()).unwrap();
    assert_eq!(first.summary(), second.summary());
    let fp = NetworkFingerprint::of;
    assert_eq!(fp(&first), fp(&second));
    let bytes = serialize::to_bytes(&first);
    assert_eq!(bytes, serialize::to_bytes(&second));

    let reloaded = serialize::from_bytes(&bytes).unwrap();
    assert_eq!(reloaded.summary(), first.summary());
    assert_eq!(fp(&reloaded), fp(&first));
    let batch = Tensor::from_fn(&[2, 1, 8, 8], |j| (j as f32 * 0.05).sin());
    assert_bits_eq(
        first.forward(&batch).unwrap().data(),
        reloaded.forward(&batch).unwrap().data(),
        "round-tripped forward",
    );
}

#[test]
fn nonlinear_graphs_run_end_to_end_through_the_workspace() {
    let graph = zoo::residual_classifier(seed()).unwrap();
    let pool = pool_for(&graph, 8);
    let ws = Workspace::new();
    let key = ws.register("residual", graph, CoverageConfig::default());
    let gradgen = GradGenConfig {
        steps: 3,
        ..GradGenConfig::default()
    };
    for spec in ["neuron-activation:0.1", "param-gradient"] {
        for strategy in GenerationMethod::all() {
            let report = ws
                .run(
                    &TestGenRequest::new(key, strategy, 3)
                        .with_criterion_spec(spec.to_string())
                        .with_gradgen(gradgen)
                        .with_candidates(pool.clone()),
                )
                .unwrap();
            let what = format!("{spec} {}", strategy.name());
            assert!(report.num_units > 0, "{what}");
            assert!(report.final_coverage() > 0.0, "{what}: nothing covered");
            assert_eq!(report.tests.len(), 3, "{what}");
        }
    }
}
