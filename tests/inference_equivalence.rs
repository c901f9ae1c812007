//! Every inference surface runs the batched engine's convolution kernel, so
//! on one network they agree bit for bit: `Network::forward`, the lowered
//! `Graph::forward`, the golden outputs of a functional-test suite and the
//! IP user's replay through `FloatIp::infer`.
//!
//! The zoo initialises every bias to zero, which hides the difference between
//! the direct (bias first) and im2col (bias last) convolutions. Every bias is
//! set to a seeded nonzero value first, so a surface that ran the other
//! kernel would differ in the last bits.

use dnnip::core::eval::Evaluator;
use dnnip::graph::Graph;
use dnnip::nn::batch::BatchGradientEngine;
use dnnip::prelude::*;
use dnnip::tensor::{init, ops};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `net` with every bias replaced by a seeded value in `[-0.5, 0.5)`.
fn with_nonzero_biases(mut net: Network, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let biases = net.param_layout().bias_indices();
    let values = init::uniform(&mut rng, &[biases.len()], -0.5, 0.5);
    let mut params = net.parameters_flat();
    for (&i, &v) in biases.iter().zip(values.data()) {
        params[i] = v;
    }
    net.set_parameters_flat(&params).unwrap();
    net
}

fn models() -> Vec<(&'static str, Network)> {
    vec![
        (
            "cifar-scaled",
            with_nonzero_biases(zoo::cifar_model_scaled(7).unwrap(), 1),
        ),
        (
            "mnist-scaled",
            with_nonzero_biases(zoo::mnist_model_scaled(14).unwrap(), 2),
        ),
    ]
}

fn samples(net: &Network, n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| init::uniform(&mut rng, net.input_shape(), -1.0, 1.0))
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn lowered_graph_forward_is_bit_identical_to_network_forward() {
    for (name, net) in models() {
        let xs = samples(&net, 5, 11);
        let batch = ops::stack(&xs).unwrap();
        let graph = Graph::from(&net);
        assert_eq!(
            bits(&graph.forward(&batch).unwrap()),
            bits(&net.forward(&batch).unwrap()),
            "{name}"
        );
        // The graph's forward-only activation surface matches the engine's
        // capture too, so neuron criteria index identical values.
        let capture = BatchGradientEngine::new(&net)
            .activation_outputs(&xs)
            .unwrap();
        let graph_acts = graph.activation_outputs(&batch).unwrap();
        assert_eq!(graph_acts.len(), capture.per_layer().len(), "{name}");
        for (g, e) in graph_acts.iter().zip(capture.per_layer()) {
            assert_eq!(bits(g), bits(e), "{name}: activation outputs");
        }
    }
}

#[test]
fn golden_outputs_are_bit_identical_to_the_ip_replay() {
    for (name, net) in models() {
        let tests = samples(&net, 6, 13);
        let evaluator = Evaluator::new(&net, CoverageConfig::default());
        let suite =
            FunctionalTestSuite::from_evaluator(&evaluator, tests.clone(), MatchPolicy::default())
                .unwrap();
        let from_network =
            FunctionalTestSuite::from_network(&net, tests.clone(), MatchPolicy::default()).unwrap();
        let ip = FloatIp::new(net);
        for (i, x) in tests.iter().enumerate() {
            let replay = ip.infer(x).unwrap();
            assert_eq!(
                bits(&suite.golden_outputs[i]),
                bits(&replay),
                "{name}: test {i}"
            );
            assert_eq!(
                bits(&from_network.golden_outputs[i]),
                bits(&replay),
                "{name}: test {i}"
            );
        }
        assert!(suite.validate(&ip).unwrap().passed, "{name}");
    }
}
