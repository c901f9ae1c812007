//! Every inference surface runs the batched engine's convolution kernel, so
//! on one network — a chain or a graph — they agree bit for bit:
//! `Network::forward`, the golden outputs of a functional-test suite and the
//! IP user's replay through `FloatIp::infer`.
//!
//! The zoo initialises every bias to zero, which hides the difference between
//! the direct (bias first) and im2col (bias last) convolutions. Every bias is
//! set to a seeded nonzero value first, so a surface that ran the other
//! kernel would differ in the last bits.

use dnnip::core::eval::Evaluator;
use dnnip::nn::batch::BatchGradientEngine;
use dnnip::prelude::*;
use dnnip::tensor::kernels::bit_mismatch;
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

/// First element at which `a` and `b` break bit-identity (see
/// `kernels::bit_mismatch`), or `None`.
fn mismatch(a: &Tensor, b: &Tensor) -> Option<usize> {
    bit_mismatch(a.data(), b.data())
}

#[test]
fn lowered_graph_forward_is_bit_identical_to_network_forward() {
    // Chains and the residual graph, all with nonzero biases:
    // `Network::forward` walks their nodes with the engine's kernels, so the
    // logits agree bit for bit.
    let residual = (
        "residual",
        with_nonzero_biases(zoo::residual_classifier(15).unwrap(), 3),
    );
    for (name, net) in models().into_iter().chain([residual]) {
        let xs = samples(&net, 5, 11);
        let batch = ops::stack(&xs).unwrap();
        let capture = BatchGradientEngine::new(&net)
            .activation_outputs(&xs)
            .unwrap();
        assert_eq!(
            mismatch(capture.logits(), &net.forward(&batch).unwrap()),
            None,
            "{name}: logits"
        );
        let units: usize = (0..capture.per_layer().len())
            .map(|l| capture.units_per_sample(l))
            .sum();
        assert_eq!(units, net.num_neuron_units(), "{name}: activation units");
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
                mismatch(&suite.golden_outputs[i], &replay),
                None,
                "{name}: test {i}"
            );
            assert_eq!(
                mismatch(&from_network.golden_outputs[i], &replay),
                None,
                "{name}: test {i}"
            );
        }
        assert!(suite.validate(&ip).unwrap().passed, "{name}");
    }
}
