//! Inference and the batched engine run one convolution kernel, so their
//! outputs agree bit for bit; the cached forward keeps the direct kernel as
//! the independent per-sample reference.
//!
//! The zoo initialises every bias to zero, and with zero biases the direct
//! and im2col convolutions agree bit for bit anyway. These tests first set
//! every bias to a seeded nonzero value, which separates the two kernels'
//! rounding: a path that drifted onto the other kernel would fail here.

use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::{zoo, Network};
use dnnip_tensor::{init, ops, Tensor};
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
fn biases_are_nonzero() {
    for (name, net) in models() {
        let params = net.parameters_flat();
        let biases = net.param_layout().bias_indices();
        assert!(biases.iter().all(|&i| params[i] != 0.0), "{name}");
    }
}

#[test]
fn network_forward_is_bit_identical_to_the_engine() {
    for (name, net) in models() {
        let xs = samples(&net, 6, 3);
        let forward = net.forward(&ops::stack(&xs).unwrap()).unwrap();
        let engine = BatchGradientEngine::new(&net);
        let pass = engine.forward_batch(&xs).unwrap();
        assert_eq!(bits(&forward), bits(pass.output()), "{name}: forward_batch");
        let capture = engine.activation_outputs(&xs).unwrap();
        assert_eq!(
            bits(&forward),
            bits(capture.logits()),
            "{name}: activation_outputs"
        );
        // One sample at a time (golden outputs, IP replay) equals its row of
        // the batch.
        for (s, x) in xs.iter().enumerate() {
            assert_eq!(
                bits(&net.forward_sample(x).unwrap()),
                bits(&ops::row(&forward, s).unwrap()),
                "{name}: forward_sample {s}"
            );
        }
    }
}

#[test]
fn cached_forward_stays_the_independent_direct_reference() {
    for (name, net) in models() {
        let batch = ops::stack(&samples(&net, 4, 5)).unwrap();
        let forward = net.forward(&batch).unwrap();
        let pass = net.forward_cached(&batch).unwrap();
        assert!(pass.output.approx_eq(&forward, 1e-4), "{name}");
        // Layer 0 is a convolution with a nonzero bias: the direct loop
        // (bias first) and im2col (bias last) round differently somewhere.
        let inferred = net.layers()[0].infer(&batch).unwrap();
        assert!(pass.layer_outputs[0].approx_eq(&inferred, 1e-4), "{name}");
        assert_ne!(
            bits(&pass.layer_outputs[0]),
            bits(&inferred),
            "{name}: forward_cached must not run the inference kernel"
        );
    }
}
