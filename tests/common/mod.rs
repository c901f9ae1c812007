//! Models and inputs shared by the differential suites.

use dnnip::dataset::digits::{synthetic_mnist, DigitConfig};
use dnnip::prelude::*;

/// Small zoo networks: MLPs and a CNN, saturating and non-saturating
/// activations.
pub fn zoo_networks() -> Vec<(&'static str, Network)> {
    vec![
        (
            "tiny_mlp_relu",
            zoo::tiny_mlp(6, 14, 4, Activation::Relu, 5).unwrap(),
        ),
        (
            "tiny_mlp_tanh",
            zoo::tiny_mlp(6, 14, 4, Activation::Tanh, 5).unwrap(),
        ),
        (
            "tiny_cnn_relu",
            zoo::tiny_cnn(6, 10, Activation::Relu, 9).unwrap(),
        ),
    ]
}

/// Seeded inputs matching `net`'s input shape: a rendered digit dataset for
/// image-shaped networks, deterministic pseudo-random vectors otherwise.
pub fn seeded_inputs(net: &Network, n: usize, seed: u64) -> Vec<Tensor> {
    let shape = net.input_shape().to_vec();
    if shape.len() == 3 && shape[0] == 1 {
        synthetic_mnist(&DigitConfig::with_size(shape[1]), n, seed).inputs
    } else {
        (0..n)
            .map(|i| {
                Tensor::from_fn(&shape, |j| {
                    ((seed as usize + i * 131 + j * 7) as f32 * 0.23).sin()
                })
            })
            .collect()
    }
}
