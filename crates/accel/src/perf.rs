//! Per-layer multiply–accumulate (MAC) counts of the accelerator's workload.
//!
//! The paper measures validation cost as the number of functional tests. The
//! arithmetic each test costs the accelerator is one inference's MACs, and
//! [`PerfModel::layer_costs`] breaks that count down by layer, so measured
//! layer times can be reported as achieved GFLOP/s (two FLOPs per MAC).

use dnnip_nn::layers::Layer;
use dnnip_nn::Network;

/// Counts the MACs of a network's layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfModel;

/// The MAC count of one layer for a single input sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCost {
    /// Layer name (as reported by [`Layer::name`]).
    pub name: String,
    /// Multiply–accumulate operations.
    pub macs: u64,
}

impl PerfModel {
    /// Per-layer MAC counts of one inference of `network`, in layer order.
    ///
    /// Layers without arithmetic (flatten, activation, pooling) count zero.
    pub fn layer_costs(&self, network: &Network) -> Vec<LayerCost> {
        network
            .layer_shapes()
            .map(|(layer, out_shape)| {
                let out_elems: usize = out_shape.iter().product();
                let macs = match layer {
                    Layer::Conv2d(conv) => {
                        out_elems * conv.in_channels() * conv.kernel() * conv.kernel()
                    }
                    Layer::Dense(dense) => dense.in_features() * dense.out_features(),
                    _ => 0,
                };
                LayerCost {
                    name: layer.name(),
                    macs: macs as u64,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    #[test]
    fn dense_layer_macs_match_matrix_size() {
        let net = zoo::tiny_mlp(8, 16, 4, Activation::Relu, 1).unwrap();
        let costs = PerfModel.layer_costs(&net);
        assert_eq!(costs.len(), net.num_layers());
        // Dense(8->16) and Dense(16->4) MAC counts.
        assert_eq!(costs[0].macs, 8 * 16);
        assert_eq!(costs[2].macs, 16 * 4);
        // The activation layer does no arithmetic.
        assert_eq!(costs[1].macs, 0);
    }

    #[test]
    fn conv_layer_macs_match_formula() {
        let net = zoo::tiny_cnn(4, 3, Activation::Relu, 2).unwrap();
        let costs = PerfModel.layer_costs(&net);
        // Conv2d(1 -> 4, k=3, pad=1) over an 8x8 input: 4*8*8 outputs * 1*3*3 MACs.
        assert_eq!(costs[0].macs, (4 * 8 * 8 * 9) as u64);
    }

    #[test]
    fn table_one_models_have_sensible_magnitudes() {
        let macs =
            |net: &Network| -> u64 { PerfModel.layer_costs(net).iter().map(|c| c.macs).sum() };
        let mnist = macs(&zoo::mnist_model(0).unwrap());
        // The MNIST Table-I model is a few tens of MMACs per inference.
        assert!(mnist > 3_000_000, "macs {mnist}");
        assert!(mnist < 50_000_000, "macs {mnist}");
        // The CIFAR model is strictly more expensive.
        assert!(macs(&zoo::cifar_model(0).unwrap()) > mnist);
    }
}
