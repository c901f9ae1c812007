//! Cycle-approximate performance model of the accelerator IP.
//!
//! The paper frames the trade-off as *validation coverage vs validation cost*,
//! measuring cost purely as the number of functional tests. For a hardware IP
//! the user-visible cost is the time (and memory traffic) of actually running
//! those tests on the accelerator, so this module provides a first-order
//! analytical model of a weight-stationary systolic accelerator:
//!
//! * every layer is characterized by its multiply–accumulate (MAC) count,
//!   its weight/activation traffic in bytes, and the cycles it occupies a
//!   `lanes`-wide MAC array at a given clock;
//! * a [`PerfModel`] turns a [`Network`] into a per-layer [`LayerCost`]
//!   breakdown and aggregates suite-level estimates, so experiments can report
//!   "validating this IP with 30 functional tests costs ~N ms on the target"
//!   next to the coverage numbers.
//!
//! The model is deliberately simple (no pipelining stalls, perfect utilization
//! within a layer, fixed DRAM energy per byte) — it ranks test budgets and
//! architectures, it does not replace an RTL simulation.

use dnnip_nn::layers::Layer;
use dnnip_nn::Network;

use crate::quant::BitWidth;

/// Hardware parameters of the modelled accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Number of parallel MAC lanes (e.g. a 16×16 systolic array = 256).
    pub lanes: usize,
    /// Clock frequency in MHz.
    pub clock_mhz: f32,
    /// Weight-memory precision (determines weight traffic per parameter).
    pub weight_width: BitWidth,
    /// Bytes per activation element moved to/from on-chip buffers.
    pub activation_bytes: usize,
    /// Energy per MAC operation in picojoules.
    pub energy_per_mac_pj: f32,
    /// Energy per byte of off-chip (weight) traffic in picojoules.
    pub energy_per_dram_byte_pj: f32,
}

impl Default for PerfModel {
    /// A modest edge-accelerator configuration: 256 lanes at 400 MHz, 8-bit
    /// weights, 1-byte activations.
    fn default() -> Self {
        Self {
            lanes: 256,
            clock_mhz: 400.0,
            weight_width: BitWidth::Int8,
            activation_bytes: 1,
            energy_per_mac_pj: 0.3,
            energy_per_dram_byte_pj: 20.0,
        }
    }
}

/// Cost estimate of running one layer for a single input sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCost {
    /// Layer name (as reported by [`Layer::name`]).
    pub name: String,
    /// Multiply–accumulate operations.
    pub macs: u64,
    /// Weight bytes streamed from the off-chip memory.
    pub weight_bytes: u64,
    /// Activation bytes read plus written.
    pub activation_bytes: u64,
    /// Cycles occupying the MAC array (MACs / lanes, at least 1 for non-empty work).
    pub cycles: u64,
}

/// Aggregate cost estimate for a full inference (or a batch of inferences).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostEstimate {
    /// Total multiply–accumulate operations.
    pub macs: u64,
    /// Total weight traffic in bytes.
    pub weight_bytes: u64,
    /// Total activation traffic in bytes.
    pub activation_bytes: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Latency in microseconds at the model's clock.
    pub latency_us: f32,
    /// Energy in microjoules.
    pub energy_uj: f32,
}

impl PerfModel {
    /// Per-layer cost breakdown of one inference of `network`.
    ///
    /// Layers without arithmetic (flatten, activation, pooling) contribute zero
    /// MACs but still move their activations.
    pub fn layer_costs(&self, network: &Network) -> Vec<LayerCost> {
        let mut costs = Vec::with_capacity(network.num_layers());
        for (layer, in_shape, out_shape) in network.layer_shapes() {
            let out_elems: usize = out_shape.iter().product();
            let in_elems: usize = in_shape.iter().product();
            let (macs, weight_params) = match layer {
                Layer::Conv2d(conv) => {
                    let k = conv.kernel();
                    let per_output = conv.in_channels() * k * k;
                    (
                        (out_elems * per_output) as u64,
                        (conv.parameters().0.len() + conv.parameters().1.len()) as u64,
                    )
                }
                Layer::Dense(dense) => (
                    (dense.in_features() * dense.out_features()) as u64,
                    (dense.parameters().0.len() + dense.parameters().1.len()) as u64,
                ),
                _ => (0, 0),
            };
            let cycles = if macs == 0 {
                0
            } else {
                macs.div_ceil(self.lanes as u64).max(1)
            };
            costs.push(LayerCost {
                name: layer.name(),
                macs,
                weight_bytes: weight_params * self.weight_width.bytes() as u64,
                activation_bytes: ((in_elems + out_elems) * self.activation_bytes) as u64,
                cycles,
            });
        }
        costs
    }

    /// Aggregate cost of one inference.
    pub fn inference_cost(&self, network: &Network) -> CostEstimate {
        self.aggregate(network, 1)
    }

    /// Aggregate cost of replaying a functional-test suite of `num_tests` inputs
    /// (the user-side validation cost the paper trades coverage against).
    pub fn validation_cost(&self, network: &Network, num_tests: usize) -> CostEstimate {
        self.aggregate(network, num_tests as u64)
    }

    fn aggregate(&self, network: &Network, runs: u64) -> CostEstimate {
        let mut total = CostEstimate::default();
        for cost in self.layer_costs(network) {
            total.macs += cost.macs * runs;
            total.weight_bytes += cost.weight_bytes * runs;
            total.activation_bytes += cost.activation_bytes * runs;
            total.cycles += cost.cycles * runs;
        }
        total.latency_us = total.cycles as f32 / self.clock_mhz;
        total.energy_uj = (total.macs as f32 * self.energy_per_mac_pj
            + (total.weight_bytes + total.activation_bytes) as f32 * self.energy_per_dram_byte_pj)
            / 1e6;
        total
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
        let model = PerfModel::default();
        let costs = model.layer_costs(&net);
        assert_eq!(costs.len(), net.num_layers());
        // Dense(8->16) and Dense(16->4) MAC counts.
        assert_eq!(costs[0].macs, 8 * 16);
        assert_eq!(costs[2].macs, 16 * 4);
        // The activation layer does no arithmetic.
        assert_eq!(costs[1].macs, 0);
        assert_eq!(costs[1].cycles, 0);
        // Weight traffic covers every parameter once at 1 byte each (int8).
        let total_weight_bytes: u64 = costs.iter().map(|c| c.weight_bytes).sum();
        assert_eq!(total_weight_bytes, net.num_parameters() as u64);
    }

    #[test]
    fn conv_layer_macs_match_formula() {
        let net = zoo::tiny_cnn(4, 3, Activation::Relu, 2).unwrap();
        let model = PerfModel::default();
        let costs = model.layer_costs(&net);
        // Conv2d(1 -> 4, k=3, pad=1) over an 8x8 input: 4*8*8 outputs * 1*3*3 MACs.
        assert_eq!(costs[0].macs, (4 * 8 * 8 * 9) as u64);
        assert!(costs[0].cycles >= 1);
    }

    #[test]
    fn table_one_models_have_sensible_magnitudes() {
        let mnist = zoo::mnist_model(0).unwrap();
        let model = PerfModel::default();
        let cost = model.inference_cost(&mnist);
        // The MNIST Table-I model is a few tens of MMACs per inference.
        assert!(cost.macs > 3_000_000, "macs {}", cost.macs);
        assert!(cost.macs < 50_000_000, "macs {}", cost.macs);
        assert!(cost.latency_us > 0.0);
        assert!(cost.energy_uj > 0.0);
        // The CIFAR model is strictly more expensive.
        let cifar_cost = model.inference_cost(&zoo::cifar_model(0).unwrap());
        assert!(cifar_cost.macs > cost.macs);
        assert!(cifar_cost.latency_us > cost.latency_us);
    }

    #[test]
    fn validation_cost_scales_linearly_with_test_count() {
        let net = zoo::mnist_model_scaled(3).unwrap();
        let model = PerfModel::default();
        let one = model.validation_cost(&net, 1);
        let thirty = model.validation_cost(&net, 30);
        assert_eq!(thirty.macs, one.macs * 30);
        assert_eq!(thirty.cycles, one.cycles * 30);
        assert!((thirty.latency_us - one.latency_us * 30.0).abs() < 1.0);
        assert_eq!(model.validation_cost(&net, 0).macs, 0);
    }

    #[test]
    fn wider_arrays_reduce_latency_not_macs() {
        let net = zoo::cifar_model_scaled(1).unwrap();
        let narrow = PerfModel {
            lanes: 64,
            ..PerfModel::default()
        };
        let wide = PerfModel {
            lanes: 1024,
            ..PerfModel::default()
        };
        let a = narrow.inference_cost(&net);
        let b = wide.inference_cost(&net);
        assert_eq!(a.macs, b.macs);
        assert!(b.cycles < a.cycles);
        assert!(b.latency_us < a.latency_us);
    }

    #[test]
    fn sixteen_bit_weights_double_weight_traffic() {
        let net = zoo::tiny_mlp(8, 16, 4, Activation::Relu, 1).unwrap();
        let int8 = PerfModel::default();
        let int16 = PerfModel {
            weight_width: BitWidth::Int16,
            ..PerfModel::default()
        };
        assert_eq!(
            int16.inference_cost(&net).weight_bytes,
            int8.inference_cost(&net).weight_bytes * 2
        );
    }
}
