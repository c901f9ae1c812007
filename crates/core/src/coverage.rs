//! Configuration of the coverage computation (paper Section IV-A, Eq. 2–5
//! under the default criterion).
//!
//! Under the paper's metric a parameter θ is **activated** by input `x` when a
//! perturbation of θ would propagate to the DNN output, which the paper
//! measures through the gradient `∇θ F(x)`:
//!
//! * for ReLU networks the gradient is exactly zero for every parameter on an
//!   inactive path, so "activated" means `∇θ F(x) ≠ 0` (Eq. 2);
//! * for saturating activations (Tanh, Sigmoid) the gradient never vanishes
//!   exactly, so a parameter counts as activated when `|∇θ F(x)| > ε`.
//!
//! That rule is one [`crate::criterion::CoverageCriterion`]
//! ([`crate::criterion::ParamGradient`], the default). This module holds the
//! knobs of the computation — the threshold policy, the output projection,
//! the execution policy and chunk size — in one [`CoverageConfig`]. The
//! computation itself is [`crate::eval::Evaluator`]'s: per-input
//! covered-unit sets as [`crate::bitset::Bitset`]s over the criterion's unit
//! space (the flat parameter space for the paper's metric), and the coverage
//! of a test set as the density of the union of its members' sets (Eq. 4).
//!
//! Coverage is defined on the network the evaluator is given, the trusted
//! float model in the paper. Coverage of the int8 model an accelerator IP
//! runs is the same computation on
//! `AcceleratorIp::from_network(&net, BitWidth::Int8).effective_network()`:
//! an evaluator (or a registered workspace model) over that network, whose
//! own fingerprint keeps its cache entries apart.

use crate::par::ExecPolicy;

/// How the activation threshold ε is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpsilonPolicy {
    /// A parameter is activated iff its gradient is exactly non-zero (the paper's
    /// rule for ReLU networks).
    Exact,
    /// A parameter is activated iff `|grad| > ε` for a fixed absolute ε.
    Absolute(f32),
    /// A parameter is activated iff `|grad| > fraction * max_i |grad_i|` for this
    /// input — adapts to the gradient scale of each sample.
    RelativeToMax(f32),
    /// Choose automatically: [`EpsilonPolicy::Exact`] for networks whose
    /// activations are all non-saturating, otherwise
    /// [`EpsilonPolicy::RelativeToMax`] with the given fraction (the paper's
    /// "small value ε" for Tanh/Sigmoid models).
    Auto(f32),
}

impl Default for EpsilonPolicy {
    fn default() -> Self {
        EpsilonPolicy::Auto(1e-4)
    }
}

/// How the (vector-valued) network output is reduced to the scalar whose
/// parameter gradient defines activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputProjection {
    /// Gradient of the **sum of all output logits** — one backward pass per
    /// sample. This is the default: a parameter whose perturbation reaches *any*
    /// output reaches their sum except on a measure-zero cancellation set.
    #[default]
    SumOfOutputs,
    /// Gradient of each output logit separately, a parameter being activated if
    /// any class gradient passes the threshold — `k` backward passes per sample,
    /// immune to cancellation. No binary selects it (the ε-sensitivity
    /// ablation runs the default projection); `tests/zoo_goldens.rs` pins it,
    /// and a per-class output oracle would build on it.
    PerClassMax,
}

/// Default number of samples evaluated per batched forward pass.
pub const DEFAULT_COVERAGE_BATCH: usize = 32;

/// Configuration of the coverage analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageConfig {
    /// Threshold policy for the activation test.
    pub epsilon: EpsilonPolicy,
    /// Output-to-scalar projection.
    pub projection: OutputProjection,
    /// How multi-sample analyses execute. Serial and threaded execution are
    /// guaranteed to produce bit-identical activation sets.
    pub exec: ExecPolicy,
    /// Most samples per chunk, the work unit handed to a worker; a request of
    /// fewer than `batch_size × workers` samples is split into one chunk per
    /// worker instead. `0` is treated as `1`. The value never affects
    /// results, only throughput.
    pub batch_size: usize,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        Self {
            epsilon: EpsilonPolicy::default(),
            projection: OutputProjection::default(),
            exec: ExecPolicy::Serial,
            batch_size: DEFAULT_COVERAGE_BATCH,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The configuration knobs, observed through budget-0 evaluators (the
    //! uncached compute path), so no result below comes from a cache.

    use std::sync::Arc;

    use super::*;
    use crate::bitset::Bitset;
    use crate::criterion::CoverageCriterion;
    use crate::eval::Evaluator;
    use dnnip_nn::layers::{Activation, ActivationLayer, Dense};
    use dnnip_nn::{zoo, Network};
    use dnnip_tensor::Tensor;

    fn relu_net() -> Network {
        zoo::tiny_mlp(4, 8, 3, Activation::Relu, 11).unwrap()
    }

    fn tanh_net() -> Network {
        zoo::tiny_mlp(4, 8, 3, Activation::Tanh, 11).unwrap()
    }

    fn sample(seed: usize) -> Tensor {
        Tensor::from_fn(&[4], |i| ((i + seed) as f32 * 0.61).sin())
    }

    /// An evaluator that computes every set afresh.
    fn uncached(net: &Network, config: CoverageConfig) -> Evaluator {
        Evaluator::with_cache_bytes(net, config, 0)
    }

    /// [`uncached`] under an explicit criterion.
    fn uncached_with(
        net: &Network,
        config: CoverageConfig,
        criterion: Arc<dyn CoverageCriterion>,
    ) -> Evaluator {
        Evaluator::with_criterion_cache_bytes(net, config, criterion, 0)
    }

    #[test]
    fn activation_set_has_parameter_length_and_reasonable_density() {
        let net = relu_net();
        let evaluator = uncached(&net, CoverageConfig::default());
        let set = evaluator.activation_set(&sample(0)).unwrap();
        assert_eq!(set.len(), net.num_parameters());
        let density = set.density();
        assert!(density > 0.0, "some parameters must be active");
        assert!(density <= 1.0);
    }

    #[test]
    fn relu_dead_units_leave_parameters_unactivated() {
        // Build a network where one hidden unit is guaranteed dead for the probe:
        // its incoming weights are all negative and the input is positive.
        let mut w1 = Tensor::zeros(&[2, 2]);
        w1.set(&[0, 0], 1.0).unwrap();
        w1.set(&[1, 0], 1.0).unwrap();
        w1.set(&[0, 1], -1.0).unwrap();
        w1.set(&[1, 1], -1.0).unwrap();
        let b1 = Tensor::zeros(&[2]);
        let w2 = Tensor::ones(&[2, 2]);
        let b2 = Tensor::zeros(&[2]);
        let net = Network::new(
            vec![
                Dense::new(w1, b1).unwrap().into(),
                ActivationLayer::new(Activation::Relu).into(),
                Dense::new(w2, b2).unwrap().into(),
            ],
            &[2],
        )
        .unwrap();
        let evaluator = uncached(&net, CoverageConfig::default());
        let x = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let set = evaluator.activation_set(&x).unwrap();
        // Parameter layout: w1 (4), b1 (2), w2 (4), b2 (2).
        // Unit 1 of the hidden layer is dead (pre-activation -2), so the weights
        // feeding it (w1[0,1] = index 1, w1[1,1] = index 3) and its bias (index 5)
        // and its outgoing weights (w2 row 1 = indices 8, 9) are NOT activated.
        for dead in [1usize, 3, 5, 8, 9] {
            assert!(!set.get(dead), "parameter {dead} should be inactive");
        }
        // The live unit's parameters are activated.
        for live in [0usize, 2, 4, 6, 7] {
            assert!(set.get(live), "parameter {live} should be active");
        }
        // The output biases always reach the output.
        assert!(set.get(10) && set.get(11));
        // Coverage of this sample is 7/12.
        assert!((evaluator.coverage_of_sample(&x).unwrap() - 7.0 / 12.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_network_uses_epsilon_threshold() {
        let net = tanh_net();
        // With an exact policy, Tanh gradients are essentially never zero, so
        // coverage is ~100%; the Auto policy thresholds small gradients away.
        let exact = uncached(
            &net,
            CoverageConfig {
                epsilon: EpsilonPolicy::Exact,
                ..CoverageConfig::default()
            },
        );
        let auto = uncached(&net, CoverageConfig::default());
        let x = sample(3);
        let c_exact = exact.coverage_of_sample(&x).unwrap();
        let c_auto = auto.coverage_of_sample(&x).unwrap();
        assert!(c_exact >= c_auto);
        assert!(c_exact > 0.95, "exact coverage {c_exact}");
        // A large relative threshold prunes aggressively.
        let strict = uncached(
            &net,
            CoverageConfig {
                epsilon: EpsilonPolicy::RelativeToMax(0.5),
                ..CoverageConfig::default()
            },
        );
        assert!(strict.coverage_of_sample(&x).unwrap() < c_auto);
    }

    #[test]
    fn set_coverage_is_monotone_in_the_test_set() {
        let net = relu_net();
        let evaluator = uncached(&net, CoverageConfig::default());
        let samples: Vec<Tensor> = (0..6).map(sample).collect();
        let c1 = evaluator.coverage_of_set(&samples[..1]).unwrap();
        let c3 = evaluator.coverage_of_set(&samples[..3]).unwrap();
        let c6 = evaluator.coverage_of_set(&samples).unwrap();
        assert!(c3 >= c1);
        assert!(c6 >= c3);
    }

    #[test]
    fn per_class_projection_never_reduces_coverage() {
        let net = relu_net();
        let x = sample(5);
        let sum_proj = uncached(&net, CoverageConfig::default());
        let per_class = uncached(
            &net,
            CoverageConfig {
                projection: OutputProjection::PerClassMax,
                ..CoverageConfig::default()
            },
        );
        let a = sum_proj.coverage_of_sample(&x).unwrap();
        let b = per_class.coverage_of_sample(&x).unwrap();
        assert!(b >= a - 1e-6, "per-class {b} vs sum {a}");
    }

    #[test]
    fn execution_policy_and_chunking_never_change_activation_sets() {
        let net = relu_net();
        let serial = uncached(&net, CoverageConfig::default());
        let threaded = uncached(
            &net,
            CoverageConfig {
                exec: ExecPolicy::Threads(4),
                batch_size: 3,
                ..CoverageConfig::default()
            },
        );
        let samples: Vec<Tensor> = (0..10).map(sample).collect();
        let a = serial.activation_sets(&samples).unwrap();
        let b = threaded.activation_sets(&samples).unwrap();
        assert_eq!(a, b, "exec policy / chunking leaked into the results");
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(a[i], serial.activation_set(s).unwrap(), "sample {i}");
            assert_eq!(
                a[i],
                serial.activation_set_reference(s).unwrap(),
                "batched engine disagrees with the per-sample reference at {i}"
            );
        }
    }

    #[test]
    fn criterion_driven_analyzer_reports_criterion_units() {
        use crate::criterion::{NeuronActivation, TopKNeuron};
        let net = relu_net();
        let samples: Vec<Tensor> = (0..5).map(sample).collect();
        let default = uncached(&net, CoverageConfig::default());
        assert_eq!(default.num_units(), net.num_parameters());
        assert_eq!(default.criterion().id(), "param-gradient");
        let neuron = uncached_with(
            &net,
            CoverageConfig::default(),
            Arc::new(NeuronActivation::default()),
        );
        // tiny_mlp(4, 8, 3) has one 8-unit activation layer.
        assert_eq!(neuron.num_units(), 8);
        let sets = neuron.activation_sets(&samples).unwrap();
        assert!(sets.iter().all(|s| s.len() == 8));
        let cov = neuron.coverage_of_set(&samples).unwrap();
        assert!((0.0..=1.0).contains(&cov));
        let topk = uncached_with(
            &net,
            CoverageConfig {
                exec: ExecPolicy::Threads(3),
                batch_size: 2,
                ..CoverageConfig::default()
            },
            Arc::new(TopKNeuron { k: 2 }),
        );
        let topk_sets = topk.activation_sets(&samples).unwrap();
        assert!(topk_sets.iter().all(|s| s.count_ones() == 2));
        // Reference path agrees with the batched path for every criterion.
        for (i, x) in samples.iter().enumerate() {
            assert_eq!(topk_sets[i], topk.activation_set_reference(x).unwrap());
        }
    }

    #[test]
    fn mean_sample_coverage_and_precomputed_union_agree_with_direct() {
        let net = relu_net();
        let evaluator = uncached(&net, CoverageConfig::default());
        let samples: Vec<Tensor> = (0..4).map(sample).collect();
        let direct = evaluator.coverage_of_set(&samples).unwrap();
        // The union of separately computed single-sample sets.
        let singles: Vec<Arc<Bitset>> = samples
            .iter()
            .map(|s| evaluator.activation_set(s).unwrap())
            .collect();
        let precomputed =
            Bitset::union_of(net.num_parameters(), singles.iter().map(Arc::as_ref)).density();
        assert_eq!(direct, precomputed);
        let mean = evaluator.mean_sample_coverage(&samples).unwrap();
        assert!(
            mean <= direct + 1e-6,
            "mean {mean} cannot exceed union {direct}"
        );
        assert!(evaluator.mean_sample_coverage(&[]).is_err());
    }
}
