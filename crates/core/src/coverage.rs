//! The criterion-driven coverage analyzer (paper Section IV-A, Eq. 2–5 under
//! the default criterion).
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
//! ([`crate::criterion::ParamGradient`], the default); the analyzer itself is
//! generic over the criterion and only handles chunking, batching and the
//! execution policy. [`CoverageAnalyzer`] computes per-input covered-unit sets
//! as [`Bitset`]s over the criterion's unit space (the flat parameter space
//! for the paper's metric); the coverage of a test set is the density of the
//! union of its members' sets (Eq. 4).

use std::sync::Arc;

use dnnip_accel::quant::{round_trip_network, BitWidth};
use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::Network;
use dnnip_tensor::Tensor;

use crate::bitset::Bitset;
use crate::criterion::{CoverageCriterion, ParamGradient};
use crate::par::{self, ExecPolicy};
use crate::{CoreError, Result};

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
    /// immune to cancellation. Used by the ε-sensitivity ablation.
    PerClassMax,
}

/// Default number of samples evaluated per batched forward pass.
pub const DEFAULT_COVERAGE_BATCH: usize = 32;

/// Numeric precision of the forward pass behind **forward-only** coverage
/// criteria (the neuron criteria, which never need gradients).
///
/// The quantized mode evaluates those criteria against the int8 round-trip of
/// the network's parameters — the model the simulated accelerator IP
/// effectively runs (see `dnnip_accel::quant::round_trip_network`) — so
/// forward-only coverage numbers reflect deployed-precision behaviour.
/// Gradient-based criteria ([`crate::criterion::ParamGradient`]) always run in
/// full `f32`: the paper's activation rule is defined on the float model's
/// gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardPrecision {
    /// Full `f32` precision for every criterion (the default).
    #[default]
    Full,
    /// Forward-only criteria run on the int8 round-tripped parameters.
    QuantizedInt8,
}

impl ForwardPrecision {
    /// Read the precision from the `DNNIP_QUANT` environment variable:
    /// `1` selects [`ForwardPrecision::QuantizedInt8`], anything else (unset
    /// included) selects [`ForwardPrecision::Full`].
    pub fn from_env() -> Self {
        match std::env::var("DNNIP_QUANT") {
            Ok(v) if v.trim() == "1" => ForwardPrecision::QuantizedInt8,
            _ => ForwardPrecision::Full,
        }
    }
}

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
    /// Forward-pass precision for forward-only criteria (see
    /// [`ForwardPrecision`]); gradient criteria ignore it.
    pub precision: ForwardPrecision,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        Self {
            epsilon: EpsilonPolicy::default(),
            projection: OutputProjection::default(),
            exec: ExecPolicy::Serial,
            batch_size: DEFAULT_COVERAGE_BATCH,
            precision: ForwardPrecision::default(),
        }
    }
}

/// Computes per-input covered-unit sets and coverage for one network under a
/// pluggable [`CoverageCriterion`] (the paper's parameter-gradient metric by
/// default).
///
/// The analyzer **owns** its network (`Arc<Network>`, shared with the batched
/// engine), so it is a `'static` value: it can be stored in registries,
/// moved across threads and cloned cheaply. Constructors accept `&Network`
/// (cloned into the `Arc` once) or an `Arc<Network>` (shared, no copy).
#[derive(Debug, Clone)]
pub struct CoverageAnalyzer {
    config: CoverageConfig,
    criterion: Arc<dyn CoverageCriterion>,
    /// Unit count of the criterion for this network (bitset length), computed
    /// once at construction.
    num_units: usize,
    /// Batched evaluation engine, built once (it precomputes per-conv-layer
    /// weight matrices) and shared read-only across worker threads. Owns the
    /// network handle the analyzer evaluates.
    engine: BatchGradientEngine,
    /// Engine over the int8 round-tripped network, built only when the config
    /// selects [`ForwardPrecision::QuantizedInt8`] *and* the criterion is
    /// forward-only; `None` otherwise. When present, it replaces `engine` for
    /// covered-unit computation.
    quant_engine: Option<BatchGradientEngine>,
}

impl CoverageAnalyzer {
    /// Create an analyzer for `network` under the paper's parameter-gradient
    /// criterion (threshold policy and projection taken from `config`).
    pub fn new(network: impl Into<Arc<Network>>, config: CoverageConfig) -> Self {
        Self::with_criterion(
            network,
            config,
            Arc::new(ParamGradient::from_config(&config)),
        )
    }

    /// Create an analyzer for `network` under an explicit coverage criterion.
    /// The `epsilon`/`projection` fields of `config` are ignored unless the
    /// criterion itself reads them (only [`ParamGradient`] does); `exec` and
    /// `batch_size` govern every criterion's work distribution.
    pub fn with_criterion(
        network: impl Into<Arc<Network>>,
        config: CoverageConfig,
        criterion: Arc<dyn CoverageCriterion>,
    ) -> Self {
        let engine = BatchGradientEngine::new(network);
        let num_units = criterion.num_units(engine.network());
        let quant_engine = (config.precision == ForwardPrecision::QuantizedInt8
            && criterion.forward_only())
        .then(|| {
            let quantized = round_trip_network(engine.network(), BitWidth::Int8)
                .expect("round-trip preserves the parameter layout");
            BatchGradientEngine::new(quantized)
        });
        Self {
            config,
            criterion,
            num_units,
            engine,
            quant_engine,
        }
    }

    /// Whether covered-unit computation runs on the int8 round-tripped
    /// network — i.e. the config asked for
    /// [`ForwardPrecision::QuantizedInt8`] *and* the criterion is
    /// forward-only. The [`crate::eval::Evaluator`] uses this to key its
    /// caches so quantized results never alias full-precision ones.
    pub fn quantized_forward(&self) -> bool {
        self.quant_engine.is_some()
    }

    /// The analyzed network.
    pub fn network(&self) -> &Network {
        self.engine.network()
    }

    /// The shared handle to the analyzed network (reference-count bump only).
    pub fn network_arc(&self) -> Arc<Network> {
        self.engine.network_arc()
    }

    /// The coverage criterion driving this analyzer.
    pub fn criterion(&self) -> &Arc<dyn CoverageCriterion> {
        &self.criterion
    }

    /// The analyzer's batched gradient engine (precomputed weight matrices
    /// included). Cloning the returned engine reuses those precomputed
    /// matrices, which is how the [`crate::eval::Evaluator`] hands one engine's
    /// work to the gradient generator without re-deriving it.
    pub fn engine(&self) -> &BatchGradientEngine {
        &self.engine
    }

    /// The analyzer's configuration.
    pub fn config(&self) -> &CoverageConfig {
        &self.config
    }

    /// Total number of network parameters (the criterion's unit count — and
    /// the length of every activation set — under the default
    /// [`ParamGradient`] criterion).
    pub fn num_parameters(&self) -> usize {
        self.network().num_parameters()
    }

    /// Number of coverable units under the analyzer's criterion (the length of
    /// every covered-unit set).
    pub fn num_units(&self) -> usize {
        self.num_units
    }

    /// Covered-unit sets for one contiguous chunk of samples: one engine call
    /// through the criterion (a sample-major forward + backward per sample
    /// for [`ParamGradient`]; one stacked forward for the neuron criteria).
    fn sets_for_chunk(&self, chunk: &[Tensor]) -> Result<Vec<Bitset>> {
        let engine = self.quant_engine.as_ref().unwrap_or(&self.engine);
        self.criterion.covered_units(engine, chunk)
    }

    /// Contiguous chunks of `samples`, each of
    /// `min(batch_size, ⌈n / workers⌉)` samples (the last may be shorter), so
    /// a request smaller than `batch_size × workers` still gives every
    /// [`CoverageConfig::exec`] worker a chunk. Per-sample arithmetic does not
    /// depend on the chunk, so the chunking never changes results.
    fn chunks<'s>(&self, samples: &'s [Tensor]) -> Vec<&'s [Tensor]> {
        let per_worker = samples.len().div_ceil(self.config.exec.threads());
        samples
            .chunks(self.config.batch_size.min(per_worker).max(1))
            .collect()
    }

    /// The activation set of a single input: bit `i` is set iff parameter `i` is
    /// activated by this input under the configured policy (Eq. 2 / Eq. 5).
    ///
    /// Computed by the batched engine with a batch of one, so it is always
    /// bit-identical to the corresponding entry of
    /// [`CoverageAnalyzer::activation_sets`].
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the network input.
    pub fn activation_set(&self, sample: &Tensor) -> Result<Bitset> {
        let mut sets = self.sets_for_chunk(std::slice::from_ref(sample))?;
        Ok(sets.pop().expect("one set per sample"))
    }

    /// Reference covered-unit set computed independently of the batched
    /// engine. For the default [`ParamGradient`] criterion this is the
    /// pre-batching path: one full forward + backward per
    /// `(sample, projection)` pair through [`Network::parameter_gradients`],
    /// with the direct (non-im2col) convolution kernels.
    ///
    /// Kept as the independent baseline the differential tests and the
    /// throughput benchmarks compare the batched engine against.
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the network input.
    pub fn activation_set_reference(&self, sample: &Tensor) -> Result<Bitset> {
        // Under the quantized forward path the reference must evaluate the
        // same (round-tripped) network, or the batched-vs-reference
        // differential would compare different models.
        let network = self
            .quant_engine
            .as_ref()
            .map_or_else(|| self.network(), BatchGradientEngine::network);
        self.criterion.covered_units_reference(network, sample)
    }

    /// Activation sets for a collection of inputs — the batched, multi-threaded
    /// hot path of the whole reproduction.
    ///
    /// Samples are split into chunks of at most [`CoverageConfig::batch_size`]
    /// (fewer when that gives every worker a chunk); each chunk runs through
    /// the batched engine in one call, and chunks are distributed over
    /// [`CoverageConfig::exec`] workers. Per-sample arithmetic does not depend
    /// on the chunk or the worker, so results are bit-identical across
    /// execution policies.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input.
    pub fn activation_sets(&self, samples: &[Tensor]) -> Result<Vec<Bitset>> {
        let per_chunk = par::try_map(self.config.exec, &self.chunks(samples), |chunk| {
            self.sets_for_chunk(chunk)
        })?;
        Ok(per_chunk.into_iter().flatten().collect())
    }

    /// Validation coverage of a single input (Eq. 3).
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the network input.
    pub fn coverage_of_sample(&self, sample: &Tensor) -> Result<f32> {
        Ok(self.activation_set(sample)?.density())
    }

    /// Validation coverage of a test set (Eq. 4): density of the union of the
    /// members' activation sets.
    ///
    /// Runs on the batched parallel path with **chunk-local unions**: each
    /// worker reduces its chunk's sets into one bitset as it goes, so peak
    /// memory is bounded by `batch_size × workers` sets rather than the whole
    /// collection. Union is exact (bitwise OR), so the result is still
    /// bit-identical across execution policies.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input.
    pub fn coverage_of_set(&self, samples: &[Tensor]) -> Result<f32> {
        let n = self.num_units();
        let chunk_unions = par::try_map(
            self.config.exec,
            &self.chunks(samples),
            |chunk| -> Result<Bitset> { Ok(Bitset::union_of(n, &self.sets_for_chunk(chunk)?)) },
        )?;
        Ok(Bitset::union_of(n, &chunk_unions).density())
    }

    /// Mean per-sample validation coverage over a collection of inputs (used for
    /// the Fig. 2 image-family comparison).
    ///
    /// Batched and parallel like [`CoverageAnalyzer::coverage_of_set`]; only
    /// per-chunk density vectors are kept, and the final sum runs serially in
    /// input order so the result does not depend on the execution policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyCandidatePool`] for an empty collection, or a
    /// shape error for incompatible samples.
    pub fn mean_sample_coverage(&self, samples: &[Tensor]) -> Result<f32> {
        if samples.is_empty() {
            return Err(CoreError::EmptyCandidatePool);
        }
        let per_chunk: Vec<Vec<f32>> = par::try_map(
            self.config.exec,
            &self.chunks(samples),
            |chunk| -> Result<Vec<f32>> {
                Ok(self
                    .sets_for_chunk(chunk)?
                    .iter()
                    .map(Bitset::density)
                    .collect())
            },
        )?;
        let total: f32 = per_chunk.into_iter().flatten().sum();
        Ok(total / samples.len() as f32)
    }
}

/// Coverage of a pre-computed family of covered-unit sets (Eq. 4 under the
/// default criterion), without re-running the criterion.
pub fn coverage_of_sets(sets: &[Bitset], num_units: usize) -> f32 {
    if num_units == 0 {
        return 0.0;
    }
    Bitset::union_of(num_units, sets).density()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_nn::layers::{Activation, ActivationLayer, Dense};
    use dnnip_nn::zoo;

    fn relu_net() -> Network {
        zoo::tiny_mlp(4, 8, 3, Activation::Relu, 11).unwrap()
    }

    fn tanh_net() -> Network {
        zoo::tiny_mlp(4, 8, 3, Activation::Tanh, 11).unwrap()
    }

    fn sample(seed: usize) -> Tensor {
        Tensor::from_fn(&[4], |i| ((i + seed) as f32 * 0.61).sin())
    }

    #[test]
    fn activation_set_has_parameter_length_and_reasonable_density() {
        let net = relu_net();
        let analyzer = CoverageAnalyzer::new(&net, CoverageConfig::default());
        let set = analyzer.activation_set(&sample(0)).unwrap();
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
        let analyzer = CoverageAnalyzer::new(&net, CoverageConfig::default());
        let x = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let set = analyzer.activation_set(&x).unwrap();
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
        assert!((analyzer.coverage_of_sample(&x).unwrap() - 7.0 / 12.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_network_uses_epsilon_threshold() {
        let net = tanh_net();
        // With an exact policy, Tanh gradients are essentially never zero, so
        // coverage is ~100%; the Auto policy thresholds small gradients away.
        let exact = CoverageAnalyzer::new(
            &net,
            CoverageConfig {
                epsilon: EpsilonPolicy::Exact,
                ..CoverageConfig::default()
            },
        );
        let auto = CoverageAnalyzer::new(&net, CoverageConfig::default());
        let x = sample(3);
        let c_exact = exact.coverage_of_sample(&x).unwrap();
        let c_auto = auto.coverage_of_sample(&x).unwrap();
        assert!(c_exact >= c_auto);
        assert!(c_exact > 0.95, "exact coverage {c_exact}");
        // A large relative threshold prunes aggressively.
        let strict = CoverageAnalyzer::new(
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
        let analyzer = CoverageAnalyzer::new(&net, CoverageConfig::default());
        let samples: Vec<Tensor> = (0..6).map(sample).collect();
        let c1 = analyzer.coverage_of_set(&samples[..1]).unwrap();
        let c3 = analyzer.coverage_of_set(&samples[..3]).unwrap();
        let c6 = analyzer.coverage_of_set(&samples).unwrap();
        assert!(c3 >= c1);
        assert!(c6 >= c3);
    }

    #[test]
    fn per_class_projection_never_reduces_coverage() {
        let net = relu_net();
        let x = sample(5);
        let sum_proj = CoverageAnalyzer::new(&net, CoverageConfig::default());
        let per_class = CoverageAnalyzer::new(
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
    fn small_requests_form_one_chunk_per_worker() {
        let net = relu_net();
        let samples: Vec<Tensor> = (0..10).map(sample).collect();
        let lens = |exec, batch_size| {
            let config = CoverageConfig {
                exec,
                batch_size,
                ..CoverageConfig::default()
            };
            let analyzer = CoverageAnalyzer::new(&net, config);
            let chunks = analyzer.chunks(&samples);
            chunks.iter().map(|c| c.len()).collect::<Vec<_>>()
        };
        assert_eq!(lens(ExecPolicy::Threads(2), 32), [5, 5]);
        assert_eq!(lens(ExecPolicy::Threads(3), 32), [4, 4, 2]);
        assert_eq!(lens(ExecPolicy::Threads(2), 3), [3, 3, 3, 1]);
        assert_eq!(lens(ExecPolicy::Serial, 32), [10]);
        assert_eq!(lens(ExecPolicy::Threads(16), 0), [1; 10]);
    }

    #[test]
    fn execution_policy_and_chunking_never_change_activation_sets() {
        let net = relu_net();
        let serial = CoverageAnalyzer::new(&net, CoverageConfig::default());
        let threaded = CoverageAnalyzer::new(
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
        let default = CoverageAnalyzer::new(&net, CoverageConfig::default());
        assert_eq!(default.num_units(), net.num_parameters());
        assert_eq!(default.criterion().id(), "param-gradient");
        let neuron = CoverageAnalyzer::with_criterion(
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
        let topk = CoverageAnalyzer::with_criterion(
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
            assert_eq!(topk.activation_set_reference(x).unwrap(), topk_sets[i]);
        }
    }

    #[test]
    fn quantized_precision_applies_only_to_forward_only_criteria() {
        use crate::criterion::NeuronActivation;
        let net = relu_net();
        let samples: Vec<Tensor> = (0..6).map(sample).collect();
        let quant_cfg = CoverageConfig {
            precision: ForwardPrecision::QuantizedInt8,
            ..CoverageConfig::default()
        };
        // Gradient criterion: the flag is ignored (the paper's metric is
        // defined on the float model), results stay bit-identical.
        let full = CoverageAnalyzer::new(&net, CoverageConfig::default());
        let gated = CoverageAnalyzer::new(&net, quant_cfg);
        assert!(!full.quantized_forward());
        assert!(!gated.quantized_forward());
        assert_eq!(
            full.activation_sets(&samples).unwrap(),
            gated.activation_sets(&samples).unwrap()
        );
        // Forward-only criterion: the quantized engine takes over and its
        // results are exactly those of a full-precision analyzer over the
        // round-tripped network.
        let criterion = Arc::new(NeuronActivation::default());
        let quant = CoverageAnalyzer::with_criterion(&net, quant_cfg, criterion.clone());
        assert!(quant.quantized_forward());
        let rt = round_trip_network(&net, BitWidth::Int8).unwrap();
        let on_rt =
            CoverageAnalyzer::with_criterion(&rt, CoverageConfig::default(), criterion.clone());
        assert_eq!(
            quant.activation_sets(&samples).unwrap(),
            on_rt.activation_sets(&samples).unwrap()
        );
        // The reference path evaluates the same round-tripped model, so the
        // batched-vs-reference differential still holds under quantization.
        for s in &samples {
            assert_eq!(
                quant.activation_set(s).unwrap(),
                quant.activation_set_reference(s).unwrap()
            );
        }
    }

    #[test]
    fn forward_precision_env_parsing() {
        // One test for all DNNIP_QUANT cases: env vars are process-global, so
        // splitting these across tests would race under the parallel runner.
        let saved = std::env::var("DNNIP_QUANT").ok();
        std::env::set_var("DNNIP_QUANT", "1");
        assert_eq!(
            ForwardPrecision::from_env(),
            ForwardPrecision::QuantizedInt8
        );
        std::env::set_var("DNNIP_QUANT", " 1 ");
        assert_eq!(
            ForwardPrecision::from_env(),
            ForwardPrecision::QuantizedInt8
        );
        for off in ["", "0", "yes", "2"] {
            std::env::set_var("DNNIP_QUANT", off);
            assert_eq!(ForwardPrecision::from_env(), ForwardPrecision::Full);
        }
        std::env::remove_var("DNNIP_QUANT");
        assert_eq!(ForwardPrecision::from_env(), ForwardPrecision::Full);
        match saved {
            Some(v) => std::env::set_var("DNNIP_QUANT", v),
            None => std::env::remove_var("DNNIP_QUANT"),
        }
    }

    #[test]
    fn mean_sample_coverage_and_precomputed_union_agree_with_direct() {
        let net = relu_net();
        let analyzer = CoverageAnalyzer::new(&net, CoverageConfig::default());
        let samples: Vec<Tensor> = (0..4).map(sample).collect();
        let sets = analyzer.activation_sets(&samples).unwrap();
        let direct = analyzer.coverage_of_set(&samples).unwrap();
        let precomputed = coverage_of_sets(&sets, net.num_parameters());
        assert!((direct - precomputed).abs() < 1e-6);
        let mean = analyzer.mean_sample_coverage(&samples).unwrap();
        assert!(
            mean <= direct + 1e-6,
            "mean {mean} cannot exceed union {direct}"
        );
        assert!(analyzer.mean_sample_coverage(&[]).is_err());
        assert_eq!(coverage_of_sets(&[], 0), 0.0);
    }
}
