//! Pluggable coverage criteria: what counts as a "covered unit".
//!
//! The paper's validation-coverage metric (Eq. 2–5) is one member of a family
//! of structural coverage criteria from the DNN-testing literature: sign/value
//! and neuron-boundary coverage (Sun et al., *Testing Deep Neural Networks*),
//! feature-map-level coverage (Huang et al., *Feature Map Testing for Deep
//! Neural Networks*), and so on. Each criterion answers the same two questions
//! — *how many units does this network have* and *which units does this input
//! cover* — and everything above (greedy selection, the combined generator,
//! the evaluator cache, the detection harness) only consumes the answers.
//!
//! [`CoverageCriterion`] captures that contract. The whole stack is generic
//! over it:
//!
//! * [`ParamGradient`] — the paper's metric: a parameter is covered when its
//!   gradient `∇θ F(x)` passes the [`EpsilonPolicy`] threshold. This is the
//!   default everywhere and is bit-identical to the pre-trait implementation.
//! * [`NeuronActivation`] — a neuron (post-activation unit) is covered when
//!   the absolute value of its output exceeds a threshold. One **forward-only**
//!   batched pass, no gradients — the fast path.
//! * [`TopKNeuron`] — per activation layer, the `k` most strongly activated
//!   neurons of each sample are covered (DeepGauge-style top-k neuron
//!   coverage). Also forward-only.
//!
//! Criteria may additionally supply a [`GradientObjective`] — the scalar loss
//! whose input-gradient drives Algorithm 2's synthesis descent. Criteria
//! without one fall back to the paper's softmax cross-entropy objective.

use std::fmt;
use std::sync::Arc;

use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::fingerprint::{checksum, mix64};
use dnnip_nn::layers::Layer;
use dnnip_nn::loss::cross_entropy;
use dnnip_nn::Network;
use dnnip_tensor::Tensor;

use crate::bitset::Bitset;
use crate::coverage::{CoverageConfig, EpsilonPolicy, OutputProjection};
use crate::{CoreError, Result};

/// A coverage criterion: a rule mapping each input to the set of network
/// "units" (parameters, neurons, …) it covers.
///
/// Implementations must be pure functions of `(network, sample, criterion
/// config)`: the covered-unit set of a sample may depend on nothing else — not
/// the batch it rides in, not the execution policy — so results are cacheable
/// by content digest and bit-identical across serial/threaded execution.
pub trait CoverageCriterion: fmt::Debug + Send + Sync {
    /// Short stable identifier ("param-gradient", "neuron-activation", …),
    /// used in cache-stat breakdowns, reports and `DNNIP_CRITERION` specs.
    fn id(&self) -> &'static str;

    /// Digest of this criterion's configuration. Two criterion instances with
    /// the same [`CoverageCriterion::id`] and digest must produce identical
    /// covered-unit sets for every `(network, sample)`; any config change that
    /// could alter a set must change the digest (this is what keys the
    /// evaluator cache).
    fn config_digest(&self) -> u64;

    /// Number of coverable units of `network` (the length of every
    /// covered-unit [`Bitset`] this criterion produces for it).
    fn num_units(&self, network: &Network) -> usize;

    /// Covered-unit sets for one contiguous chunk of samples, computed through
    /// the shared batched `engine` in one call per chunk.
    ///
    /// # Errors
    ///
    /// Returns an error when a sample shape does not match the network input.
    fn covered_units(&self, engine: &BatchGradientEngine, chunk: &[Tensor]) -> Result<Vec<Bitset>>;

    /// Independent reference implementation for one sample, used by the
    /// differential tests and throughput baselines. Defaults to the batched
    /// path with a fresh engine; criteria with a genuinely independent
    /// non-batched formulation (like [`ParamGradient`]) override it.
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the network input.
    fn covered_units_reference(&self, network: &Network, sample: &Tensor) -> Result<Bitset> {
        let engine = BatchGradientEngine::new(network);
        let mut sets = self.covered_units(&engine, std::slice::from_ref(sample))?;
        Ok(sets.pop().expect("one set per sample"))
    }

    /// The synthesis objective Algorithm 2 should descend for this criterion,
    /// or `None` to fall back to the paper's cross-entropy objective
    /// ([`CrossEntropyObjective`]).
    fn gradient_objective(&self) -> Option<Arc<dyn GradientObjective>> {
        None
    }

    /// Whether this criterion only needs forward activations. Nothing in
    /// the workspace reads it; kept only for the benchmark package's
    /// forwarding criterion wrapper and removed by the next benchmark change.
    #[doc(hidden)]
    fn forward_only(&self) -> bool {
        false
    }

    /// [`CoverageCriterion::num_units`], under the name older callers use for
    /// graph models (every model is a `Network`).
    #[doc(hidden)]
    fn num_units_graph(&self, graph: &Network) -> Option<usize> {
        Some(self.num_units(graph))
    }

    /// [`CoverageCriterion::covered_units`] on a fresh engine, under the name
    /// older callers use for graph models.
    #[doc(hidden)]
    fn covered_units_graph(
        &self,
        graph: &Network,
        chunk: &[Tensor],
    ) -> Option<Result<Vec<Bitset>>> {
        Some(self.covered_units(&BatchGradientEngine::new(graph), chunk))
    }
}

/// Combined content digest of a criterion (id + configuration), used as the
/// criterion component of the evaluator's cache keys.
pub fn criterion_digest(criterion: &dyn CoverageCriterion) -> u64 {
    digest(&[
        checksum(criterion.id().as_bytes()),
        criterion.config_digest(),
    ])
}

/// A few words folded through the splitmix64 finalizer, one at a time.
fn digest(words: &[u64]) -> u64 {
    words.iter().fold(0, |h, &w| mix64(h ^ w))
}

/// An input-space synthesis objective for Algorithm 2: maps one sample's
/// logits to a loss value and its gradient with respect to the logits, which
/// the gradient generator backpropagates to the input.
pub trait GradientObjective: fmt::Debug + Send + Sync {
    /// Short stable name used in reports.
    fn name(&self) -> &'static str;

    /// Loss value and logit-gradient for one sample steered towards
    /// `target_class`. `logits` has shape `[1, classes]`; the returned
    /// gradient must have one entry per class.
    ///
    /// # Errors
    ///
    /// Returns an error when `target_class` is out of range.
    fn loss_and_logit_grad(&self, logits: &Tensor, target_class: usize) -> Result<(f32, Vec<f32>)>;
}

/// The paper's synthesis objective (Eq. 8): softmax cross-entropy towards the
/// target class. This is the fallback for criteria without a gradient hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossEntropyObjective;

impl GradientObjective for CrossEntropyObjective {
    fn name(&self) -> &'static str {
        "cross-entropy"
    }

    fn loss_and_logit_grad(&self, logits: &Tensor, target_class: usize) -> Result<(f32, Vec<f32>)> {
        let loss = cross_entropy(logits, &[target_class])?;
        Ok((loss.value, loss.grad_logits.data().to_vec()))
    }
}

/// Pure target-logit ascent: loss `-F_t(x)`, gradient `-1` at the target
/// class and `0` elsewhere. The DeepXplore-style objective the forward-only
/// neuron criteria supply — it drives activations up without the softmax
/// coupling between classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TargetLogitObjective;

impl GradientObjective for TargetLogitObjective {
    fn name(&self) -> &'static str {
        "target-logit"
    }

    fn loss_and_logit_grad(&self, logits: &Tensor, target_class: usize) -> Result<(f32, Vec<f32>)> {
        let classes = logits.len();
        if target_class >= classes {
            return Err(CoreError::InvalidConfig {
                reason: format!("target class {target_class} out of range for {classes} classes"),
            });
        }
        let mut grad = vec![0.0f32; classes];
        grad[target_class] = -1.0;
        Ok((-logits.data()[target_class], grad))
    }
}

/// Whether any activation layer of `network` saturates (Tanh/Sigmoid) — the
/// condition under which [`EpsilonPolicy::Auto`] switches from the exact
/// non-zero rule to a relative threshold.
fn network_saturates(network: &Network) -> bool {
    network.layers().iter().any(|l| match l {
        Layer::Activation(a) => a.activation().is_saturating(),
        _ => false,
    })
}

/// The paper's validation-coverage criterion (Eq. 2–5): a **parameter** is
/// covered by input `x` when the gradient `∇θ F(x)` of the configured output
/// projection passes the [`EpsilonPolicy`] threshold.
///
/// This is the default criterion everywhere and reproduces the pre-trait
/// implementation bit for bit (pinned by `tests/criterion_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParamGradient {
    /// Threshold policy for the activation test.
    pub epsilon: EpsilonPolicy,
    /// Output-to-scalar projection whose gradient defines activation.
    pub projection: OutputProjection,
}

impl ParamGradient {
    /// The criterion a [`CoverageConfig`] describes (its threshold policy and
    /// projection fields).
    pub fn from_config(config: &CoverageConfig) -> Self {
        Self {
            epsilon: config.epsilon,
            projection: config.projection,
        }
    }

    /// Resolve the effective threshold for one gradient vector.
    fn threshold(&self, saturating: bool, grads: &[f32]) -> f32 {
        let policy = match self.epsilon {
            EpsilonPolicy::Auto(fraction) => {
                if saturating {
                    EpsilonPolicy::RelativeToMax(fraction)
                } else {
                    EpsilonPolicy::Exact
                }
            }
            other => other,
        };
        match policy {
            EpsilonPolicy::Exact => 0.0,
            EpsilonPolicy::Absolute(eps) => eps,
            EpsilonPolicy::RelativeToMax(fraction) => {
                let max = grads.iter().fold(0.0f32, |m, g| m.max(g.abs()));
                fraction * max
            }
            EpsilonPolicy::Auto(_) => unreachable!("Auto resolved above"),
        }
    }

    fn set_from_grads(&self, saturating: bool, grads: &[f32], out: &mut Bitset) {
        // Word-at-a-time extraction: evaluate the activation predicate for 64
        // gradients into one branchless u64 mask, then commit it with a single
        // OR. The per-bit `Bitset::set` version of this loop was a measurable
        // slice of the whole coverage sweep at ~13k parameters per sample.
        fn pack(chunk: &[f32], pred: impl Fn(f32) -> bool) -> u64 {
            let mut bits = 0u64;
            for (b, &g) in chunk.iter().enumerate() {
                bits |= u64::from(pred(g)) << b;
            }
            bits
        }
        let threshold = self.threshold(saturating, grads);
        for (wi, chunk) in grads.chunks(64).enumerate() {
            let bits = if threshold == 0.0 {
                pack(chunk, |g| g != 0.0)
            } else {
                pack(chunk, |g| g.abs() > threshold)
            };
            out.or_word(wi, bits);
        }
    }

    /// The output projections whose gradients define activation.
    fn projections(&self, classes: usize) -> Vec<Vec<f32>> {
        match self.projection {
            OutputProjection::SumOfOutputs => vec![vec![1.0f32; classes]],
            OutputProjection::PerClassMax => (0..classes)
                .map(|class| {
                    let mut weights = vec![0.0f32; classes];
                    weights[class] = 1.0;
                    weights
                })
                .collect(),
        }
    }
}

impl CoverageCriterion for ParamGradient {
    fn id(&self) -> &'static str {
        "param-gradient"
    }

    fn config_digest(&self) -> u64 {
        let (policy, value) = match self.epsilon {
            EpsilonPolicy::Exact => (0, 0),
            EpsilonPolicy::Absolute(eps) => (1, eps.to_bits()),
            EpsilonPolicy::RelativeToMax(fraction) => (2, fraction.to_bits()),
            EpsilonPolicy::Auto(fraction) => (3, fraction.to_bits()),
        };
        let projection = match self.projection {
            OutputProjection::SumOfOutputs => 0,
            OutputProjection::PerClassMax => 1,
        };
        digest(&[policy, u64::from(value), projection])
    }

    fn num_units(&self, network: &Network) -> usize {
        network.num_parameters()
    }

    fn covered_units(&self, engine: &BatchGradientEngine, chunk: &[Tensor]) -> Result<Vec<Bitset>> {
        let network = engine.network();
        let n = network.num_parameters();
        let saturating = network_saturates(network);
        let mut sets: Vec<Bitset> = (0..chunk.len()).map(|_| Bitset::new(n)).collect();
        let projections = self.projections(network.num_classes());
        engine.for_each_parameter_gradient(chunk, &projections, |s, _, grads| {
            self.set_from_grads(saturating, grads, &mut sets[s]);
        })?;
        Ok(sets)
    }

    fn covered_units_reference(&self, network: &Network, sample: &Tensor) -> Result<Bitset> {
        // The pre-batching path: one full forward + backward per
        // `(sample, projection)` pair through `Network::parameter_gradients`,
        // with the direct (non-im2col) convolution kernels.
        let saturating = network_saturates(network);
        let mut set = Bitset::new(network.num_parameters());
        for weights in self.projections(network.num_classes()) {
            let grads = network.parameter_gradients(sample, &weights)?;
            self.set_from_grads(saturating, &grads, &mut set);
        }
        Ok(set)
    }
}

/// Forward-only neuron-activation coverage: a **neuron** (element of an
/// activation layer's output) is covered when the absolute value of its
/// post-activation output exceeds `threshold`.
///
/// One batched forward pass per chunk, no gradients — on networks where the
/// backward pass dominates this criterion is several times cheaper than
/// [`ParamGradient`] (measured in `crates/bench/results/criteria_sweep.json`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuronActivation {
    /// Coverage threshold on `|post-activation output|` (0.0 reproduces the
    /// "output is non-zero" rule for ReLU networks).
    pub threshold: f32,
}

impl Default for NeuronActivation {
    fn default() -> Self {
        Self { threshold: 0.25 }
    }
}

/// The shared frame of the forward-only criteria: one stacked forward pass
/// over `chunk`, then `mark(values, unit offset, set)` for each sample's
/// slice of each activation layer (each criterion supplies only the
/// per-slice coverage rule).
fn neuron_sets(
    engine: &BatchGradientEngine,
    chunk: &[Tensor],
    mark: impl Fn(&[f32], usize, &mut Bitset),
) -> Result<Vec<Bitset>> {
    if chunk.is_empty() {
        return Ok(Vec::new());
    }
    let n = engine.network().num_neuron_units();
    let capture = engine.activation_outputs(chunk)?;
    let mut sets: Vec<Bitset> = (0..chunk.len()).map(|_| Bitset::new(n)).collect();
    for (s, set) in sets.iter_mut().enumerate() {
        let mut offset = 0usize;
        for layer in 0..capture.per_layer().len() {
            mark(capture.sample_slice(layer, s), offset, set);
            offset += capture.units_per_sample(layer);
        }
    }
    Ok(sets)
}

/// Mark units whose `|value|` exceeds `threshold` — the [`NeuronActivation`]
/// coverage rule.
fn threshold_mark(values: &[f32], threshold: f32, offset: usize, set: &mut Bitset) {
    for (i, &v) in values.iter().enumerate() {
        if v.abs() > threshold {
            set.set(offset + i);
        }
    }
}

/// Mark the `k` most strongly activated units of one slice — the [`TopKNeuron`]
/// coverage rule. Descending by
/// value, ascending by index on ties: a strict total order, so the top-k *set*
/// is uniquely determined and an O(m) partition suffices (the order within the
/// covered prefix is irrelevant to a bitset).
fn topk_mark(values: &[f32], k: usize, offset: usize, set: &mut Bitset) {
    let mut order: Vec<usize> = (0..values.len()).collect();
    let cmp = |a: &usize, b: &usize| values[*b].total_cmp(&values[*a]).then(a.cmp(b));
    if k > 0 && k < order.len() {
        order.select_nth_unstable_by(k - 1, cmp);
    }
    for &i in order.iter().take(k) {
        set.set(offset + i);
    }
}

impl CoverageCriterion for NeuronActivation {
    fn id(&self) -> &'static str {
        "neuron-activation"
    }

    fn config_digest(&self) -> u64 {
        digest(&[u64::from(self.threshold.to_bits())])
    }

    fn num_units(&self, network: &Network) -> usize {
        network.num_neuron_units()
    }

    fn covered_units(&self, engine: &BatchGradientEngine, chunk: &[Tensor]) -> Result<Vec<Bitset>> {
        neuron_sets(engine, chunk, |values, offset, set| {
            threshold_mark(values, self.threshold, offset, set);
        })
    }

    fn gradient_objective(&self) -> Option<Arc<dyn GradientObjective>> {
        Some(Arc::new(TargetLogitObjective))
    }
}

/// Top-k neuron coverage (DeepGauge-style): per activation layer, the `k`
/// neurons with the largest post-activation output of each sample are covered
/// (ties broken towards the lower index, so the set is deterministic).
///
/// Forward-only like [`NeuronActivation`]; unlike a fixed threshold it adapts
/// to each layer's output scale, so every sample covers exactly
/// `min(k, layer width)` units per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKNeuron {
    /// Units covered per activation layer per sample.
    pub k: usize,
}

impl Default for TopKNeuron {
    fn default() -> Self {
        Self { k: 4 }
    }
}

impl CoverageCriterion for TopKNeuron {
    fn id(&self) -> &'static str {
        "topk-neuron"
    }

    fn config_digest(&self) -> u64 {
        digest(&[self.k as u64])
    }

    fn num_units(&self, network: &Network) -> usize {
        network.num_neuron_units()
    }

    fn covered_units(&self, engine: &BatchGradientEngine, chunk: &[Tensor]) -> Result<Vec<Bitset>> {
        neuron_sets(engine, chunk, |values, offset, set| {
            topk_mark(values, self.k, offset, set);
        })
    }

    fn gradient_objective(&self) -> Option<Arc<dyn GradientObjective>> {
        Some(Arc::new(TargetLogitObjective))
    }
}

/// Parse a criterion specification string.
///
/// Accepted forms (the `DNNIP_CRITERION` syntax):
///
/// * `param-gradient` — the paper's metric, threshold policy and projection
///   taken from `base` (the model's [`CoverageConfig`]);
/// * `neuron-activation` or `neuron-activation:<threshold>`;
/// * `topk-neuron` or `topk-neuron:<k>`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an unknown criterion name or a
/// malformed parameter.
pub fn criterion_from_spec(
    spec: &str,
    base: &CoverageConfig,
) -> Result<Arc<dyn CoverageCriterion>> {
    let (name, arg) = match spec.split_once(':') {
        Some((n, a)) => (n.trim(), Some(a.trim())),
        None => (spec.trim(), None),
    };
    match name {
        "param-gradient" => {
            if arg.is_some() {
                return Err(CoreError::InvalidConfig {
                    reason: "param-gradient takes no parameter (configure via CoverageConfig)"
                        .to_string(),
                });
            }
            Ok(Arc::new(ParamGradient::from_config(base)))
        }
        "neuron-activation" => {
            let threshold = match arg {
                None => NeuronActivation::default().threshold,
                Some(a) => a.parse::<f32>().map_err(|_| CoreError::InvalidConfig {
                    reason: format!("bad neuron-activation threshold {a:?}"),
                })?,
            };
            // A NaN threshold makes every `|v| > threshold` test false (empty
            // covered sets, 0% coverage everywhere) and a negative one is
            // meaningless for an absolute-value test — fail loud instead of
            // silently running a degenerate experiment.
            if !threshold.is_finite() || threshold < 0.0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "neuron-activation threshold must be finite and non-negative, got {threshold}"
                    ),
                });
            }
            Ok(Arc::new(NeuronActivation { threshold }))
        }
        "topk-neuron" => {
            let k = match arg {
                None => TopKNeuron::default().k,
                Some(a) => a.parse::<usize>().map_err(|_| CoreError::InvalidConfig {
                    reason: format!("bad topk-neuron k {a:?}"),
                })?,
            };
            if k == 0 {
                return Err(CoreError::InvalidConfig {
                    reason: "topk-neuron k must be at least 1".to_string(),
                });
            }
            Ok(Arc::new(TopKNeuron { k }))
        }
        other => Err(CoreError::InvalidConfig {
            reason: format!(
                "unknown coverage criterion {other:?} \
                 (expected param-gradient, neuron-activation or topk-neuron)"
            ),
        }),
    }
}

/// The built-in criteria at their default configurations, in presentation
/// order — what the criterion sweeps iterate over.
pub fn builtin_criteria(base: &CoverageConfig) -> Vec<Arc<dyn CoverageCriterion>> {
    vec![
        Arc::new(ParamGradient::from_config(base)),
        Arc::new(NeuronActivation::default()),
        Arc::new(TopKNeuron::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn net() -> Network {
        zoo::tiny_mlp(6, 12, 4, Activation::Relu, 8).unwrap()
    }

    fn samples(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(&[6], |j| ((i * 6 + j) as f32 * 0.41).sin()))
            .collect()
    }

    #[test]
    fn ids_and_digests_distinguish_criteria_and_configs() {
        let base = CoverageConfig::default();
        let all = builtin_criteria(&base);
        assert_eq!(all.len(), 3);
        let mut digests: Vec<u64> = all.iter().map(|c| criterion_digest(c.as_ref())).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 3, "criterion digests collide");

        let a = NeuronActivation { threshold: 0.25 };
        let b = NeuronActivation { threshold: 0.5 };
        assert_ne!(a.config_digest(), b.config_digest());
        assert_eq!(
            a.config_digest(),
            NeuronActivation::default().config_digest()
        );
        assert_ne!(
            TopKNeuron { k: 2 }.config_digest(),
            TopKNeuron { k: 3 }.config_digest()
        );
        let pg1 = ParamGradient {
            epsilon: EpsilonPolicy::Absolute(0.1),
            projection: OutputProjection::SumOfOutputs,
        };
        let pg2 = ParamGradient {
            epsilon: EpsilonPolicy::Absolute(0.2),
            projection: OutputProjection::SumOfOutputs,
        };
        let pg3 = ParamGradient {
            epsilon: EpsilonPolicy::Absolute(0.1),
            projection: OutputProjection::PerClassMax,
        };
        assert_ne!(pg1.config_digest(), pg2.config_digest());
        assert_ne!(pg1.config_digest(), pg3.config_digest());
    }

    #[test]
    fn neuron_criteria_count_activation_units() {
        let network = net();
        assert_eq!(NeuronActivation::default().num_units(&network), 12);
        assert_eq!(TopKNeuron::default().num_units(&network), 12);
        assert_eq!(
            ParamGradient::default().num_units(&network),
            network.num_parameters()
        );
        // One activation layer after the 4-channel 8x8 convolution.
        let cnn = zoo::tiny_cnn(4, 3, Activation::Relu, 1).unwrap();
        assert_eq!(NeuronActivation::default().num_units(&cnn), 4 * 8 * 8);
    }

    #[test]
    fn neuron_activation_thresholds_units() {
        let network = net();
        let engine = BatchGradientEngine::new(&network);
        let pool = samples(3);
        let loose = NeuronActivation { threshold: 0.0 };
        let strict = NeuronActivation { threshold: 2.0 };
        let l = loose.covered_units(&engine, &pool).unwrap();
        let s = strict.covered_units(&engine, &pool).unwrap();
        for (a, b) in l.iter().zip(&s) {
            assert!(a.count_ones() >= b.count_ones());
        }
        assert!(l[0].count_ones() > 0);
    }

    #[test]
    fn topk_covers_exactly_k_units_per_layer() {
        let network = net();
        let engine = BatchGradientEngine::new(&network);
        let pool = samples(4);
        for k in [0usize, 1, 3, 12, 50] {
            let crit = TopKNeuron { k };
            for set in crit.covered_units(&engine, &pool).unwrap() {
                assert_eq!(set.count_ones(), k.min(12), "k = {k}");
            }
        }
    }

    #[test]
    fn topk_partition_matches_a_full_sort() {
        // The O(m) partition must pick exactly the set a full sort under the
        // same total order would (value descending, index ascending on ties).
        let network = net();
        let engine = BatchGradientEngine::new(&network);
        let capture = engine.activation_outputs(&samples(3)).unwrap();
        for k in [1usize, 2, 5, 11] {
            let crit = TopKNeuron { k };
            let sets = crit.covered_units(&engine, &samples(3)).unwrap();
            for (s, set) in sets.iter().enumerate() {
                let values = capture.sample_slice(0, s);
                let mut order: Vec<usize> = (0..values.len()).collect();
                order.sort_unstable_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
                let expected: Vec<usize> = {
                    let mut top: Vec<usize> = order.into_iter().take(k).collect();
                    top.sort_unstable();
                    top
                };
                assert_eq!(set.iter_ones().collect::<Vec<_>>(), expected, "k = {k}");
            }
        }
    }

    #[test]
    fn reference_default_matches_batched_path() {
        let network = net();
        let engine = BatchGradientEngine::new(&network);
        let pool = samples(2);
        for crit in builtin_criteria(&CoverageConfig::default()) {
            let batched = crit.covered_units(&engine, &pool).unwrap();
            for (i, x) in pool.iter().enumerate() {
                assert_eq!(
                    crit.covered_units_reference(&network, x).unwrap(),
                    batched[i],
                    "{} sample {i}",
                    crit.id()
                );
            }
        }
    }

    #[test]
    fn graph_hooks_match_engine_path_on_lowered_network() {
        // The older graph-named hooks are the engine path on a fresh engine,
        // for every criterion — the paper's gradient criterion included — and
        // on chains and graphs alike.
        for (network, pool) in [
            (net(), samples(3)),
            (
                zoo::residual_classifier(2).unwrap(),
                (0..3)
                    .map(|i| Tensor::from_fn(&[1, 8, 8], |j| ((i * 64 + j) as f32 * 0.23).sin()))
                    .collect(),
            ),
        ] {
            let engine = BatchGradientEngine::new(&network);
            for crit in builtin_criteria(&CoverageConfig::default()) {
                assert_eq!(
                    crit.num_units_graph(&network),
                    Some(crit.num_units(&network)),
                    "{}",
                    crit.id()
                );
                let engine_sets = crit.covered_units(&engine, &pool).unwrap();
                let graph_sets = crit.covered_units_graph(&network, &pool).unwrap().unwrap();
                assert_eq!(engine_sets, graph_sets, "{}", crit.id());
                assert!(graph_sets[0].count_ones() > 0, "{}", crit.id());
            }
        }
        // Empty chunks are fine (the evaluator never sends them, but the
        // contract should not be load-bearing).
        assert_eq!(
            NeuronActivation::default()
                .covered_units_graph(&net(), &[])
                .unwrap()
                .unwrap(),
            Vec::<Bitset>::new()
        );
    }

    #[test]
    fn spec_parsing_round_trips() {
        let base = CoverageConfig::default();
        assert_eq!(
            criterion_from_spec("param-gradient", &base).unwrap().id(),
            "param-gradient"
        );
        assert_eq!(
            criterion_from_spec("neuron-activation:0.5", &base)
                .unwrap()
                .config_digest(),
            NeuronActivation { threshold: 0.5 }.config_digest()
        );
        assert_eq!(
            criterion_from_spec(" topk-neuron : 7 ", &base)
                .unwrap()
                .config_digest(),
            TopKNeuron { k: 7 }.config_digest()
        );
        assert!(criterion_from_spec("bogus", &base).is_err());
        assert!(criterion_from_spec("topk-neuron:0", &base).is_err());
        assert!(criterion_from_spec("topk-neuron:x", &base).is_err());
        assert!(criterion_from_spec("neuron-activation:x", &base).is_err());
        // Degenerate thresholds must fail loud, not run a 0%-coverage sweep.
        assert!(criterion_from_spec("neuron-activation:nan", &base).is_err());
        assert!(criterion_from_spec("neuron-activation:inf", &base).is_err());
        assert!(criterion_from_spec("neuron-activation:-0.5", &base).is_err());
        assert!(criterion_from_spec("param-gradient:1", &base).is_err());
    }

    #[test]
    fn objectives_compute_losses_and_gradients() {
        let logits = Tensor::from_vec(vec![0.2f32, 1.4, -0.3], &[1, 3]).unwrap();
        let (ce_loss, ce_grad) = CrossEntropyObjective
            .loss_and_logit_grad(&logits, 1)
            .unwrap();
        assert!(ce_loss > 0.0);
        assert_eq!(ce_grad.len(), 3);
        let (tl_loss, tl_grad) = TargetLogitObjective
            .loss_and_logit_grad(&logits, 1)
            .unwrap();
        assert_eq!(tl_loss, -1.4);
        assert_eq!(tl_grad, vec![0.0, -1.0, 0.0]);
        assert!(TargetLogitObjective
            .loss_and_logit_grad(&logits, 9)
            .is_err());
        assert_eq!(CrossEntropyObjective.name(), "cross-entropy");
        assert_eq!(TargetLogitObjective.name(), "target-logit");
        assert!(NeuronActivation::default().gradient_objective().is_some());
        assert!(ParamGradient::default().gradient_objective().is_none());
    }
}
