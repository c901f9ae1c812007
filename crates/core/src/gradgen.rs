//! Algorithm 2: gradient-based test generation.
//!
//! When the training set stops contributing new coverage, the paper synthesizes
//! new inputs instead: for every output category `i`, start from a blank input
//! and run `T` steps of gradient descent on the classification loss
//! `J(x, y_i, θ)` **with respect to the input** (Eq. 8). After `T` steps the
//! synthetic sample is classified as category `i` and, like a real training
//! sample of that category, activates the corresponding parameters.
//!
//! The `k` per-class descents of one batch run in **shards** through the
//! shared [`BatchGradientEngine`]: the states are split into one contiguous
//! shard per [`GradGenConfig::exec`] worker, and each worker runs all `T`
//! steps of its shard with its own scratch arena — one stacked forward pass
//! over the shard's states per step, then one input gradient per state — and
//! classifies its final states. Per-sample arithmetic is independent of the
//! shard, so a batch of one ([`GradientGenerator::synthesize`]) and every
//! shard layout produce bit-identical trajectories — pinned by the
//! differential tests below and in `tests/parallel_equivalence.rs`.
//!
//! One detail is under-specified in the paper: Algorithm 2 re-initializes every
//! round "with all zeros", which would make every round produce identical tests
//! and the coverage curve flat after the first batch. To obtain the steadily
//! rising curve of Fig. 3 the rounds must differ, so this implementation seeds
//! each round after the first with a small random initialization (configurable
//! via [`GradGenConfig::init_noise`]); round 0 uses the paper's all-zero start.
//! Setting `init_noise` to `0.0` restores the paper's letter, flat curve and
//! all.

use std::ops::Range;
use std::sync::Arc;

use dnnip_nn::batch::{BatchForwardPass, BatchGradientEngine};
use dnnip_nn::loss::cross_entropy;
use dnnip_nn::Network;
use dnnip_tensor::{ops, ScratchArena, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::criterion::GradientObjective;
use crate::par::{self, ExecPolicy};
use crate::{CoreError, Result};

/// Configuration of the gradient-based test generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradGenConfig {
    /// Step size η of the input-space gradient descent (Eq. 8).
    pub eta: f32,
    /// Number of gradient-descent updates T per synthetic sample.
    pub steps: usize,
    /// Amplitude of the random initialization used for rounds after the first
    /// (0.0 reproduces the paper's all-zero initialization for every round).
    pub init_noise: f32,
    /// Optional clamp applied to the synthetic inputs after every update,
    /// e.g. `(0.0, 1.0)` to stay in the image domain.
    pub clamp: Option<(f32, f32)>,
    /// RNG seed for the random initializations.
    pub seed: u64,
    /// How many shards the states of one batch are split into, each descended
    /// on its own worker. Initial states are drawn serially from the seeded
    /// RNG before any step runs, and per-sample work is pure, so results are
    /// identical for every policy.
    pub exec: ExecPolicy,
}

impl Default for GradGenConfig {
    fn default() -> Self {
        Self {
            eta: 0.5,
            steps: 20,
            init_noise: 0.1,
            clamp: Some((0.0, 1.0)),
            seed: 0,
            exec: ExecPolicy::Serial,
        }
    }
}

/// A synthetic functional test produced by Algorithm 2.
#[derive(Debug, Clone)]
pub struct SyntheticTest {
    /// The generated input.
    pub input: Tensor,
    /// The class the generator was steering towards.
    pub target_class: usize,
    /// Whether the network actually classifies the input as `target_class`.
    pub classified_correctly: bool,
    /// Cross-entropy loss towards the target class after the final update.
    pub final_loss: f32,
}

/// Gradient-based test generator (Algorithm 2), running on the batched engine.
///
/// The descent objective defaults to the paper's softmax cross-entropy
/// (Eq. 8); a [`crate::criterion::CoverageCriterion`] may substitute its own
/// [`GradientObjective`] through [`GradientGenerator::with_objective`] (the
/// [`crate::eval::Evaluator`] wires this automatically).
#[derive(Debug, Clone)]
pub struct GradientGenerator {
    engine: BatchGradientEngine,
    config: GradGenConfig,
    rng: StdRng,
    round: usize,
    /// Criterion-supplied synthesis objective; `None` falls back to the
    /// paper's cross-entropy objective (the exact pre-hook code path).
    objective: Option<Arc<dyn GradientObjective>>,
}

impl GradientGenerator {
    /// Create a generator for `network` (builds a fresh batched engine).
    pub fn new(network: impl Into<Arc<Network>>, config: GradGenConfig) -> Self {
        Self::with_engine(BatchGradientEngine::new(network), config)
    }

    /// Create a generator around an existing engine, reusing its precomputed
    /// per-layer weight matrices (the [`crate::eval::Evaluator`] hands its
    /// engine here so coverage and synthesis share one).
    pub fn with_engine(engine: BatchGradientEngine, config: GradGenConfig) -> Self {
        Self {
            engine,
            config,
            rng: StdRng::seed_from_u64(config.seed),
            round: 0,
            objective: None,
        }
    }

    /// Replace the synthesis objective (`None` restores the paper's
    /// cross-entropy descent). Builder-style so the evaluator can attach a
    /// criterion's gradient hook in one expression.
    pub fn with_objective(mut self, objective: Option<Arc<dyn GradientObjective>>) -> Self {
        self.objective = objective;
        self
    }

    /// Name of the criterion-supplied objective, or `None` when the generator
    /// runs the paper's cross-entropy descent.
    pub fn objective_name(&self) -> Option<&'static str> {
        self.objective.as_ref().map(|o| o.name())
    }

    /// The network tests are generated for.
    pub fn network(&self) -> &Network {
        self.engine.network()
    }

    /// Number of tests produced per batch (= number of output classes, one
    /// synthetic sample per category).
    pub fn batch_size(&self) -> usize {
        self.network().num_classes()
    }

    /// Run the gradient descent over `inits`, split into one contiguous shard
    /// per [`GradGenConfig::exec`] worker (sizes differ by at most one, the
    /// larger first), each descended by [`GradientGenerator::descend_shard`].
    fn descend(&self, inits: &[Tensor], targets: &[usize]) -> Result<Vec<SyntheticTest>> {
        let classes = self.network().num_classes();
        if let Some(&bad) = targets.iter().find(|&&t| t >= classes) {
            return Err(CoreError::InvalidConfig {
                reason: format!("target class {bad} out of range for {classes} classes"),
            });
        }
        let n = inits.len();
        let shards = self.config.exec.threads().min(n);
        let bounds: Vec<Range<usize>> = (0..shards)
            .map(|i| (i * n).div_ceil(shards)..((i + 1) * n).div_ceil(shards))
            .collect();
        let tests = par::try_map(self.config.exec, &bounds, |r| {
            self.descend_shard(&inits[r.clone()], &targets[r.clone()])
        })?;
        Ok(tests.into_iter().flatten().collect())
    }

    /// All `T` steps of one shard on the calling worker, with its own scratch
    /// arena: per step one stacked forward over the shard's states, then per
    /// state its loss, input gradient and fixed-step update (Eq. 8). A last
    /// forward classifies the final states.
    fn descend_shard(&self, inits: &[Tensor], targets: &[usize]) -> Result<Vec<SyntheticTest>> {
        let mut arena = ScratchArena::new();
        let mut states = inits.to_vec();
        let mut losses = vec![f32::INFINITY; states.len()];
        for _ in 0..self.config.steps {
            let pass = self.engine.forward_batch_with(&states, &mut arena)?;
            for (s, &target) in targets.iter().enumerate() {
                let logits = self.logits(&pass, s)?;
                let (loss, grad_logits) = self.loss(&logits, target)?;
                let grad = self
                    .engine
                    .input_gradient_with(&pass, s, &grad_logits, &mut arena)?;
                losses[s] = loss;
                if grad.max_abs() == 0.0 {
                    // Dead start: with an all-zero input a ReLU network can
                    // have every hidden unit inactive, so ∇x J is identically
                    // zero and Eq. 8 cannot make progress. Nudge the input
                    // with a small deterministic jitter (keyed by the target
                    // class) to leave the dead region.
                    let mut x = states[s].clone();
                    x.add_assign(&Self::dead_start_jitter(x.shape(), target))?;
                    states[s] = self.clamped(x);
                } else {
                    // x ← clamp(x − η ∇x J(x, y_i, θ))   (Eq. 8)
                    let mut x = states[s].clone();
                    x.axpy(-self.config.eta, &grad)?;
                    states[s] = self.clamped(x);
                }
            }
        }
        let pass = self.engine.forward_batch_with(&states, &mut arena)?;
        states
            .into_iter()
            .zip(targets)
            .zip(losses)
            .enumerate()
            .map(|(s, ((input, &target_class), final_loss))| {
                let predicted = self.logits(&pass, s)?.argmax()?;
                Ok(SyntheticTest {
                    input,
                    target_class,
                    classified_correctly: predicted == target_class,
                    final_loss,
                })
            })
            .collect()
    }

    /// Sample `s`'s logits row of a stacked pass, shaped `[1, classes]`.
    fn logits(&self, pass: &BatchForwardPass, s: usize) -> Result<Tensor> {
        let classes = self.network().num_classes();
        Ok(ops::row(pass.output(), s)?.reshape(&[1, classes])?)
    }

    /// Loss of one `[1, classes]` logits row towards `target` under the
    /// active objective, with its gradient with respect to the logits.
    fn loss(&self, logits: &Tensor, target: usize) -> Result<(f32, Vec<f32>)> {
        match &self.objective {
            Some(objective) => objective.loss_and_logit_grad(logits, target),
            None => {
                let loss = cross_entropy(logits, &[target])?;
                Ok((loss.value, loss.grad_logits.into_data()))
            }
        }
    }

    /// `x` clamped to [`GradGenConfig::clamp`], if one is set.
    fn clamped(&self, x: Tensor) -> Tensor {
        match self.config.clamp {
            Some((lo, hi)) => x.clamp(lo, hi),
            None => x,
        }
    }

    /// The deterministic dead-start jitter (keyed by the target class), used
    /// when `∇x J` is identically zero.
    fn dead_start_jitter(shape: &[usize], target: usize) -> Tensor {
        Tensor::from_fn(shape, |i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(target as u64 + 1);
            ((h % 1000) as f32 / 1000.0) * 0.05
        })
    }

    /// Synthesize one sample steered towards `target_class`, starting from `init`.
    ///
    /// Runs the same descent code path with a shard of one, so the result is
    /// bit-identical to the corresponding entry of a full
    /// [`GradientGenerator::generate_batch`] started from the same state.
    ///
    /// # Errors
    ///
    /// Returns an error when `target_class` is out of range or shapes mismatch.
    pub fn synthesize(&self, init: &Tensor, target_class: usize) -> Result<SyntheticTest> {
        let mut tests = self.descend(std::slice::from_ref(init), &[target_class])?;
        Ok(tests.pop().expect("one test per init"))
    }

    /// Generate one batch of `k` synthetic tests, one per output category
    /// (Algorithm 2, lines 3–12), as one sharded descent.
    ///
    /// Initial states are drawn from the seeded RNG in class order **before**
    /// the descent runs, so the produced batch is identical for every
    /// execution policy.
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors.
    pub fn generate_batch(&mut self) -> Result<Vec<SyntheticTest>> {
        let shape = self.network().input_shape().to_vec();
        let noise = if self.round == 0 {
            0.0
        } else {
            self.config.init_noise
        };
        let targets: Vec<usize> = (0..self.batch_size()).collect();
        let inits: Vec<Tensor> = targets
            .iter()
            .map(|_| {
                if noise == 0.0 {
                    Tensor::zeros(&shape)
                } else {
                    let amplitude = noise;
                    Tensor::from_fn(&shape, |_| self.rng.gen_range(0.0..amplitude))
                }
            })
            .collect();
        self.round += 1;
        self.descend(&inits, &targets)
    }

    /// Generate synthetic tests until at least `max_tests` inputs exist (whole
    /// batches are generated, so the result may slightly exceed the budget, as in
    /// the paper's Algorithm 2 loop).
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors.
    pub fn generate(&mut self, max_tests: usize) -> Result<Vec<SyntheticTest>> {
        let mut out = Vec::new();
        while out.len() < max_tests {
            out.extend(self.generate_batch()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageConfig;
    use crate::eval::Evaluator;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn net() -> Network {
        zoo::tiny_mlp(6, 16, 4, Activation::Relu, 33).unwrap()
    }

    #[test]
    fn batch_contains_one_test_per_class() {
        let network = net();
        let mut generator = GradientGenerator::new(&network, GradGenConfig::default());
        assert_eq!(generator.batch_size(), 4);
        let batch = generator.generate_batch().unwrap();
        assert_eq!(batch.len(), 4);
        let targets: Vec<usize> = batch.iter().map(|t| t.target_class).collect();
        assert_eq!(targets, vec![0, 1, 2, 3]);
        for t in &batch {
            assert_eq!(t.input.shape(), network.input_shape());
            assert!(!t.input.has_non_finite());
        }
    }

    #[test]
    fn most_synthetic_tests_reach_their_target_class() {
        let network = net();
        let config = GradGenConfig {
            eta: 1.0,
            steps: 50,
            clamp: None,
            ..GradGenConfig::default()
        };
        let mut generator = GradientGenerator::new(&network, config);
        let batch = generator.generate_batch().unwrap();
        let hits = batch.iter().filter(|t| t.classified_correctly).count();
        assert!(
            hits >= 3,
            "only {hits}/4 synthetic tests reached their class"
        );
    }

    #[test]
    fn gradient_descent_reduces_the_target_loss() {
        let network = net();
        let generator = GradientGenerator::new(
            &network,
            GradGenConfig {
                eta: 0.5,
                steps: 30,
                clamp: None,
                ..GradGenConfig::default()
            },
        );
        let zero = Tensor::zeros(&[6]);
        let initial_loss = {
            let batch = network.batch_one(&zero).unwrap();
            let out = network.forward(&batch).unwrap();
            cross_entropy(&out, &[2]).unwrap().value
        };
        let result = generator.synthesize(&zero, 2).unwrap();
        assert!(
            result.final_loss < initial_loss,
            "loss did not decrease: {initial_loss} -> {}",
            result.final_loss
        );
        assert!(generator.synthesize(&zero, 99).is_err());
    }

    #[test]
    fn stacked_batch_is_bit_identical_to_per_class_synthesis() {
        // Per-sample arithmetic must not depend on what else rides in the
        // stacked batch: synthesizing class-by-class from the same starts
        // reproduces the batch exactly, bit for bit.
        for activation in [Activation::Relu, Activation::Tanh] {
            let network = zoo::tiny_mlp(6, 12, 4, activation, 9).unwrap();
            let config = GradGenConfig {
                steps: 6,
                ..GradGenConfig::default()
            };
            let mut batched = GradientGenerator::new(&network, config);
            let batch = batched.generate_batch().unwrap();
            let single = GradientGenerator::new(&network, config);
            for t in &batch {
                // Round 0 starts all-zero for every class.
                let reference = single
                    .synthesize(&Tensor::zeros(&[6]), t.target_class)
                    .unwrap();
                assert_eq!(
                    t.input, reference.input,
                    "{activation:?} class {} diverged from the batch-of-one path",
                    t.target_class
                );
                assert_eq!(t.final_loss.to_bits(), reference.final_loss.to_bits());
                assert_eq!(t.classified_correctly, reference.classified_correctly);
            }
        }
    }

    #[test]
    fn target_logit_objective_drives_the_target_logit_up() {
        use crate::criterion::TargetLogitObjective;
        let network = net();
        let config = GradGenConfig {
            eta: 0.5,
            steps: 25,
            clamp: None,
            ..GradGenConfig::default()
        };
        let generator = GradientGenerator::new(&network, config)
            .with_objective(Some(Arc::new(TargetLogitObjective)));
        assert_eq!(generator.objective_name(), Some("target-logit"));
        let zero = Tensor::zeros(&[6]);
        let start_logit = network.forward_sample(&zero).unwrap().data()[1];
        let result = generator.synthesize(&zero, 1).unwrap();
        let end_logit = network.forward_sample(&result.input).unwrap().data()[1];
        assert!(
            end_logit > start_logit,
            "target logit did not rise: {start_logit} -> {end_logit}"
        );
        // The recorded loss is the negated target logit of the penultimate step.
        assert!(result.final_loss <= -start_logit + 1e-6);
        // Resetting the objective restores the paper's descent bit-for-bit.
        let plain = GradientGenerator::new(&network, config);
        let reset = GradientGenerator::new(&network, config)
            .with_objective(Some(Arc::new(TargetLogitObjective)))
            .with_objective(None);
        assert_eq!(
            plain.synthesize(&zero, 1).unwrap().input,
            reset.synthesize(&zero, 1).unwrap().input
        );
    }

    #[test]
    fn generate_respects_budget_in_whole_batches() {
        let network = net();
        let mut generator = GradientGenerator::new(
            &network,
            GradGenConfig {
                steps: 3,
                ..GradGenConfig::default()
            },
        );
        let tests = generator.generate(10).unwrap();
        // 4 classes per batch -> 12 tests is the smallest multiple >= 10.
        assert_eq!(tests.len(), 12);
    }

    #[test]
    fn later_rounds_differ_from_the_first_and_add_coverage() {
        let network = net();
        let evaluator = Evaluator::with_cache_bytes(&network, CoverageConfig::default(), 0);
        let mut generator = GradientGenerator::new(
            &network,
            GradGenConfig {
                steps: 10,
                ..GradGenConfig::default()
            },
        );
        let first = generator.generate_batch().unwrap();
        let second = generator.generate_batch().unwrap();
        assert_ne!(
            first[0].input, second[0].input,
            "rounds must differ for coverage to keep growing"
        );
        let first_inputs: Vec<Tensor> = first.iter().map(|t| t.input.clone()).collect();
        let both: Vec<Tensor> = first
            .iter()
            .chain(&second)
            .map(|t| t.input.clone())
            .collect();
        let c1 = evaluator.coverage_of_set(&first_inputs).unwrap();
        let c2 = evaluator.coverage_of_set(&both).unwrap();
        assert!(c2 >= c1);
    }

    #[test]
    fn clamp_keeps_inputs_in_range() {
        let network = net();
        let mut generator = GradientGenerator::new(
            &network,
            GradGenConfig {
                eta: 5.0,
                steps: 10,
                clamp: Some((0.0, 1.0)),
                ..GradGenConfig::default()
            },
        );
        for t in generator.generate_batch().unwrap() {
            assert!(t.input.min().unwrap() >= 0.0);
            assert!(t.input.max().unwrap() <= 1.0);
        }
    }
}
