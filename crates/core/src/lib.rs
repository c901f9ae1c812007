//! Functional test generation for DNN IPs — the core contribution of the DATE
//! 2019 paper *"On Functional Test Generation for Deep Neural Network IPs"*
//! (Luo, Li, Wei, Xu).
//!
//! An IP vendor wants to ship a small set of functional tests `X` with golden
//! outputs `Y` such that an IP user — who can only run the black-box IP — detects
//! any tampering of the model parameters by replaying `X` and comparing against
//! `Y`. The quality of a test set is its **validation coverage**: the fraction of
//! parameters whose perturbation would propagate to the output of at least one
//! test.
//!
//! This crate implements every piece of that pipeline:
//!
//! * [`bitset`] — compact activation sets over the flat parameter space.
//! * [`criterion`] — the pluggable [`criterion::CoverageCriterion`] layer: what
//!   counts as a covered unit. Ships the paper's parameter-gradient metric (the
//!   default), forward-only neuron-activation coverage and top-k neuron
//!   coverage, plus per-criterion synthesis objectives.
//! * [`coverage`] — the [`coverage::CoverageConfig`] of the coverage
//!   computation. Under the default criterion the computation is the paper's
//!   validation-coverage metric (Eq. 2–5): a parameter is *activated* by
//!   input `x` when `∇θ F(x)` is non-zero (ReLU) or exceeds an ε threshold
//!   (saturating activations).
//! * [`select`] — **Algorithm 1**: greedy selection of functional tests from the
//!   training set, maximizing marginal coverage gain. The Tables II/III
//!   baseline ("tests with neuron coverage") is the same selection over
//!   [`criterion::NeuronActivation`] sets.
//! * [`gradgen`] — **Algorithm 2**: gradient-based synthesis of new tests that
//!   the model classifies as each output category.
//! * [`combined`] — the combined generator with the automatic switch point
//!   (Section IV-D).
//! * [`eval`] — the unified [`eval::Evaluator`] layer, the one front door to
//!   covered-unit sets: one object owning the network reference, criterion,
//!   execution policy, batched gradient engine and a content-addressed LRU
//!   activation-set cache; every stage above routes its activation-set
//!   computation through it.
//! * [`generator`] — the [`generator::GenerationMethod`] strategies (plus a
//!   random-selection control) and the tests they produce.
//! * [`workspace`] — the [`workspace::Workspace`] front door: a model
//!   registry with shared caches whose [`workspace::Workspace::run`] is the
//!   only way to generate tests.
//! * [`par`] — the [`par::ExecPolicy`] execution knob and a std-only
//!   scoped-thread worker pool; every per-input stage of the pipeline routes
//!   through it, with serial and parallel execution guaranteed bit-identical.
//! * [`protocol`] — the vendor/user validation protocol of Fig. 1: suite
//!   packaging with golden outputs on the vendor side, black-box replay and
//!   verdicts on the user side.
//! * [`detection`] — the Tables II/III detection-rate harness: attack trials
//!   replayed against a released suite through the user's own replay.
//!
//! # Example
//!
//! ```
//! use dnnip_core::coverage::CoverageConfig;
//! use dnnip_core::eval::Evaluator;
//! use dnnip_nn::{layers::Activation, zoo};
//! use dnnip_tensor::Tensor;
//!
//! # fn main() -> Result<(), dnnip_core::CoreError> {
//! let net = zoo::tiny_mlp(4, 8, 3, Activation::Relu, 1)?;
//! let evaluator = Evaluator::new(&net, CoverageConfig::default());
//! let x = Tensor::from_vec(vec![0.4, -0.2, 0.9, 0.1], &[4])?;
//! let set = evaluator.activation_set(&x)?;
//! let coverage = set.count_ones() as f32 / net.num_parameters() as f32;
//! assert!(coverage > 0.0 && coverage <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod bitset;
pub mod combined;
pub mod coverage;
pub mod covered;
pub mod criterion;
pub mod detection;
pub mod eval;
pub mod generator;
pub mod gradgen;
pub mod par;
pub mod persist;
pub mod protocol;
pub mod select;
pub mod workspace;

pub use error::{CoreError, Result};
