//! Shared experiment harness for the figure/table reproduction binaries and the
//! criterion benches.
//!
//! Every experiment binary follows the same skeleton: pick an
//! [`ExperimentProfile`], call [`prepare_mnist`] / [`prepare_cifar`] to obtain a
//! trained model plus its synthetic training set, and then measure whatever the
//! figure or table reports. The profile controls model scale, dataset size,
//! training budget and trial counts so the same binaries can run as a quick smoke
//! test, as the default CPU-friendly experiment, or at a scale closer to the
//! paper's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detection_table;

use std::sync::Arc;

use dnnip_core::coverage::{CoverageConfig, EpsilonPolicy};
use dnnip_core::criterion::{criterion_from_spec, CoverageCriterion, ParamGradient};
use dnnip_core::eval::Evaluator;
use dnnip_core::par::ExecPolicy;
use dnnip_core::workspace::{CriterionSpec, Workspace};
use dnnip_dataset::digits::{synthetic_mnist, DigitConfig};
use dnnip_dataset::objects::{synthetic_cifar, ObjectConfig};
use dnnip_dataset::LabeledDataset;
use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_nn::layers::Activation;
use dnnip_nn::train::{evaluate, train, TrainConfig};
use dnnip_nn::{zoo, Network};

/// Which scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentProfile {
    /// Minimal scale for CI smoke runs (tiny models, a few samples/trials).
    Smoke,
    /// The default CPU-friendly scale: scaled Table-I models, hundreds of
    /// samples, tens of detection trials per cell.
    Default,
    /// Closer to the paper's scale: the full Table-I architectures and larger
    /// sample/trial counts. Expect long runtimes on a laptop CPU.
    Paper,
}

impl ExperimentProfile {
    /// Parse a profile from a CLI argument / environment string.
    pub fn parse(value: &str) -> Option<Self> {
        match value.to_ascii_lowercase().as_str() {
            "smoke" => Some(Self::Smoke),
            "default" => Some(Self::Default),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// Resolve the profile from the first CLI argument or the `DNNIP_PROFILE`
    /// environment variable, falling back to [`ExperimentProfile::Default`].
    pub fn from_env_or_args() -> Self {
        if let Some(arg) = std::env::args().nth(1) {
            if let Some(p) = Self::parse(&arg) {
                return p;
            }
        }
        if let Ok(var) = std::env::var("DNNIP_PROFILE") {
            if let Some(p) = Self::parse(&var) {
                return p;
            }
        }
        Self::Default
    }

    /// Name used in report headers.
    pub fn name(self) -> &'static str {
        match self {
            Self::Smoke => "smoke",
            Self::Default => "default",
            Self::Paper => "paper",
        }
    }

    /// Number of training images generated per model.
    fn dataset_size(self) -> usize {
        match self {
            Self::Smoke => 120,
            Self::Default => 600,
            Self::Paper => 4000,
        }
    }

    /// Number of training epochs.
    pub fn epochs(self) -> usize {
        match self {
            Self::Smoke => 2,
            Self::Default => 4,
            Self::Paper => 8,
        }
    }

    /// Number of images per family for the Fig. 2 comparison.
    pub fn fig2_images(self) -> usize {
        match self {
            Self::Smoke => 20,
            Self::Default => 100,
            Self::Paper => 1000,
        }
    }

    /// Candidate-pool size offered to the selection algorithms (Fig. 3, tables).
    pub fn candidate_pool(self) -> usize {
        match self {
            Self::Smoke => 60,
            Self::Default => 300,
            Self::Paper => 2000,
        }
    }

    /// Functional-test budgets swept in Fig. 3.
    pub fn fig3_budgets(self) -> Vec<usize> {
        match self {
            Self::Smoke => vec![1, 5, 10],
            Self::Default => vec![1, 5, 10, 20, 30, 50],
            Self::Paper => vec![1, 5, 10, 20, 30, 50, 100],
        }
    }

    /// Detection trials per table cell.
    pub fn detection_trials(self) -> usize {
        match self {
            Self::Smoke => 20,
            Self::Default => 100,
            Self::Paper => 1000,
        }
    }

    /// Test-count column headers of Tables II/III.
    pub fn table_test_counts(self) -> Vec<usize> {
        match self {
            Self::Smoke => vec![5, 10],
            Self::Default => vec![10, 20, 30, 40, 50],
            Self::Paper => vec![10, 20, 30, 40, 50],
        }
    }

    /// Number of probe inputs handed to the attacks.
    pub fn probe_count(self) -> usize {
        match self {
            Self::Smoke => 8,
            Self::Default => 16,
            Self::Paper => 64,
        }
    }

    /// Image side length of the synthetic datasets at this profile.
    fn image_size(self) -> usize {
        match self {
            Self::Smoke => 12,
            Self::Default => 16,
            Self::Paper => 28,
        }
    }
}

/// A trained model plus the synthetic dataset it was trained on.
#[derive(Debug, Clone)]
pub struct PreparedModel {
    /// Human-readable model name ("MNIST-Tanh", "CIFAR-ReLU").
    pub name: &'static str,
    /// The trained network.
    pub network: Network,
    /// The training set used (also the candidate pool for test selection).
    pub dataset: LabeledDataset,
    /// Training accuracy reached (sanity indicator recorded in reports).
    pub train_accuracy: f32,
    /// Coverage configuration appropriate for this model's activation function.
    pub coverage: CoverageConfig,
}

fn train_config(profile: ExperimentProfile, learning_rate: f32) -> TrainConfig {
    TrainConfig {
        epochs: profile.epochs(),
        batch_size: 16,
        learning_rate,
        momentum: 0.9,
        lr_decay: 0.9,
        ..TrainConfig::default()
    }
}

/// Train `network` on `dataset`, retrying with a halved learning rate (and a
/// reshuffled seed) if training diverges — SGD with momentum occasionally blows
/// up on the ReLU CIFAR model at the default rate, and a diverged model would
/// make every downstream coverage number meaningless.
fn train_robust(
    network: &mut Network,
    dataset: &LabeledDataset,
    profile: ExperimentProfile,
    base_lr: f32,
) -> f32 {
    let mut lr = base_lr;
    let pristine = network.parameters_flat();
    for attempt in 0..3 {
        let mut config = train_config(profile, lr);
        config.seed = attempt as u64;
        let report = train(network, &dataset.inputs, &dataset.labels, &config)
            .expect("training the experiment model");
        let accuracy = report.final_accuracy();
        if accuracy > 0.3 {
            return accuracy;
        }
        // Diverged: restore the initial weights and retry more conservatively.
        network
            .set_parameters_flat(&pristine)
            .expect("restoring pristine parameters");
        lr *= 0.4;
    }
    let config = train_config(profile, lr);
    train(network, &dataset.inputs, &dataset.labels, &config)
        .expect("training the experiment model")
        .final_accuracy()
}

/// Coverage configuration used for a model with the given activation function.
///
/// ReLU models use the paper's exact non-zero-gradient rule. Saturating (Tanh)
/// models use a relative ε of 1% of the per-sample maximum gradient magnitude —
/// the paper only says "a small value ε"; 1e-2 gives the discriminative
/// behaviour its Fig. 2/Fig. 3 report (1e-4 would count essentially every
/// parameter as activated on a small Tanh model).
///
/// Every experiment binary runs the coverage analysis through the batched
/// engine with one worker per available hardware thread; results are
/// bit-identical to serial execution (see `tests/parallel_equivalence.rs`), so
/// the parallel path is safe to use unconditionally. Coverage of the int8
/// model an accelerator runs is this configuration applied to
/// `AcceleratorIp::from_network(&net, BitWidth::Int8).effective_network()`.
pub fn coverage_config_for(activation: Activation) -> CoverageConfig {
    let epsilon = if activation.is_saturating() {
        EpsilonPolicy::RelativeToMax(1e-2)
    } else {
        EpsilonPolicy::Exact
    };
    CoverageConfig {
        epsilon,
        exec: ExecPolicy::auto(),
        ..CoverageConfig::default()
    }
}

/// Resolve the coverage criterion from the `DNNIP_CRITERION` environment
/// variable (see [`dnnip_core::criterion::criterion_from_spec`] for the
/// accepted specs), defaulting to the paper's parameter-gradient criterion
/// configured by `coverage`.
///
/// # Panics
///
/// Panics on a malformed `DNNIP_CRITERION` value — a typo'd criterion name
/// must not silently fall back to a different experiment.
pub fn criterion_from_env(coverage: &CoverageConfig) -> Arc<dyn CoverageCriterion> {
    match std::env::var("DNNIP_CRITERION") {
        Ok(spec) => criterion_from_spec(&spec, coverage).expect("valid DNNIP_CRITERION spec"),
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("DNNIP_CRITERION is set but not valid UTF-8")
        }
        Err(std::env::VarError::NotPresent) => Arc::new(ParamGradient::from_config(coverage)),
    }
}

/// The criterion selector of this process ([`CriterionSpec::Spec`] when
/// `DNNIP_CRITERION` is set, the model default otherwise) — what every
/// experiment binary passes into its [`Workspace`] requests.
pub fn criterion_spec_from_env() -> CriterionSpec {
    match std::env::var("DNNIP_CRITERION") {
        Ok(spec) => CriterionSpec::Spec(spec),
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("DNNIP_CRITERION is set but not valid UTF-8")
        }
        Err(std::env::VarError::NotPresent) => CriterionSpec::ModelDefault,
    }
}

/// The workspace every experiment binary runs through: default shared cache
/// budget, persistent tier resolved from `DNNIP_CACHE_DIR` /
/// `DNNIP_CACHE_PERSIST` (on by default, rooted at `target/dnnip-cache`).
pub fn workspace_from_env() -> Workspace {
    Workspace::from_env()
}

/// One-line description of a workspace's persistent tier for the binaries'
/// report headers ("cache dir: target/dnnip-cache (persist on)").
pub fn cache_banner(ws: &Workspace) -> String {
    match ws.cache_dir() {
        Some(dir) => format!("cache dir: {} (persist on)", dir.display()),
        None => "cache dir: none (persist off)".to_string(),
    }
}

/// Register a prepared model in a workspace (by name, with its coverage
/// configuration) and return its fingerprint.
pub fn register_model(ws: &Workspace, model: &PreparedModel) -> NetworkFingerprint {
    ws.register(model.name, model.network.clone(), model.coverage)
}

/// Register `model` and mint its evaluator under the `DNNIP_CRITERION`
/// selection.
///
/// # Panics
///
/// Panics on a malformed `DNNIP_CRITERION` value — a typo'd criterion name
/// must not silently fall back to a different experiment.
pub fn evaluator_in(ws: &Workspace, model: &PreparedModel) -> Evaluator {
    let fingerprint = register_model(ws, model);
    ws.evaluator(fingerprint, &criterion_spec_from_env())
        .expect("valid DNNIP_CRITERION spec")
}

/// Which model family an experiment binary should run, resolved from the
/// `DNNIP_MODEL` environment variable.
///
/// The sequential experiment binaries default to their own trained Table-I
/// models ([`ModelSpec::Default`]); setting `DNNIP_MODEL=residual` or
/// `DNNIP_MODEL=branching` swaps in a zoo model with Add or Concat nodes, so
/// the same binary runs it without code changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// The binary's own default model (`DNNIP_MODEL` unset).
    Default,
    /// [`dnnip_nn::zoo::residual_classifier`] — the ResNet-style Add model.
    Residual,
    /// [`dnnip_nn::zoo::branching_classifier`] — the two-branch Concat model.
    Branching,
}

impl ModelSpec {
    /// Parse a model spec from an environment string.
    pub fn parse(value: &str) -> Option<Self> {
        match value.to_ascii_lowercase().as_str() {
            "default" => Some(Self::Default),
            "residual" => Some(Self::Residual),
            "branching" => Some(Self::Branching),
            _ => None,
        }
    }

    /// Resolve the model spec from `DNNIP_MODEL`, defaulting to
    /// [`ModelSpec::Default`] when unset.
    ///
    /// # Panics
    ///
    /// Panics on an unknown `DNNIP_MODEL` value — a typo'd model name must not
    /// silently run a different experiment.
    pub fn from_env() -> Self {
        match std::env::var("DNNIP_MODEL") {
            Ok(value) => Self::parse(&value).unwrap_or_else(|| {
                panic!("unknown DNNIP_MODEL {value:?} (default, residual or branching)")
            }),
            Err(std::env::VarError::NotUnicode(_)) => {
                panic!("DNNIP_MODEL is set but not valid UTF-8")
            }
            Err(std::env::VarError::NotPresent) => Self::Default,
        }
    }

    /// Name used in report headers and result JSON.
    pub fn name(self) -> &'static str {
        match self {
            Self::Default => "default",
            Self::Residual => "residual",
            Self::Branching => "branching",
        }
    }

    /// Build the graph-zoo model this spec names, or `None` for
    /// [`ModelSpec::Default`] (the binary keeps its own sequential model).
    pub fn build_graph(self, seed: u64) -> Option<Network> {
        let graph = match self {
            Self::Default => return None,
            Self::Residual => zoo::residual_classifier(seed),
            Self::Branching => zoo::branching_classifier(seed),
        };
        Some(graph.expect("graph zoo geometries are statically valid"))
    }
}

/// Resolve the experiment seed: the `DNNIP_SEED` environment variable when set
/// to a valid `u64`, otherwise `default`.
///
/// Every experiment binary routes its top-level seed through this helper, so a
/// whole figure/table run can be repeated under a different seed (or pinned for
/// a differential comparison) without editing code.
pub fn seed_from_env_or(default: u64) -> u64 {
    std::env::var("DNNIP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Build and train the MNIST-style (Tanh) model for the given profile.
///
/// # Panics
///
/// Panics if model construction or training fails — experiment binaries have no
/// meaningful way to continue, and the configurations used here are all
/// statically valid.
pub fn prepare_mnist(profile: ExperimentProfile, seed: u64) -> PreparedModel {
    let size = profile.image_size();
    let dataset = synthetic_mnist(&DigitConfig::with_size(size), profile.dataset_size(), seed);
    let mut network = match profile {
        ExperimentProfile::Paper => zoo::mnist_model(seed).expect("valid Table-I geometry"),
        _ => zoo::conv_classifier(
            [1, size, size],
            [8, 8, 16, 16],
            32,
            10,
            Activation::Tanh,
            1,
            seed,
        )
        .expect("valid scaled geometry"),
    };
    let train_accuracy = train_robust(&mut network, &dataset, profile, 0.05);
    PreparedModel {
        name: "MNIST-Tanh",
        network,
        dataset,
        train_accuracy,
        coverage: coverage_config_for(Activation::Tanh),
    }
}

/// Build and train the CIFAR-style (ReLU) model for the given profile.
///
/// # Panics
///
/// Panics if model construction or training fails (see [`prepare_mnist`]).
pub fn prepare_cifar(profile: ExperimentProfile, seed: u64) -> PreparedModel {
    let size = match profile {
        ExperimentProfile::Paper => 32,
        _ => profile.image_size().max(16),
    };
    let dataset = synthetic_cifar(&ObjectConfig::with_size(size), profile.dataset_size(), seed);
    let mut network = match profile {
        ExperimentProfile::Paper => zoo::cifar_model(seed).expect("valid Table-I geometry"),
        _ => zoo::conv_classifier(
            [3, size, size],
            [16, 16, 32, 32],
            64,
            10,
            Activation::Relu,
            1,
            seed,
        )
        .expect("valid scaled geometry"),
    };
    let train_accuracy = train_robust(&mut network, &dataset, profile, 0.02);
    PreparedModel {
        name: "CIFAR-ReLU",
        network,
        dataset,
        train_accuracy,
        coverage: coverage_config_for(Activation::Relu),
    }
}

/// Held-out accuracy of a prepared model on a freshly generated dataset (quality
/// indicator printed by the experiment binaries).
pub fn holdout_accuracy(model: &PreparedModel, seed: u64) -> f32 {
    let size = model.network.input_shape()[1];
    let holdout = if model.network.input_shape()[0] == 1 {
        synthetic_mnist(&DigitConfig::with_size(size), 200, seed)
    } else {
        synthetic_cifar(&ObjectConfig::with_size(size), 200, seed)
    };
    evaluate(&model.network, &holdout.inputs, &holdout.labels).expect("evaluating holdout")
}

/// Format a percentage with one decimal, right-aligned to `width`.
pub fn pct(value: f32, width: usize) -> String {
    format!("{:>width$.1}%", value * 100.0, width = width - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parsing_and_accessors() {
        assert_eq!(
            ExperimentProfile::parse("smoke"),
            Some(ExperimentProfile::Smoke)
        );
        assert_eq!(
            ExperimentProfile::parse("PAPER"),
            Some(ExperimentProfile::Paper)
        );
        assert_eq!(ExperimentProfile::parse("bogus"), None);
        for p in [
            ExperimentProfile::Smoke,
            ExperimentProfile::Default,
            ExperimentProfile::Paper,
        ] {
            assert!(p.dataset_size() > 0);
            assert!(p.epochs() > 0);
            assert!(!p.fig3_budgets().is_empty());
            assert!(!p.table_test_counts().is_empty());
            assert!(!p.name().is_empty());
        }
        assert!(ExperimentProfile::Paper.dataset_size() > ExperimentProfile::Smoke.dataset_size());
    }

    #[test]
    fn coverage_config_distinguishes_activations() {
        let relu = coverage_config_for(Activation::Relu);
        let tanh = coverage_config_for(Activation::Tanh);
        assert_eq!(relu.epsilon, EpsilonPolicy::Exact);
        assert!(matches!(tanh.epsilon, EpsilonPolicy::RelativeToMax(_)));
    }

    #[test]
    fn smoke_profile_prepares_trained_models_quickly() {
        let mnist = prepare_mnist(ExperimentProfile::Smoke, 1);
        assert_eq!(mnist.network.num_classes(), 10);
        assert!(
            mnist.train_accuracy > 0.3,
            "accuracy {}",
            mnist.train_accuracy
        );
        assert_eq!(mnist.dataset.len(), ExperimentProfile::Smoke.dataset_size());

        let cifar = prepare_cifar(ExperimentProfile::Smoke, 1);
        assert_eq!(cifar.network.num_classes(), 10);
        assert!(
            cifar.train_accuracy > 0.2,
            "accuracy {}",
            cifar.train_accuracy
        );
    }

    #[test]
    fn seed_env_override_wins_only_when_valid() {
        // Serialize against other tests by doing all three cases in one test.
        std::env::remove_var("DNNIP_SEED");
        assert_eq!(seed_from_env_or(42), 42);
        std::env::set_var("DNNIP_SEED", "7");
        assert_eq!(seed_from_env_or(42), 7);
        std::env::set_var("DNNIP_SEED", "not-a-number");
        assert_eq!(seed_from_env_or(42), 42);
        std::env::remove_var("DNNIP_SEED");
    }

    #[test]
    fn default_criterion_is_param_gradient() {
        // No DNNIP_CRITERION in the test environment → the paper's metric.
        if std::env::var("DNNIP_CRITERION").is_err() {
            let config = coverage_config_for(Activation::Relu);
            assert_eq!(criterion_from_env(&config).id(), "param-gradient");
        }
    }

    #[test]
    fn coverage_config_enables_the_parallel_path() {
        let config = coverage_config_for(Activation::Relu);
        assert!(config.exec.threads() >= 1);
        assert!(config.batch_size >= 1);
    }

    #[test]
    fn model_spec_parses_and_builds_graphs() {
        assert_eq!(ModelSpec::parse("residual"), Some(ModelSpec::Residual));
        assert_eq!(ModelSpec::parse("BRANCHING"), Some(ModelSpec::Branching));
        assert_eq!(ModelSpec::parse("default"), Some(ModelSpec::Default));
        assert_eq!(ModelSpec::parse("bogus"), None);
        assert!(ModelSpec::Default.build_graph(1).is_none());
        let residual = ModelSpec::Residual.build_graph(1).expect("residual graph");
        assert_eq!(residual.input_shape(), &[1, 8, 8]);
        assert!(!residual.is_linear());
        let branching = ModelSpec::Branching
            .build_graph(1)
            .expect("branching graph");
        assert_eq!(branching.num_classes(), 3);
    }

    #[test]
    fn model_spec_env_override_defaults_when_unset() {
        // Serialize set/unset cases in one test, like the seed test above.
        if std::env::var("DNNIP_MODEL").is_err() {
            assert_eq!(ModelSpec::from_env(), ModelSpec::Default);
            std::env::set_var("DNNIP_MODEL", "residual");
            assert_eq!(ModelSpec::from_env(), ModelSpec::Residual);
            std::env::remove_var("DNNIP_MODEL");
        }
    }

    #[test]
    fn pct_formats_percentages() {
        assert_eq!(pct(0.5, 7), "  50.0%");
        assert!(pct(1.0, 6).contains("100.0%"));
    }
}
