//! The [`Workspace`] front-door: an owned, multi-model evaluator registry
//! with one shared cache budget, a persistent disk tier and a single
//! declarative request API.
//!
//! The paper's vendor flow runs the *same* trusted model through many
//! experiment binaries (the Fig. 3 sweep, Table II, Table III) and whole
//! architecture families (Table I). A `Workspace` is the session object that
//! serves all of that from one place:
//!
//! * **Registry** — models are registered once ([`Workspace::register`]) and
//!   addressed by their content [`NetworkFingerprint`]; evaluators are minted
//!   per `(model, criterion digest)` pair and reused across requests.
//! * **One budget** — every evaluator of a workspace shares **one**
//!   LRU byte budget ([`WorkspaceConfig::cache_bytes`]): eviction is global
//!   across models and criteria, with per-model and per-criterion stats
//!   ([`Workspace::cache_stats_by_model`] /
//!   [`Workspace::cache_stats_by_criterion`]).
//! * **Persistent tier** — with [`DiskCacheConfig`] enabled, covered-set
//!   entries spill to `<dir>/<fingerprint>/<criterion-digest>/` and are
//!   reloaded on later misses, so a second *process* over the same model
//!   starts warm ([`crate::persist`]).
//! * **One entry point** — [`Workspace::run`] takes a declarative
//!   [`TestGenRequest`] (strategy + budget + seed + criterion spec) and
//!   returns a [`TestGenReport`]; it is the only way to generate tests.
//!   [`Workspace::run_coalesced`] runs a group of requests through it after
//!   one shared warm pass, bit-identical to running each alone. Selections
//!   are pinned against the reference oracle by
//!   `tests/workspace_equivalence.rs`.
//!
//! ```
//! use dnnip_core::coverage::CoverageConfig;
//! use dnnip_core::generator::GenerationMethod;
//! use dnnip_core::workspace::{TestGenRequest, Workspace};
//! use dnnip_nn::{layers::Activation, zoo};
//! use dnnip_tensor::Tensor;
//!
//! # fn main() -> Result<(), dnnip_core::CoreError> {
//! let ws = Workspace::new();
//! let model = ws.register(
//!     "tiny",
//!     zoo::tiny_mlp(4, 8, 3, Activation::Relu, 1)?,
//!     CoverageConfig::default(),
//! );
//! let pool: Vec<Tensor> = (0..12)
//!     .map(|i| Tensor::from_fn(&[4], |j| ((i * 4 + j) as f32 * 0.31).sin()))
//!     .collect();
//! let report = ws.run(
//!     &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 4)
//!         .with_candidates(pool),
//! )?;
//! assert!(report.final_coverage() > 0.0);
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dnnip_graph::Graph;
use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_nn::Network;
use dnnip_tensor::Tensor;

use crate::bitset::Bitset;
use crate::combined::TestSource;
use crate::coverage::{CoverageAnalyzer, CoverageConfig};
use crate::criterion::{
    criterion_digest, criterion_from_spec, CoverageCriterion, NeuronActivation, ParamGradient,
};
use crate::eval::{
    sample_hash, CacheKey, CacheStats, ContentCache, CoveredSetCache, Evaluator,
    DEFAULT_CACHE_BYTES, DEFAULT_OUTPUT_CACHE_BYTES,
};
use crate::generator::{prefix_curve, random_indices, GeneratedTests, GenerationMethod};
use crate::gradgen::GradGenConfig;
use crate::persist::{DiskStats, DiskTier, VacuumStats};
use crate::select::greedy_select_covered;
use crate::{CoreError, Result};

/// Environment variable overriding the persistent-cache directory.
pub const CACHE_DIR_ENV: &str = "DNNIP_CACHE_DIR";
/// Environment variable gating the persistent tier (`0`/`false`/`off`
/// disable it; anything else, or absence, leaves it on).
pub const CACHE_PERSIST_ENV: &str = "DNNIP_CACHE_PERSIST";
/// Environment variable capping the persistent tier's disk usage, in bytes
/// (unset, empty or unparsable means unbounded).
pub const CACHE_MAX_BYTES_ENV: &str = "DNNIP_CACHE_MAX_BYTES";
/// Default persistent-cache directory (relative to the working directory).
pub const DEFAULT_CACHE_DIR: &str = "target/dnnip-cache";

/// Configuration of a workspace's persistent cache tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskCacheConfig {
    /// Whether covered-set entries spill to / reload from disk.
    pub enabled: bool,
    /// Root directory of the tier.
    pub dir: PathBuf,
    /// Disk byte budget of the tier: when set, least-recently-accessed
    /// segment files are evicted to stay under it (`None` = unbounded).
    pub max_bytes: Option<u64>,
}

impl DiskCacheConfig {
    /// The tier switched off (the [`Workspace::new`] default).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            dir: PathBuf::from(DEFAULT_CACHE_DIR),
            max_bytes: None,
        }
    }

    /// The tier enabled at an explicit directory, unbounded.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            enabled: true,
            dir: dir.into(),
            max_bytes: None,
        }
    }

    /// Set (or clear) the disk byte budget.
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Resolve from the environment: [`CACHE_DIR_ENV`] overrides the
    /// directory (default [`DEFAULT_CACHE_DIR`]); [`CACHE_PERSIST_ENV`] set
    /// to `0`, `false` or `off` disables the tier, which is otherwise **on**;
    /// [`CACHE_MAX_BYTES_ENV`] sets the disk byte budget.
    pub fn from_env() -> Self {
        let dir = std::env::var_os(CACHE_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR));
        let enabled = match std::env::var(CACHE_PERSIST_ENV) {
            Ok(v) => !matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "0" | "false" | "off"
            ),
            Err(_) => true,
        };
        let max_bytes = std::env::var(CACHE_MAX_BYTES_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        Self {
            enabled,
            dir,
            max_bytes,
        }
    }
}

/// Configuration of a [`Workspace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkspaceConfig {
    /// The **single** LRU byte budget shared by every model and criterion
    /// registered in the workspace (0 disables covered-set caching).
    pub cache_bytes: usize,
    /// Byte budget of the shared golden forward-output cache.
    pub output_cache_bytes: usize,
    /// Persistent tier configuration.
    pub disk: DiskCacheConfig,
}

impl Default for WorkspaceConfig {
    fn default() -> Self {
        Self {
            cache_bytes: DEFAULT_CACHE_BYTES,
            output_cache_bytes: DEFAULT_OUTPUT_CACHE_BYTES,
            disk: DiskCacheConfig::disabled(),
        }
    }
}

/// One registered model: the shared network handle, its base coverage
/// configuration and the evaluators minted for it so far.
#[derive(Debug)]
struct ModelEntry {
    name: String,
    network: Arc<Network>,
    coverage: CoverageConfig,
    /// Evaluators by criterion digest ([`criterion_digest`]).
    evaluators: HashMap<u64, Evaluator>,
}

/// One registered **non-sequential** graph model: the shared graph handle and
/// its base coverage configuration. Keyed by [`Graph::fingerprint`] in the
/// workspace's graph registry; linear graphs never land here (registration
/// lowers them to a [`Network`] entry instead).
#[derive(Debug)]
struct GraphEntry {
    name: String,
    graph: Arc<Graph>,
    coverage: CoverageConfig,
}

/// Summary of one registered model ([`Workspace::models`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The model's content fingerprint (its registry key).
    pub fingerprint: NetworkFingerprint,
    /// The name it was registered under.
    pub name: String,
    /// Total parameter count.
    pub num_parameters: usize,
    /// Number of evaluators (distinct criteria) minted so far.
    pub num_evaluators: usize,
}

/// Which coverage criterion a [`TestGenRequest`] runs under.
#[derive(Debug, Clone, Default)]
pub enum CriterionSpec {
    /// The paper's parameter-gradient criterion, configured from the model's
    /// registered [`CoverageConfig`] (the default everywhere).
    #[default]
    ModelDefault,
    /// A `DNNIP_CRITERION`-style spec string parsed by
    /// [`criterion_from_spec`] against the model's coverage configuration.
    Spec(String),
    /// An explicit criterion instance.
    Instance(Arc<dyn CoverageCriterion>),
}

/// A declarative test-generation request: *what* to run, not *how*.
///
/// One request addresses one registered model, names a strategy
/// ([`GenerationMethod`]), a test budget, a seed and a criterion, and
/// carries the candidate pool for selection-based strategies. Build with
/// [`TestGenRequest::new`] and the `with_*` chainers.
#[derive(Debug, Clone)]
pub struct TestGenRequest {
    /// Fingerprint of the registered model to run against.
    pub model: NetworkFingerprint,
    /// The generation strategy.
    pub strategy: GenerationMethod,
    /// Maximum number of functional tests to produce.
    pub budget: usize,
    /// Seed for the strategies that draw randomness (random selection; the
    /// gradient generator keeps its own seed in [`TestGenRequest::gradgen`]).
    pub seed: u64,
    /// Coverage criterion selector.
    pub criterion: CriterionSpec,
    /// Gradient-generator configuration (used by `GradientBased` and
    /// `Combined`).
    pub gradgen: GradGenConfig,
    /// Candidate training pool for selection-based strategies (may stay empty
    /// for pure synthesis).
    pub candidates: Vec<Tensor>,
}

impl TestGenRequest {
    /// A request with the default seed (0), criterion (model default),
    /// gradgen configuration and an empty candidate pool.
    pub fn new(model: NetworkFingerprint, strategy: GenerationMethod, budget: usize) -> Self {
        Self {
            model,
            strategy,
            budget,
            seed: 0,
            criterion: CriterionSpec::default(),
            gradgen: GradGenConfig::default(),
            candidates: Vec::new(),
        }
    }

    /// Set the seed for randomness-drawing strategies.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select the criterion by spec string (`DNNIP_CRITERION` syntax).
    pub fn with_criterion_spec(mut self, spec: impl Into<String>) -> Self {
        self.criterion = CriterionSpec::Spec(spec.into());
        self
    }

    /// Select an explicit criterion instance.
    pub fn with_criterion(mut self, criterion: Arc<dyn CoverageCriterion>) -> Self {
        self.criterion = CriterionSpec::Instance(criterion);
        self
    }

    /// Set the criterion selector wholesale (e.g. one resolved from the
    /// environment once and reused across requests).
    pub fn with_criterion_selector(mut self, criterion: CriterionSpec) -> Self {
        self.criterion = criterion;
        self
    }

    /// Set the gradient-generator configuration.
    pub fn with_gradgen(mut self, gradgen: GradGenConfig) -> Self {
        self.gradgen = gradgen;
        self
    }

    /// Provide the candidate training pool.
    pub fn with_candidates(mut self, candidates: Vec<Tensor>) -> Self {
        self.candidates = candidates;
        self
    }
}

/// The result of one [`Workspace::run`]: the generated tests plus the
/// context they were generated in and cache-activity snapshots.
#[derive(Debug, Clone)]
pub struct TestGenReport {
    /// The model the request ran against.
    pub model: NetworkFingerprint,
    /// The model's registered name.
    pub model_name: String,
    /// The strategy that ran.
    pub strategy: GenerationMethod,
    /// Id of the criterion the tests were generated (and scored) under.
    pub criterion_id: &'static str,
    /// Number of coverable units under that criterion.
    pub num_units: usize,
    /// The generated tests with coverage curve and provenance.
    pub tests: GeneratedTests,
    /// Wall-clock duration of the generation, in milliseconds.
    pub wall_ms: f64,
    /// Workspace-wide covered-set cache counters after the run.
    pub cache: CacheStats,
    /// Persistent-tier counters after the run, when the tier is enabled.
    pub disk: Option<DiskStats>,
}

impl TestGenReport {
    /// Final coverage reached by the generated suite.
    pub fn final_coverage(&self) -> f32 {
        self.tests.final_coverage()
    }

    /// Candidate-pool indices of the selected tests, in generation order
    /// (empty for pure synthesis).
    pub fn selected_indices(&self) -> Vec<usize> {
        self.tests.pool_indices()
    }
}

/// Cross-request sharing achieved by one [`Workspace::run_coalesced`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Number of `(model fingerprint × criterion key)` buckets the group
    /// formed — requests in one bucket address identical cache entries.
    pub groups: usize,
    /// Total candidate tensors across every pool-consuming request in the
    /// group (the slots the shared warm pass covers).
    pub pool_samples: usize,
    /// Slots of [`CoalesceStats::pool_samples`] whose content hash already
    /// appeared earlier in the same bucket: covered-unit sets the group
    /// computed **once** where isolated runs would have computed them once
    /// per request.
    pub shared_samples: usize,
}

/// The owned multi-model evaluator registry (see the module docs).
///
/// A `Workspace` is `Send + Sync`: the registry is mutex-guarded and the
/// caches are internally synchronized, so one workspace can serve requests
/// from many threads.
#[derive(Debug)]
pub struct Workspace {
    set_cache: Arc<CoveredSetCache>,
    output_cache: Arc<ContentCache<Tensor>>,
    disk: Option<Arc<DiskTier>>,
    models: Mutex<HashMap<NetworkFingerprint, ModelEntry>>,
    graphs: Mutex<HashMap<NetworkFingerprint, GraphEntry>>,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// An in-memory workspace with the default shared budget and no
    /// persistent tier.
    pub fn new() -> Self {
        Self::with_config(WorkspaceConfig::default())
    }

    /// A workspace with an explicit configuration.
    pub fn with_config(config: WorkspaceConfig) -> Self {
        let disk = if config.disk.enabled && config.cache_bytes > 0 {
            Some(Arc::new(
                DiskTier::new(config.disk.dir).with_max_bytes(config.disk.max_bytes),
            ))
        } else {
            None
        };
        Self {
            set_cache: Arc::new(CoveredSetCache::with_disk(config.cache_bytes, disk.clone())),
            output_cache: Arc::new(ContentCache::new(config.output_cache_bytes)),
            disk,
            models: Mutex::new(HashMap::new()),
            graphs: Mutex::new(HashMap::new()),
        }
    }

    /// A workspace whose persistent tier is resolved from the environment
    /// ([`DiskCacheConfig::from_env`]): the experiment binaries' default.
    pub fn from_env() -> Self {
        Self::with_config(WorkspaceConfig {
            disk: DiskCacheConfig::from_env(),
            ..WorkspaceConfig::default()
        })
    }

    /// The persistent tier's root directory, when the tier is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(|d| d.root())
    }

    /// Register a model under `name` with its base coverage configuration and
    /// return its fingerprint (the registry key).
    ///
    /// Registering a byte-identical network with the **same** coverage
    /// configuration is a no-op returning the same key. Re-registering it
    /// with a **different** configuration updates the entry (latest wins):
    /// the name and config are replaced and the model's minted evaluators are
    /// dropped from the registry, so later requests resolve against the new
    /// config — a conflicting registration is never silently discarded.
    /// Evaluator handles minted earlier keep the configuration they were
    /// built with.
    pub fn register(
        &self,
        name: impl Into<String>,
        network: impl Into<Arc<Network>>,
        coverage: CoverageConfig,
    ) -> NetworkFingerprint {
        let network = network.into();
        let fingerprint = NetworkFingerprint::of(&network);
        let mut models = self.models.lock().expect("workspace registry lock");
        match models.entry(fingerprint) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                if entry.coverage != coverage {
                    entry.name = name.into();
                    entry.coverage = coverage;
                    entry.evaluators.clear();
                }
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                vacant.insert(ModelEntry {
                    name: name.into(),
                    network,
                    coverage,
                    evaluators: HashMap::new(),
                });
            }
        }
        fingerprint
    }

    /// Register a **graph** model (typically one imported via
    /// `dnnip_graph::serialize`) under `name` and return the fingerprint it is
    /// addressable by in [`TestGenRequest::model`].
    ///
    /// Single-path graphs are lowered to their bit-identical [`Network`] and
    /// registered through [`Workspace::register`] — they get the full strategy
    /// and criterion surface (including the paper's parameter-gradient
    /// criterion) and are keyed by the **network** fingerprint. Non-sequential
    /// graphs (Add/Concat, branching) are stored in the graph registry keyed
    /// by [`Graph::fingerprint`]; requests against them run the forward-only
    /// graph path (see [`Workspace::run`]). Either way the model shares the
    /// workspace's covered-set cache budget and persistent tier.
    ///
    /// Re-registration follows the same latest-wins rule as
    /// [`Workspace::register`].
    pub fn register_graph(
        &self,
        name: impl Into<String>,
        graph: impl Into<Arc<Graph>>,
        coverage: CoverageConfig,
    ) -> NetworkFingerprint {
        let graph = graph.into();
        if graph.is_linear() {
            let network = graph
                .to_network()
                .expect("a linear graph always lowers to a Network");
            return self.register(name, network, coverage);
        }
        let fingerprint = graph.fingerprint();
        let mut graphs = self.graphs.lock().expect("workspace graph registry lock");
        graphs.insert(
            fingerprint,
            GraphEntry {
                name: name.into(),
                graph,
                coverage,
            },
        );
        fingerprint
    }

    /// The shared graph handle of a registered non-sequential graph model
    /// (`None` for unknown fingerprints *and* for linear graphs, which
    /// registration lowers into the network registry).
    pub fn graph(&self, model: NetworkFingerprint) -> Option<Arc<Graph>> {
        self.graphs
            .lock()
            .expect("workspace graph registry lock")
            .get(&model)
            .map(|entry| Arc::clone(&entry.graph))
    }

    /// Summaries of every registered model — sequential networks and graph
    /// models alike — sorted by name.
    pub fn models(&self) -> Vec<ModelInfo> {
        let mut out: Vec<ModelInfo> = {
            let models = self.models.lock().expect("workspace registry lock");
            models
                .iter()
                .map(|(&fingerprint, entry)| ModelInfo {
                    fingerprint,
                    name: entry.name.clone(),
                    num_parameters: entry.network.num_parameters(),
                    num_evaluators: entry.evaluators.len(),
                })
                .collect()
        };
        {
            let graphs = self.graphs.lock().expect("workspace graph registry lock");
            out.extend(graphs.iter().map(|(&fingerprint, entry)| ModelInfo {
                fingerprint,
                name: entry.name.clone(),
                num_parameters: entry.graph.num_parameters(),
                // Graph requests resolve criteria per run; no evaluator
                // handles are minted for them.
                num_evaluators: 0,
            }));
        }
        out.sort_unstable_by(|a, b| a.name.cmp(&b.name).then(a.fingerprint.cmp(&b.fingerprint)));
        out
    }

    /// The shared network handle of a registered model.
    pub fn network(&self, model: NetworkFingerprint) -> Option<Arc<Network>> {
        self.models
            .lock()
            .expect("workspace registry lock")
            .get(&model)
            .map(|entry| Arc::clone(&entry.network))
    }

    /// The registered base [`CoverageConfig`] of a model.
    pub fn coverage_config(&self, model: NetworkFingerprint) -> Option<CoverageConfig> {
        self.models
            .lock()
            .expect("workspace registry lock")
            .get(&model)
            .map(|entry| entry.coverage)
    }

    fn resolve_criterion(
        coverage: &CoverageConfig,
        spec: &CriterionSpec,
    ) -> Result<Arc<dyn CoverageCriterion>> {
        Ok(match spec {
            CriterionSpec::ModelDefault => Arc::new(ParamGradient::from_config(coverage)),
            CriterionSpec::Spec(s) => criterion_from_spec(s, coverage)?,
            CriterionSpec::Instance(c) => Arc::clone(c),
        })
    }

    /// The evaluator handle for `(model, criterion)` — minted on first use,
    /// then reused (and shared with every clone handed out before). All
    /// evaluators of the workspace share its caches and budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unregistered model or a
    /// malformed criterion spec.
    pub fn evaluator(
        &self,
        model: NetworkFingerprint,
        criterion: &CriterionSpec,
    ) -> Result<Evaluator> {
        loop {
            // Snapshot what construction needs under the lock, then build the
            // analyzer (and its engine, which transposes every weight matrix)
            // OUTSIDE it so a first-use mint never stalls other threads.
            let (network, coverage, resolved, digest) = {
                let models = self.models.lock().expect("workspace registry lock");
                let entry = models.get(&model).ok_or_else(|| CoreError::InvalidConfig {
                    reason: format!("model {model} is not registered in this workspace"),
                })?;
                let resolved = Self::resolve_criterion(&entry.coverage, criterion)?;
                let digest = criterion_digest(resolved.as_ref());
                if let Some(existing) = entry.evaluators.get(&digest) {
                    return Ok(existing.clone());
                }
                (Arc::clone(&entry.network), entry.coverage, resolved, digest)
            };
            let analyzer = CoverageAnalyzer::with_criterion(network, coverage, resolved);
            let evaluator = Evaluator::with_shared_caches(
                analyzer,
                model,
                Arc::clone(&self.set_cache),
                Arc::clone(&self.output_cache),
            );
            let mut models = self.models.lock().expect("workspace registry lock");
            let Some(entry) = models.get_mut(&model) else {
                return Err(CoreError::InvalidConfig {
                    reason: format!("model {model} is not registered in this workspace"),
                });
            };
            if entry.coverage != coverage {
                // A concurrent `register` replaced the config while we were
                // building; retry against the new registration.
                continue;
            }
            // A concurrent mint may have won the race; first insert wins so
            // every caller shares one handle.
            return Ok(entry.evaluators.entry(digest).or_insert(evaluator).clone());
        }
    }

    /// The evaluator under the model's default (parameter-gradient)
    /// criterion.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unregistered model.
    pub fn default_evaluator(&self, model: NetworkFingerprint) -> Result<Evaluator> {
        self.evaluator(model, &CriterionSpec::ModelDefault)
    }

    /// Run one declarative [`TestGenRequest`] end to end and report: the
    /// only way to generate tests.
    ///
    /// The request's criterion scores the coverage curve of every strategy.
    /// The neuron-coverage baseline selects by the covered sets of a
    /// [`NeuronActivation::default`] evaluator on the same model, minted
    /// from (and cached in) this workspace like any other.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unregistered model, a bad
    /// criterion spec or a zero budget, [`CoreError::EmptyCandidatePool`]
    /// when a selection strategy receives no candidates, and propagates
    /// coverage/gradient errors.
    pub fn run(&self, request: &TestGenRequest) -> Result<TestGenReport> {
        // Non-sequential graph models live in their own registry and run the
        // forward-only graph path; everything else is the network path below.
        let graph_entry = {
            let graphs = self.graphs.lock().expect("workspace graph registry lock");
            graphs
                .get(&request.model)
                .map(|entry| (entry.name.clone(), Arc::clone(&entry.graph), entry.coverage))
        };
        if let Some((name, graph, coverage)) = graph_entry {
            return self.run_graph(&name, &graph, &coverage, request);
        }
        let evaluator = self.evaluator(request.model, &request.criterion)?;
        let model_name = {
            let models = self.models.lock().expect("workspace registry lock");
            let entry = models
                .get(&request.model)
                .expect("model present: evaluator() just resolved it");
            entry.name.clone()
        };
        let start = Instant::now();
        let selector = if request.strategy == GenerationMethod::NeuronCoverageBaseline {
            let neuron = CriterionSpec::Instance(Arc::new(NeuronActivation::default()));
            self.evaluator(request.model, &neuron)?
        } else {
            evaluator.clone()
        };
        let tests = crate::generator::generate_tests(&evaluator, &selector, request)?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(TestGenReport {
            model: request.model,
            model_name,
            strategy: request.strategy,
            criterion_id: evaluator.criterion().id(),
            num_units: evaluator.num_units(),
            tests,
            wall_ms,
            cache: self.set_cache.stats(),
            disk: self.disk_stats(),
        })
    }

    /// One [`TestGenRequest`] against a non-sequential graph model: covered
    /// sets come from the criterion's graph hooks (cached under the graph
    /// fingerprint in the shared budget), selection reuses the exact greedy /
    /// random machinery of the network path, and the coverage curve is the
    /// same prefix-union density — so a request against a *lowered* copy of a
    /// linear graph is bit-identical on both paths (pinned by
    /// `tests/graph_equivalence.rs`).
    fn run_graph(
        &self,
        name: &str,
        graph: &Arc<Graph>,
        coverage: &CoverageConfig,
        request: &TestGenRequest,
    ) -> Result<TestGenReport> {
        if request.budget == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "max_tests must be at least 1".to_string(),
            });
        }
        let criterion = Self::resolve_criterion(coverage, &request.criterion)?;
        let Some(num_units) = criterion.num_units_graph(graph) else {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "criterion {:?} has no graph evaluation path, and graph model {name:?} is \
                     not sequential (it cannot lower to a Network); use a forward-only \
                     criterion such as neuron-activation or topk-neuron",
                    criterion.id()
                ),
            });
        };
        if !matches!(
            request.strategy,
            GenerationMethod::TrainingSetSelection | GenerationMethod::RandomSelection
        ) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "strategy {:?} needs the gradient engine, which only sequential models \
                     have; graph model {name:?} supports training-set-selection and \
                     random-selection",
                    request.strategy.name()
                ),
            });
        }
        if request.candidates.is_empty() {
            return Err(CoreError::EmptyCandidatePool);
        }
        let start = Instant::now();
        let sets = self.graph_activation_sets(
            request.model,
            graph,
            criterion.as_ref(),
            &request.candidates,
        )?;
        let selected: Vec<usize> = match request.strategy {
            GenerationMethod::TrainingSetSelection => {
                greedy_select_covered(&sets, num_units, request.budget)?.selected
            }
            // Identical draw to the network path's random strategy, so a
            // fixed seed selects the same indices on both.
            GenerationMethod::RandomSelection => {
                random_indices(request.candidates.len(), request.budget, request.seed)
            }
            _ => unreachable!("strategy gated above"),
        };
        let coverage_curve = prefix_curve(selected.iter().map(|&i| &*sets[i]), num_units);
        let tests = GeneratedTests {
            inputs: selected
                .iter()
                .map(|&i| request.candidates[i].clone())
                .collect(),
            coverage_curve,
            method: request.strategy,
            provenance: selected
                .iter()
                .map(|&i| TestSource::TrainingSample(i))
                .collect(),
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(TestGenReport {
            model: request.model,
            model_name: name.to_string(),
            strategy: request.strategy,
            criterion_id: criterion.id(),
            num_units,
            tests,
            wall_ms,
            cache: self.set_cache.stats(),
            disk: self.disk_stats(),
        })
    }

    /// Cache-aware covered-unit sets of `samples` evaluated through a
    /// criterion's graph hooks: entries live in the workspace's **shared**
    /// covered-set cache (and persistent tier) under
    /// `(graph fingerprint, sample hash, criterion digest)`, exactly like the
    /// network path's.
    fn graph_activation_sets(
        &self,
        fingerprint: NetworkFingerprint,
        graph: &Arc<Graph>,
        criterion: &dyn CoverageCriterion,
        samples: &[Tensor],
    ) -> Result<Vec<Arc<Bitset>>> {
        let compute = |chunk: &[Tensor]| -> Result<Vec<Bitset>> {
            criterion
                .covered_units_graph(graph, chunk)
                .expect("caller verified the criterion's graph path")
        };
        if self.set_cache.max_bytes() == 0 {
            return Ok(compute(samples)?.into_iter().map(Arc::new).collect());
        }
        let digest = criterion_digest(criterion);
        self.set_cache.get_or_compute(
            samples,
            |sample| CacheKey {
                net: fingerprint,
                sample: sample_hash(sample),
                criterion: digest,
            },
            criterion.id(),
            compute,
        )
    }

    /// Run a group of requests **coalesced**: candidate tensors are deduped
    /// across the group's pools by content hash, all missing covered-unit
    /// sets of each `(model × criterion key)` bucket are computed in one
    /// batched [`Evaluator::activation_sets`] pass, and then every request's
    /// strategy runs per-request with its own seed — so each report is
    /// **bit-identical** to a sequential [`Workspace::run`] of the same
    /// request (batch-of-N ≡ batch-of-1 is pinned, and selection consumes
    /// identical cached bitsets). Results come back **in request order**,
    /// failures in their own slots.
    ///
    /// Only pool-consuming strategies ([`GenerationMethod::consumes_pool`])
    /// contribute candidates to the warm pass, and the pass is skipped
    /// entirely when the covered-set cache is disabled — coalescing never
    /// computes a set that sequential execution would not.
    ///
    /// A group of one skips the warm pass and is exactly [`Workspace::run`].
    /// The returned [`CoalesceStats`] quantify what the group shared; the
    /// serving layer's dispatcher aggregates them into its `stats` counters.
    pub fn run_coalesced(
        &self,
        requests: &[TestGenRequest],
    ) -> (Vec<Result<TestGenReport>>, CoalesceStats) {
        let mut stats = CoalesceStats::default();
        if self.set_cache.max_bytes() > 0 && requests.len() > 1 {
            // Bucket request slots by the exact cache identity their
            // covered-unit sets live under (fingerprint × criterion digest,
            // quant-tagged) — the evaluator's own key derivation, so two
            // requests share a bucket iff they share cache entries. Requests
            // whose evaluator cannot be resolved are skipped here and report
            // their error from `run` below.
            let mut buckets: BTreeMap<(NetworkFingerprint, u64), (Evaluator, Vec<usize>)> =
                BTreeMap::new();
            for (i, request) in requests.iter().enumerate() {
                if !request.strategy.consumes_pool() || request.candidates.is_empty() {
                    continue;
                }
                let Ok(evaluator) = self.evaluator(request.model, &request.criterion) else {
                    continue;
                };
                buckets
                    .entry((request.model, evaluator.criterion_key()))
                    .or_insert_with(|| (evaluator, Vec::new()))
                    .1
                    .push(i);
            }
            for (evaluator, members) in buckets.values() {
                stats.groups += 1;
                let mut seen: HashSet<(u64, u64)> = HashSet::new();
                let mut unique: Vec<Tensor> = Vec::new();
                for &i in members {
                    for sample in &requests[i].candidates {
                        stats.pool_samples += 1;
                        if seen.insert(crate::eval::sample_hash(sample)) {
                            unique.push(sample.clone());
                        } else {
                            stats.shared_samples += 1;
                        }
                    }
                }
                // One batched pass fills the shared cache for the whole
                // bucket; a failure (e.g. shape mismatch) is not fatal here —
                // the owning request reports it from its own slot.
                let _ = evaluator.activation_sets(&unique);
            }
        }
        let reports = requests.iter().map(|request| self.run(request)).collect();
        (reports, stats)
    }

    /// Remove persistent-tier directories belonging to models that are
    /// **not** registered in this workspace (`None` when no tier is
    /// enabled). Only directories named by a parseable fingerprint are
    /// considered — the tier never deletes files it cannot have written.
    ///
    /// This is the long-running service's disk hygiene hook: models retired
    /// from the registry stop occupying cache space at the next vacuum.
    pub fn vacuum(&self) -> Option<VacuumStats> {
        let disk = self.disk.as_ref()?;
        let mut keep: HashSet<NetworkFingerprint> = self
            .models
            .lock()
            .expect("workspace registry lock")
            .keys()
            .copied()
            .collect();
        keep.extend(
            self.graphs
                .lock()
                .expect("workspace graph registry lock")
                .keys()
                .copied(),
        );
        Some(disk.vacuum(&keep))
    }

    /// Workspace-wide covered-set cache counters (all models, all criteria).
    pub fn cache_stats(&self) -> CacheStats {
        self.set_cache.stats()
    }

    /// Covered-set cache counters split by registered model.
    pub fn cache_stats_by_model(&self) -> Vec<(NetworkFingerprint, CacheStats)> {
        self.set_cache.stats_by_model()
    }

    /// Covered-set cache counters split by criterion id.
    pub fn cache_stats_by_criterion(&self) -> Vec<(&'static str, CacheStats)> {
        self.set_cache.stats_by_criterion()
    }

    /// Golden forward-output cache counters.
    pub fn output_cache_stats(&self) -> CacheStats {
        self.output_cache.stats()
    }

    /// Persistent-tier counters, when the tier is enabled.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|d| d.stats())
    }

    /// Drop every **in-memory** cached entry (disk entries survive; event
    /// counters survive). This is how the `workspace_sweep` bench isolates
    /// the disk-warm path inside one process.
    pub fn clear_memory_cache(&self) {
        self.set_cache.clear();
        self.output_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criterion::NeuronActivation;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn net(seed: u64) -> Network {
        zoo::tiny_mlp(6, 12, 4, Activation::Relu, seed).unwrap()
    }

    fn pool(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(&[6], |j| ((i * 6 + j) as f32 * 0.37).sin()))
            .collect()
    }

    #[test]
    fn registry_mints_and_reuses_evaluators() {
        let ws = Workspace::new();
        let a = ws.register("a", net(3), CoverageConfig::default());
        let b = ws.register("b", net(4), CoverageConfig::default());
        assert_ne!(a, b);
        // Re-registering the same bytes is a no-op.
        assert_eq!(ws.register("a-again", net(3), CoverageConfig::default()), a);
        let e1 = ws.default_evaluator(a).unwrap();
        let e2 = ws.default_evaluator(a).unwrap();
        assert_eq!(e1.fingerprint(), e2.fingerprint());
        let infos = ws.models();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].name, "a");
        assert_eq!(infos[0].num_evaluators, 1);
        assert!(ws.network(a).is_some());
        assert!(ws.coverage_config(b).is_some());
        assert!(ws
            .default_evaluator(NetworkFingerprint { lo: 1, hi: 2 })
            .is_err());
    }

    #[test]
    fn minted_evaluators_reuse_the_registry_fingerprint() {
        let ws = Workspace::new();
        let network = net(5);
        let model = ws.register("m", network.clone(), CoverageConfig::default());
        let lowered = ws.register_graph(
            "g",
            dnnip_graph::Graph::from(&net(6)),
            CoverageConfig::default(),
        );
        for spec in ["param-gradient", "neuron-activation:0.25"] {
            let spec = CriterionSpec::Spec(spec.into());
            let evaluator = ws.evaluator(model, &spec).unwrap();
            assert_eq!(evaluator.fingerprint(), NetworkFingerprint::of(&network));
            let evaluator = ws.evaluator(lowered, &spec).unwrap();
            assert_eq!(evaluator.fingerprint(), NetworkFingerprint::of(&net(6)));
        }
    }

    #[test]
    fn re_registering_with_a_different_config_updates_the_entry() {
        use crate::coverage::EpsilonPolicy;
        let ws = Workspace::new();
        let key = ws.register("m", net(3), CoverageConfig::default());
        ws.default_evaluator(key).unwrap();
        assert_eq!(ws.models()[0].num_evaluators, 1);
        // Latest registration wins: config + name replaced, evaluators reset.
        let strict = CoverageConfig {
            epsilon: EpsilonPolicy::Absolute(0.1),
            ..CoverageConfig::default()
        };
        assert_eq!(ws.register("m-strict", net(3), strict), key);
        assert_eq!(ws.coverage_config(key), Some(strict));
        let info = &ws.models()[0];
        assert_eq!(info.name, "m-strict");
        assert_eq!(info.num_evaluators, 0);
        // New default evaluators resolve against the NEW config.
        let evaluator = ws.default_evaluator(key).unwrap();
        assert_eq!(
            criterion_digest(evaluator.criterion().as_ref()),
            criterion_digest(&ParamGradient::from_config(&strict))
        );
        // Same-config re-registration stays a pure no-op.
        assert_eq!(ws.register("renamed", net(3), strict), key);
        assert_eq!(ws.models()[0].name, "m-strict");
        assert_eq!(ws.models()[0].num_evaluators, 1);
    }

    #[test]
    fn one_budget_is_shared_across_models_and_criteria() {
        let ws = Workspace::new();
        let a = ws.register("a", net(3), CoverageConfig::default());
        let b = ws.register("b", net(4), CoverageConfig::default());
        let ea = ws.default_evaluator(a).unwrap();
        let eb = ws.default_evaluator(b).unwrap();
        let en = ws
            .evaluator(a, &CriterionSpec::Spec("neuron-activation".into()))
            .unwrap();
        let samples = pool(6);
        ea.activation_sets(&samples).unwrap();
        eb.activation_sets(&samples).unwrap();
        en.activation_sets(&samples).unwrap();
        // All traffic lands in ONE cache...
        let total = ws.cache_stats();
        assert_eq!(total.misses, 18);
        assert_eq!(total.entries, 18);
        // ...with per-model and per-criterion splits.
        let by_model = ws.cache_stats_by_model();
        assert_eq!(by_model.len(), 2);
        assert_eq!(by_model.iter().map(|(_, s)| s.entries).sum::<usize>(), 18);
        assert_eq!(ws.set_cache.stats_for_model(a).entries, 12);
        assert_eq!(ws.set_cache.stats_for_model(b).entries, 6);
        let by_criterion = ws.cache_stats_by_criterion();
        assert_eq!(by_criterion.len(), 2);
        // Each evaluator's own view is the same shared cache.
        assert_eq!(ea.cache_stats(), total);
        assert_eq!(eb.cache_stats(), total);
    }

    #[test]
    fn run_selection_matches_the_evaluator_path() {
        let ws = Workspace::new();
        let model = ws.register("m", net(7), CoverageConfig::default());
        let candidates = pool(16);
        let report = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 5)
                    .with_candidates(candidates.clone()),
            )
            .unwrap();
        assert_eq!(report.model_name, "m");
        assert_eq!(report.criterion_id, "param-gradient");
        assert_eq!(report.tests.len(), report.tests.provenance.len());
        let evaluator = Evaluator::new(net(7), CoverageConfig::default());
        let sets = evaluator.activation_sets(&candidates).unwrap();
        let direct = greedy_select_covered(&sets, evaluator.num_units(), 5).unwrap();
        assert_eq!(report.selected_indices(), direct.selected);
        assert_eq!(
            report.final_coverage().to_bits(),
            direct.final_coverage().to_bits()
        );
        assert!(report.wall_ms >= 0.0);
        assert!(report.disk.is_none(), "no tier configured");
    }

    #[test]
    fn run_honors_criterion_specs_and_instances() {
        let ws = Workspace::new();
        let model = ws.register("m", net(9), CoverageConfig::default());
        let candidates = pool(10);
        let by_spec = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 3)
                    .with_criterion_spec("neuron-activation:0.25")
                    .with_candidates(candidates.clone()),
            )
            .unwrap();
        assert_eq!(by_spec.criterion_id, "neuron-activation");
        assert_eq!(by_spec.num_units, 12);
        let by_instance = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 3)
                    .with_criterion(Arc::new(NeuronActivation { threshold: 0.25 }))
                    .with_candidates(candidates),
            )
            .unwrap();
        // Same digest → same evaluator → warm second run, identical output.
        assert_eq!(by_spec.selected_indices(), by_instance.selected_indices());
        assert!(by_instance.cache.hits > 0);
        assert!(ws
            .run(&TestGenRequest::new(
                model,
                GenerationMethod::TrainingSetSelection,
                0
            ))
            .is_err());
        assert!(ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 3)
                    .with_criterion_spec("bogus")
            )
            .is_err());
    }

    #[test]
    fn synthesis_strategies_run_through_requests() {
        let ws = Workspace::new();
        let model = ws.register("m", net(5), CoverageConfig::default());
        let report = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::GradientBased, 4).with_gradgen(
                    GradGenConfig {
                        steps: 4,
                        ..GradGenConfig::default()
                    },
                ),
            )
            .unwrap();
        assert_eq!(report.tests.len(), 4);
        assert!(report.selected_indices().is_empty(), "pure synthesis");
        let combined = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::Combined, 6)
                    .with_gradgen(GradGenConfig {
                        steps: 4,
                        ..GradGenConfig::default()
                    })
                    .with_seed(3)
                    .with_candidates(pool(8)),
            )
            .unwrap();
        assert_eq!(combined.tests.len(), 6);
    }

    #[test]
    fn run_coalesced_matches_sequential_run_bit_for_bit() {
        let ws = Workspace::new();
        let m1 = ws.register("m1", net(3), CoverageConfig::default());
        let m2 = ws.register("m2", net(4), CoverageConfig::default());
        let shared = pool(10);
        // Overlapping pools, a second model, a non-pool strategy and a bad
        // slot — the shapes the serving dispatcher produces.
        let requests = vec![
            TestGenRequest::new(m1, GenerationMethod::TrainingSetSelection, 4)
                .with_candidates(shared.clone()),
            TestGenRequest::new(m1, GenerationMethod::TrainingSetSelection, 3)
                .with_candidates(shared[2..].to_vec())
                .with_seed(7),
            TestGenRequest::new(m2, GenerationMethod::TrainingSetSelection, 4)
                .with_candidates(shared.clone()),
            TestGenRequest::new(m1, GenerationMethod::RandomSelection, 3)
                .with_candidates(shared.clone())
                .with_seed(9),
            TestGenRequest::new(
                NetworkFingerprint { lo: 1, hi: 2 },
                GenerationMethod::TrainingSetSelection,
                2,
            ),
        ];
        // The sequential reference runs on its own cold workspace, so the
        // comparison is fresh-compute vs coalesced-cache end to end.
        let reference = Workspace::new();
        reference.register("m1", net(3), CoverageConfig::default());
        reference.register("m2", net(4), CoverageConfig::default());
        let sequential: Vec<Result<TestGenReport>> =
            requests.iter().map(|r| reference.run(r)).collect();
        let (coalesced, stats) = ws.run_coalesced(&requests);
        assert_eq!(coalesced.len(), requests.len());
        assert!(coalesced[4].is_err() && sequential[4].is_err());
        for (c, s) in coalesced.iter().zip(&sequential).take(4) {
            let (c, s) = (c.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(c.tests.inputs, s.tests.inputs);
            assert_eq!(c.selected_indices(), s.selected_indices());
            assert_eq!(c.final_coverage().to_bits(), s.final_coverage().to_bits());
            assert_eq!(c.criterion_id, s.criterion_id);
        }
        // m1's two selection pools overlap in 8 slots; m2's pool shares
        // nothing; the random-selection and error slots contribute nothing.
        assert_eq!(stats.groups, 2);
        assert_eq!(stats.pool_samples, 28);
        assert_eq!(stats.shared_samples, 8);
        // The shared warm pass really did collapse the duplicate computes:
        // m1 selection traffic cost 10 distinct sets, not 18.
        assert_eq!(ws.set_cache.stats_for_model(m1).entries, 10);
    }

    #[test]
    fn graph_models_register_and_run_forward_only_requests() {
        let ws = Workspace::new();
        let graph = dnnip_graph::zoo::residual_classifier(5).unwrap();
        let expected = graph.fingerprint();
        let model = ws.register_graph("residual", graph, CoverageConfig::default());
        assert_eq!(
            model, expected,
            "non-linear graphs key by graph fingerprint"
        );
        assert!(ws.graph(model).is_some());
        assert!(ws.network(model).is_none());
        let info = ws.models();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].name, "residual");
        assert!(info[0].num_parameters > 0);

        let candidates: Vec<Tensor> = (0..10)
            .map(|i| Tensor::from_fn(&[1, 8, 8], |j| ((i * 64 + j) as f32 * 0.11).sin()))
            .collect();
        let report = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 4)
                    .with_criterion_spec("neuron-activation:0.1")
                    .with_candidates(candidates.clone()),
            )
            .unwrap();
        assert_eq!(report.model_name, "residual");
        assert_eq!(report.criterion_id, "neuron-activation");
        assert!(report.num_units > 0);
        assert!(report.final_coverage() > 0.0);
        assert_eq!(report.tests.len(), report.selected_indices().len());
        // Second identical run is served from the shared covered-set cache.
        let again = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 4)
                    .with_criterion_spec("neuron-activation:0.1")
                    .with_candidates(candidates.clone()),
            )
            .unwrap();
        assert_eq!(again.selected_indices(), report.selected_indices());
        assert!(again.cache.hits >= candidates.len() as u64);

        // Random selection draws the same indices as the network strategy
        // would for the same seed.
        let random = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::RandomSelection, 3)
                    .with_criterion_spec("topk-neuron:2")
                    .with_seed(9)
                    .with_candidates(candidates.clone()),
            )
            .unwrap();
        assert_eq!(random.tests.len(), 3);

        // Gradient-needing criterion and synthesis strategies fail with
        // actionable messages instead of mis-scoring.
        let err = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 3)
                    .with_candidates(candidates.clone()),
            )
            .unwrap_err();
        assert!(err.to_string().contains("neuron-activation"), "{err}");
        let err = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::GradientBased, 3)
                    .with_criterion_spec("neuron-activation")
                    .with_candidates(candidates),
            )
            .unwrap_err();
        assert!(err.to_string().contains("training-set-selection"), "{err}");
    }

    #[test]
    fn linear_graphs_lower_into_the_network_registry() {
        let ws = Workspace::new();
        let network = net(13);
        let graph = dnnip_graph::Graph::from(&network);
        let model = ws.register_graph("lowered", graph, CoverageConfig::default());
        // The key is the NETWORK fingerprint: full strategy/criterion surface.
        assert_eq!(model, NetworkFingerprint::of(&network));
        assert!(ws.graph(model).is_none());
        assert!(ws.network(model).is_some());
        let report = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 3)
                    .with_candidates(pool(8)),
            )
            .unwrap();
        assert_eq!(report.criterion_id, "param-gradient");
        assert!(report.final_coverage() > 0.0);
    }

    #[test]
    fn vacuum_drops_only_unregistered_model_directories() {
        let dir = std::env::temp_dir().join(format!(
            "dnnip-ws-vacuum-{}-{:x}",
            std::process::id(),
            NetworkFingerprint::of_bytes(b"vacuum-test-salt").lo
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let candidates = pool(6);
        let stale = {
            // A first workspace caches entries for a model the second one
            // never registers.
            let ws = Workspace::with_config(WorkspaceConfig {
                disk: DiskCacheConfig::at(&dir),
                ..WorkspaceConfig::default()
            });
            let stale = ws.register("stale", net(21), CoverageConfig::default());
            ws.run(
                &TestGenRequest::new(stale, GenerationMethod::TrainingSetSelection, 2)
                    .with_candidates(candidates.clone()),
            )
            .unwrap();
            stale
        };
        let ws = Workspace::with_config(WorkspaceConfig {
            disk: DiskCacheConfig::at(&dir),
            ..WorkspaceConfig::default()
        });
        let kept = ws.register("kept", net(22), CoverageConfig::default());
        ws.run(
            &TestGenRequest::new(kept, GenerationMethod::TrainingSetSelection, 2)
                .with_candidates(candidates),
        )
        .unwrap();
        assert_ne!(stale, kept);
        let report = ws.vacuum().expect("tier enabled");
        assert_eq!(report.removed_models, 1);
        assert!(report.removed_bytes > 0);
        assert!(dir.join(format!("{kept}")).exists());
        assert!(!dir.join(format!("{stale}")).exists());
        // Without a tier there is nothing to vacuum.
        assert!(Workspace::new().vacuum().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_config_resolution_rules() {
        assert!(!DiskCacheConfig::disabled().enabled);
        let at = DiskCacheConfig::at("/tmp/x");
        assert!(at.enabled);
        assert_eq!(at.dir, PathBuf::from("/tmp/x"));
        assert_eq!(at.max_bytes, None);
        assert_eq!(
            DiskCacheConfig::at("/tmp/x")
                .with_max_bytes(Some(1 << 20))
                .max_bytes,
            Some(1 << 20)
        );
        // A zero cache budget disables the tier too (raw compute path).
        let ws = Workspace::with_config(WorkspaceConfig {
            cache_bytes: 0,
            disk: DiskCacheConfig::at(std::env::temp_dir().join("dnnip-never-used")),
            ..WorkspaceConfig::default()
        });
        assert!(ws.cache_dir().is_none());
        assert!(ws.disk_stats().is_none());
    }
}
