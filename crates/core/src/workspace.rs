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
//!   across models and criteria, and one set of counters covers them all
//!   ([`Workspace::cache_stats`]).
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_nn::Network;
use dnnip_tensor::Tensor;

use crate::coverage::CoverageConfig;
use crate::criterion::{
    criterion_digest, criterion_from_spec, CoverageCriterion, NeuronActivation, ParamGradient,
};
use crate::error::check_deadline;
use crate::eval::{CacheStats, CoveredSetCache, Evaluator, DEFAULT_CACHE_BYTES};
use crate::generator::{GeneratedTests, GenerationMethod};
use crate::gradgen::GradGenConfig;
use crate::persist::{DiskStats, DiskTier, VacuumStats};
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
    /// Persistent tier configuration.
    pub disk: DiskCacheConfig,
}

impl Default for WorkspaceConfig {
    fn default() -> Self {
        Self {
            cache_bytes: DEFAULT_CACHE_BYTES,
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
    /// When the request's answer stops being wanted: past it the run stops
    /// and fails with [`CoreError::DeadlineExceeded`] (`None`: no deadline).
    pub deadline: Option<Instant>,
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
            deadline: None,
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

    /// Set the deadline past which the run stops.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
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
/// from many threads. A panic while the registry lock is held (say, in a
/// caller-supplied criterion) leaves the registry whole — every insert or
/// replace completes under one guard — so later calls recover the lock and
/// go on.
#[derive(Debug)]
pub struct Workspace {
    set_cache: Arc<CoveredSetCache>,
    disk: Option<Arc<DiskTier>>,
    models: Mutex<HashMap<NetworkFingerprint, ModelEntry>>,
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
            set_cache: Arc::new(CoveredSetCache::new(config.cache_bytes, disk.clone())),
            disk,
            models: Mutex::new(HashMap::new()),
        }
    }

    /// The model registry, recovered if a panic poisoned its lock.
    fn registry(&self) -> MutexGuard<'_, HashMap<NetworkFingerprint, ModelEntry>> {
        self.models.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Register a model — a chain or a graph — under `name` with its base
    /// coverage configuration and return its fingerprint (the registry key).
    /// Every registered model runs every criterion and every strategy.
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
        let (name, network) = (name.into(), network.into());
        let fingerprint = NetworkFingerprint::of(&network);
        let mut models = self.registry();
        match models.entry(fingerprint) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                if entry.coverage != coverage {
                    entry.name = name;
                    entry.coverage = coverage;
                    entry.evaluators.clear();
                }
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                vacant.insert(ModelEntry {
                    name,
                    network,
                    coverage,
                    evaluators: HashMap::new(),
                });
            }
        }
        fingerprint
    }

    /// [`Workspace::register`], under the name older callers use for graph
    /// models.
    #[doc(hidden)]
    pub fn register_graph(
        &self,
        name: impl Into<String>,
        graph: impl Into<Arc<Network>>,
        coverage: CoverageConfig,
    ) -> NetworkFingerprint {
        self.register(name, graph, coverage)
    }

    /// Summaries of every registered model, sorted by name.
    pub fn models(&self) -> Vec<ModelInfo> {
        let mut out: Vec<ModelInfo> = self
            .registry()
            .iter()
            .map(|(&fingerprint, entry)| ModelInfo {
                fingerprint,
                name: entry.name.clone(),
                num_parameters: entry.network.num_parameters(),
                num_evaluators: entry.evaluators.len(),
            })
            .collect();
        out.sort_unstable_by(|a, b| a.name.cmp(&b.name).then(a.fingerprint.cmp(&b.fingerprint)));
        out
    }

    /// The shared network handle of a registered model.
    pub fn network(&self, model: NetworkFingerprint) -> Option<Arc<Network>> {
        self.registry()
            .get(&model)
            .map(|entry| Arc::clone(&entry.network))
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
            // evaluator (and its engine, which transposes every weight matrix)
            // OUTSIDE it so a first-use mint never stalls other threads.
            let (network, coverage, resolved, digest) = {
                let models = self.registry();
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
            let evaluator = Evaluator::with_shared_cache(
                network,
                model,
                coverage,
                resolved,
                Arc::clone(&self.set_cache),
            );
            let mut models = self.registry();
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
    /// A [`TestGenRequest::deadline`] is checked on entry, before each chunk
    /// of covered-set work, at each synthesis step, while waiting on another
    /// request's computation, and on exit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unregistered model, a bad
    /// criterion spec or a zero budget, [`CoreError::EmptyCandidatePool`]
    /// when a selection strategy receives no candidates,
    /// [`CoreError::DeadlineExceeded`] once the deadline passes, and
    /// propagates coverage/gradient errors.
    pub fn run(&self, request: &TestGenRequest) -> Result<TestGenReport> {
        check_deadline(request.deadline)?;
        let evaluator = self.evaluator(request.model, &request.criterion)?;
        let model_name = self
            .registry()
            .get(&request.model)
            .expect("model present: evaluator() just resolved it")
            .name
            .clone();
        let start = Instant::now();
        let selector = if request.strategy == GenerationMethod::NeuronCoverageBaseline {
            let neuron = CriterionSpec::Instance(Arc::new(NeuronActivation::default()));
            self.evaluator(request.model, &neuron)?
        } else {
            evaluator.clone()
        };
        let tests = crate::generator::generate_tests(&evaluator, &selector, request)?;
        check_deadline(request.deadline)?;
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
    /// A bucket's warm pass runs under the latest deadline of its members,
    /// and under none when any member has none.
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
            // covered-unit sets live under (fingerprint × criterion digest),
            // the evaluator's own key derivation, so two requests share a
            // bucket iff they share cache entries. Requests whose evaluator
            // cannot be resolved are skipped here and report their error from
            // `run` below.
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
                let mut unique_hashes: Vec<(u64, u64)> = Vec::new();
                for &i in members {
                    let pool = &requests[i].candidates;
                    for (sample, hash) in pool.iter().zip(crate::eval::sample_hashes(pool)) {
                        stats.pool_samples += 1;
                        if seen.insert(hash) {
                            unique.push(sample.clone());
                            unique_hashes.push(hash);
                        } else {
                            stats.shared_samples += 1;
                        }
                    }
                }
                let deadline = members
                    .iter()
                    .map(|&i| requests[i].deadline)
                    .collect::<Option<Vec<Instant>>>()
                    .and_then(|deadlines| deadlines.into_iter().max());
                // One batched pass fills the shared cache for the whole
                // bucket, keyed by the hashes the dedupe already took; a
                // failure (e.g. shape mismatch, deadline) is not fatal here —
                // the owning request reports it from its own slot.
                let _ = evaluator.activation_sets_hashed(&unique, unique_hashes, deadline);
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
        let keep: HashSet<NetworkFingerprint> = self.registry().keys().copied().collect();
        Some(disk.vacuum(&keep))
    }

    /// Workspace-wide covered-set cache counters (all models, all criteria).
    pub fn cache_stats(&self) -> CacheStats {
        self.set_cache.stats()
    }

    /// Persistent-tier counters, when the tier is enabled.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|d| d.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criterion::NeuronActivation;
    use crate::select::greedy_select_covered;
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
        assert!(ws
            .default_evaluator(NetworkFingerprint { lo: 1, hi: 2 })
            .is_err());
    }

    #[test]
    fn minted_evaluators_reuse_the_registry_fingerprint() {
        let ws = Workspace::new();
        let network = net(5);
        let model = ws.register("m", network.clone(), CoverageConfig::default());
        let lowered = ws.register_graph("g", net(6), CoverageConfig::default());
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
        // All traffic lands in ONE cache.
        let total = ws.cache_stats();
        assert_eq!(total.misses, 18);
        assert_eq!(total.entries, 18);
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
        // m1 selection traffic cost 10 distinct sets, not 18, and m2's 10.
        let stats = ws.cache_stats();
        assert_eq!((stats.misses, stats.entries), (20, 20));
    }

    fn residual_pool(n: usize, salt: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(&[1, 8, 8], |j| (((i + salt) * 64 + j) as f32 * 0.11).sin()))
            .collect()
    }

    #[test]
    fn graph_models_register_and_run_forward_only_requests() {
        let ws = Workspace::new();
        let graph = zoo::residual_classifier(5).unwrap();
        let expected = NetworkFingerprint::of(&graph);
        let model = ws.register_graph("residual", graph, CoverageConfig::default());
        assert_eq!(model, expected, "graphs key by their fingerprint");
        assert!(ws.network(model).is_some());
        let info = ws.models();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].name, "residual");
        assert_eq!(info[0].num_parameters, 986);

        let candidates = residual_pool(10, 0);
        let report = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 4)
                    .with_criterion_spec("neuron-activation:0.1")
                    .with_candidates(candidates.clone()),
            )
            .unwrap();
        assert_eq!(report.model_name, "residual");
        assert_eq!(report.criterion_id, "neuron-activation");
        assert_eq!(report.num_units, 768);
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

        let random = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::RandomSelection, 3)
                    .with_criterion_spec("topk-neuron:2")
                    .with_seed(9)
                    .with_candidates(candidates),
            )
            .unwrap();
        assert_eq!(random.tests.len(), 3);
    }

    #[test]
    fn run_coalesced_shares_overlapping_graph_pools() {
        let ws = Workspace::new();
        let model = ws.register(
            "residual",
            zoo::residual_classifier(5).unwrap(),
            CoverageConfig::default(),
        );
        let pool = residual_pool(12, 0);
        let requests: Vec<TestGenRequest> = [pool.clone(), pool[4..].to_vec()]
            .into_iter()
            .map(|candidates| {
                TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 3)
                    .with_candidates(candidates)
            })
            .collect();
        let (reports, stats) = ws.run_coalesced(&requests);
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.shared_samples, 8);
        let reference = Workspace::new();
        reference.register(
            "residual",
            zoo::residual_classifier(5).unwrap(),
            CoverageConfig::default(),
        );
        for (report, request) in reports.iter().zip(&requests) {
            let alone = reference.run(request).unwrap();
            let report = report.as_ref().unwrap();
            assert_eq!(report.selected_indices(), alone.selected_indices());
            assert_eq!(report.tests.coverage_curve, alone.tests.coverage_curve);
        }
    }

    #[test]
    fn linear_graphs_lower_into_the_network_registry() {
        // A chain written through the graph builder is the same model as
        // `Network::new` builds: one fingerprint, one registry entry.
        let network = net(13);
        let mut b = dnnip_nn::graph::GraphBuilder::new(network.input_shape());
        let mut prev = 0;
        for layer in network.layers() {
            prev = b.layer(prev, layer.clone()).unwrap();
        }
        let built = b.finish().unwrap();
        let ws = Workspace::new();
        let model = ws.register_graph("built", built, CoverageConfig::default());
        assert_eq!(model, NetworkFingerprint::of(&network));
        assert_eq!(
            ws.register("chain", network, CoverageConfig::default()),
            model
        );
        assert_eq!(ws.models().len(), 1);
        let report = ws
            .run(
                &TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 3)
                    .with_candidates(pool(8)),
            )
            .unwrap();
        assert_eq!(report.criterion_id, "param-gradient");
        assert!(report.final_coverage() > 0.0);
    }

    /// A criterion whose configuration digest panics: the registry lock is
    /// held while a request's criterion is resolved and digested.
    #[derive(Debug)]
    struct PanickingDigest;

    impl CoverageCriterion for PanickingDigest {
        fn id(&self) -> &'static str {
            "panicking-digest"
        }
        fn config_digest(&self) -> u64 {
            panic!("digest failed")
        }
        fn num_units(&self, network: &Network) -> usize {
            network.num_parameters()
        }
        fn covered_units(
            &self,
            _: &dnnip_nn::batch::BatchGradientEngine,
            _: &[Tensor],
        ) -> Result<Vec<crate::bitset::Bitset>> {
            unreachable!("never minted")
        }
    }

    #[test]
    fn a_panic_under_the_registry_lock_does_not_poison_the_workspace() {
        let ws = Workspace::new();
        let first = ws.register("first", net(3), CoverageConfig::default());
        let spec = CriterionSpec::Instance(Arc::new(PanickingDigest));
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ws.evaluator(first, &spec)));
        assert!(caught.is_err(), "the digest panicked under the lock");
        assert!(ws.models.is_poisoned());

        // Another model still registers, mints and runs, bit-identical to a
        // fresh workspace.
        let request = |model| {
            TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 4)
                .with_candidates(pool(12))
        };
        let second = ws.register("second", net(4), CoverageConfig::default());
        ws.default_evaluator(second).unwrap();
        let report = ws.run(&request(second)).unwrap();
        let fresh = Workspace::new();
        let alone = fresh
            .run(&request(fresh.register(
                "second",
                net(4),
                CoverageConfig::default(),
            )))
            .unwrap();
        assert_eq!(report.selected_indices(), alone.selected_indices());
        assert_eq!(
            report.final_coverage().to_bits(),
            alone.final_coverage().to_bits()
        );
        assert_eq!(ws.models().len(), 2);
        assert!(ws.run(&request(first)).is_ok());
        assert!(ws.vacuum().is_none());
    }

    /// Covered-set chunks take [`SLEEPY_PAUSE`] each and count themselves;
    /// every set is empty.
    #[derive(Debug, Default)]
    struct Sleepy {
        chunks: std::sync::atomic::AtomicUsize,
    }

    const SLEEPY_PAUSE: std::time::Duration = std::time::Duration::from_millis(20);

    impl CoverageCriterion for Sleepy {
        fn id(&self) -> &'static str {
            "sleepy"
        }
        fn config_digest(&self) -> u64 {
            0
        }
        fn num_units(&self, network: &Network) -> usize {
            network.num_parameters()
        }
        fn covered_units(
            &self,
            engine: &dnnip_nn::batch::BatchGradientEngine,
            chunk: &[Tensor],
        ) -> Result<Vec<crate::bitset::Bitset>> {
            self.chunks
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            std::thread::sleep(SLEEPY_PAUSE);
            let units = engine.network().num_parameters();
            Ok(vec![crate::bitset::Bitset::new(units); chunk.len()])
        }
    }

    #[test]
    fn a_deadline_stops_the_covered_set_chunks() {
        use std::sync::atomic::Ordering;
        use std::time::Duration;

        // 16 chunks of 4 samples over two workers: 160 ms of work.
        let workers = 2;
        let ws = Workspace::new();
        let coverage = CoverageConfig {
            exec: crate::par::ExecPolicy::Threads(workers),
            batch_size: 4,
            ..CoverageConfig::default()
        };
        let model = ws.register("m", net(3), coverage);
        let sleepy = Arc::new(Sleepy::default());
        let start = Instant::now();
        let request = TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 4)
            .with_criterion(Arc::clone(&sleepy) as Arc<dyn CoverageCriterion>)
            .with_candidates(pool(64))
            .with_deadline(start + Duration::from_millis(50));
        assert!(matches!(ws.run(&request), Err(CoreError::DeadlineExceeded)));
        let elapsed = start.elapsed();
        let chunks = sleepy.chunks.load(Ordering::SeqCst);
        // A worker starts a chunk only before the deadline and sleeps
        // through each one it starts.
        let per_worker = (elapsed.as_millis() / SLEEPY_PAUSE.as_millis()) as usize + 1;
        assert!(
            chunks <= per_worker * workers,
            "{chunks} chunks in {elapsed:?}"
        );
        assert!(chunks < 16, "every chunk ran");
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            sleepy.chunks.load(Ordering::SeqCst),
            chunks,
            "chunks went on after the run returned"
        );
        // A request already past its deadline stops on entry.
        let late = request.with_deadline(start);
        assert!(matches!(ws.run(&late), Err(CoreError::DeadlineExceeded)));
        assert_eq!(sleepy.chunks.load(Ordering::SeqCst), chunks);
    }

    #[test]
    fn a_coalesced_warm_pass_runs_under_the_latest_member_deadline() {
        use std::sync::atomic::Ordering;
        use std::time::Duration;

        // One serial pool of 16 chunks: 320 ms of warm pass.
        let ws = Workspace::new();
        let coverage = CoverageConfig {
            batch_size: 4,
            ..CoverageConfig::default()
        };
        let model = ws.register("m", net(3), coverage);
        let sleepy = Arc::new(Sleepy::default());
        let request = TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 2)
            .with_criterion(Arc::clone(&sleepy) as Arc<dyn CoverageCriterion>)
            .with_candidates(pool(64));
        let start = Instant::now();
        let group = [
            request
                .clone()
                .with_deadline(start + Duration::from_millis(10)),
            request
                .clone()
                .with_deadline(start + Duration::from_millis(200)),
        ];
        let (reports, _) = ws.run_coalesced(&group);
        assert!(reports
            .iter()
            .all(|r| matches!(r, Err(CoreError::DeadlineExceeded))));
        // The pass ran past the earlier deadline and stopped at the later.
        let chunks = sleepy.chunks.load(Ordering::SeqCst);
        assert!((3..16).contains(&chunks), "{chunks} chunks");
        // A member without a deadline lifts it from the whole pass.
        let start = Instant::now();
        let group = [
            request
                .clone()
                .with_deadline(start + Duration::from_millis(10)),
            request,
        ];
        let (reports, _) = ws.run_coalesced(&group);
        assert!(matches!(reports[0], Err(CoreError::DeadlineExceeded)));
        assert!(reports[1].is_ok());
        assert_eq!(sleepy.chunks.load(Ordering::SeqCst), chunks + 16);
    }

    /// Holds its one chunk until the test releases it (or ten seconds pass),
    /// after saying that it has begun.
    #[derive(Debug)]
    struct Gated {
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl CoverageCriterion for Gated {
        fn id(&self) -> &'static str {
            "gated"
        }
        fn config_digest(&self) -> u64 {
            0
        }
        fn num_units(&self, network: &Network) -> usize {
            network.num_parameters()
        }
        fn covered_units(
            &self,
            engine: &dnnip_nn::batch::BatchGradientEngine,
            chunk: &[Tensor],
        ) -> Result<Vec<crate::bitset::Bitset>> {
            self.entered.lock().unwrap().send(()).unwrap();
            // Bounded, so a waiter that never gives up fails the test
            // instead of hanging it.
            let release = self.release.lock().unwrap();
            let _ = release.recv_timeout(std::time::Duration::from_secs(10));
            let units = engine.network().num_parameters();
            Ok(vec![crate::bitset::Bitset::new(units); chunk.len()])
        }
    }

    #[test]
    fn a_request_parked_on_an_in_flight_key_gives_up_at_its_deadline() {
        use std::sync::mpsc;
        use std::time::Duration;

        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let gated = Arc::new(Gated {
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        });
        let ws = Workspace::new();
        let model = ws.register("m", net(3), CoverageConfig::default());
        let request = TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, 2)
            .with_criterion(gated)
            .with_candidates(pool(4));
        std::thread::scope(|scope| {
            let owner = scope.spawn(|| ws.run(&request));
            // The owner has claimed every key of the pool and is computing.
            entered_rx.recv().unwrap();
            let start = Instant::now();
            let deadline = start + Duration::from_millis(50);
            let parked = ws.run(&request.clone().with_deadline(deadline));
            assert!(matches!(parked, Err(CoreError::DeadlineExceeded)));
            assert!(start.elapsed() >= Duration::from_millis(50));
            assert!(!owner.is_finished(), "the owner was still computing");
            release_tx.send(()).unwrap();
            assert!(owner.join().unwrap().is_ok());
        });
    }

    #[test]
    fn a_deadline_stops_gradient_synthesis() {
        use std::time::Duration;

        let ws = Workspace::new();
        let model = ws.register("m", net(5), CoverageConfig::default());
        // 200,000 steps: seconds of descent without the deadline.
        let request = TestGenRequest::new(model, GenerationMethod::GradientBased, 4).with_gradgen(
            GradGenConfig {
                steps: 200_000,
                ..GradGenConfig::default()
            },
        );
        let start = Instant::now();
        let result = ws.run(&request.with_deadline(start + Duration::from_millis(50)));
        assert!(matches!(result, Err(CoreError::DeadlineExceeded)));
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(50));
        assert!(
            elapsed < Duration::from_secs(2),
            "stopped late: {elapsed:?}"
        );
    }

    #[test]
    fn vacuum_drops_only_unregistered_model_directories() {
        let dir = std::env::temp_dir().join(format!("dnnip-ws-vacuum-{}", std::process::id()));
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
        });
        assert!(ws.cache_dir().is_none());
        assert!(ws.disk_stats().is_none());
    }
}
