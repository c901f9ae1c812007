//! The service engine: one shared [`Workspace`] behind a bounded worker
//! pool, with per-request deadlines and a graceful drain.
//!
//! `generate` requests flow through a bounded `sync_channel` — a full queue
//! blocks the submitter, which is the service's backpressure — and are
//! picked up by a fixed set of worker threads sharing one workspace, so
//! concurrent requests against the same model reuse each other's cached
//! activation sets. Control operations (`models`/`stats`/`vacuum`) are
//! answered inline by the submitting thread: they only read counters and
//! must not queue behind minute-long generations.
//!
//! A worker runs every job it takes through one dispatcher: the jobs it
//! pulled together (a batch of one unless `max_batch > 1`) go through
//! [`Workspace::run_coalesced`], which runs a lone request exactly as
//! [`Workspace::run`] does.
//!
//! Deadlines have two trip points. A request whose deadline expired while it
//! sat in the queue is failed **without computing anything**. A live request
//! carries its deadline into the workspace, which checks it between chunks
//! of covered-set work and at every synthesis step and stops there: the
//! worker answers it with a structured `"kind":"timeout"` error and takes
//! its next job, and no work of the request goes on in the background. Every
//! job runs inline on its worker; the worker threads are the only threads the
//! engine starts. In a coalesced batch the members run one after another: a
//! member starts once the members ahead of it finish or time out, and every
//! member is answered when the whole batch has.
//!
//! A panic inside the grouped call does not take the worker down: every job
//! of that batch gets a structured `"kind":"internal"` error, and the worker
//! goes on draining the queue.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dnnip_core::workspace::{TestGenReport, TestGenRequest, Workspace, WorkspaceConfig};
use dnnip_core::CoreError;
use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_tensor::Tensor;

use crate::json::{obj, Json};
use crate::protocol::{
    build_model, parse_request, GenerateSpec, PoolSpec, RequestOp, ServeRequest, BUILTIN_MODELS,
};

/// Synthetic pools already materialized while resolving one batch, keyed by
/// (model, size, seed). Synthesis is deterministic, so handing a later
/// batch member a clone is bit-identical to re-materializing — it just
/// skips regenerating every sample of a pool the batch already built.
type PoolMemo = HashMap<(String, usize, u64), Vec<Tensor>>;

/// Engine tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads executing `generate` requests.
    pub workers: usize,
    /// Queue slots between submitter and workers; a full queue blocks the
    /// submitter (backpressure, not unbounded buffering).
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms` (`None` = no default deadline).
    pub default_deadline_ms: Option<u64>,
    /// Maximum `generate` jobs one worker pulls into a single coalesced
    /// batch. `1` (the default) disables coalescing: every job runs as a
    /// batch of one.
    pub max_batch: usize,
    /// How long a worker lingers on the queue for more jobs after receiving
    /// the first of a batch, in milliseconds. `0` (the default) grabs only
    /// the backlog already queued and never waits.
    pub batch_window_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 64,
            default_deadline_ms: None,
            max_batch: 1,
            batch_window_ms: 0,
        }
    }
}

/// One registered model, as the engine needs it at request time.
#[derive(Debug)]
struct RegisteredModel {
    name: String,
    key: NetworkFingerprint,
    input_shape: Vec<usize>,
    num_parameters: usize,
}

/// Running totals of what the coalescing dispatcher has shared so far
/// (one [`Engine`]'s lifetime; also surfaced by the `stats` operation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceSnapshot {
    /// Grouped engine calls that executed **two or more** requests at once.
    pub batches: u64,
    /// Requests executed inside those batches.
    pub requests: u64,
    /// Candidate-pool slots whose covered-unit sets were computed once for a
    /// whole batch instead of once per request (cross-request dedup).
    pub shared_samples: u64,
}

impl CoalesceSnapshot {
    /// Mean requests per coalesced batch (0 when no batch formed yet).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

#[derive(Debug, Default)]
struct CoalesceCounters {
    batches: AtomicU64,
    requests: AtomicU64,
    shared_samples: AtomicU64,
}

impl CoalesceCounters {
    fn snapshot(&self) -> CoalesceSnapshot {
        CoalesceSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            shared_samples: self.shared_samples.load(Ordering::Relaxed),
        }
    }
}

/// State shared between submitters and workers.
#[derive(Debug)]
struct ServiceState {
    workspace: Workspace,
    models: Vec<RegisteredModel>,
    coalesce: CoalesceCounters,
}

impl ServiceState {
    fn model(&self, name: &str) -> Option<&RegisteredModel> {
        self.models.iter().find(|m| m.name == name)
    }
}

/// A queued `generate` request.
struct Job {
    id: String,
    spec: GenerateSpec,
    enqueued: Instant,
    deadline: Option<Duration>,
    out: mpsc::Sender<String>,
}

/// What [`Engine::handle`] tells the serving loop to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Handled {
    /// Keep reading requests.
    Continue,
    /// A `shutdown` request arrived: stop reading, drain, then send the
    /// shutdown response (carrying this id) as the final line.
    Shutdown {
        /// The shutdown request's correlation id.
        id: String,
    },
}

/// The long-lived service engine. See the module docs for the concurrency
/// and deadline model.
#[derive(Debug)]
pub struct Engine {
    state: Arc<ServiceState>,
    default_deadline_ms: Option<u64>,
    jobs: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Build an engine over `workspace` (the builtin model zoo is registered
    /// into it) and start the worker pool.
    pub fn new(workspace: Workspace, config: EngineConfig) -> Self {
        let mut models = Vec::with_capacity(BUILTIN_MODELS.len());
        for &name in BUILTIN_MODELS {
            let (network, coverage) = build_model(name).expect("builtin model");
            let input_shape = network.input_shape().to_vec();
            let num_parameters = network.num_parameters();
            let key = workspace.register(name, network, coverage);
            models.push(RegisteredModel {
                name: name.to_string(),
                key,
                input_shape,
                num_parameters,
            });
        }
        let state = Arc::new(ServiceState {
            workspace,
            models,
            coalesce: CoalesceCounters::default(),
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let max_batch = config.max_batch.max(1);
        let batch_window = Duration::from_millis(config.batch_window_ms);
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("dnnip-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state, &rx, max_batch, batch_window))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            state,
            default_deadline_ms: config.default_deadline_ms,
            jobs: Some(tx),
            workers,
        }
    }

    /// An engine over a fresh environment-configured workspace
    /// ([`Workspace::from_env`]) — what the binary runs.
    pub fn from_env(config: EngineConfig) -> Self {
        Self::new(Workspace::from_env(), config)
    }

    /// An engine over a fresh in-memory workspace (no persistent tier).
    pub fn in_memory(config: EngineConfig) -> Self {
        Self::new(Workspace::with_config(WorkspaceConfig::default()), config)
    }

    /// Handle one request line: control operations are answered inline
    /// through `out`; `generate` is enqueued (blocking when the queue is
    /// full) and answered later through the same channel; `shutdown` sends
    /// nothing and returns [`Handled::Shutdown`] so the caller can drain
    /// first and acknowledge last.
    pub fn handle(&self, line: &str, out: &mpsc::Sender<String>) -> Handled {
        let request = match parse_request(line) {
            Ok(request) => request,
            Err(e) => {
                let _ = out.send(error_response(&e.id, "bad_request", &e.message).to_string());
                return Handled::Continue;
            }
        };
        let ServeRequest { id, op } = request;
        match op {
            RequestOp::Shutdown => return Handled::Shutdown { id },
            RequestOp::Models => {
                let _ = out.send(self.models_response(&id).to_string());
            }
            RequestOp::Stats => {
                let _ = out.send(self.stats_response(&id).to_string());
            }
            RequestOp::Vacuum => {
                let _ = out.send(self.vacuum_response(&id).to_string());
            }
            RequestOp::Generate(spec) => {
                let deadline = spec
                    .deadline_ms
                    .or(self.default_deadline_ms)
                    .map(Duration::from_millis);
                let job = Job {
                    id,
                    spec: *spec,
                    enqueued: Instant::now(),
                    deadline,
                    out: out.clone(),
                };
                if let Some(jobs) = &self.jobs {
                    if let Err(
                        mpsc::TrySendError::Full(job) | mpsc::TrySendError::Disconnected(job),
                    ) = jobs.try_send(job)
                    {
                        // Queue full: block — backpressure is the contract.
                        if let Err(e) = jobs.send(job) {
                            let job = e.0;
                            let _ = job.out.send(
                                error_response(&job.id, "internal", "worker pool is gone")
                                    .to_string(),
                            );
                        }
                    }
                }
            }
        }
        Handled::Continue
    }

    /// Stop accepting work, wait for every queued and in-flight request to
    /// finish and deliver its response, then return the final coalescing
    /// totals.
    pub fn drain(mut self) -> CoalesceSnapshot {
        self.jobs.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.state.coalesce.snapshot()
    }

    /// [`Engine::drain`], additionally returning the final activation-set
    /// cache statistics — for harnesses that report cache residency
    /// alongside the coalescing totals.
    pub fn drain_with_cache_stats(self) -> (CoalesceSnapshot, dnnip_core::eval::CacheStats) {
        let state = Arc::clone(&self.state);
        let coalesce = self.drain();
        (coalesce, state.workspace.cache_stats())
    }

    fn models_response(&self, id: &str) -> Json {
        let models = self
            .state
            .models
            .iter()
            .map(|m| {
                obj(vec![
                    ("name", Json::Str(m.name.clone())),
                    ("fingerprint", Json::Str(m.key.to_string())),
                    (
                        "input_shape",
                        Json::Arr(m.input_shape.iter().map(|&d| Json::Num(d as f64)).collect()),
                    ),
                    ("num_parameters", Json::Num(m.num_parameters as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("id", Json::Str(id.to_string())),
            ("ok", Json::Bool(true)),
            ("models", Json::Arr(models)),
        ])
    }

    fn stats_response(&self, id: &str) -> Json {
        let cache = self.state.workspace.cache_stats();
        let coalesce = self.state.coalesce.snapshot();
        let disk = match self.state.workspace.disk_stats() {
            Some(d) => obj(vec![
                ("hits", Json::Num(d.hits as f64)),
                ("misses", Json::Num(d.misses as f64)),
                ("writes", Json::Num(d.writes as f64)),
                ("write_errors", Json::Num(d.write_errors as f64)),
                ("evictions", Json::Num(d.evictions as f64)),
                ("resident_bytes", Json::Num(d.resident_bytes as f64)),
            ]),
            None => Json::Null,
        };
        obj(vec![
            ("id", Json::Str(id.to_string())),
            ("ok", Json::Bool(true)),
            (
                "cache",
                obj(vec![
                    ("hits", Json::Num(cache.hits as f64)),
                    ("misses", Json::Num(cache.misses as f64)),
                    ("flight_hits", Json::Num(cache.flight_hits as f64)),
                    ("insertions", Json::Num(cache.insertions as f64)),
                    ("evictions", Json::Num(cache.evictions as f64)),
                    ("entries", Json::Num(cache.entries as f64)),
                    ("bytes", Json::Num(cache.bytes as f64)),
                    ("resident_bytes", Json::Num(cache.resident_bytes as f64)),
                    ("bytes_per_entry", Json::Num(cache.bytes_per_entry())),
                ]),
            ),
            (
                "coalesce",
                obj(vec![
                    ("batches", Json::Num(coalesce.batches as f64)),
                    ("requests", Json::Num(coalesce.requests as f64)),
                    ("mean_batch_size", Json::Num(coalesce.mean_batch_size())),
                    ("shared_samples", Json::Num(coalesce.shared_samples as f64)),
                ]),
            ),
            ("disk", disk),
        ])
    }

    fn vacuum_response(&self, id: &str) -> Json {
        let vacuum = match self.state.workspace.vacuum() {
            Some(v) => obj(vec![
                ("removed_models", Json::Num(v.removed_models as f64)),
                ("removed_files", Json::Num(v.removed_files as f64)),
                ("removed_bytes", Json::Num(v.removed_bytes as f64)),
            ]),
            None => Json::Null,
        };
        obj(vec![
            ("id", Json::Str(id.to_string())),
            ("ok", Json::Bool(true)),
            ("vacuum", vacuum),
        ])
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // A dropped (not drained) engine still stops its workers; queued
        // jobs run to completion first because the channel drains on close.
        self.jobs.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The acknowledgement sent after a drain completes.
pub fn shutdown_response(id: &str) -> String {
    obj(vec![
        ("id", Json::Str(id.to_string())),
        ("ok", Json::Bool(true)),
        ("shutdown", Json::Bool(true)),
    ])
    .to_string()
}

/// A structured error response line.
pub fn error_response(id: &str, kind: &str, message: &str) -> Json {
    obj(vec![
        ("id", Json::Str(id.to_string())),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str(kind.to_string())),
                ("message", Json::Str(message.to_string())),
            ]),
        ),
    ])
}

fn worker_loop(
    state: &Arc<ServiceState>,
    rx: &Arc<Mutex<Receiver<Job>>>,
    max_batch: usize,
    batch_window: Duration,
) {
    loop {
        // Hold the lock only while receiving: a worker must not serialize
        // the others for the duration of its compute. With `max_batch > 1`
        // the worker opportunistically drains the backlog behind its first
        // job (lingering up to `batch_window` for stragglers) — holding the
        // lock through the linger is deliberate, since the jobs a sibling
        // worker would steal are exactly the ones this batch coalesces.
        let jobs = {
            // A receiver is whole whatever a panicking holder was doing.
            let queue = rx.lock().unwrap_or_else(PoisonError::into_inner);
            let first = match queue.recv() {
                Ok(job) => job,
                Err(_) => return, // channel closed: drain complete
            };
            let mut jobs = vec![first];
            if max_batch > 1 {
                let linger_until = Instant::now() + batch_window;
                while jobs.len() < max_batch {
                    match queue.try_recv() {
                        Ok(job) => jobs.push(job),
                        Err(mpsc::TryRecvError::Empty) => {
                            let now = Instant::now();
                            if now >= linger_until {
                                break;
                            }
                            match queue.recv_timeout(linger_until - now) {
                                Ok(job) => jobs.push(job),
                                Err(_) => break,
                            }
                        }
                        Err(mpsc::TryRecvError::Disconnected) => break,
                    }
                }
            }
            jobs
        };
        process_batch(state, jobs);
    }
}

/// Execute the jobs a worker took (one or more): fail jobs whose deadline
/// already expired in queue, resolve the rest into workspace requests, and
/// issue **one** grouped [`Workspace::run_coalesced`] call on this worker —
/// which buckets by (model fingerprint × criterion digest) internally and
/// dedupes candidate tensors across each bucket's pools. A batch of one is
/// the degenerate case: `run_coalesced` then skips the warm pass.
fn process_batch(state: &Arc<ServiceState>, jobs: Vec<Job>) {
    // Specs that cannot resolve (unknown model, bad pool) are answered now
    // and drop out of the grouped call.
    let mut members: Vec<Job> = Vec::with_capacity(jobs.len());
    let mut requests: Vec<TestGenRequest> = Vec::with_capacity(jobs.len());
    let mut pool_memo = PoolMemo::new();
    for job in jobs {
        if let Some(deadline) = job.deadline {
            if job.enqueued.elapsed() >= deadline {
                // Expired while queued: fail before spending any compute.
                let _ = job.out.send(
                    error_response(
                        &job.id,
                        "timeout",
                        &format!("deadline of {} ms expired in queue", deadline.as_millis()),
                    )
                    .to_string(),
                );
                continue;
            }
        }
        match build_request(state, &job.id, &job.spec, &mut pool_memo) {
            Ok(mut request) => {
                if let Some(deadline) = job.deadline {
                    request = request.with_deadline(job.enqueued + deadline);
                }
                requests.push(request);
                members.push(job);
            }
            Err(response) => {
                let _ = job.out.send(response.to_string());
            }
        }
    }
    match members.len() {
        0 => return,
        // A lone job is not a coalesced batch: the counters track sharing.
        1 => {}
        n => {
            state.coalesce.batches.fetch_add(1, Ordering::Relaxed);
            state
                .coalesce
                .requests
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }
    // A panic inside the grouped call is caught here, so the worker survives
    // to answer every member and take the next job.
    match catch_unwind(AssertUnwindSafe(|| {
        state.workspace.run_coalesced(&requests)
    })) {
        Ok((reports, stats)) => {
            state
                .coalesce
                .shared_samples
                .fetch_add(stats.shared_samples as u64, Ordering::Relaxed);
            for (job, report) in members.iter().zip(&reports) {
                let _ = job.out.send(report_response(job, report).to_string());
            }
        }
        Err(payload) => {
            let message = format!("generation panicked: {}", panic_message(&*payload));
            for job in &members {
                let _ = job
                    .out
                    .send(error_response(&job.id, "internal", &message).to_string());
            }
        }
    }
}

/// The text of a panic payload (`panic!` produces a `&str` or a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Resolve a generate spec into the workspace request it runs, or the
/// structured `bad_request` response that rejects it. The batch's
/// [`PoolMemo`] makes identical synthetic pool specs materialize, and hash
/// their content keys, once per batch instead of once per member.
fn build_request(
    state: &Arc<ServiceState>,
    id: &str,
    spec: &GenerateSpec,
    pool_memo: &mut PoolMemo,
) -> std::result::Result<TestGenRequest, Json> {
    let Some(model) = state.model(&spec.model) else {
        return Err(error_response(
            id,
            "bad_request",
            &format!("unknown model {:?}", spec.model),
        ));
    };
    spec.check_work(model.input_shape.iter().product())
        .map_err(|message| error_response(id, "bad_request", &message))?;
    let candidates = match spec.pool {
        PoolSpec::Synthetic { size, seed } => {
            match pool_memo.entry((spec.model.clone(), size, seed)) {
                std::collections::hash_map::Entry::Occupied(hit) => hit.get().clone(),
                std::collections::hash_map::Entry::Vacant(slot) => {
                    let pool = spec
                        .pool
                        .materialize(&model.input_shape)
                        .map_err(|message| error_response(id, "bad_request", &message))?;
                    // Key the pool once: every member that names it runs on
                    // a clone, and clones carry their source's content keys.
                    Tensor::content_keys(&pool);
                    slot.insert(pool).clone()
                }
            }
        }
        _ => spec
            .pool
            .materialize(&model.input_shape)
            .map_err(|message| error_response(id, "bad_request", &message))?,
    };
    let mut request = TestGenRequest::new(model.key, spec.strategy, spec.budget)
        .with_seed(spec.seed)
        .with_gradgen(spec.gradgen())
        .with_candidates(candidates);
    if let Some(criterion) = &spec.criterion {
        request = request.with_criterion_spec(criterion.clone());
    }
    #[cfg(test)]
    if let Some(criterion) = tests::test_criterion(spec.criterion.as_deref()) {
        request = request.with_criterion(criterion);
    }
    Ok(request)
}

/// Map one member's workspace outcome to its response line: its report, a
/// `timeout` when its deadline stopped it, or a `generation` error.
fn report_response(job: &Job, report: &dnnip_core::Result<TestGenReport>) -> Json {
    match report {
        Ok(report) => ok_response(&job.id, report),
        Err(CoreError::DeadlineExceeded) => {
            let ms = job.deadline.unwrap_or_default().as_millis();
            error_response(&job.id, "timeout", &format!("deadline of {ms} ms exceeded"))
        }
        Err(e) => error_response(&job.id, "generation", &e.to_string()),
    }
}

fn ok_response(id: &str, report: &TestGenReport) -> Json {
    obj(vec![
        ("id", Json::Str(id.to_string())),
        ("ok", Json::Bool(true)),
        ("model", Json::Str(report.model_name.clone())),
        ("strategy", Json::Str(report.strategy.name().to_string())),
        ("criterion", Json::Str(report.criterion_id.to_string())),
        ("num_units", Json::Num(report.num_units as f64)),
        ("num_tests", Json::Num(report.tests.len() as f64)),
        (
            "final_coverage",
            Json::Num(f64::from(report.final_coverage())),
        ),
        (
            "coverage_curve",
            Json::Arr(
                report
                    .tests
                    .coverage_curve
                    .iter()
                    .map(|&c| Json::Num(f64::from(c)))
                    .collect(),
            ),
        ),
        (
            "selected_indices",
            Json::Arr(
                report
                    .selected_indices()
                    .iter()
                    .map(|&i| Json::Num(i as f64))
                    .collect(),
            ),
        ),
        ("wall_ms", Json::Num(report.wall_ms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::in_memory(EngineConfig {
            workers: 2,
            queue_depth: 8,
            default_deadline_ms: None,
            ..EngineConfig::default()
        })
    }

    /// The criterion a test build runs for the spec `criterion`, when it
    /// names one of the test criteria below.
    pub(super) fn test_criterion(
        criterion: Option<&str>,
    ) -> Option<Arc<dyn dnnip_core::criterion::CoverageCriterion>> {
        match criterion? {
            PANICKING_CRITERION => Some(Arc::new(Panicking)),
            COUNTING_CRITERION => Some(Arc::new(Counting)),
            _ => None,
        }
    }

    /// The criterion spec a test build resolves to [`Panicking`].
    const PANICKING_CRITERION: &str = "test-panicking";

    /// A criterion whose covered-set computation panics.
    #[derive(Debug)]
    struct Panicking;

    impl dnnip_core::criterion::CoverageCriterion for Panicking {
        fn id(&self) -> &'static str {
            PANICKING_CRITERION
        }

        fn config_digest(&self) -> u64 {
            0
        }

        fn num_units(&self, network: &dnnip_nn::Network) -> usize {
            network.num_parameters()
        }

        fn covered_units(
            &self,
            _engine: &dnnip_nn::batch::BatchGradientEngine,
            _chunk: &[Tensor],
        ) -> dnnip_core::Result<Vec<dnnip_core::bitset::Bitset>> {
            panic!("test criterion panicked")
        }
    }

    /// The criterion spec a test build resolves to [`Counting`].
    const COUNTING_CRITERION: &str = "test-counting";

    /// Chunks [`Counting`] has begun, over the whole test binary.
    static COUNTED_CHUNKS: AtomicU64 = AtomicU64::new(0);

    /// How long [`Counting`] takes over each chunk.
    const COUNTING_PAUSE: Duration = Duration::from_millis(50);

    /// A criterion whose covered-set chunks count themselves in
    /// [`COUNTED_CHUNKS`] and take [`COUNTING_PAUSE`] each: slow work whose
    /// progress a test can read.
    #[derive(Debug)]
    struct Counting;

    impl dnnip_core::criterion::CoverageCriterion for Counting {
        fn id(&self) -> &'static str {
            COUNTING_CRITERION
        }

        fn config_digest(&self) -> u64 {
            0
        }

        fn num_units(&self, network: &dnnip_nn::Network) -> usize {
            network.num_parameters()
        }

        fn covered_units(
            &self,
            engine: &dnnip_nn::batch::BatchGradientEngine,
            chunk: &[Tensor],
        ) -> dnnip_core::Result<Vec<dnnip_core::bitset::Bitset>> {
            COUNTED_CHUNKS.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(COUNTING_PAUSE);
            let units = engine.network().num_parameters();
            Ok(vec![dnnip_core::bitset::Bitset::new(units); chunk.len()])
        }
    }

    /// Submit `lines` and gather one response per line (shutdown excluded),
    /// then drain.
    fn roundtrip(engine: Engine, lines: &[&str]) -> Vec<Json> {
        let (tx, rx) = mpsc::channel();
        let mut expected = 0;
        for line in lines {
            match engine.handle(line, &tx) {
                Handled::Continue => expected += 1,
                Handled::Shutdown { .. } => {}
            }
        }
        engine.drain();
        drop(tx);
        let out: Vec<Json> = rx
            .into_iter()
            .map(|line| Json::parse(&line).expect("responses are valid JSON"))
            .collect();
        assert_eq!(out.len(), expected, "one response per non-shutdown line");
        out
    }

    fn by_id<'a>(responses: &'a [Json], id: &str) -> &'a Json {
        responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no response with id {id:?}"))
    }

    #[test]
    fn generate_requests_come_back_with_their_ids() {
        let responses = roundtrip(
            engine(),
            &[
                r#"{"id":"a","model":"tiny-relu","budget":3,"pool":{"synthetic":10,"seed":1}}"#,
                r#"{"id":"b","model":"tiny-tanh","strategy":"random-selection","budget":2,"seed":5,"pool":{"synthetic":8,"seed":2}}"#,
            ],
        );
        for id in ["a", "b"] {
            let r = by_id(&responses, id);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{id}");
            assert!(r.get("num_tests").and_then(Json::as_u64).unwrap() >= 1);
            let curve = r.get("coverage_curve").and_then(Json::as_array).unwrap();
            assert_eq!(
                curve.len() as u64,
                r.get("num_tests").and_then(Json::as_u64).unwrap()
            );
            let coverage = r.get("final_coverage").and_then(Json::as_f64).unwrap();
            assert!((0.0..=1.0).contains(&coverage));
        }
        assert_eq!(
            by_id(&responses, "a").get("model").and_then(Json::as_str),
            Some("tiny-relu")
        );
    }

    #[test]
    fn same_spec_twice_is_deterministic() {
        let line = r#"{"id":"x","model":"mlp-wide","strategy":"combined","budget":4,"seed":7,"criterion":"topk-neuron:2","gradgen_steps":3,"pool":{"synthetic":12,"seed":9}}"#;
        let a = roundtrip(engine(), &[line]);
        let b = roundtrip(engine(), &[line]);
        // Everything except wall time must match bit-for-bit.
        for key in [
            "model",
            "strategy",
            "criterion",
            "num_units",
            "num_tests",
            "final_coverage",
            "coverage_curve",
            "selected_indices",
        ] {
            assert_eq!(
                a[0].get(key).unwrap().to_string(),
                b[0].get(key).unwrap().to_string(),
                "{key} drifted between identical requests"
            );
        }
    }

    #[test]
    fn graph_models_serve_every_criterion_and_strategy() {
        let responses = roundtrip(
            engine(),
            &[
                r#"{"id":"g","model":"residual","criterion":"neuron-activation:0.1","budget":3,"pool":{"synthetic":8,"seed":3}}"#,
                r#"{"id":"pg","model":"residual","budget":3,"pool":{"synthetic":8,"seed":3}}"#,
                r#"{"id":"c","model":"residual","strategy":"combined","budget":4,"gradgen_steps":3,"pool":{"synthetic":8,"seed":3}}"#,
                // A pool in the wrong shape still gets a structured error.
                r#"{"id":"bad","model":"residual","budget":3,"pool":{"inline":[[1.0,2.0]]}}"#,
            ],
        );
        for (id, criterion) in [
            ("g", "neuron-activation"),
            ("pg", "param-gradient"),
            ("c", "param-gradient"),
        ] {
            let ok = by_id(&responses, id);
            assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "{id}");
            assert_eq!(ok.get("model").and_then(Json::as_str), Some("residual"));
            assert_eq!(ok.get("criterion").and_then(Json::as_str), Some(criterion));
            assert!(ok.get("final_coverage").and_then(Json::as_f64).unwrap() > 0.0);
        }
        assert_eq!(
            by_id(&responses, "pg")
                .get("num_units")
                .and_then(Json::as_f64),
            Some(986.0)
        );
        let bad = by_id(&responses, "bad");
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            bad.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
    }

    #[test]
    fn bad_requests_get_structured_errors_not_dropped_lines() {
        let responses = roundtrip(
            engine(),
            &[
                "not json at all",
                r#"{"id":"m","model":"no-such-model"}"#,
                r#"{"id":"c","model":"tiny-relu","criterion":"no-such-criterion"}"#,
                r#"{"id":"p","model":"tiny-relu","pool":{"inline":[[1.0,2.0]]}}"#,
            ],
        );
        assert_eq!(responses.len(), 4);
        for r in &responses {
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        }
        let kind = |id: &str| {
            by_id(&responses, id)
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(kind("m"), "bad_request");
        assert_eq!(kind("c"), "generation");
        assert_eq!(kind("p"), "bad_request");
    }

    #[test]
    fn a_panicking_job_gets_internal_and_the_worker_keeps_serving() {
        let engine = Engine::in_memory(EngineConfig {
            workers: 1,
            queue_depth: 4,
            default_deadline_ms: None,
            ..EngineConfig::default()
        });
        // Both run on the worker itself: `inline` without a deadline,
        // `helper` with one.
        let responses = roundtrip(
            engine,
            &[
                r#"{"id":"inline","model":"tiny-relu","budget":2,"criterion":"test-panicking","pool":{"synthetic":6,"seed":2}}"#,
                r#"{"id":"helper","model":"tiny-relu","budget":2,"criterion":"test-panicking","deadline_ms":60000,"pool":{"synthetic":6,"seed":2}}"#,
                r#"{"id":"next","model":"tiny-relu","budget":2,"pool":{"synthetic":6,"seed":2}}"#,
            ],
        );
        for id in ["inline", "helper"] {
            let error = by_id(&responses, id).get("error").expect("an error");
            assert_eq!(error.get("kind").and_then(Json::as_str), Some("internal"));
            let message = error.get("message").and_then(Json::as_str).unwrap();
            assert!(
                message.contains("test criterion panicked"),
                "{id}: {message}"
            );
        }
        assert_eq!(
            by_id(&responses, "next").get("ok").and_then(Json::as_bool),
            Some(true),
            "the one worker must keep serving after a panicking job"
        );
    }

    #[test]
    fn zero_deadline_times_out_in_queue_without_computing() {
        let responses = roundtrip(
            engine(),
            &[
                r#"{"id":"t","model":"mnist-scaled","budget":4,"deadline_ms":0,"pool":{"synthetic":16,"seed":1}}"#,
            ],
        );
        let r = by_id(&responses, "t");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let error = r.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("timeout"));
        assert!(error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("queue"));
    }

    /// A `generate` line whose work runs a few hundred milliseconds, far
    /// past its `deadline_ms` of 100. Unoptimised builds run this work about
    /// 100× slower, so they synthesise with fewer steps.
    fn slow_line(id: &str) -> String {
        let steps = if cfg!(debug_assertions) { 2 } else { 200 };
        format!(
            r#"{{"id":"{id}","model":"mnist-scaled","strategy":"gradient-based","budget":10,"gradgen_steps":{steps},"deadline_ms":100,"pool":{{"synthetic":4,"seed":1}}}}"#
        )
    }

    /// Send the slow lines, then one fast request, through one worker; the
    /// slow ones must time out while running and the fast one be served.
    fn deadline_session(max_batch: usize, slow_ids: &[&str]) -> CoalesceSnapshot {
        let engine = Engine::in_memory(EngineConfig {
            workers: 1,
            queue_depth: 8,
            max_batch,
            batch_window_ms: 20,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        for id in slow_ids {
            engine.handle(&slow_line(id), &tx);
        }
        engine.handle(
            r#"{"id":"next","model":"tiny-relu","budget":2,"pool":{"synthetic":6,"seed":2}}"#,
            &tx,
        );
        let stats = engine.drain();
        drop(tx);
        let responses: Vec<Json> = rx.into_iter().map(|l| Json::parse(&l).unwrap()).collect();
        assert_eq!(responses.len(), slow_ids.len() + 1);
        for id in slow_ids {
            let error = by_id(&responses, id).get("error").expect("a timeout");
            assert_eq!(error.get("kind").and_then(Json::as_str), Some("timeout"));
            let message = error.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains("exceeded"), "{id}: {message}");
        }
        assert_eq!(
            by_id(&responses, "next").get("ok").and_then(Json::as_bool),
            Some(true),
            "the worker must keep serving after a request times out"
        );
        stats
    }

    #[test]
    fn a_running_batch_of_one_times_out_at_its_deadline() {
        let stats = deadline_session(1, &["slow"]);
        assert_eq!(stats.batches, 0, "a batch of one is not counted");
    }

    #[test]
    fn a_running_coalesced_batch_times_out_at_each_deadline() {
        let stats = deadline_session(2, &["slow1", "slow2"]);
        assert_eq!(stats.batches, 1, "the two slow requests ran as one batch");
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn a_timed_out_request_stops_computing_within_one_chunk() {
        let engine = Engine::in_memory(EngineConfig {
            workers: 1,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        // 20 chunks of 32 samples: a second of work, with a deadline of 100 ms.
        let start = Instant::now();
        engine.handle(
            r#"{"id":"slow","model":"tiny-relu","budget":2,"criterion":"test-counting","deadline_ms":100,"pool":{"synthetic":640,"seed":3}}"#,
            &tx,
        );
        let r = Json::parse(&rx.recv().unwrap()).unwrap();
        let elapsed = start.elapsed();
        let error = r.get("error").expect("a timeout");
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("timeout"));
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert_eq!(message, "deadline of 100 ms exceeded");
        let chunks = COUNTED_CHUNKS.load(Ordering::SeqCst);
        // The one worker began a chunk only before the deadline.
        let bound = elapsed.as_millis() / COUNTING_PAUSE.as_millis() + 1;
        assert!(
            u128::from(chunks) <= bound,
            "{chunks} chunks in {elapsed:?}"
        );
        assert!(chunks < 20, "every chunk ran before the answer");
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            COUNTED_CHUNKS.load(Ordering::SeqCst),
            chunks,
            "the request went on computing after its timeout answer"
        );
        engine.handle(
            r#"{"id":"next","model":"tiny-relu","budget":2,"pool":{"synthetic":6,"seed":2}}"#,
            &tx,
        );
        let next = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(next.get("id").and_then(Json::as_str), Some("next"));
        assert_eq!(next.get("ok").and_then(Json::as_bool), Some(true));
        engine.drain();
    }

    #[test]
    fn engine_default_deadline_applies_when_request_has_none() {
        let engine = Engine::in_memory(EngineConfig {
            workers: 1,
            queue_depth: 4,
            default_deadline_ms: Some(0),
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        engine.handle(
            r#"{"id":"d","model":"mnist-scaled","budget":4,"pool":{"synthetic":16,"seed":1}}"#,
            &tx,
        );
        engine.drain();
        drop(tx);
        let r = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(
            r.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("timeout")
        );
    }

    #[test]
    fn control_ops_answer_inline() {
        let responses = roundtrip(
            engine(),
            &[
                r#"{"id":"m","op":"models"}"#,
                r#"{"id":"s","op":"stats"}"#,
                r#"{"id":"v","op":"vacuum"}"#,
            ],
        );
        let models = by_id(&responses, "m")
            .get("models")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(models.len(), BUILTIN_MODELS.len());
        let names: Vec<&str> = models
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap())
            .collect();
        for &name in BUILTIN_MODELS {
            assert!(names.contains(&name), "{name} missing from models op");
        }
        let stats = by_id(&responses, "s");
        assert!(stats.get("cache").is_some());
        let cache = stats.get("cache").unwrap();
        for key in ["flight_hits", "resident_bytes", "bytes_per_entry"] {
            assert!(cache.get(key).is_some(), "missing cache.{key}");
        }
        // Covered sets are plain words: there is no compression to report.
        assert!(cache.get("compression_ratio").is_none());
        // An empty cache reports zero bytes per entry, not NaN.
        assert_eq!(
            cache.get("bytes_per_entry").and_then(Json::as_f64),
            Some(0.0)
        );
        let coalesce = stats.get("coalesce").expect("coalesce counters");
        for key in ["batches", "requests", "mean_batch_size", "shared_samples"] {
            assert!(coalesce.get(key).is_some(), "missing coalesce.{key}");
        }
        // No persistent tier in an in-memory engine.
        assert_eq!(stats.get("disk"), Some(&Json::Null));
        assert_eq!(by_id(&responses, "v").get("vacuum"), Some(&Json::Null));
    }

    #[test]
    fn shutdown_is_reported_to_the_caller_not_answered_inline() {
        let engine = engine();
        let (tx, rx) = mpsc::channel();
        let handled = engine.handle(r#"{"id":"bye","op":"shutdown"}"#, &tx);
        assert_eq!(
            handled,
            Handled::Shutdown {
                id: "bye".to_string()
            }
        );
        engine.drain();
        drop(tx);
        assert!(rx.recv().is_err(), "shutdown must not answer inline");
        let ack = Json::parse(&shutdown_response("bye")).unwrap();
        assert_eq!(ack.get("id").and_then(Json::as_str), Some("bye"));
        assert_eq!(ack.get("shutdown").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn drain_delivers_every_queued_response() {
        let engine = Engine::in_memory(EngineConfig {
            workers: 3,
            queue_depth: 4, // smaller than the burst: submitters block, nothing is lost
            default_deadline_ms: None,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let n = 12;
        for i in 0..n {
            let line = format!(
                r#"{{"id":"r{i}","model":"tiny-relu","budget":2,"seed":{i},"pool":{{"synthetic":6,"seed":{i}}}}}"#
            );
            engine.handle(&line, &tx);
        }
        engine.drain();
        drop(tx);
        let responses: Vec<Json> = rx.into_iter().map(|l| Json::parse(&l).unwrap()).collect();
        assert_eq!(responses.len(), n, "a drain must deliver every response");
        for i in 0..n {
            assert_eq!(
                by_id(&responses, &format!("r{i}"))
                    .get("ok")
                    .and_then(Json::as_bool),
                Some(true)
            );
        }
    }
}
