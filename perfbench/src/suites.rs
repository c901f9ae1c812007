//! The vendor-side workloads.
//!
//! * `suite-cold`: the vendor's first build of a suite. Every suite runs in a
//!   fresh `Workspace` whose disk tier sits in a fresh directory, so the
//!   cache only inserts and the tier only writes; `nn`, `tensor`, the
//!   criterion and synthesis do nearly all the work.
//! * `sweep-warm`: a Fig. 3-style budget sweep re-run by a new process over
//!   a tier that set-up filled. Disk reads replace writes and memory hits
//!   replace inserts; the engine does almost nothing.
//!
//! A suite is timed from its request to the suite with golden outputs, the
//! vendor's deliverable. The user's replay of that suite on the pristine IP
//! is timed on its own (`req_ms_p50_low`), several times over the run; the
//! remaining checks are not timed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dnnip_core::coverage::{CoverageConfig, DEFAULT_COVERAGE_BATCH};
use dnnip_core::criterion::{criterion_from_spec, CoverageCriterion, ParamGradient};
use dnnip_core::generator::GenerationMethod;
use dnnip_core::gradgen::GradGenConfig;
use dnnip_core::par::ExecPolicy;
use dnnip_core::protocol::FunctionalTestSuite;
use dnnip_core::workspace::{
    CriterionSpec, DiskCacheConfig, TestGenRequest, Workspace, WorkspaceConfig,
};
use dnnip_faults::detection::MatchPolicy;
use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_tensor::Tensor;

use crate::common::{
    check_reference_coverage, check_tampered, ms_since, suite_models, validate_pristine, Ctx,
    Model, Outcome, Scratch, TierTotals,
};
use crate::report::EndToEnd;
use crate::rng::Rng;
use crate::stats::Dist;
use crate::trace::{self, span};

/// Tests per shipped suite.
pub const SHIP_BUDGET: usize = 20;
/// The Fig. 3 budgets every `sweep-warm` suite runs, per criterion.
pub const SWEEP_BUDGETS: [usize; 6] = [1, 5, 10, 20, 30, 50];
/// `None` is the model's parameter-gradient criterion.
pub const SWEEP_CRITERIA: [Option<&str>; 2] = [None, Some("neuron-activation:0.25")];
/// `Workspace::run` latency limits behind `goodput_rps`.
const COLD_LIMIT_MS: f64 = 2000.0;
const SWEEP_LIMIT_MS: f64 = 250.0;
/// Suites a run executes per `--seconds`. A fixed count (sized so a run
/// takes about `--seconds` on a 2-core host, checks included) keeps the
/// tail percentile's rank the same from run to run.
const COLD_PER_S: f64 = 1.8;
const SWEEP_PER_S: f64 = 4.0;
/// Distinct seeded pools per model that `suite-cold` cycles through.
const POOL_RING: usize = 4;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Times the user replays each shipped suite in an untraced run. The replays
/// of one suite fall a fraction of the run apart and do the same work, so
/// the fastest is its latency: it keeps the suite's own cost and drops the
/// host's slow spells, which last seconds on a shared host.
const REPLAY_ROUNDS: usize = 3;

/// `suite-cold` cycles through these (model index, strategy) pairs. Suite
/// times cluster by pair; the weights put the median inside the
/// `cifar-scaled` selection cluster and the p80 tail inside the
/// `cifar-scaled` combined one, never on the edge between two clusters,
/// where a single suite would move them.
const COLD_PLAN: [(usize, GenerationMethod); 6] = [
    (0, GenerationMethod::TrainingSetSelection),
    (1, GenerationMethod::TrainingSetSelection),
    (0, GenerationMethod::Combined),
    (1, GenerationMethod::Combined),
    (0, GenerationMethod::TrainingSetSelection),
    (0, GenerationMethod::Combined),
];
/// `sweep-warm` cycles through these model indices; two thirds
/// `cifar-scaled` keeps the median and tail inside its cluster.
const SWEEP_PLAN: [usize; 3] = [0, 0, 1];

/// Candidate pool size: eight coverage batches per worker, so every worker
/// sees several batches.
pub fn pool_size() -> usize {
    8 * ExecPolicy::auto().threads() * DEFAULT_COVERAGE_BATCH
}

/// `per_s × seconds` suites, rounded up to whole plan cycles.
fn suite_count(seconds: f64, per_s: f64, plan: usize) -> usize {
    ((seconds * per_s / plan as f64).ceil() as usize).max(1) * plan
}

/// The criterion a request names; under tracing the same criterion wrapped
/// so that its covered-set calls record spans.
pub fn selector(coverage: &CoverageConfig, spec: Option<&str>) -> CriterionSpec {
    if !trace::enabled() {
        return spec.map_or(CriterionSpec::ModelDefault, |s| {
            CriterionSpec::Spec(s.into())
        });
    }
    let inner: Arc<dyn CoverageCriterion> = match spec {
        None => Arc::new(ParamGradient::from_config(coverage)),
        Some(s) => criterion_from_spec(s, coverage).expect("benchmark criterion specs parse"),
    };
    CriterionSpec::Instance(trace::TracedCriterion::wrap(inner))
}

pub fn open_workspace(tier: &Path) -> Workspace {
    let _span = span("workspace.open");
    Workspace::with_config(WorkspaceConfig {
        disk: DiskCacheConfig::at(tier),
        ..WorkspaceConfig::default()
    })
}

/// One timed suite.
struct Sample {
    kind: String,
    suite_ms: f64,
    req_ms: Vec<f64>,
    /// The shipped suite and the index of its model, for the user's replay.
    shipped: Arc<FunctionalTestSuite>,
    model: usize,
    coverage: f64,
    /// The first covered-set probe of the suite's fresh workspace (traced
    /// runs only).
    first_probe_ms: Option<f64>,
}

fn err(what: &str) -> impl Fn(dnnip_core::CoreError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Run `suite(0..n)`, counting every suite as an attempt.
fn run_n(
    n: usize,
    out: &mut Outcome,
    mut suite: impl FnMut(usize) -> Result<Sample, String>,
) -> Vec<Sample> {
    (0..n).filter_map(|i| out.record(suite(i))).collect()
}

/// Median suite and replay time per kind of suite, for the report.
fn kind_notes(samples: &[Sample], validate_ms: &[f64], out: &mut Outcome) {
    let mut by_kind: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, &replay) in samples.iter().zip(validate_ms) {
        let (suite, replays) = by_kind.entry(&s.kind).or_default();
        suite.push(s.suite_ms);
        replays.push(replay);
    }
    for (kind, (suite, replays)) in by_kind {
        let d = Dist::of(&suite).expect("non-empty");
        let r = Dist::of(&replays).expect("non-empty");
        let max = replays.iter().copied().fold(0.0, f64::max);
        out.notes.push(format!(
            "suite {kind}: {} suites, p50 {:.3} ms; replay p50 {:.3} ms, max {max:.3} ms",
            d.n, d.p50, r.p50
        ));
    }
}

fn end_to_end(
    samples: &[Sample],
    validate_ms: Vec<f64>,
    setup_s: Vec<f64>,
    limit_ms: f64,
) -> EndToEnd {
    let busy_s = samples.iter().map(|s| s.suite_ms).sum::<f64>() / 1e3;
    let req_ms: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.req_ms.iter().copied())
        .collect();
    let good = req_ms.iter().filter(|&&ms| ms <= limit_ms).count();
    EndToEnd {
        setup_s,
        suite_ms: samples.iter().map(|s| s.suite_ms).collect(),
        suites_per_s: samples.len() as f64 / busy_s.max(1e-9),
        coverage: samples.iter().map(|s| s.coverage).collect(),
        goodput_rps: good as f64 / busy_s.max(1e-9),
        req_ms,
        validate_ms,
    }
}

/// The untraced run: `n` suites and the user's replays of them, then the
/// end-to-end metrics. After suite `i` come the replays of suites `i`,
/// `i - n/3` and `i - 2n/3` (for [`REPLAY_ROUNDS`] = 3), so each suite's
/// replays are spread over the run; every replay must pass.
fn untraced(
    n: usize,
    setup_s: Vec<f64>,
    limit_ms: f64,
    out: &mut Outcome,
    models: &[Model],
    mut suite: impl FnMut(usize, &mut TierTotals) -> Result<Sample, String>,
) {
    let mut totals = TierTotals::default();
    let stride = n.div_ceil(REPLAY_ROUNDS);
    let mut samples: Vec<Option<Sample>> = Vec::with_capacity(n);
    let mut best = vec![f64::INFINITY; n];
    for i in 0..n + stride * (REPLAY_ROUNDS - 1) {
        if i < n {
            samples.push(out.record(suite(i, &mut totals)));
        }
        for j in (0..REPLAY_ROUNDS).filter_map(|r| i.checked_sub(r * stride)) {
            if let Some(Some(s)) = samples.get(j) {
                if let Some(ms) = out.record(validate_pristine(&s.shipped, &models[s.model])) {
                    best[j] = best[j].min(ms);
                }
            }
        }
    }
    let (samples, validate_ms): (Vec<Sample>, Vec<f64>) = samples
        .into_iter()
        .zip(best)
        .filter_map(|(s, ms)| Some((s?, ms)).filter(|_| ms.is_finite()))
        .unzip();
    kind_notes(&samples, &validate_ms, out);
    end_to_end(&samples, validate_ms, setup_s, limit_ms).emit(out);
}

/// The traced run: `n` suites untraced, the same `n` traced, then the layer
/// probes. Per-layer metrics come from the spans and the probes; the
/// tracing overhead is the difference of the two medians.
fn traced(
    ctx: &Ctx,
    n: usize,
    out: &mut Outcome,
    models: &[Model],
    mut suite: impl FnMut(usize, &mut TierTotals) -> Result<Sample, String>,
) {
    let mut untraced_totals = TierTotals::default();
    let base = run_n(n, out, |i| suite(i, &mut untraced_totals));
    let mut totals = TierTotals::default();
    trace::enable(true);
    let samples = run_n(n, out, |i| suite(i, &mut totals));
    trace::enable(false);
    let spans = trace::take();
    let m = &mut out.metrics;
    totals.emit(m);
    let first: Vec<f64> = samples.iter().filter_map(|s| s.first_probe_ms).collect();
    m.set(
        "disk.first_probe_ms",
        Dist::of(&first).map_or(0.0, |d| d.mean),
    );
    let p50 = |s: &[Sample]| {
        Dist::of(&s.iter().map(|s| s.suite_ms).collect::<Vec<_>>()).map_or(0.0, |d| d.p50)
    };
    let overhead = p50(&samples) - p50(&base);
    crate::report::span_metrics(out, &spans, overhead);
    crate::probes::run_all(ctx, out, models);
    // The serving layer's counters, from a short open-loop phase.
    crate::serve::layer_run(ctx, out, ctx.seconds * 0.1);
}

pub fn suite_cold(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let models = suite_models();
        let mut rng = Rng::new(ctx.seed, 1);
        let pools: Vec<Vec<Vec<Tensor>>> = (0..POOL_RING)
            .map(|_| {
                models
                    .iter()
                    .map(|m| rng.pool(&m.input_shape, pool_size()))
                    .collect()
            })
            .collect();
        // One untimed suite first, so lazy start-up is paid in set-up.
        let warm = GenerationMethod::TrainingSetSelection;
        let mut ignored = TierTotals::default();
        out.record(cold_suite(
            &ctx.scratch,
            &models,
            1,
            &pools[0][1],
            warm,
            0,
            &mut ignored,
        ));
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((models, pools));
    }
    let (models, pools) = state.expect("at least one set-up");
    let suite = |i: usize, totals: &mut TierTotals| {
        let (mi, strategy) = COLD_PLAN[i % COLD_PLAN.len()];
        let pool = &pools[(i / COLD_PLAN.len()) % POOL_RING][mi];
        let seed = ctx.seed.wrapping_mul(1000).wrapping_add(i as u64);
        cold_suite(&ctx.scratch, &models, mi, pool, strategy, seed, totals)
    };
    if ctx.trace {
        let n = suite_count(ctx.seconds * 0.3, COLD_PER_S, COLD_PLAN.len());
        traced(ctx, n, &mut out, &models, suite);
    } else {
        let n = suite_count(ctx.seconds, COLD_PER_S, COLD_PLAN.len());
        untraced(n, setup_s, COLD_LIMIT_MS, &mut out, &models, suite);
    }
    out
}

fn cold_suite(
    scratch: &Scratch,
    models: &[Model],
    mi: usize,
    pool: &[Tensor],
    strategy: GenerationMethod,
    seed: u64,
    totals: &mut TierTotals,
) -> Result<Sample, String> {
    let m = &models[mi];
    let dir = scratch.fresh("cold");
    let key = NetworkFingerprint::of(&m.network);
    let criterion = selector(&m.coverage, None);
    let gradgen = GradGenConfig {
        seed,
        exec: ExecPolicy::auto(),
        ..GradGenConfig::default()
    };
    let request = TestGenRequest::new(key, strategy, SHIP_BUDGET)
        .with_seed(seed)
        .with_gradgen(gradgen)
        .with_criterion_selector(criterion.clone())
        .with_candidates(pool.to_vec());

    let t0 = Instant::now();
    let root = span("suite");
    let ws = open_workspace(&dir);
    ws.register(m.name, Arc::clone(&m.network), m.coverage);
    let evaluator = {
        let _span = span("workspace.evaluator");
        ws.evaluator(key, &criterion)
    }
    .map_err(err("evaluator"))?;
    let mut first_probe_ms = None;
    if trace::enabled() && strategy.consumes_pool() {
        // The run's own first step, made by the benchmark so that it can be
        // timed; the run then finds every set in memory.
        let t = Instant::now();
        let _span = span("eval.activation_sets");
        evaluator
            .activation_sets(pool)
            .map_err(err("activation sets"))?;
        first_probe_ms = Some(ms_since(t));
    }
    let t_req = Instant::now();
    let report = {
        let _span = span("workspace.run");
        ws.run(&request)
    }
    .map_err(err("run"))?;
    let req_ms = ms_since(t_req);
    let suite = {
        let _span = span("protocol.golden");
        FunctionalTestSuite::from_evaluator(
            &evaluator,
            report.tests.inputs.clone(),
            MatchPolicy::default(),
        )
    }
    .map_err(err("golden outputs"))?;
    drop(root);
    let suite_ms = ms_since(t0);

    if trace::enabled() {
        // Untraced runs check the pristine IP in their replay rounds.
        validate_pristine(&suite, m)?;
    }
    check_tampered(&suite, m)?;
    check_reference_coverage(&evaluator, &report.tests.inputs, report.final_coverage())?;
    totals.add(ws.cache_stats(), ws.disk_stats());
    drop(ws);
    Scratch::remove(&dir);
    Ok(Sample {
        kind: format!("{}/{}", m.name, strategy.name()),
        suite_ms,
        req_ms: vec![req_ms],
        shipped: Arc::new(suite),
        model: mi,
        coverage: f64::from(report.final_coverage()),
        first_probe_ms,
    })
}

/// Fill a fresh tier with every (model, criterion) covered set of `pools`.
fn prefill(scratch: &Scratch, models: &[Model], pools: &[Vec<Tensor>]) -> Result<PathBuf, String> {
    let dir = scratch.fresh("tier");
    for (m, pool) in models.iter().zip(pools) {
        let ws = open_workspace(&dir);
        let key = ws.register(m.name, Arc::clone(&m.network), m.coverage);
        for spec in SWEEP_CRITERIA {
            ws.evaluator(key, &selector(&m.coverage, spec))
                .and_then(|e| e.activation_sets(pool))
                .map_err(err("prefill"))?;
        }
    }
    Ok(dir)
}

/// What the first fully checked sweep of a model produced. Every sweep of
/// that model runs the same requests on the same tier, so later sweeps must
/// reproduce it exactly.
struct Verified {
    /// Selected indices and final-coverage bits of each run, in order.
    runs: Vec<(Vec<usize>, u32)>,
    suite: Arc<FunctionalTestSuite>,
}

pub fn sweep_warm(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let models = suite_models();
        let mut rng = Rng::new(ctx.seed, 2);
        let pools: Vec<Vec<Tensor>> = models
            .iter()
            .map(|m| rng.pool(&m.input_shape, pool_size()))
            .collect();
        let Some(tier) = out.record(prefill(&ctx.scratch, &models, &pools)) else {
            return out;
        };
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, _, old)) = state.replace((models, pools, tier)) {
            Scratch::remove(&old);
        }
    }
    let (models, pools, tier) = state.expect("at least one set-up");
    let mut verified: Vec<Option<Verified>> = models.iter().map(|_| None).collect();
    let suite = |i: usize, totals: &mut TierTotals| {
        let mi = SWEEP_PLAN[i % SWEEP_PLAN.len()];
        sweep_suite(&models, mi, &pools[mi], &tier, &mut verified[mi], totals)
    };
    if ctx.trace {
        let n = suite_count(ctx.seconds * 0.3, SWEEP_PER_S, SWEEP_PLAN.len());
        traced(ctx, n, &mut out, &models, suite);
    } else {
        let n = suite_count(ctx.seconds, SWEEP_PER_S, SWEEP_PLAN.len());
        untraced(n, setup_s, SWEEP_LIMIT_MS, &mut out, &models, suite);
    }
    out
}

fn sweep_suite(
    models: &[Model],
    mi: usize,
    pool: &[Tensor],
    tier: &Path,
    verified: &mut Option<Verified>,
    totals: &mut TierTotals,
) -> Result<Sample, String> {
    let m = &models[mi];
    let key = NetworkFingerprint::of(&m.network);
    let plan: Vec<(CriterionSpec, Vec<TestGenRequest>)> = SWEEP_CRITERIA
        .iter()
        .map(|&spec| {
            let criterion = selector(&m.coverage, spec);
            let requests = SWEEP_BUDGETS
                .iter()
                .map(|&b| {
                    TestGenRequest::new(key, GenerationMethod::TrainingSetSelection, b)
                        .with_criterion_selector(criterion.clone())
                        .with_candidates(pool.to_vec())
                })
                .collect();
            (criterion, requests)
        })
        .collect();

    let t0 = Instant::now();
    let root = span("suite");
    let ws = open_workspace(tier);
    ws.register(m.name, Arc::clone(&m.network), m.coverage);
    let mut req_ms = Vec::with_capacity(SWEEP_BUDGETS.len() * SWEEP_CRITERIA.len());
    let mut first_probe_ms = None;
    let mut reports = Vec::new();
    let mut evaluators = Vec::new();
    let mut shipped = None;
    for (ci, (criterion, requests)) in plan.iter().enumerate() {
        let evaluator = {
            let _span = span("workspace.evaluator");
            ws.evaluator(key, criterion)
        }
        .map_err(err("evaluator"))?;
        if trace::enabled() {
            let t = Instant::now();
            let _span = span("eval.activation_sets");
            evaluator
                .activation_sets(pool)
                .map_err(err("activation sets"))?;
            first_probe_ms.get_or_insert(ms_since(t));
        }
        for request in requests {
            let t = Instant::now();
            let report = {
                let _span = span("workspace.run");
                ws.run(request)
            }
            .map_err(err("run"))?;
            req_ms.push(ms_since(t));
            if ci == 0 && request.budget == SHIP_BUDGET {
                shipped = Some((evaluator.clone(), report.clone()));
            }
            reports.push(report);
        }
        evaluators.push(evaluator);
    }
    // The suite the vendor ships: the parameter-gradient selection at the
    // shipping budget.
    let (evaluator, report) = shipped.expect("the sweep includes the shipping budget");
    let suite = {
        let _span = span("protocol.golden");
        FunctionalTestSuite::from_evaluator(
            &evaluator,
            report.tests.inputs.clone(),
            MatchPolicy::default(),
        )
    }
    .map_err(err("golden outputs"))?;
    drop(root);
    let suite_ms = ms_since(t0);

    if trace::enabled() {
        // Untraced runs check the pristine IP in their replay rounds.
        validate_pristine(&suite, m)?;
    }
    let runs: Vec<(Vec<usize>, u32)> = reports
        .iter()
        .map(|r| (r.selected_indices(), r.final_coverage().to_bits()))
        .collect();
    let shipped = match verified {
        Some(v) if v.runs == runs && v.suite.golden_outputs == suite.golden_outputs => {
            Arc::clone(&v.suite)
        }
        Some(_) => return Err(format!("{}: a warm sweep differs from the first", m.name)),
        None => {
            check_tampered(&suite, m)?;
            // The largest budget of each criterion subsumes its smaller ones.
            for (ci, e) in evaluators.iter().enumerate() {
                let r = &reports[(ci + 1) * SWEEP_BUDGETS.len() - 1];
                check_reference_coverage(e, &r.tests.inputs, r.final_coverage())?;
            }
            let suite = Arc::new(suite);
            *verified = Some(Verified {
                runs,
                suite: Arc::clone(&suite),
            });
            suite
        }
    };
    totals.add(ws.cache_stats(), ws.disk_stats());
    Ok(Sample {
        kind: m.name.to_string(),
        suite_ms,
        req_ms,
        shipped,
        model: mi,
        coverage: f64::from(report.final_coverage()),
        first_probe_ms,
    })
}
