//! The serving layer, measured in every traced run: independent validation
//! clients send `generate` lines to `Engine::handle` on a seeded Poisson
//! schedule, open loop, with latency counted from each request's due time;
//! the same lines are then replayed through a direct `Workspace::run` and
//! each served response must equal its replay.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dnnip_core::par::ExecPolicy;
use dnnip_core::workspace::{CriterionSpec, TestGenReport, TestGenRequest, Workspace};
use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_serve::json::Json;
use dnnip_serve::protocol::{
    build_graph_model, build_model, parse_request, RequestOp, BUILTIN_GRAPH_MODELS, BUILTIN_MODELS,
};
use dnnip_serve::{Engine, EngineConfig};

use crate::common::{ms_since, Ctx, Outcome};
use crate::rng::Rng;
use crate::stats::Dist;

/// Fixed arrival rate, requests per second, well below the engine's
/// capacity (about 850/s on a 2-core AVX-512 host). Nearer capacity the
/// tail is set by rare collisions of two synthesis requests and varies too
/// much from run to run.
pub const RATE: f64 = 130.0;
/// Generous deadline some requests carry.
const DEADLINE_MS: u64 = 10_000;
/// Hot pool seeds per model: most requests reuse one of these.
const HOT_POOLS: u64 = 4;
/// Share of requests that reuse a hot pool.
const HOT_SHARE: f64 = 0.85;
/// How long a phase may wait for its last responses.
const DRAIN_CAP: Duration = Duration::from_secs(60);

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time, seconds after the phase starts.
    pub offset: f64,
    pub id: String,
    pub line: String,
}

const MODELS: [&str; 5] = [
    "tiny-relu",
    "tiny-tanh",
    "mlp-wide",
    "mnist-scaled",
    "residual",
];
const MODEL_WEIGHTS: [usize; 5] = [5, 4, 4, 4, 3];
const STRATEGIES: [(&str, usize); 3] = [
    ("training-set-selection", 4),
    ("random-selection", 1),
    ("combined", 1),
];
/// Share of requests that carry a (generous) deadline.
const DEADLINE_SHARE: f64 = 0.1;

fn criteria(model: &str) -> &'static [Option<&'static str>] {
    if model == "residual" {
        // The graph path serves forward-only criteria only.
        &[Some("neuron-activation:0.25"), Some("topk-neuron:2")]
    } else {
        &[None, Some("neuron-activation:0.25"), Some("topk-neuron:2")]
    }
}

/// Every (model, criterion, strategy) of the mix, repeated by its weight.
/// The graph model runs the selection strategies only.
fn mix() -> Vec<(&'static str, Option<&'static str>, &'static str)> {
    let mut deck = Vec::new();
    for (model, mw) in MODELS.into_iter().zip(MODEL_WEIGHTS) {
        let crits = criteria(model);
        for &criterion in crits {
            for (strategy, sw) in STRATEGIES {
                if model == "residual" && strategy == "combined" {
                    continue;
                }
                // 6 / |criteria| keeps every model's total weight whole.
                for _ in 0..mw * sw * (6 / crits.len()) {
                    deck.push((model, criterion, strategy));
                }
            }
        }
    }
    deck
}

/// `n` flags, `round(share × n)` of them set, in seeded order.
fn flags(rng: &mut Rng, n: usize, share: f64) -> Vec<bool> {
    let set = (share * n as f64).round() as usize;
    let mut v: Vec<bool> = (0..n).map(|i| i < set).collect();
    shuffle(rng, &mut v);
    v
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

fn line(id: &str, model: &str, strategy: &str, budget: usize, criterion: Option<&str>) -> String {
    let criterion = criterion.map_or(String::new(), |c| format!(r#","criterion":"{c}""#));
    format!(
        r#"{{"id":"{id}","op":"generate","model":"{model}","strategy":"{strategy}","budget":{budget}{criterion}"#
    )
}

/// A Poisson schedule of `rate × seconds` requests. Given their count, the
/// arrival times of a Poisson process are independent and uniform over the
/// window, so the count (and with it every percentile rank) is fixed while
/// the gaps stay exponential. The mix is dealt from a deck, so every seed
/// sends each kind of request, hot pools and deadlines in the same
/// proportions; the seed decides their order, pools, budgets and times.
pub fn schedule(seed: u64, phase: &str, rate: f64, seconds: f64) -> Vec<Arrival> {
    let stream = phase
        .bytes()
        .fold(7u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
    let mut rng = Rng::new(seed, stream);
    let n = (rate * seconds).round() as usize;
    let mut offsets: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    offsets.sort_by(f64::total_cmp);
    let deck = mix();
    let mut kinds: Vec<_> = (0..n).map(|i| deck[i % deck.len()]).collect();
    shuffle(&mut rng, &mut kinds);
    let hot = flags(&mut rng, n, HOT_SHARE);
    let deadline = flags(&mut rng, n, DEADLINE_SHARE);
    (0..n)
        .map(|i| {
            let id = format!("{phase}-{i}");
            let (model, criterion, strategy) = kinds[i];
            let pool_seed = if hot[i] {
                1 + rng.below(HOT_POOLS as usize) as u64
            } else {
                1_000_000 + rng.next_u64() % 1_000_000_000
            };
            let mut text = line(&id, model, strategy, 2 + rng.below(7), criterion);
            text.push_str(&format!(
                r#","seed":{},"pool":{{"synthetic":{},"seed":{pool_seed}}}"#,
                rng.below(1000),
                16 + rng.below(49)
            ));
            if strategy == "combined" {
                text.push_str(r#","gradgen_steps":3"#);
            }
            if deadline[i] {
                text.push_str(&format!(r#","deadline_ms":{DEADLINE_MS}"#));
            }
            text.push('}');
            Arrival {
                offset: offsets[i],
                id,
                line: text,
            }
        })
        .collect()
}

/// Every hot pool at its largest size under every criterion its model
/// serves: what a long-running service already holds.
fn warm_lines() -> Vec<Arrival> {
    let mut out = Vec::new();
    for model in MODELS {
        for &criterion in criteria(model) {
            for seed in 1..=HOT_POOLS {
                let id = format!("warm-{}", out.len());
                let mut text = line(&id, model, "training-set-selection", 2, criterion);
                text.push_str(&format!(r#","pool":{{"synthetic":64,"seed":{seed}}}}}"#));
                out.push(Arrival {
                    offset: 0.0,
                    id,
                    line: text,
                });
            }
        }
    }
    out
}

/// The engine as `dnnip-serve` ships it, with one worker per hardware
/// thread and a queue deep enough that `handle` never blocks the open loop.
fn engine_config(queue: usize) -> EngineConfig {
    EngineConfig {
        workers: ExecPolicy::auto().threads(),
        queue_depth: queue,
        ..EngineConfig::default()
    }
}

/// What one phase observed.
#[derive(Debug, Default)]
struct Phase {
    /// Per arrival: latency from the due time and the response, when one
    /// came back.
    answers: Vec<Option<(f64, Json)>>,
    gen_lag_ms: Vec<f64>,
    handle_us: Vec<f64>,
    backlog_max: usize,
    /// Lines answered twice or with an id nobody sent.
    stray: Vec<String>,
}

impl Phase {
    fn ok(&self, i: usize) -> Option<(f64, &Json)> {
        self.answers[i]
            .as_ref()
            .filter(|(_, r)| r.get("ok").and_then(Json::as_bool) == Some(true))
            .map(|(ms, r)| (*ms, r))
    }

    /// Count every request, failing the unanswered and the non-ok ones.
    fn record(&self, arrivals: &[Arrival], out: &mut Outcome) {
        for (a, answer) in arrivals.iter().zip(&self.answers) {
            out.record(match answer {
                None => Err(format!("{}: no response", a.id)),
                Some((_, r)) if r.get("ok").and_then(Json::as_bool) == Some(true) => Ok(()),
                Some((_, r)) => Err(format!("{}: {r}", a.id)),
            });
        }
        for s in &self.stray {
            out.record::<()>(Err(s.clone()));
        }
    }

    fn kind_count(&self, kind: &str) -> usize {
        self.answers
            .iter()
            .flatten()
            .filter(|(_, r)| {
                r.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    == Some(kind)
            })
            .count()
    }
}

/// Submit `arrivals` on schedule and collect the answers, both from this
/// thread: it waits for the next due time on the response channel, so every
/// response is stamped when it arrives and no second client thread competes
/// with the workers for a core.
fn run_phase(engine: &Engine, arrivals: &[Arrival]) -> Phase {
    let n = arrivals.len();
    let (tx, rx) = mpsc::channel::<String>();
    let mut phase = Phase {
        answers: vec![None; n],
        ..Phase::default()
    };
    let mut got: Vec<(Instant, String)> = Vec::with_capacity(n);
    let start = Instant::now() + Duration::from_millis(5);
    for (i, a) in arrivals.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.offset);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if let Ok(line) = rx.recv_timeout(due - now) {
                got.push((Instant::now(), line));
            }
        }
        phase
            .gen_lag_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let t = Instant::now();
        engine.handle(&a.line, &tx);
        phase.handle_us.push(t.elapsed().as_secs_f64() * 1e6);
        phase.backlog_max = phase.backlog_max.max(i + 1 - got.len().min(i + 1));
    }
    drop(tx);
    let cap = Instant::now() + DRAIN_CAP;
    while got.len() < n {
        match rx.recv_timeout(cap.saturating_duration_since(Instant::now())) {
            Ok(line) => got.push((Instant::now(), line)),
            Err(_) => break,
        }
    }
    let index: HashMap<&str, usize> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| (a.id.as_str(), i))
        .collect();
    for (at, text) in got {
        let parsed = Json::parse(&text);
        let id = parsed
            .as_ref()
            .ok()
            .and_then(|r| r.get("id").and_then(Json::as_str).map(str::to_string));
        match (parsed, id.as_deref().and_then(|id| index.get(id))) {
            (Ok(r), Some(&i)) if phase.answers[i].is_none() => {
                let due = start + Duration::from_secs_f64(arrivals[i].offset);
                let ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
                phase.answers[i] = Some((ms, r));
            }
            (_, Some(_)) => phase.stray.push(format!("answered twice: {text}")),
            _ => phase.stray.push(format!("unknown response: {text}")),
        }
    }
    phase
}

/// An in-memory engine with the hot pools already served once, one request
/// at a time. (A disk tier would put file-system latency on the measured
/// path; the tier is measured by the suite workloads.)
fn start_engine(queue: usize, out: &mut Outcome) -> Engine {
    let engine = Engine::new(Workspace::new(), engine_config(queue));
    let (tx, rx) = mpsc::channel();
    for a in warm_lines() {
        engine.handle(&a.line, &tx);
        let answer = rx.recv_timeout(DRAIN_CAP).map_err(|e| e.to_string());
        out.record(answer.and_then(|r| {
            if r.contains(r#""ok":true"#) {
                Ok(())
            } else {
                Err(format!("warm-up {}: {r}", a.id))
            }
        }));
    }
    engine
}

/// The builtin models registered the way the engine registers them, for
/// direct `Workspace::run` calls.
struct Direct {
    ws: Workspace,
    models: HashMap<&'static str, (NetworkFingerprint, Vec<usize>)>,
}

impl Direct {
    fn new() -> Self {
        let ws = Workspace::new();
        let mut models = HashMap::new();
        for &name in BUILTIN_MODELS {
            let (network, coverage) = build_model(name).expect("builtin model");
            let shape = network.input_shape().to_vec();
            models.insert(name, (ws.register(name, network, coverage), shape));
        }
        for &name in BUILTIN_GRAPH_MODELS {
            let (graph, coverage) = build_graph_model(name).expect("builtin graph");
            let shape = graph.input_shape().to_vec();
            models.insert(name, (ws.register_graph(name, graph, coverage), shape));
        }
        let direct = Self { ws, models };
        for a in warm_lines() {
            let _ = direct.run(&a.line);
        }
        direct
    }

    /// Resolve and run one request line as the engine would; times the
    /// whole service, pool materialisation included.
    fn run(&self, line: &str) -> Result<(f64, TestGenReport), String> {
        let request = parse_request(line).map_err(|e| e.message)?;
        let RequestOp::Generate(spec) = request.op else {
            return Err(format!("not a generate line: {line}"));
        };
        let t = Instant::now();
        let (key, shape) = self
            .models
            .get(spec.model.as_str())
            .ok_or_else(|| format!("unknown model {}", spec.model))?;
        let criterion = spec
            .criterion
            .clone()
            .map_or(CriterionSpec::ModelDefault, CriterionSpec::Spec);
        let request = TestGenRequest::new(*key, spec.strategy, spec.budget)
            .with_seed(spec.seed)
            .with_gradgen(spec.gradgen())
            .with_criterion_selector(criterion)
            .with_candidates(spec.pool.materialize(shape)?);
        let report = self.ws.run(&request).map_err(|e| e.to_string())?;
        Ok((ms_since(t), report))
    }
}

/// A served response must carry exactly what a direct run produces.
fn same(response: &Json, report: &TestGenReport) -> Result<(), String> {
    let nums = |key: &str| -> Vec<f64> {
        response
            .get(key)
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let curve: Vec<f64> = report
        .tests
        .coverage_curve
        .iter()
        .map(|&c| f64::from(c))
        .collect();
    let indices: Vec<f64> = report
        .selected_indices()
        .iter()
        .map(|&i| i as f64)
        .collect();
    let agree = response.get("criterion").and_then(Json::as_str) == Some(report.criterion_id)
        && response.get("num_units").and_then(Json::as_u64) == Some(report.num_units as u64)
        && response.get("num_tests").and_then(Json::as_u64) == Some(report.tests.len() as u64)
        && response.get("final_coverage").and_then(Json::as_f64)
            == Some(f64::from(report.final_coverage()))
        && nums("coverage_curve") == curve
        && nums("selected_indices") == indices;
    if agree {
        Ok(())
    } else {
        Err(format!(
            "served response differs from a direct run: {response}"
        ))
    }
}

/// Per-layer view of serving: one open-loop phase at `RATE` for `seconds`
/// and its `stats`, then every ok line replayed through a direct
/// `Workspace::run`. Each replay must equal its served response; the
/// difference of the two latencies is `serve.overhead_ms`.
pub fn layer_run(ctx: &Ctx, out: &mut Outcome, seconds: f64) {
    let arrivals = schedule(ctx.seed, "high", RATE, seconds);
    let engine = start_engine(arrivals.len() + 64, out);
    let phase = run_phase(&engine, &arrivals);
    let (tx, rx) = mpsc::channel();
    engine.handle(r#"{"id":"stats","op":"stats"}"#, &tx);
    let stats = rx
        .recv()
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .unwrap_or(Json::Null);
    engine.drain();
    phase.record(&arrivals, out);

    let direct = Direct::new();
    let mut overhead = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        let Some((served_ms, response)) = phase.ok(i) else {
            continue;
        };
        let replay = direct
            .run(&a.line)
            .and_then(|(ms, report)| same(response, &report).map(|()| ms));
        if let Some(ms) = out.record(replay) {
            overhead.push(served_ms - ms);
        }
    }

    let count = |field: &str| {
        stats
            .get("coalesce")
            .and_then(|o| o.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let m = &mut out.metrics;
    m.set(
        "serve.handle_us",
        Dist::of(&phase.handle_us).map_or(0.0, |d| d.p50),
    );
    m.set(
        "serve.gen_lag_ms",
        Dist::of(&phase.gen_lag_ms).map_or(0.0, |d| d.tail),
    );
    m.set("serve.backlog_max", phase.backlog_max as f64);
    m.set("serve.timeouts", phase.kind_count("timeout") as f64);
    m.set("serve.batches", count("batches"));
    m.set("serve.mean_batch_size", count("mean_batch_size"));
    m.set("serve.shared_samples", count("shared_samples"));
    m.set(
        "serve.overhead_ms",
        Dist::of(&overhead).map_or(0.0, |d| d.p50),
    );
    out.notes.push(format!(
        "serve layer: {} requests at {RATE}/s, {} replayed and matched",
        arrivals.len(),
        overhead.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_serve::protocol::{GenerateSpec, PoolSpec};

    fn spec(a: &Arrival) -> GenerateSpec {
        match parse_request(&a.line).expect("schedule lines parse").op {
            RequestOp::Generate(spec) => *spec,
            other => panic!("not a generate line: {other:?}"),
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let a = schedule(7, "high", 130.0, 3.0);
        assert_eq!(a, schedule(7, "high", 130.0, 3.0));
        assert_ne!(a, schedule(8, "high", 130.0, 3.0));
        assert_ne!(a, schedule(7, "low", 130.0, 3.0));
        assert_eq!(a.len(), 390);
        assert!(a.windows(2).all(|w| w[0].offset <= w[1].offset));
        assert!(a.iter().all(|x| (0.0..3.0).contains(&x.offset)));
        for x in &a {
            let s = spec(x);
            assert!(matches!(s.pool, PoolSpec::Synthetic { size: 16..=64, .. }));
        }
    }

    #[test]
    fn every_seed_deals_the_same_mix() {
        // Kinds, hot pools and deadlines each come in fixed proportions.
        let mix = |seed| {
            let (mut kinds, mut hot, mut deadlines) = (Vec::new(), 0, 0);
            for a in schedule(seed, "low", 100.0, 5.0) {
                let s = spec(&a);
                kinds.push(format!(
                    "{} {:?} {}",
                    s.model,
                    s.criterion,
                    s.strategy.name()
                ));
                hot += usize::from(
                    matches!(s.pool, PoolSpec::Synthetic { seed, .. } if seed <= HOT_POOLS),
                );
                deadlines += usize::from(s.deadline_ms.is_some());
            }
            kinds.sort();
            (kinds, hot, deadlines)
        };
        assert_eq!(mix(1), mix(2));
        assert_eq!(mix(1).1, 425);
        assert_eq!(mix(1).2, 50);
    }
}
