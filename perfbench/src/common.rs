//! Shared pieces: run context, metric sink, models, scratch directories and
//! the correctness checks every suite goes through.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dnnip_accel::ip::FloatIp;
use dnnip_core::coverage::{CoverageConfig, EpsilonPolicy};
use dnnip_core::covered::CoveredSet;
use dnnip_core::eval::{CacheStats, Evaluator};
use dnnip_core::par::ExecPolicy;
use dnnip_core::persist::DiskStats;
use dnnip_core::protocol::FunctionalTestSuite;
use dnnip_nn::{zoo, Network};
use dnnip_tensor::Tensor;

/// Settings of one benchmark run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scratch: Scratch,
}

/// Metric values by name (units live with the metric lists in `main.rs`).
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable report lines (provenance of percentiles, span tables).
    pub notes: Vec<String>,
    /// Spans of a traced run, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    /// Count one attempted operation, failed when `err` is set (the error is
    /// kept for the report; the first few are printed).
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: check failed: {e}");
                }
                self.notes.push(format!("FAILED: {e}"));
                None
            }
        }
    }
}

/// Scratch space for persistent tiers, removed when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn new(root: PathBuf) -> std::io::Result<Self> {
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, empty directory for one tier.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{tag}-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub fn remove(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A model of the suite workloads with the two IPs its suites validate.
pub struct Model {
    pub name: &'static str,
    pub network: Arc<Network>,
    pub coverage: CoverageConfig,
    pub pristine: FloatIp,
    /// The first layer's weights negated: every suite must catch it.
    pub tampered: FloatIp,
    pub input_shape: Vec<usize>,
}

/// `cifar-scaled` (ReLU) and `mnist-scaled` (Tanh, relative epsilon), with
/// fixed weights so that only the inputs vary with the seed.
pub fn suite_models() -> Vec<Model> {
    let exec = ExecPolicy::auto();
    let cifar = zoo::cifar_model_scaled(7).expect("fixed geometry");
    let mnist = zoo::mnist_model_scaled(14).expect("fixed geometry");
    let relative = CoverageConfig {
        epsilon: EpsilonPolicy::RelativeToMax(1e-2),
        exec,
        ..CoverageConfig::default()
    };
    vec![
        model(
            "cifar-scaled",
            cifar,
            CoverageConfig {
                exec,
                ..CoverageConfig::default()
            },
        ),
        model("mnist-scaled", mnist, relative),
    ]
}

fn model(name: &'static str, network: Network, coverage: CoverageConfig) -> Model {
    Model {
        name,
        input_shape: network.input_shape().to_vec(),
        pristine: FloatIp::new(network.clone()),
        tampered: FloatIp::new(tamper(&network)),
        network: Arc::new(network),
        coverage,
    }
}

/// A copy of `network` with the first parameterised layer's weights negated.
pub fn tamper(network: &Network) -> Network {
    let mut params = network.parameters_flat();
    let first = network
        .param_layout()
        .segments()
        .first()
        .map(|s| s.offset..s.offset + s.len)
        .expect("zoo models have parameters");
    for p in &mut params[first] {
        *p = -*p;
    }
    let mut tampered = network.clone();
    tampered
        .set_parameters_flat(&params)
        .expect("same parameter count");
    tampered
}

/// Recompute a suite's final coverage through the criterion's reference
/// path; it must equal the pipeline's value bit for bit.
pub fn check_reference_coverage(
    evaluator: &Evaluator,
    inputs: &[Tensor],
    reported: f32,
) -> Result<(), String> {
    let criterion = evaluator.criterion();
    let mut covered = CoveredSet::new(evaluator.num_units());
    for x in inputs {
        let bits = criterion
            .covered_units_reference(evaluator.network(), x)
            .map_err(|e| format!("reference coverage: {e}"))?;
        covered.union_with(&CoveredSet::from_bitset(&bits));
    }
    let reference = covered.density();
    if reference.to_bits() == reported.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{}: reported coverage {reported} but the reference path gives {reference}",
            criterion.id()
        ))
    }
}

/// Replay `suite` on the model's pristine IP, as its user would, and return
/// the replay's latency in ms; it must pass.
pub fn validate_pristine(suite: &FunctionalTestSuite, model: &Model) -> Result<f64, String> {
    let t = Instant::now();
    let verdict = {
        let _span = crate::trace::span("protocol.validate");
        suite.validate(&model.pristine)
    }
    .map_err(|e| format!("validate pristine: {e}"))?;
    let ms = ms_since(t);
    if verdict.passed {
        Ok(ms)
    } else {
        Err(format!("{}: suite fails the pristine IP", model.name))
    }
}

/// The suite must catch the tampered IP.
pub fn check_tampered(suite: &FunctionalTestSuite, model: &Model) -> Result<(), String> {
    let verdict = suite
        .validate(&model.tampered)
        .map_err(|e| format!("validate tampered: {e}"))?;
    if verdict.passed {
        Err(format!("{}: suite misses the tampered IP", model.name))
    } else {
        Ok(())
    }
}

/// Cache and disk counters summed over the workspaces of a run.
#[derive(Debug, Default)]
pub struct TierTotals {
    pub cache: CacheStats,
    pub disk: DiskStats,
    /// Workspaces summed; resident bytes and compression are averaged.
    pub n: u64,
    compression: f64,
}

impl TierTotals {
    pub fn add(&mut self, cache: CacheStats, disk: Option<DiskStats>) {
        let c = &mut self.cache;
        c.hits += cache.hits;
        c.misses += cache.misses;
        c.flight_hits += cache.flight_hits;
        c.evictions += cache.evictions;
        c.resident_bytes += cache.resident_bytes;
        self.compression += cache.compression_ratio();
        if let Some(d) = disk {
            let t = &mut self.disk;
            t.hits += d.hits;
            t.misses += d.misses;
            t.writes += d.writes;
            t.write_errors += d.write_errors;
        }
        self.n += 1;
    }

    pub fn emit(&self, m: &mut Metrics) {
        let n = self.n.max(1) as f64;
        let c = &self.cache;
        m.set("cache.hits", c.hits as f64);
        m.set("cache.misses", c.misses as f64);
        m.set("cache.flight_hits", c.flight_hits as f64);
        m.set("cache.hit_rate", c.hit_rate());
        m.set("cache.evictions", c.evictions as f64);
        m.set("cache.resident_bytes", c.resident_bytes as f64 / n);
        m.set("cache.compression_ratio", self.compression / n);
        let d = &self.disk;
        m.set("disk.hits", d.hits as f64);
        m.set("disk.misses", d.misses as f64);
        m.set("disk.writes", d.writes as f64);
        m.set("disk.write_errors", d.write_errors as f64);
        m.set("disk.hit_rate", d.hit_rate());
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
