//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Nothing inside the program is instrumented: a span wraps a call the
//! benchmark makes into a layer's public function, or a call the program
//! makes back into benchmark code (the [`TracedCriterion`] wrapper). Each
//! span records its name, start, end, the span that caused it and the root
//! span of its suite. Spans stay in memory until [`take`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dnnip_core::bitset::Bitset;
use dnnip_core::criterion::{CoverageCriterion, GradientObjective};
use dnnip_graph::Graph;
use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::Network;
use dnnip_tensor::Tensor;

/// One finished span; times are nanoseconds since the first span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// Id of the root span of the suite this span belongs to.
    pub root: u64,
    pub name: String,
    pub start: u64,
    pub end: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
// Innermost open span of the driving thread (and its root): worker threads
// the program spawns inherit it as their parent.
static AMBIENT: AtomicU64 = AtomicU64::new(0);
static AMBIENT_ROOT: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static DRIVER: Cell<bool> = const { Cell::new(false) };
}

/// Switch recording on or off; the calling thread becomes the driving
/// thread whose open span other threads inherit.
pub fn enable(on: bool) {
    DRIVER.with(|d| d.set(true));
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the first span (or first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    root: u64,
    name: String,
    start: u64,
}

/// Open a span named `name` (a no-op guard while recording is off).
pub fn span(name: impl Into<String>) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            root: 0,
            name: String::new(),
            start: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, root) = STACK
        .with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| {
            let ambient = AMBIENT.load(Ordering::SeqCst);
            if ambient == 0 {
                (0, id)
            } else {
                (ambient, AMBIENT_ROOT.load(Ordering::SeqCst))
            }
        });
    STACK.with(|s| s.borrow_mut().push((id, root)));
    if DRIVER.with(Cell::get) {
        AMBIENT.store(id, Ordering::SeqCst);
        AMBIENT_ROOT.store(root, Ordering::SeqCst);
    }
    Guard {
        id,
        parent,
        root,
        name: name.into(),
        start: now_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = now_ns();
        let top = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.pop();
            s.last().copied()
        });
        if DRIVER.with(Cell::get) {
            let (id, root) = top.unwrap_or((0, 0));
            AMBIENT.store(id, Ordering::SeqCst);
            AMBIENT_ROOT.store(root, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            root: self.root,
            name: std::mem::take(&mut self.name),
            start: self.start,
            end,
        };
        // A poisoned lock only means another span writer panicked; the
        // vector itself is always whole.
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

/// Every span recorded so far, oldest first, emptying the buffer.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    spans.sort_by_key(|s| (s.start, s.id));
    spans
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-name totals of one traced phase.
#[derive(Debug, Clone, Default)]
pub struct Row {
    pub count: usize,
    pub total_ms: f64,
    /// Duration minus the part of it that child spans cover.
    pub self_ms: f64,
}

/// Self-time table of `spans`, by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, Row> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start, s.end));
        let row = rows.entry(s.name.clone()).or_default();
        row.count += 1;
        row.total_ms += dur as f64 / 1e6;
        row.self_ms += (dur - covered.min(dur)) as f64 / 1e6;
    }
    rows
}

/// Name of the root span that stands for one suite.
pub const ROOT: &str = "suite";

/// Share of the suites' time (their root spans) that no layer span covers:
/// the time the trace cannot attribute to a layer.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let mut layer: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        layer.entry(s.root).or_default().push((s.start, s.end));
    }
    let (mut wall, mut covered) = (0u64, 0u64);
    for root in spans.iter().filter(|s| s.parent == 0 && s.name == ROOT) {
        wall += root.end - root.start;
        covered += layer
            .get_mut(&root.id)
            .map_or(0, |c| covered_ns(c, root.start, root.end));
    }
    1.0 - covered as f64 / wall.max(1) as f64
}

/// A criterion that forwards every call to `inner`, recording a span around
/// each covered-set computation the program asks it for. Id and digest are
/// the inner criterion's, so cache and disk entries are shared with
/// untraced runs.
#[derive(Debug)]
pub struct TracedCriterion {
    inner: Arc<dyn CoverageCriterion>,
    name: String,
}

impl TracedCriterion {
    pub fn wrap(inner: Arc<dyn CoverageCriterion>) -> Arc<dyn CoverageCriterion> {
        let name = format!("criterion.{}", inner.id());
        Arc::new(Self { inner, name })
    }
}

impl CoverageCriterion for TracedCriterion {
    fn id(&self) -> &'static str {
        self.inner.id()
    }

    fn config_digest(&self) -> u64 {
        self.inner.config_digest()
    }

    fn num_units(&self, network: &Network) -> usize {
        self.inner.num_units(network)
    }

    fn covered_units(
        &self,
        engine: &BatchGradientEngine,
        chunk: &[Tensor],
    ) -> dnnip_core::Result<Vec<Bitset>> {
        let _span = span(self.name.as_str());
        self.inner.covered_units(engine, chunk)
    }

    fn covered_units_reference(
        &self,
        network: &Network,
        sample: &Tensor,
    ) -> dnnip_core::Result<Bitset> {
        self.inner.covered_units_reference(network, sample)
    }

    fn gradient_objective(&self) -> Option<Arc<dyn GradientObjective>> {
        self.inner.gradient_objective()
    }

    fn forward_only(&self) -> bool {
        self.inner.forward_only()
    }

    fn num_units_graph(&self, graph: &Graph) -> Option<usize> {
        self.inner.num_units_graph(graph)
    }

    fn covered_units_graph(
        &self,
        graph: &Graph,
        chunk: &[Tensor],
    ) -> Option<dnnip_core::Result<Vec<Bitset>>> {
        let _span = span("graph.covered_units");
        self.inner.covered_units_graph(graph, chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            root: 1,
            name: name.to_string(),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; two children on different threads overlap at 30..40.
        let spans = vec![
            s(1, 0, "suite", 0, 100),
            s(2, 1, "layer", 10, 40),
            s(3, 1, "layer", 30, 60),
            s(4, 2, "inner", 15, 20),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows["suite"].self_ms, 50.0 / 1e6);
        assert_eq!(rows["layer"].count, 2);
        assert_eq!(rows["layer"].self_ms, (25.0 + 30.0) / 1e6);
        assert_eq!(rows["inner"].self_ms, 5.0 / 1e6);
        let share = unattributed_share(&spans);
        assert!((share - 0.5).abs() < 1e-12, "{share}");
        // Spans outside any suite root do not count.
        let mut more = spans.clone();
        more.push(Span {
            id: 9,
            parent: 0,
            root: 9,
            name: "protocol.validate".to_string(),
            start: 200,
            end: 300,
        });
        assert!((unattributed_share(&more) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn covered_clips_to_the_window() {
        let mut iv = vec![(0, 10), (5, 15), (40, 200)];
        assert_eq!(covered_ns(&mut iv, 5, 100), 10 + 60);
    }
}
