//! Turning measurements into metrics, report lines and the result files.

use std::fmt::Write as _;
use std::path::Path;

use crate::common::Outcome;
use crate::stats::Dist;
use crate::trace::{self, Span};

/// The end-to-end measurements of one untraced run.
pub struct EndToEnd {
    /// Each set-up's duration; the median is `setup_s`.
    pub setup_s: Vec<f64>,
    /// Suite latencies.
    pub suite_ms: Vec<f64>,
    pub suites_per_s: f64,
    /// Final coverage of every suite.
    pub coverage: Vec<f64>,
    /// Latency of each `Workspace::run` call.
    pub req_ms: Vec<f64>,
    pub goodput_rps: f64,
    /// The IP user's validation replay of each suite (`req_ms_p50_low`).
    pub validate_ms: Vec<f64>,
}

impl EndToEnd {
    pub fn emit(self, out: &mut Outcome) {
        let m = &mut out.metrics;
        let mut setup = self.setup_s;
        setup.sort_by(f64::total_cmp);
        m.set(
            "setup_s",
            setup.get(setup.len() / 2).copied().unwrap_or(0.0),
        );
        for (prefix, samples, what) in [
            ("suite_ms", &self.suite_ms, "suite"),
            ("req_ms", &self.req_ms, "request"),
        ] {
            let d = Dist::of(samples);
            let (p50, tail) = d.map_or((0.0, 0.0), |d| (d.p50, d.tail));
            let tail_name = format!("{prefix}_tail");
            m.set(format!("{prefix}_p50"), p50);
            m.set(tail_name.clone(), tail);
            if let Some(d) = d {
                out.notes.push(format!(
                    "{tail_name}: {what} p{} of {} samples ({} beyond)",
                    d.tail_pct,
                    d.n,
                    d.n - crate::stats::rank(d.n, d.tail_pct)
                ));
            }
        }
        // Every replay of one model's suite does the same work, so a replay
        // tail would measure only the host; it is a note, not a metric.
        if let Some(d) = Dist::of(&self.validate_ms) {
            m.set("req_ms_p50_low", d.p50);
            out.notes.push(format!(
                "user validation replay: p50 {:.3} ms, p{} {:.3} ms of {} samples",
                d.p50, d.tail_pct, d.tail, d.n
            ));
        }
        m.set("suites_per_s", self.suites_per_s);
        let coverage = if self.coverage.is_empty() {
            0.0
        } else {
            self.coverage.iter().sum::<f64>() / self.coverage.len() as f64
        };
        m.set("suite_coverage", coverage);
        m.set("goodput_rps", self.goodput_rps);
    }
}

/// Self-time table, unattributed share and tracing overhead of one traced
/// phase, plus the per-layer metrics the spans give. Self-time shares are of
/// the suites' total time; spans on worker threads overlap, so a layer's
/// share can exceed its wall-clock share.
pub fn span_metrics(out: &mut Outcome, spans: &[Span], overhead_ms: f64) {
    let rows = trace::self_times(spans);
    let wall_ms = rows.get(trace::ROOT).map_or(0.0, |r| r.total_ms);
    let share = trace::unattributed_share(spans);
    out.notes.push(format!(
        "{:<28} {:>7} {:>11} {:>11} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    ));
    for (name, row) in &rows {
        out.notes.push(format!(
            "{name:<28} {:>7} {:>11.3} {:>11.3} {:>6.1}%",
            row.count,
            row.total_ms,
            row.self_ms,
            100.0 * row.self_ms / wall_ms.max(1e-9)
        ));
    }
    out.notes.push(format!(
        "{:<28} {:>7} {:>11.3} {:>11.3} {:>6.1}%",
        "unattributed",
        "",
        wall_ms * share,
        wall_ms * share,
        100.0 * share
    ));
    out.notes.push(format!(
        "tracing overhead: {overhead_ms:.3} ms per suite (traced minus untraced p50)"
    ));
    let m = &mut out.metrics;
    m.set("trace.unattributed_share", share);
    m.set("trace.overhead_ms", overhead_ms);
    let mean = |name: &str, total: bool| {
        rows.get(name)
            .map(|r| (if total { r.total_ms } else { r.self_ms }) / r.count.max(1) as f64)
    };
    for (metric, span) in [
        ("workspace.run_ms", "workspace.run"),
        ("eval.activation_sets_ms", "eval.activation_sets"),
        ("protocol.golden_ms", "protocol.golden"),
        ("protocol.validate_ms", "protocol.validate"),
    ] {
        if let Some(v) = mean(span, true) {
            m.set(metric, v);
        }
    }
    if let Some(v) = mean("workspace.run", false) {
        m.set("workspace.unattributed_ms", v);
    }
    out.spans = spans.to_vec();
}

/// One result line as JSON: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
            json_num(*value)
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number with every digit `{}` prints; non-finite values become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write the run's record (provenance, metrics, notes) and, for a traced
/// run, its spans as NDJSON next to it.
pub fn write_results(
    dir: &Path,
    stem: &str,
    provenance: &[(&str, String)],
    result: &str,
    out: &Outcome,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut doc = String::from("{\"provenance\": {");
    for (i, (k, v)) in provenance.iter().enumerate() {
        if i > 0 {
            doc.push_str(", ");
        }
        let _ = write!(doc, "{}: {}", json_str(k), json_str(v));
    }
    let _ = write!(doc, "}}, \"result\": {result}, \"notes\": [");
    for (i, note) in out.notes.iter().enumerate() {
        if i > 0 {
            doc.push_str(", ");
        }
        doc.push_str(&json_str(note));
    }
    doc.push_str("]}\n");
    std::fs::write(dir.join(format!("{stem}.json")), doc)?;
    if !out.spans.is_empty() {
        let mut lines = String::new();
        for s in &out.spans {
            let _ = writeln!(
                lines,
                r#"{{"id": {}, "parent": {}, "root": {}, "name": {}, "start_ns": {}, "end_ns": {}}}"#,
                s.id,
                s.parent,
                s.root,
                json_str(&s.name),
                s.start,
                s.end
            );
        }
        std::fs::write(dir.join(format!("{stem}-spans.ndjson")), lines)?;
    }
    Ok(())
}
