//! What a run reports: the operation tally, the end-to-end or per-layer
//! metrics, run facts for the log, and the spans of a traced run.

use crate::stats::percentile_sorted;
use crate::trace::{self, Span};
use datawa_obs::MetricsSnapshot;
use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`, in report order. `BENCHMARK.json`
/// lists the same names.
pub const END_TO_END: [(&str, &str); 6] = [
    ("events_per_s", "events/s"),
    ("cpu_s_per_mevent", "s/Mevent"),
    ("recovery_s", "s"),
    ("assigned_tasks", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A metric a
/// workload cannot observe reads 0 there.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("stream.ingest.calls", "count"),
    ("stream.ingest.busy_s", "s"),
    ("stream.advance.calls", "count"),
    ("stream.advance.busy_s", "s"),
    ("stream.advance.p99_ms", "ms"),
    ("stream.queue_depth.high_water", "count"),
    ("journal.records", "count"),
    ("journal.bytes", "bytes"),
    ("journal.decode_s", "s"),
    ("journal.replay_s", "s"),
    ("assign.plan.calls", "count"),
    ("assign.plan.busy_s", "s"),
    ("assign.plan.p99_ms", "ms"),
    ("assign.plan.share_pct", "%"),
    ("assign.partitions.reused", "count"),
    ("assign.partitions.recomputed", "count"),
    ("assign.cache_hit_pct", "%"),
    ("assign.search.nodes", "count"),
    ("assign.pool.occupancy_peak", "count"),
    ("assign.dispatches", "count"),
    ("assign.step.residual_s", "s"),
    ("predict.observe.calls", "count"),
    ("predict.observe.busy_s", "s"),
    ("predict.forecast.calls", "count"),
    ("predict.forecast.busy_s", "s"),
    ("predict.refreshes", "count"),
    ("service.pump.calls", "count"),
    ("service.pump.busy_s", "s"),
    ("service.backlog.high_water", "count"),
    ("service.backpressure_stalls", "count"),
    ("net.ingest.p99_ms", "ms"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.rejected_admission", "count"),
    ("net.send.busy_s", "s"),
    ("gen.lag_p99_ms", "ms"),
    ("net.tenant_skew", "ratio"),
    ("bench.sink.self_s", "s"),
    ("bench.source.self_s", "s"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

const NS: f64 = 1e-9;

/// Per-layer values by name.
#[derive(Debug, Default)]
pub struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
    /// Self time of the advance/close spans, from which planner time is
    /// carved out once the registry is read.
    advance_self_s: f64,
    advance_busy_s: f64,
}

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Span-derived metrics of an embedded-session run whose sessions are
    /// spans called `root`.
    pub fn from_spans(spans: &[Span], root: &str) -> LayerMetrics {
        let totals = trace::totals_by_name(spans);
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        let mut m = LayerMetrics::default();
        for (span, calls, busy) in [
            (
                "stream.ingest",
                "stream.ingest.calls",
                "stream.ingest.busy_s",
            ),
            (
                "stream.advance",
                "stream.advance.calls",
                "stream.advance.busy_s",
            ),
            (
                "predict.observe",
                "predict.observe.calls",
                "predict.observe.busy_s",
            ),
            (
                "predict.forecast",
                "predict.forecast.calls",
                "predict.forecast.busy_s",
            ),
        ] {
            m.set(calls, t(span).calls as f64);
            m.set(busy, t(span).total_ns as f64 * NS);
        }
        let durations = trace::durations_ns(spans, "stream.advance");
        m.set(
            "stream.advance.p99_ms",
            percentile_sorted(&durations, 99.0).map_or(0.0, |ns| ns as f64 * 1e-6),
        );
        m.set("bench.sink.self_s", t("bench.sink").self_ns as f64 * NS);
        m.set("bench.source.self_s", t("bench.source").self_ns as f64 * NS);
        m.set("trace.coverage_pct", trace::coverage_pct(spans, root));
        let (advance, close) = (t("stream.advance"), t("stream.close"));
        m.advance_self_s = (advance.self_ns + close.self_ns) as f64 * NS;
        m.advance_busy_s = (advance.total_ns + close.total_ns) as f64 * NS;
        m
    }

    /// Metrics the program's own registry keeps.
    pub fn add_registry(&mut self, s: &MetricsSnapshot) {
        let counter = |n: &str| s.counters.get(n).copied().unwrap_or(0) as f64;
        let high_water = |n: &str| s.gauges.get(n).map_or(0.0, |g| g.high_water.max(0) as f64);
        let hist = |n: &str| s.histograms.get(n).copied().unwrap_or_default();

        self.set(
            "stream.queue_depth.high_water",
            high_water("stream.queue_depth"),
        );
        let plan = hist("assign.replan_seconds");
        let plan_busy = plan.sum as f64 * NS;
        self.set("assign.plan.calls", plan.count as f64);
        self.set("assign.plan.busy_s", plan_busy);
        self.set("assign.plan.p99_ms", plan.p99 as f64 * 1e-6);
        if self.advance_busy_s > 0.0 {
            self.set(
                "assign.plan.share_pct",
                100.0 * plan_busy / self.advance_busy_s,
            );
            self.set("assign.step.residual_s", self.advance_self_s - plan_busy);
        }
        let (reused, recomputed) = (
            counter("assign.partitions_reused"),
            counter("assign.partitions_recomputed"),
        );
        self.set("assign.partitions.reused", reused);
        self.set("assign.partitions.recomputed", recomputed);
        if reused + recomputed > 0.0 {
            self.set(
                "assign.cache_hit_pct",
                100.0 * reused / (reused + recomputed),
            );
        }
        self.set("assign.search.nodes", counter("assign.search_nodes"));
        self.set(
            "assign.pool.occupancy_peak",
            high_water("assign.pool_occupancy"),
        );
        self.set("assign.dispatches", counter("assign.dispatches"));

        let pump = hist("service.pump_seconds");
        self.set("service.pump.calls", pump.count as f64);
        self.set("service.pump.busy_s", pump.sum as f64 * NS);
        self.set("service.backlog.high_water", high_water("service.backlog"));
        self.set(
            "service.backpressure_stalls",
            counter("service.backpressure_stalls"),
        );
        self.set(
            "net.ingest.p99_ms",
            hist("net.ingest_seconds").p99 as f64 * 1e-6,
        );
        self.set("net.frames_in", counter("net.frames_in"));
        self.set("net.frames_out", counter("net.frames_out"));
        self.set("net.rejected_admission", counter("net.rejected_admission"));
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: LayerMetrics,
    pub info: Vec<(&'static str, String)>,
    /// Spans of the traced timed phase (the self-time tables use these).
    pub spans: Vec<Span>,
    /// Spans of the traced recovery phase.
    pub recovery_spans: Vec<Span>,
}

/// Failure messages kept for the log.
const KEPT_FAILURES: usize = 8;

impl Report {
    pub fn attempt(&mut self, operations: u64) {
        self.attempted += operations;
    }

    /// Counts `n` failed operations (already counted as attempted).
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(what());
            }
        }
    }

    /// One checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail(u64::from(!ok), what);
    }

    pub fn info(&mut self, key: &'static str, value: String) {
        self.info.retain(|(k, _)| *k != key);
        self.info.push((key, value));
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "{name} is not an end-to-end metric"
        );
        self.e2e.push((name, value));
    }
}
