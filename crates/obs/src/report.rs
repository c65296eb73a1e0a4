//! The exported, deterministic-order metrics snapshot.

use serde::Serialize;

/// Aggregate wall-clock for one span path (e.g. `"traffic/synthesize/day"`).
#[derive(Debug, Clone, Serialize)]
pub struct SpanStat {
    /// `/`-joined nesting path of static span names.
    pub path: String,
    /// Number of times the span closed.
    pub count: u64,
    /// Total wall-clock across all closures, in nanoseconds.
    pub total_ns: u64,
    /// Fastest single closure, in nanoseconds.
    pub min_ns: u64,
    /// Slowest single closure, in nanoseconds.
    pub max_ns: u64,
}

/// One monotonic counter.
#[derive(Debug, Clone, Serialize)]
pub struct CounterStat {
    /// Metric name, dot-separated (`"synth.flows_emitted"`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One max-semantics gauge (high-water mark).
#[derive(Debug, Clone, Serialize)]
pub struct GaugeStat {
    /// Metric name.
    pub name: String,
    /// Highest value observed.
    pub value: u64,
}

/// Summary of one [`netstats::LogHistogram`]-backed distribution.
#[derive(Debug, Clone, Serialize)]
pub struct HistStat {
    /// Metric name.
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of observations (saturated to `u64` for export).
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median estimate (log-bucket interpolation, ~9% relative error).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistStat {
    pub(crate) fn from_histogram(name: String, h: &netstats::LogHistogram) -> HistStat {
        let q = |p: f64| h.quantile(p).map(|v| v.round() as u64).unwrap_or(0);
        HistStat {
            name,
            count: h.count(),
            sum: u64::try_from(h.sum()).unwrap_or(u64::MAX),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
        }
    }
}

/// A full merged telemetry snapshot, ordered by metric name/span path.
///
/// Everything except the `*_ns` span fields is a pure function of the
/// workload: counts, gauge high-water marks, and histogram shapes are
/// invariant to thread layout. [`MetricsReport::counts_fingerprint`]
/// captures exactly that invariant subset.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsReport {
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeStat>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistStat>,
}

impl MetricsReport {
    /// Nothing recorded at all?
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Look up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistStat> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The layout-invariant portion of the report as one stable string:
    /// span paths and close counts (no nanoseconds), counters, gauges, and
    /// full histogram summaries. Two runs of the same workload must produce
    /// identical fingerprints regardless of `--threads`.
    pub fn counts_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.spans {
            writeln!(out, "span {} count={}", s.path, s.count).unwrap();
        }
        for c in &self.counters {
            writeln!(out, "counter {} {}", c.name, c.value).unwrap();
        }
        for g in &self.gauges {
            writeln!(out, "gauge {} {}", g.name, g.value).unwrap();
        }
        for h in &self.histograms {
            writeln!(
                out,
                "hist {} count={} sum={} min={} max={} p50={} p90={} p99={}",
                h.name, h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
            )
            .unwrap();
        }
        out
    }
}
