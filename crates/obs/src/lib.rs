//! Deterministic telemetry plane for the ipv6view pipeline.
//!
//! A hand-rolled (offline build — no `tracing`/`metrics` crates) subsystem
//! with three surfaces:
//!
//! 1. **Spans** — scoped wall-clock timers with parent/child nesting, created
//!    with the [`span!`] macro. Each thread keeps its own aggregate per span
//!    *path* (`"traffic/synthesize/day"`); the merge at
//!    [`snapshot`] sorts by path, never by thread order.
//! 2. **Counters / gauges / histograms** — [`counter_add`], [`gauge_max`],
//!    and [`hist_record`] write into per-thread shards that are merged
//!    deterministically at flush. Distributions are backed by
//!    [`netstats::LogHistogram`].
//! 3. **Export** — [`snapshot`] produces a [`MetricsReport`] whose field
//!    order is fully determined by metric names, so two runs of the same
//!    workload agree byte-for-byte on everything except wall-clock timings.
//!
//! # Determinism contract
//!
//! Instrumentation draws nothing from any RNG stream and never reorders
//! emission: every call site observes a *logical* event (one flow emitted,
//! one DNS query resolved) whose count is a function of the workload, not of
//! the thread layout. [`MetricsReport::counts_fingerprint`] captures exactly
//! the layout-invariant subset (counts, sums, deterministic histogram
//! shapes — no nanoseconds), which the experiment registry asserts is
//! identical at every `--threads` count. The suite's one executor, [`par`],
//! lives here because that needs its workers to inherit span paths.
//!
//! # Cost when disabled
//!
//! Telemetry is off by default. Every instrumentation entry point performs a
//! single relaxed atomic load and returns; no clocks are read, no
//! thread-locals touched, no locks taken. Scenario digests are byte-identical
//! whether the plane is compiled in or enabled.
//!
//! ```
//! obs::reset();
//! obs::set_enabled(true);
//! {
//!     let _outer = obs::span!("synthesize");
//!     let _inner = obs::span!("day", day = 3);
//!     obs::counter_add("synth.flows_emitted", 2);
//!     obs::hist_record("synth.flow_bytes", 1500);
//! }
//! let report = obs::snapshot();
//! obs::set_enabled(false);
//! assert_eq!(report.counter("synth.flows_emitted"), Some(2));
//! assert_eq!(report.spans[0].path, "synthesize");
//! assert_eq!(report.spans[1].path, "synthesize/day");
//! ```

#![forbid(unsafe_code)]

mod log;
mod metrics;
pub mod par;
mod report;
mod span;

pub use crate::log::{log_enabled, log_message, set_log_level, set_log_sink, Level};
pub use crate::metrics::{counter_add, gauge_max, hist_record, reset, snapshot};
pub use crate::report::{CounterStat, GaugeStat, HistStat, MetricsReport, SpanStat};
pub use crate::span::{current_span_path, enter_path, PathGuard, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the telemetry plane on or off. Off is the default; when off, every
/// instrumentation call is a single relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Is the telemetry plane currently recording?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a scoped span timer. Returns a guard; the span closes (and its
/// wall-clock is recorded under the current nesting path) when the guard
/// drops.
///
/// Optional `key = value` fields are accepted for call-site readability and
/// evaluated but *not* folded into the aggregation key — span cardinality
/// stays bounded by the set of static names, not by data values.
///
/// ```
/// # let id = 7u32;
/// let _g = obs::span!("synthesize", residence = id);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::SpanGuard::enter($name)
    };
    ($name:expr, $($field:ident = $value:expr),+ $(,)?) => {{
        $(let _ = &$value;)+
        $crate::SpanGuard::enter($name)
    }};
}

/// Log at [`Level::Error`]. See [`log_message`] for routing and filtering.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log_message($crate::Level::Error, format_args!($($arg)*))
    };
}

/// Log at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log_message($crate::Level::Warn, format_args!($($arg)*))
    };
}

/// Log at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log_message($crate::Level::Info, format_args!($($arg)*))
    };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log_message($crate::Level::Debug, format_args!($($arg)*))
    };
}

/// Log at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        $crate::log_message($crate::Level::Trace, format_args!($($arg)*))
    };
}
