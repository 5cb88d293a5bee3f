//! # gbd-telemetry — runtime observability for the GBDA workspace
//!
//! A dependency-free (std-only) telemetry substrate shared by every layer
//! of the workspace: the scan kernel and planner, the posterior cache, the
//! dynamic storage layer and the crash-safe durability path all report
//! into one process-wide [`MetricsRegistry`] and one [`TraceBuffer`].
//!
//! Three primitives:
//!
//! * **Metrics** — named [`Counter`]s, [`Gauge`]s and log-bucketed latency
//!   [`Histogram`]s (fixed ~2×-spaced buckets from 100 ns to 10 s). All
//!   increments are wait-free `fetch_add`s on thread-sharded,
//!   cache-line-padded atomics, so concurrent searches (one per serving
//!   thread) never contend.
//! * **Traces** — [`Span`] guards ([`span!`]`("scan.stage3")`-style)
//!   recording start/duration plus structured `key = value` events into a
//!   lock-free fixed-capacity ring ([`TraceBuffer`]) that overwrites the
//!   oldest entries and counts drops, so tracing is safe to leave on.
//! * **Exposition** — [`MetricsRegistry::render_prometheus`] (text format
//!   with `# HELP`/`# TYPE` and `_bucket`/`_sum`/`_count` series) and
//!   [`MetricsRegistry::render_json`], plus the [`Snapshot`] / delta API
//!   tests and benches assert exact increments with.
//!
//! The whole layer is gated by a process-wide [`TelemetryLevel`] under an
//! **escalate-or-explicit-set** contract: engine construction applies
//! `GbdaConfig::telemetry` via [`escalate_level`] (monotone — it can raise
//! the level but never silently lower what another engine in the process
//! asked for), while [`set_level`] is the explicit override that also
//! lowers. [`TelemetryLevel::Off`] reduces every instrumentation site to
//! one relaxed atomic load and a predictable branch; the default
//! [`TelemetryLevel::Metrics`] records metrics only;
//! [`TelemetryLevel::MetricsAndTraces`] additionally arms spans.
//!
//! ```
//! use gbd_telemetry::{global, span, set_level, TelemetryLevel};
//!
//! set_level(TelemetryLevel::MetricsAndTraces);
//! let scans = global().counter("doc_scans_total", "Scans run by the doc test.");
//! let latency = global().histogram("doc_scan_seconds", "Doc-test scan latency.");
//!
//! let before = global().snapshot();
//! {
//!     let _span = span!("doc.scan");
//!     scans.inc();
//!     latency.record(250e-9);
//! }
//! let delta = global().snapshot().delta(&before);
//! assert_eq!(delta.counter("doc_scans_total"), 1);
//! assert_eq!(delta.histogram("doc_scan_seconds").unwrap().count, 1);
//! assert!(global().render_prometheus().contains("doc_scans_total"));
//! set_level(TelemetryLevel::Metrics);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod expose;
mod registry;
mod trace;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot, COUNTER_SHARDS,
    HISTOGRAM_BOUNDS, HISTOGRAM_BUCKETS,
};
pub use trace::{now_ns, trace_event, Span, TraceBuffer, TraceEvent, TraceKind};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How much the telemetry layer records, process-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum TelemetryLevel {
    /// Record nothing. Every instrumentation site compiles down to one
    /// relaxed atomic load and a predictable branch.
    Off = 0,
    /// Record counters, gauges and histograms (the default).
    #[default]
    Metrics = 1,
    /// Additionally arm [`Span`] guards and structured trace events.
    MetricsAndTraces = 2,
}

impl TelemetryLevel {
    /// The level's canonical name (`"off"` / `"metrics"` /
    /// `"metrics_and_traces"`).
    pub fn name(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Metrics => "metrics",
            TelemetryLevel::MetricsAndTraces => "metrics_and_traces",
        }
    }
}

/// The process-wide level; defaults to [`TelemetryLevel::Metrics`].
static LEVEL: AtomicU8 = AtomicU8::new(TelemetryLevel::Metrics as u8);

/// Sets the process-wide telemetry level.
///
/// This is the *explicit* override: it lowers as well as raises, and it is
/// the only way to lower. Code that merely *requires* a level — engine
/// construction applying `GbdaConfig::telemetry`, for instance — must use
/// [`escalate_level`] instead, so that building one component can never
/// silently stop another component's recording.
pub fn set_level(level: TelemetryLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Raises the process-wide telemetry level to at least `level`; never
/// lowers it. Returns the level in effect afterwards.
///
/// This is the escalate half of the escalate-or-explicit-set contract: a
/// component that wants recording calls this with the level it needs, and
/// concurrent callers compose monotonically (one atomic `fetch_max`, no
/// read-modify-write race). Lowering — e.g. turning telemetry off for a
/// benchmark — stays an explicit, deliberate [`set_level`] call.
pub fn escalate_level(level: TelemetryLevel) -> TelemetryLevel {
    let previous = LEVEL.fetch_max(level as u8, Ordering::Relaxed);
    match previous.max(level as u8) {
        0 => TelemetryLevel::Off,
        1 => TelemetryLevel::Metrics,
        _ => TelemetryLevel::MetricsAndTraces,
    }
}

/// The current process-wide telemetry level.
pub fn level() -> TelemetryLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => TelemetryLevel::Off,
        1 => TelemetryLevel::Metrics,
        _ => TelemetryLevel::MetricsAndTraces,
    }
}

/// `true` when metrics are recorded (level ≥ [`TelemetryLevel::Metrics`]).
/// Instrumentation sites branch on this before touching any instrument.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= TelemetryLevel::Metrics as u8
}

/// `true` when spans and trace events are recorded
/// (level = [`TelemetryLevel::MetricsAndTraces`]).
#[inline(always)]
pub fn traces_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= TelemetryLevel::MetricsAndTraces as u8
}

/// Capacity of the global trace ring: enough for the spans and events of
/// many queries between scrapes without unbounded memory.
const GLOBAL_TRACE_CAPACITY: usize = 4096;

/// The process-wide metrics registry every workspace crate reports into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// The process-wide trace ring [`Span`]s and [`trace_event`]s record into.
pub fn traces() -> &'static TraceBuffer {
    static TRACES: OnceLock<TraceBuffer> = OnceLock::new();
    TRACES.get_or_init(|| TraceBuffer::with_capacity(GLOBAL_TRACE_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_gates_metrics_and_traces() {
        // One test owns the global level end-to-end so parallel tests in
        // this binary never race on it (the others leave it alone).
        set_level(TelemetryLevel::Off);
        assert!(!metrics_enabled());
        assert!(!traces_enabled());
        assert_eq!(level(), TelemetryLevel::Off);
        {
            let span = Span::enter("test.unarmed");
            span.event("ignored", 1);
        }
        let recorded_while_off = traces().recorded();

        set_level(TelemetryLevel::Metrics);
        assert!(metrics_enabled());
        assert!(!traces_enabled());
        assert_eq!(
            traces().recorded(),
            recorded_while_off,
            "no traces below MetricsAndTraces"
        );

        set_level(TelemetryLevel::MetricsAndTraces);
        assert!(traces_enabled());
        {
            let span = span!("test.armed");
            span.event("step", 7);
        }
        trace_event("test.free", "value", 9);
        assert!(traces().recorded() >= recorded_while_off + 3);

        set_level(TelemetryLevel::Metrics);
        assert_eq!(level(), TelemetryLevel::Metrics);
        assert_eq!(TelemetryLevel::default(), TelemetryLevel::Metrics);

        // Escalation is monotone: it raises but never lowers — lowering
        // stays an explicit `set_level` call.
        assert_eq!(
            escalate_level(TelemetryLevel::Off),
            TelemetryLevel::Metrics,
            "escalating to a lower level is a no-op"
        );
        assert_eq!(level(), TelemetryLevel::Metrics);
        assert_eq!(
            escalate_level(TelemetryLevel::MetricsAndTraces),
            TelemetryLevel::MetricsAndTraces,
            "escalating above the current level raises it"
        );
        assert_eq!(level(), TelemetryLevel::MetricsAndTraces);
        set_level(TelemetryLevel::Metrics);
    }

    #[test]
    fn level_names_are_stable() {
        assert_eq!(TelemetryLevel::Off.name(), "off");
        assert_eq!(TelemetryLevel::Metrics.name(), "metrics");
        assert_eq!(
            TelemetryLevel::MetricsAndTraces.name(),
            "metrics_and_traces"
        );
    }

    #[test]
    fn global_registry_and_traces_are_singletons() {
        let a = global() as *const _;
        let b = global() as *const _;
        assert_eq!(a, b);
        assert_eq!(traces().capacity(), GLOBAL_TRACE_CAPACITY);
    }
}
