//! The metrics registry: sharded counters, gauges and log-bucketed latency
//! histograms, plus the [`Snapshot`] / delta API tests and benches consume.
//!
//! Every instrument is a cheap cloneable handle over shared atomic state.
//! Increments are wait-free (`fetch_add` on a thread-sharded slot — no
//! compare-and-swap loop, no lock) so concurrent searches never contend on
//! a cache line. The registry's lock is taken only on
//! registration and on read-side operations (snapshots, rendering), never
//! on the increment path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of atomic slots every counter and histogram is striped over.
/// A power of two so the shard pick is a mask, sized comfortably above the
/// shard parallelism the query engine uses in practice.
pub const COUNTER_SHARDS: usize = 16;

/// Upper bucket boundaries of every latency histogram, in seconds:
/// ~2×-spaced from 100 ns to 6.71 s plus a final 10 s bound. Values above
/// 10 s land in the implicit `+Inf` overflow bucket. A bucket counts
/// observations with `value <= bound` (Prometheus `le` semantics).
pub const HISTOGRAM_BOUNDS: [f64; 28] = [
    1e-7,
    2e-7,
    4e-7,
    8e-7,
    1.6e-6,
    3.2e-6,
    6.4e-6,
    1.28e-5,
    2.56e-5,
    5.12e-5,
    1.024e-4,
    2.048e-4,
    4.096e-4,
    8.192e-4,
    1.6384e-3,
    3.2768e-3,
    6.5536e-3,
    1.31072e-2,
    2.62144e-2,
    5.24288e-2,
    1.048576e-1,
    2.097152e-1,
    4.194304e-1,
    8.388608e-1,
    1.6777216,
    3.3554432,
    6.7108864,
    10.0,
];

/// Total bucket count of a histogram: every finite bound plus `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = HISTOGRAM_BOUNDS.len() + 1;

/// One cache-line-padded atomic slot, so two shards never share a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedSlot(AtomicU64);

/// Hands every thread a fixed shard index, assigned round-robin on first
/// use, so a thread's increments always hit the same cache line and
/// threads spread over distinct lines.
fn shard_index() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SHARD.with(|cell| {
        let mut shard = cell.get();
        if shard == usize::MAX {
            shard = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (COUNTER_SHARDS - 1);
            cell.set(shard);
        }
        shard
    })
}

struct CounterInner {
    name: &'static str,
    help: &'static str,
    shards: [PaddedSlot; COUNTER_SHARDS],
}

/// A monotonically increasing counter. Increments are wait-free and
/// relaxed; [`Counter::value`] sums the shards.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    fn new(name: &'static str, help: &'static str) -> Self {
        Counter {
            inner: Arc::new(CounterInner {
                name,
                help,
                shards: std::array::from_fn(|_| PaddedSlot::default()),
            }),
        }
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// The registered help text.
    pub fn help(&self) -> &'static str {
        self.inner.help
    }

    /// Adds `n` to the counter (wait-free, relaxed ordering).
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total over all shards.
    pub fn value(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|slot| slot.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("name", &self.name())
            .field("value", &self.value())
            .finish()
    }
}

struct GaugeInner {
    name: &'static str,
    help: &'static str,
    /// The gauge's `f64` value, stored as its bit pattern.
    bits: AtomicU64,
}

/// A gauge: a level that can move both ways (delta size, tombstone count,
/// last compaction duration). Stores an `f64`.
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    fn new(name: &'static str, help: &'static str) -> Self {
        Gauge {
            inner: Arc::new(GaugeInner {
                name,
                help,
                bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// The registered help text.
    pub fn help(&self) -> &'static str {
        self.inner.help
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.inner.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.inner.bits.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("name", &self.name())
            .field("value", &self.value())
            .finish()
    }
}

/// One shard of a histogram: its own bucket row plus sum/count, padded so
/// concurrent recorders on different shards never share a cache line.
#[repr(align(64))]
struct HistogramShard {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Default for HistogramShard {
    fn default() -> Self {
        HistogramShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

struct HistogramInner {
    name: &'static str,
    help: &'static str,
    shards: [HistogramShard; COUNTER_SHARDS],
}

/// A latency histogram over the fixed log-spaced [`HISTOGRAM_BOUNDS`]
/// buckets. Records are wait-free: one `fetch_add` on the bucket, sum and
/// count of the calling thread's shard.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn new(name: &'static str, help: &'static str) -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                name,
                help,
                shards: std::array::from_fn(|_| HistogramShard::default()),
            }),
        }
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// The registered help text.
    pub fn help(&self) -> &'static str {
        self.inner.help
    }

    /// The bucket a value falls into: the first bound with
    /// `value <= bound`, or the `+Inf` overflow bucket.
    pub fn bucket_index(value: f64) -> usize {
        HISTOGRAM_BOUNDS.partition_point(|&bound| bound < value)
    }

    /// Records one observation in seconds. Negative and non-finite values
    /// are clamped to zero (they can only come from clock anomalies).
    #[inline]
    pub fn record(&self, seconds: f64) {
        let seconds = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        let shard = &self.inner.shards[shard_index()];
        shard.buckets[Self::bucket_index(seconds)].fetch_add(1, Ordering::Relaxed);
        let nanos = (seconds * 1e9).round().min(u64::MAX as f64) as u64;
        shard.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation from a [`std::time::Duration`].
    #[inline]
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(elapsed.as_secs_f64());
    }

    /// The current per-bucket counts, sum and count, folded over shards.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        let mut sum_nanos = 0u64;
        let mut count = 0u64;
        for shard in &self.inner.shards {
            for (total, bucket) in buckets.iter_mut().zip(&shard.buckets) {
                *total += bucket.load(Ordering::Relaxed);
            }
            sum_nanos += shard.sum_nanos.load(Ordering::Relaxed);
            count += shard.count.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_nanos,
            count,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("name", &self.name())
            .field("count", &self.snapshot().count)
            .finish()
    }
}

/// The frozen state of one histogram: per-bucket (non-cumulative) counts
/// aligned with [`HISTOGRAM_BOUNDS`] plus the overflow bucket, the sum of
/// observations in nanoseconds, and the observation count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (not cumulative); index `i` counts observations in
    /// `(bound[i-1], bound[i]]`, the last entry is the `+Inf` bucket.
    pub buckets: Vec<u64>,
    /// Sum of all observations, in nanoseconds.
    pub sum_nanos: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// The sum of observations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos as f64 / 1e9
    }

    /// The cumulative bucket counts (Prometheus `le` series): entry `i` is
    /// the number of observations `<= HISTOGRAM_BOUNDS[i]`, the last entry
    /// (`+Inf`) equals [`Self::count`].
    pub fn cumulative(&self) -> Vec<u64> {
        let mut running = 0u64;
        self.buckets
            .iter()
            .map(|&b| {
                running += b;
                running
            })
            .collect()
    }

    /// This snapshot minus an earlier one, bucket-wise (saturating).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(now, before)| now.saturating_sub(*before))
                .collect(),
            sum_nanos: self.sum_nanos.saturating_sub(earlier.sum_nanos),
            count: self.count.saturating_sub(earlier.count),
        }
    }
}

/// A registry of named instruments. Registration is idempotent per name —
/// asking twice returns handles over the same shared state — so call sites
/// can lazily initialize `OnceLock` handles without coordination.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<Vec<Counter>>,
    gauges: RwLock<Vec<Gauge>>,
    histograms: RwLock<Vec<Histogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry. Most callers use the process-wide
    /// [`crate::global`] registry instead.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or retrieves) a counter by name.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        if let Some(existing) = self
            .counters
            .read()
            .expect("metrics registry poisoned")
            .iter()
            .find(|c| c.name() == name)
        {
            return existing.clone();
        }
        let mut counters = self.counters.write().expect("metrics registry poisoned");
        if let Some(existing) = counters.iter().find(|c| c.name() == name) {
            return existing.clone();
        }
        let counter = Counter::new(name, help);
        counters.push(counter.clone());
        counter
    }

    /// Registers (or retrieves) a gauge by name.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        if let Some(existing) = self
            .gauges
            .read()
            .expect("metrics registry poisoned")
            .iter()
            .find(|g| g.name() == name)
        {
            return existing.clone();
        }
        let mut gauges = self.gauges.write().expect("metrics registry poisoned");
        if let Some(existing) = gauges.iter().find(|g| g.name() == name) {
            return existing.clone();
        }
        let gauge = Gauge::new(name, help);
        gauges.push(gauge.clone());
        gauge
    }

    /// Registers (or retrieves) a histogram by name.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        if let Some(existing) = self
            .histograms
            .read()
            .expect("metrics registry poisoned")
            .iter()
            .find(|h| h.name() == name)
        {
            return existing.clone();
        }
        let mut histograms = self.histograms.write().expect("metrics registry poisoned");
        if let Some(existing) = histograms.iter().find(|h| h.name() == name) {
            return existing.clone();
        }
        let histogram = Histogram::new(name, help);
        histograms.push(histogram.clone());
        histogram
    }

    /// Clones of every registered counter, sorted by name.
    pub fn counters(&self) -> Vec<Counter> {
        let mut counters = self
            .counters
            .read()
            .expect("metrics registry poisoned")
            .clone();
        counters.sort_by_key(|c| c.name());
        counters
    }

    /// Clones of every registered gauge, sorted by name.
    pub fn gauges(&self) -> Vec<Gauge> {
        let mut gauges = self
            .gauges
            .read()
            .expect("metrics registry poisoned")
            .clone();
        gauges.sort_by_key(|g| g.name());
        gauges
    }

    /// Clones of every registered histogram, sorted by name.
    pub fn histograms(&self) -> Vec<Histogram> {
        let mut histograms = self
            .histograms
            .read()
            .expect("metrics registry poisoned")
            .clone();
        histograms.sort_by_key(|h| h.name());
        histograms
    }

    /// Freezes the current value of every instrument (plus the global trace
    /// buffer's recorded/dropped totals) into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters()
            .into_iter()
            .map(|c| (c.name(), c.value()))
            .collect();
        let gauges = self
            .gauges()
            .into_iter()
            .map(|g| (g.name(), g.value()))
            .collect();
        let histograms = self
            .histograms()
            .into_iter()
            .map(|h| (h.name(), h.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            traces_recorded: crate::traces().recorded(),
            traces_dropped: crate::traces().dropped(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.counters().len())
            .field("gauges", &self.gauges().len())
            .field("histograms", &self.histograms().len())
            .finish()
    }
}

/// A frozen view of a [`MetricsRegistry`]: plain maps from metric name to
/// value, comparable and subtractable — the unit tests' and benches' way to
/// assert on exactly the increments one operation produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, HistogramSnapshot>,
    /// Total events ever pushed at the global trace buffer.
    pub traces_recorded: u64,
    /// Events the global trace buffer dropped (overwritten or lapped).
    pub traces_dropped: u64,
}

impl Snapshot {
    /// A counter's value; 0 when the counter was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value; 0 when the gauge was never registered.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// A histogram's frozen state, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Iterates `(name, value)` over all counters.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &value)| (name, value))
    }

    /// Iterates `(name, value)` over all gauges.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&name, &value)| (name, value))
    }

    /// Iterates `(name, state)` over all histograms.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &HistogramSnapshot)> + '_ {
        self.histograms.iter().map(|(&name, h)| (name, h))
    }

    /// This snapshot minus an `earlier` one: counters and histograms
    /// subtract (saturating), gauges keep this snapshot's level (a gauge
    /// difference is rarely meaningful). Instruments registered only in
    /// this snapshot keep their value; ones only in `earlier` are omitted.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(&name, &value)| (name, value.saturating_sub(earlier.counter(name))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(&name, h)| {
                    let before = earlier.histogram(name).cloned().unwrap_or_default();
                    (name, h.delta(&before))
                })
                .collect(),
            traces_recorded: self.traces_recorded.saturating_sub(earlier.traces_recorded),
            traces_dropped: self.traces_dropped.saturating_sub(earlier.traces_dropped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_idempotently_and_sum_shards() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("test_total", "help");
        let b = registry.counter("test_total", "other help ignored");
        a.add(3);
        b.inc();
        assert_eq!(a.value(), 4);
        assert_eq!(registry.counters().len(), 1);
        assert_eq!(a.help(), "help");
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        // N threads × M increments must sum exactly: sharding may never
        // lose an update.
        let registry = MetricsRegistry::new();
        let counter = registry.counter("concurrent_total", "");
        let histogram = registry.histogram("concurrent_seconds", "");
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..PER_THREAD {
                        counter.add(1);
                        if i % 100 == 0 {
                            histogram.record(1e-6);
                        }
                    }
                });
            }
        });
        assert_eq!(counter.value(), (THREADS * PER_THREAD) as u64);
        let h = histogram.snapshot();
        assert_eq!(h.count, (THREADS * (PER_THREAD / 100)) as u64);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_and_exact() {
        // A value landing exactly on every boundary must count in that
        // boundary's own bucket (`le` is inclusive), zero lands in the
        // first bucket, and values above the last bound land in `+Inf`.
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("bounds_seconds", "");
        for (i, &bound) in HISTOGRAM_BOUNDS.iter().enumerate() {
            assert_eq!(
                Histogram::bucket_index(bound),
                i,
                "bound {bound} shifted buckets"
            );
            histogram.record(bound);
        }
        histogram.record(0.0);
        histogram.record(11.0);
        histogram.record(f64::INFINITY); // clamped to zero
        let snap = histogram.snapshot();
        assert_eq!(snap.count, HISTOGRAM_BOUNDS.len() as u64 + 3);
        assert_eq!(
            snap.buckets[0], 3,
            "boundary 100ns + zero + clamped non-finite"
        );
        for i in 1..HISTOGRAM_BOUNDS.len() {
            assert_eq!(
                snap.buckets[i], 1,
                "bucket {i} must hold exactly its own boundary"
            );
        }
        assert_eq!(
            snap.buckets[HISTOGRAM_BUCKETS - 1],
            1,
            "11 s must overflow to +Inf"
        );
        // Just above and below a boundary split into neighbouring buckets.
        assert_eq!(Histogram::bucket_index(1.6e-6 + 1e-12), 5);
        assert_eq!(Histogram::bucket_index(1.6e-6 - 1e-12), 4);
    }

    #[test]
    fn snapshots_delta_counters_and_histograms() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("delta_total", "");
        let gauge = registry.gauge("delta_gauge", "");
        let histogram = registry.histogram("delta_seconds", "");
        counter.add(5);
        gauge.set(2.5);
        histogram.record(1e-3);
        let before = registry.snapshot();
        counter.add(7);
        gauge.set(9.0);
        histogram.record(1e-3);
        histogram.record(5.0);
        let delta = registry.snapshot().delta(&before);
        assert_eq!(delta.counter("delta_total"), 7);
        assert_eq!(
            delta.gauge("delta_gauge"),
            9.0,
            "gauges keep the newer level"
        );
        let h = delta.histogram("delta_seconds").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.cumulative().last().copied(), Some(2));
        assert_eq!(delta.counter("never_registered"), 0);
    }

    #[test]
    fn gauges_store_floats() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("float_gauge", "");
        assert_eq!(gauge.value(), 0.0);
        gauge.set(-3.25);
        assert_eq!(gauge.value(), -3.25);
    }
}
