//! Telemetry instrumentation of the query engine: the workspace-wide
//! metric handles this crate reports into (see the `gbd-telemetry` crate)
//! and the per-search flush that mirrors [`SearchStats`] into them.
//!
//! Counters are flushed **once per finished search** from the scan's
//! already-aggregated [`SearchStats`], not incremented inside the scan
//! loop — so the telemetry stage partition
//! (`gbda_scan_bound_rejected_total + gbda_scan_bound_accepted_total +
//! gbda_scan_rank_rejected_total + gbda_scan_postings_resolved_total +
//! gbda_scan_merged_total == gbda_scan_evaluated_total` per run) is
//! bit-identical to [`SearchStats::stage_partition`] by construction, and
//! the hot loop pays nothing. Latency histograms are fed per query.

use std::sync::OnceLock;

use gbd_telemetry::{global, metrics_enabled, Counter, Gauge, Histogram};

use crate::search::SearchStats;

/// Handles of every scan/query metric, registered once on first use.
pub(crate) struct ScanMetrics {
    queries: Counter,
    evaluated: Counter,
    bound_rejected: Counter,
    bound_accepted: Counter,
    rank_rejected: Counter,
    postings_resolved: Counter,
    merged: Counter,
    stage2_decided: Counter,
    threshold_accepts: Counter,
    heap_inserts: Counter,
    planned_scans: Counter,
    plan_skipped_bounds: Counter,
    plan_skipped_stage2: Counter,
    plan_postings_first: Counter,
    query_seconds: Histogram,
    flatten_seconds: Histogram,
    scan_seconds: Histogram,
}

pub(crate) fn scan_metrics() -> &'static ScanMetrics {
    static METRICS: OnceLock<ScanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = global();
        ScanMetrics {
            queries: g.counter(
                "gbda_queries_total",
                "Finished searches (threshold, ranked, streaming and dynamic).",
            ),
            evaluated: g.counter("gbda_scan_evaluated_total", "Database graphs scanned."),
            bound_rejected: g.counter(
                "gbda_scan_bound_rejected_total",
                "Graphs rejected by a cascade bound stage alone.",
            ),
            bound_accepted: g.counter(
                "gbda_scan_bound_accepted_total",
                "Graphs accepted by a cascade bound stage alone.",
            ),
            rank_rejected: g.counter(
                "gbda_scan_rank_rejected_total",
                "Graphs rejected by the tightening rank bound of ranked scans.",
            ),
            postings_resolved: g.counter(
                "gbda_scan_postings_resolved_total",
                "Graphs resolved exactly by the inverted-index count filter.",
            ),
            merged: g.counter(
                "gbda_scan_merged_total",
                "Graphs resolved by the exact flat branch-run merge.",
            ),
            stage2_decided: g.counter(
                "gbda_scan_stage2_decided_total",
                "Graphs decided specifically by the stage-2 distinct-run refinement.",
            ),
            threshold_accepts: g.counter(
                "gbda_scan_threshold_accepts_total",
                "Graphs accepted by the per-size phi-threshold comparison alone.",
            ),
            heap_inserts: g.counter(
                "gbda_topk_heap_inserts_total",
                "Candidates admitted into a top-k heap (evicted ones included).",
            ),
            planned_scans: g.counter(
                "gbda_planner_planned_scans_total",
                "Segment scans whose stage order was chosen by the per-query planner.",
            ),
            plan_skipped_bounds: g.counter(
                "gbda_planner_skipped_bounds_total",
                "Planned scans that skipped the bound stages entirely.",
            ),
            plan_skipped_stage2: g.counter(
                "gbda_planner_skipped_stage2_total",
                "Planned scans that skipped the stage-2 refinement.",
            ),
            plan_postings_first: g.counter(
                "gbda_planner_postings_first_total",
                "Planned scans that accumulated stage-3 postings eagerly per chunk.",
            ),
            query_seconds: g.histogram("gbda_query_seconds", "End-to-end latency of one search."),
            flatten_seconds: g.histogram(
                "gbda_flatten_seconds",
                "Per-query branch extraction and flattening latency.",
            ),
            scan_seconds: g.histogram(
                "gbda_scan_seconds",
                "Per-query database scan latency (wall clock).",
            ),
        }
    })
}

/// Mirrors one finished search's [`SearchStats`] into the workspace
/// telemetry: stage-partition counters plus the per-query latency
/// histograms. Called once per finished search by the scan driver, on
/// behalf of every engine.
/// No-op below [`gbd_telemetry::TelemetryLevel::Metrics`].
pub(crate) fn record_search(stats: &SearchStats, query_seconds: f64) {
    if !metrics_enabled() {
        return;
    }
    let m = scan_metrics();
    m.queries.inc();
    m.evaluated.add(stats.evaluated as u64);
    m.bound_rejected.add(stats.bound_rejected as u64);
    m.bound_accepted.add(stats.bound_accepted as u64);
    m.rank_rejected.add(stats.rank_rejected as u64);
    m.postings_resolved.add(stats.postings_resolved as u64);
    m.merged.add(stats.merged as u64);
    m.stage2_decided.add(stats.stage2_decided as u64);
    m.threshold_accepts.add(stats.threshold_accepts as u64);
    m.heap_inserts.add(stats.heap_inserts as u64);
    m.planned_scans.add(stats.planned_scans as u64);
    m.plan_skipped_bounds.add(stats.plan_skipped_bounds as u64);
    m.plan_skipped_stage2.add(stats.plan_skipped_stage2 as u64);
    m.plan_postings_first.add(stats.plan_postings_first as u64);
    m.query_seconds.record(query_seconds);
    m.flatten_seconds.record(stats.flatten_seconds);
    m.scan_seconds.record(stats.scan_seconds);
}

/// Handles of the posterior-cache metrics (hit/miss of the shared memo).
pub(crate) struct CacheMetrics {
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
}

pub(crate) fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = global();
        CacheMetrics {
            hits: g.counter(
                "gbda_posterior_cache_hits_total",
                "Posterior lookups answered from the shared memo.",
            ),
            misses: g.counter(
                "gbda_posterior_cache_misses_total",
                "Posterior lookups that required a genuine evaluation.",
            ),
        }
    })
}

/// Handles of the dynamic-layer metrics (delta mutations and compaction).
pub(crate) struct DynamicMetrics {
    inserts: Counter,
    removes: Counter,
    compactions: Counter,
    compaction_seconds: Gauge,
    delta_graphs: Gauge,
    tombstones: Gauge,
}

fn dynamic_metrics() -> &'static DynamicMetrics {
    static METRICS: OnceLock<DynamicMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = global();
        DynamicMetrics {
            inserts: g.counter(
                "gbda_dynamic_inserts_total",
                "Graphs appended to the delta segment.",
            ),
            removes: g.counter(
                "gbda_dynamic_removes_total",
                "Graphs tombstoned in the dynamic database.",
            ),
            compactions: g.counter(
                "gbda_dynamic_compactions_total",
                "Compactions folding the delta into a fresh base segment.",
            ),
            compaction_seconds: g.gauge(
                "gbda_dynamic_compaction_seconds",
                "Duration of the most recent compaction.",
            ),
            delta_graphs: g.gauge(
                "gbda_dynamic_delta_graphs",
                "Graphs currently in the append-only delta segment.",
            ),
            tombstones: g.gauge(
                "gbda_dynamic_tombstones",
                "Tombstoned (removed but not yet compacted) graphs.",
            ),
        }
    })
}

/// Re-publishes the delta/tombstone level gauges from authoritative state
/// — the resync hook recovery uses after a metrics-quiet WAL replay, so
/// the gauges describe the recovered database without the replay having
/// counted historical mutations as fresh ones.
pub(crate) fn record_dynamic_levels(delta_graphs: usize, tombstones: usize) {
    if !metrics_enabled() {
        return;
    }
    let m = dynamic_metrics();
    m.delta_graphs.set(delta_graphs as f64);
    m.tombstones.set(tombstones as f64);
}

/// Books one dynamic-database insert plus the resulting delta/tombstone
/// levels.
pub(crate) fn record_dynamic_insert(delta_graphs: usize, tombstones: usize) {
    if !metrics_enabled() {
        return;
    }
    let m = dynamic_metrics();
    m.inserts.inc();
    m.delta_graphs.set(delta_graphs as f64);
    m.tombstones.set(tombstones as f64);
}

/// Books one dynamic-database remove plus the resulting delta/tombstone
/// levels.
pub(crate) fn record_dynamic_remove(delta_graphs: usize, tombstones: usize) {
    if !metrics_enabled() {
        return;
    }
    let m = dynamic_metrics();
    m.removes.inc();
    m.delta_graphs.set(delta_graphs as f64);
    m.tombstones.set(tombstones as f64);
}

/// Books one compaction: its duration and the post-compaction (empty)
/// delta/tombstone levels.
pub(crate) fn record_dynamic_compact(seconds: f64, delta_graphs: usize, tombstones: usize) {
    if !metrics_enabled() {
        return;
    }
    let m = dynamic_metrics();
    m.compactions.inc();
    m.compaction_seconds.set(seconds);
    m.delta_graphs.set(delta_graphs as f64);
    m.tombstones.set(tombstones as f64);
}

/// Handles of the snapshot-isolation metrics (generation publication and
/// the background compactor of the concurrent engine).
pub(crate) struct GenerationMetrics {
    published: Counter,
    epoch: Gauge,
    live_graphs: Gauge,
    background_compactions: Counter,
}

fn generation_metrics() -> &'static GenerationMetrics {
    static METRICS: OnceLock<GenerationMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = global();
        GenerationMetrics {
            published: g.counter(
                "gbda_generations_published_total",
                "Immutable generations published for snapshot-isolated readers.",
            ),
            epoch: g.gauge(
                "gbda_generation_epoch",
                "Epoch of the most recently published generation.",
            ),
            live_graphs: g.gauge(
                "gbda_generation_live_graphs",
                "Live graphs in the most recently published generation.",
            ),
            background_compactions: g.counter(
                "gbda_background_compactions_total",
                "Compactions run by the concurrent engine's background worker.",
            ),
        }
    })
}

/// Books one generation publication: the new epoch and its live-set size.
pub(crate) fn record_generation_publish(epoch: u64, live_graphs: usize) {
    if !metrics_enabled() {
        return;
    }
    let m = generation_metrics();
    m.published.inc();
    m.epoch.set(epoch as f64);
    m.live_graphs.set(live_graphs as f64);
}

/// Books one compaction performed by the background compactor thread.
pub(crate) fn record_background_compaction() {
    if !metrics_enabled() {
        return;
    }
    generation_metrics().background_compactions.inc();
}
