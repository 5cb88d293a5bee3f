//! The benchmark's metric names — fixed here, mirrored in `BENCHMARK.json`
//! (a unit test keeps the two in step) — and the per-run report that holds
//! the measured values.

use std::collections::BTreeMap;

use crate::stats::Measured;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    /// The permanent name.
    pub name: &'static str,
    /// The unit of the reported value.
    pub unit: &'static str,
    /// The direction of improvement.
    pub better: Better,
    /// The share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// What the value means.
    pub meaning: &'static str,
}

/// A metric of one layer (`crate.module`), taken from outside in the
/// traced run.
pub struct PerLayer {
    /// The permanent name, `layer.metric`.
    pub name: &'static str,
    /// The unit of the reported value.
    pub unit: &'static str,
    /// The direction of improvement.
    pub better: Better,
    /// The end-to-end metric (and workload) this layer metric is expected
    /// to move; everything not named is predicted unchanged.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics; every workload reports every one of them.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, meaning: "generate + database build + offline index + engine/server boot (or store create): everything before the warm-up; median of 3 set-ups" },
    EndToEnd { name: "search_p50_us", unit: "us", better: Lower, bound: 0.25, meaning: "threshold search as the client sees it, median (HTTP /search on one connection; durable_store: ConcurrentDurable::search)" },
    EndToEnd { name: "search_qps", unit: "1/s", better: Higher, bound: 0.25, meaning: "completed threshold searches per second, every client thread in a closed loop (mixed_rw: the one reader beside the writer)" },
    EndToEnd { name: "topk_p50_us", unit: "us", better: Lower, bound: 0.25, meaning: "top-k (k = 10) search as the client sees it, median" },
    EndToEnd { name: "write_p50_us", unit: "us", better: Lower, bound: 0.25, meaning: "mutation acknowledgement, median (HTTP /insert and /remove: closed loop, or from their due time in mixed_rw; durable_store: ConcurrentDurable insert/remove, synced)" },
    EndToEnd { name: "open_ms", unit: "ms", better: Lower, bound: 0.25, meaning: "DurableDatabase::open: snapshot load + replay of one cycle's WAL" },
    EndToEnd { name: "compact_ms", unit: "ms", better: Lower, bound: 0.25, meaning: "compact(): fold the delta into a new snapshot generation and rotate the WAL" },
    EndToEnd { name: "stored_bytes_per_graph", unit: "B", better: Lower, bound: 0.05, meaning: "(snapshot + WAL bytes on disk) / live graphs at the end of the last cycle, before its compaction" },
    EndToEnd { name: "f1", unit: "ratio", better: Higher, bound: 0.12, meaning: "F1 of the threshold-search answers against the generator's ground truth, over all distinct queries" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.10, meaning: "VmHWM of the benchmark process at the end of the run (generator and load generator included)" },
];

/// The per-layer metrics; the traced run of every workload reports every
/// one of them (0 where the workload never calls the layer).
pub const PER_LAYER: &[PerLayer] = &[
    // The tails a client sees. They are what a user feels, but on the
    // reference box they do not repeat to within any bound the contract
    // allows (see README), so they are reported without one.
    PerLayer { name: "search_p99_us", unit: "us", better: Lower, moves: "itself: the 99th percentile of the search_p50_us sample" },
    PerLayer { name: "topk_p99_us", unit: "us", better: Lower, moves: "itself: the 99th percentile of the topk_p50_us sample" },
    PerLayer { name: "write_p99_us", unit: "us", better: Lower, moves: "itself: the 99th percentile of the write_p50_us sample; on mixed_rw the writer stall of a background compaction" },
    // serve.http
    PerLayer { name: "serve.http.parse_ns", unit: "ns", better: Lower, moves: "topk_p50_us, search_qps on http_sparse" },
    PerLayer { name: "serve.http.write_ns", unit: "ns", better: Lower, moves: "topk_p50_us, search_qps on http_sparse" },
    PerLayer { name: "serve.http.request_bytes", unit: "B", better: Lower, moves: "topk_p50_us on http_sparse" },
    PerLayer { name: "serve.http.response_bytes", unit: "B", better: Lower, moves: "topk_p50_us on http_sparse" },
    // serve.api
    PerLayer { name: "serve.api.json_parse_ns", unit: "ns", better: Lower, moves: "topk_p50_us, search_p50_us on http_sparse; write_p50_us on mixed_rw" },
    PerLayer { name: "serve.api.graph_decode_ns", unit: "ns", better: Lower, moves: "topk_p50_us, search_p50_us on http_sparse; write_p50_us on mixed_rw" },
    PerLayer { name: "serve.api.handle_ns", unit: "ns", better: Lower, moves: "every *_p50_us on the HTTP workloads" },
    PerLayer { name: "serve.api.render_ns", unit: "ns", better: Lower, moves: "topk_p50_us, search_p50_us on http_sparse" },
    // serve.server
    PerLayer { name: "serve.server.transport_ns", unit: "ns", better: Lower, moves: "every *_p50_us on http_sparse; search_qps on every HTTP workload" },
    PerLayer { name: "serve.server.connect_ns", unit: "ns", better: Lower, moves: "nothing the keep-alive clients see (the shipped one-shot client only)" },
    // graph
    PerLayer { name: "graph.catalog.flatten_ns", unit: "ns", better: Lower, moves: "topk_p50_us on http_sparse" },
    PerLayer { name: "graph.branch.extract_ns", unit: "ns", better: Lower, moves: "topk_p50_us on http_sparse" },
    // core.kernel
    PerLayer { name: "core.kernel.scan_ns", unit: "ns", better: Lower, moves: "search_p50_us, search_qps on http_dense (and on http_sparse while /search records a posterior per graph)" },
    PerLayer { name: "core.kernel.topk_scan_ns", unit: "ns", better: Lower, moves: "topk_p50_us on http_dense" },
    PerLayer { name: "core.kernel.ns_per_graph", unit: "ns", better: Lower, moves: "search_p50_us on http_dense" },
    // core.filter
    PerLayer { name: "core.filter.bound_rejected", unit: "count", better: Higher, moves: "core.kernel.scan_ns, then search_p50_us on http_dense" },
    PerLayer { name: "core.filter.bound_accepted", unit: "count", better: Higher, moves: "core.kernel.scan_ns, then search_p50_us on http_dense" },
    PerLayer { name: "core.filter.stage2_decided", unit: "count", better: Higher, moves: "core.kernel.scan_ns, then search_p50_us on http_dense" },
    PerLayer { name: "core.filter.postings_resolved", unit: "count", better: Lower, moves: "core.kernel.scan_ns, then search_p50_us on http_dense" },
    PerLayer { name: "core.filter.merged", unit: "count", better: Lower, moves: "core.kernel.scan_ns, then search_p50_us on http_dense" },
    PerLayer { name: "core.filter.bound_decided_ratio", unit: "ratio", better: Higher, moves: "core.kernel.scan_ns, then search_p50_us on http_dense" },
    PerLayer { name: "core.filter.postings_touched", unit: "count", better: Lower, moves: "core.kernel.scan_ns, then search_p50_us on http_dense" },
    PerLayer { name: "core.filter.intersections_ns", unit: "ns", better: Lower, moves: "core.kernel.scan_ns, then search_p50_us on http_dense" },
    PerLayer { name: "core.filter.planner.planned_scans", unit: "count", better: Higher, moves: "core.kernel.scan_ns on http_dense" },
    PerLayer { name: "core.filter.planner.skipped_stage2", unit: "count", better: Higher, moves: "core.kernel.scan_ns on http_dense" },
    PerLayer { name: "core.filter.planner.postings_first", unit: "count", better: Higher, moves: "core.kernel.scan_ns on http_dense" },
    // core.posterior_cache / prob
    PerLayer { name: "core.posterior_cache.hits", unit: "count", better: Lower, moves: "search_p50_us on http_dense and http_sparse (one lookup per graph today)" },
    PerLayer { name: "core.posterior_cache.misses", unit: "count", better: Lower, moves: "the first round and setup_s" },
    PerLayer { name: "core.posterior_cache.hit_ratio", unit: "ratio", better: Higher, moves: "search_p50_us on http_dense and http_sparse" },
    PerLayer { name: "core.posterior_cache.lookup_ns", unit: "ns", better: Lower, moves: "search_p50_us on http_dense and http_sparse" },
    PerLayer { name: "prob.posterior_cold_us", unit: "us", better: Lower, moves: "setup_s and the first round" },
    // core.topk
    PerLayer { name: "core.topk.heap_inserts", unit: "count", better: Lower, moves: "topk_p50_us on http_dense" },
    PerLayer { name: "core.topk.rank_rejected", unit: "count", better: Higher, moves: "topk_p50_us on http_dense" },
    // core.database / core.offline / datasets
    PerLayer { name: "core.database.build_ms", unit: "ms", better: Lower, moves: "setup_s on every workload; denominator of store.durable.rebuild_ratio" },
    PerLayer { name: "core.database.arena_runs", unit: "count", better: Lower, moves: "peak_rss_mb, setup_s" },
    PerLayer { name: "core.database.postings_len", unit: "count", better: Lower, moves: "peak_rss_mb, setup_s" },
    PerLayer { name: "core.offline.build_ms", unit: "ms", better: Lower, moves: "setup_s on every workload" },
    PerLayer { name: "datasets.generate_ms", unit: "ms", better: Lower, moves: "setup_s on every workload" },
    // core.concurrent / core.dynamic
    PerLayer { name: "core.concurrent.pin_ns", unit: "ns", better: Lower, moves: "nothing visible (prediction: unchanged)" },
    PerLayer { name: "core.concurrent.insert_us", unit: "us", better: Lower, moves: "write_p50_us on mixed_rw" },
    PerLayer { name: "core.concurrent.remove_us", unit: "us", better: Lower, moves: "write_p50_us on mixed_rw" },
    PerLayer { name: "core.concurrent.compact_ms", unit: "ms", better: Lower, moves: "write_p99_us, search_p99_us on mixed_rw" },
    PerLayer { name: "core.concurrent.compactions", unit: "count", better: Lower, moves: "write_p99_us on mixed_rw" },
    PerLayer { name: "core.concurrent.epochs_published", unit: "count", better: Higher, moves: "nothing (one per acknowledged mutation or compaction)" },
    PerLayer { name: "core.concurrent.writer_stall_max_ms", unit: "ms", better: Lower, moves: "write_p99_us on mixed_rw" },
    PerLayer { name: "core.dynamic.insert_us", unit: "us", better: Lower, moves: "write_p50_us on mixed_rw and durable_store" },
    PerLayer { name: "core.dynamic.delta_scan_ratio", unit: "ratio", better: Lower, moves: "search_p50_us on mixed_rw" },
    // store.wal
    PerLayer { name: "store.wal.encode_ns", unit: "ns", better: Lower, moves: "write_p50_us on durable_store" },
    PerLayer { name: "store.wal.append_us", unit: "us", better: Lower, moves: "write_p50_us on durable_store" },
    PerLayer { name: "store.wal.sync_append_us", unit: "us", better: Lower, moves: "write_p50_us on durable_store" },
    PerLayer { name: "store.wal.bytes_per_insert", unit: "B", better: Lower, moves: "stored_bytes_per_graph, open_ms on durable_store" },
    PerLayer { name: "store.wal.fsyncs", unit: "count", better: Lower, moves: "write_p50_us on durable_store" },
    PerLayer { name: "store.wal.decode_ms", unit: "ms", better: Lower, moves: "open_ms on durable_store" },
    // store.snapshot
    PerLayer { name: "store.snapshot.encode_ms", unit: "ms", better: Lower, moves: "compact_ms on durable_store" },
    PerLayer { name: "store.snapshot.decode_ms", unit: "ms", better: Lower, moves: "open_ms on durable_store" },
    PerLayer { name: "store.snapshot.into_database_ms", unit: "ms", better: Lower, moves: "open_ms on durable_store" },
    PerLayer { name: "store.snapshot.bytes", unit: "B", better: Lower, moves: "stored_bytes_per_graph, compact_ms on durable_store" },
    // store.durable / store.concurrent
    PerLayer { name: "store.durable.replay_ms", unit: "ms", better: Lower, moves: "open_ms on durable_store" },
    PerLayer { name: "store.durable.replayed_records", unit: "count", better: Lower, moves: "open_ms on durable_store" },
    PerLayer { name: "store.durable.rebuild_ratio", unit: "ratio", better: Lower, moves: "open_ms on durable_store" },
    PerLayer { name: "store.durable.bytes_rewritten_per_compact", unit: "B", better: Lower, moves: "compact_ms on durable_store" },
    PerLayer { name: "store.concurrent.publish_us", unit: "us", better: Lower, moves: "write_p50_us on durable_store" },
    // telemetry
    PerLayer { name: "telemetry.counter_inc_ns", unit: "ns", better: Lower, moves: "every *_p50_us, by at most a few percent" },
    PerLayer { name: "telemetry.render_prometheus_us", unit: "us", better: Lower, moves: "nothing a query sees (GET /metrics only)" },
    PerLayer { name: "telemetry.metrics_overhead_ratio", unit: "ratio", better: Lower, moves: "every *_p50_us, by at most a few percent" },
    // the benchmark's own instruments
    PerLayer { name: "trace.overhead_ratio", unit: "ratio", better: Lower, moves: "nothing (the cost of the traced run itself)" },
    PerLayer { name: "loadgen.late_max_ms", unit: "ms", better: Lower, moves: "nothing (how late the open-loop writer ran against its schedule)" },
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// The measured values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Measured>,
}

impl Report {
    /// Records a metric; the name must be one of the two tables'.
    pub fn set(&mut self, name: &'static str, measured: Measured) {
        assert!(unit_of(name).is_some(), "{name} is not a declared metric");
        self.values.insert(name, measured);
    }

    /// Records a metric measured once.
    pub fn set_once(&mut self, name: &'static str, value: f64) {
        self.set(name, Measured::once(value));
    }

    /// The recorded metric, if any.
    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.values.get(name)
    }

    /// The recorded value, or 0 for a layer the workload never called.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.value)
    }

    /// The end-to-end metrics that were not recorded.
    pub fn missing_end_to_end(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .map(|m| m.name)
            .filter(|name| !self.values.contains_key(name))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_bench::json::{self, JsonValue};

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
        value.get(key).and_then(JsonValue::as_str).unwrap()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_tables() {
        let manifest = manifest();
        let listed = manifest
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(END_TO_END) {
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit);
            assert_eq!(text(entry, "better"), metric.better.name());
            let bound = entry.get("bound").and_then(JsonValue::as_f64).unwrap();
            assert_eq!(bound, metric.bound, "{}", metric.name);
            assert!(bound <= 0.25);
        }
        let listed = manifest
            .get("per_layer")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, metric) in listed.iter().zip(PER_LAYER) {
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit);
            assert_eq!(text(entry, "better"), metric.better.name());
        }
        let workloads = manifest
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(workloads.len(), crate::workloads::Workload::ALL.len());
        for (entry, workload) in workloads.iter().zip(crate::workloads::Workload::ALL) {
            assert_eq!(text(entry, "name"), workload.name());
            assert_eq!(text(entry, "why"), workload.why());
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn a_report_refuses_undeclared_names_and_reports_what_is_missing() {
        let mut report = Report::default();
        report.set_once("setup_s", 1.5);
        assert_eq!(report.value("setup_s"), 1.5);
        assert_eq!(report.value("store.wal.fsyncs"), 0.0);
        assert_eq!(report.missing_end_to_end().len(), END_TO_END.len() - 1);
        let caught = std::panic::catch_unwind(|| {
            let mut report = Report::default();
            report.set_once("made_up", 1.0);
        });
        assert!(caught.is_err());
    }
}
