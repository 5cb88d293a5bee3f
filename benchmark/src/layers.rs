//! The traced run: per-layer numbers taken from outside, by timing public
//! calls into each layer and by reading the counts the public API already
//! returns (`SearchStats`, `DurableDatabase::wal_bytes`, the telemetry
//! snapshot).
//!
//! The HTTP workloads replay their seeded request sequence in *decomposed*
//! form (see [`crate::trace`]): a real socket round trip as the root span,
//! then the same request in-process, call by call. By construction
//! `parse + handle + write + transport` equals the observed round trip;
//! what is checked is that the calls made on behalf of `handle` add up to
//! `handle` itself.

use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use gbd_bench::json::{self, JsonValue};
use gbd_graph::{BranchMultiset, Graph, LabelAlphabets};
use gbd_serve::http::{read_request, write_response, Request};
use gbd_serve::{graph_from_json, handle};
use gbd_store::wal::{decode_wal, encode_record};
use gbd_store::{
    ConcurrentDurable, DurableDatabase, Manifest, Snapshot, StdVfs, WalRecord, WalWriter,
};
use gbda_core::{
    ConcurrentEngine, DynamicDatabase, DynamicView, FilterCascade, OfflineIndex, PosteriorCache,
    QueryEngine, SearchStats,
};

use crate::client::Connection;
use crate::durable::{durability, live_graphs, store_error as error, StoreOutcome};
use crate::metrics::Report;
use crate::serving::{build_database, engine_config, Deployment, Prepared, RwOutcome, Tally};
use crate::stats::{median, Measured};
use crate::trace::Trace;
use crate::workloads::{
    insert_request, remove_request, top_k_body, Dataset, Plan, ROUNDS, TAU_HAT, TOP_K,
};

/// Most the in-process calls made on behalf of `handle` may differ from
/// `handle` itself, as a share of it.
const RECONCILE_TOLERANCE: f64 = 0.10;

fn timed<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let result = call();
    (result, started.elapsed().as_nanos() as f64)
}

/// The median over `repeats` timings of `call`, in nanoseconds.
fn median_ns(repeats: usize, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats).map(|_| timed(&mut call).1).collect();
    median(&samples)
}

fn request_from(body: String, path: &str) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        close: false,
        body: body.into_bytes(),
    }
}

/// Replays `/search` and `/search_top_k` in decomposed form and reports the
/// `serve.*` layers from the `/search` decomposition.
pub fn replay_reads(
    deployment: &Deployment,
    prepared: &Prepared,
    plan: &Plan,
    trace: &mut Trace,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let engine = deployment.state.engine();
    let mut connection = Connection::connect(deployment.addr).map_err(|e| e.to_string())?;
    let (mut request_bytes, mut response_bytes) = (Vec::new(), Vec::new());
    let mut id = 0u64;
    for r in 0..plan.replay_requests {
        for top in [false, true] {
            let (root_name, requests) = if top {
                ("http.top_k", &prepared.top_k)
            } else {
                ("http.search", &prepared.search)
            };
            let bytes = &requests[r % requests.len()];
            id += 1;
            tally.attempted += 1;

            let (status, root) = trace.record(root_name, None, id, || {
                connection.round_trip(bytes).map(|(status, _)| status)
            });
            if status.map_err(|e| format!("{root_name}: {e}"))? != 200 {
                tally.failed += 1;
            }
            let (request, _) = trace.record("serve.http.parse", Some(root), id, || {
                read_request(&mut Cursor::new(bytes.as_slice()))
            });
            let request = request.map_err(|e| format!("replayed parse: {e:?}"))?;
            let (response, handled) = trace.record("serve.api.handle", Some(root), id, || {
                handle(&deployment.state, &request)
            });

            let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            let (document, _) = trace.record("serve.api.json_parse", Some(handled), id, || {
                json::parse(text)
            });
            let document = document?;
            let member = document.get("graph").ok_or("request without a graph")?;
            let (graph, _) = trace.record("serve.api.graph_decode", Some(handled), id, || {
                graph_from_json(member)
            });
            let graph = graph?;
            let (generation, _) =
                trace.record("core.concurrent.pin", Some(handled), id, || engine.pin());
            let (stats, scanned) = if top {
                trace.record("core.engine.top_k", Some(handled), id, || {
                    engine
                        .reader()
                        .search_top_k_pinned(&generation, &graph, TOP_K)
                        .stats
                })
            } else {
                trace.record("core.engine.search", Some(handled), id, || {
                    engine.reader().search_pinned(&generation, &graph).stats
                })
            };
            let flatten_ns = (stats.flatten_seconds * 1e9) as u64;
            trace.record_reported("graph.catalog.flatten", scanned, 0, flatten_ns);
            trace.record_reported(
                "core.kernel.scan",
                scanned,
                flatten_ns,
                (stats.scan_seconds * 1e9) as u64,
            );

            let written = record_write(trace, root, id, &response)?;
            if !top {
                request_bytes.push(bytes.len() as f64);
                response_bytes.push(written as f64);
            }
        }
    }

    let summary = trace.summary("http.search");
    let of = |name: &str| summary.get(name).map_or(0.0, |s| s.median_ns);
    report.set_once("serve.http.parse_ns", of("serve.http.parse"));
    report.set_once("serve.http.write_ns", of("serve.http.write"));
    report.set_once("serve.http.request_bytes", median(&request_bytes));
    report.set_once("serve.http.response_bytes", median(&response_bytes));
    report.set_once("serve.api.json_parse_ns", of("serve.api.json_parse"));
    report.set_once("serve.api.graph_decode_ns", of("serve.api.graph_decode"));
    report.set_once("serve.api.handle_ns", of("serve.api.handle"));
    report.set_once(
        "serve.api.render_ns",
        summary
            .get("serve.api.handle")
            .map_or(0.0, |s| s.median_self_ns),
    );
    report.set_once(
        "serve.server.transport_ns",
        summary.get("http.search").map_or(0.0, |s| s.median_self_ns),
    );
    Ok(())
}

/// The share by which the calls made on behalf of `serve.api.handle`
/// differ from it, under roots named `root`: the median over requests of
/// `|children − handle| / handle`.
pub fn reconcile(trace: &Trace, root: &str) -> f64 {
    let spans = trace.spans();
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.duration_ns();
        }
    }
    let gaps: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, span)| {
            span.name == "serve.api.handle"
                && span.parent.is_some_and(|parent| spans[parent].name == root)
        })
        .map(|(i, span)| {
            let whole = span.duration_ns().max(1) as f64;
            (children[i] as f64 - whole).abs() / whole
        })
        .collect();
    if gaps.is_empty() {
        0.0
    } else {
        median(&gaps)
    }
}

/// Checks [`reconcile`] against [`RECONCILE_TOLERANCE`] for `root`.
pub fn check_reconciled(trace: &Trace, root: &str) -> Result<f64, String> {
    let gap = reconcile(trace, root);
    if gap > RECONCILE_TOLERANCE {
        Err(format!(
            "{root}: the in-process layer spans differ from serve.api.handle by {:.1}% (limit {:.0}%)",
            gap * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ))
    } else {
        Ok(gap)
    }
}

/// The extra cost of the shipped one-shot client (`Connection: close`, a
/// connection per request) over a keep-alive round trip of the same
/// requests.
pub fn connect_probe(
    deployment: &Deployment,
    dataset: &Dataset,
    trace: &Trace,
    report: &mut Report,
) -> Result<(), String> {
    let bodies: Vec<String> = dataset.queries.iter().take(16).map(top_k_body).collect();
    let mut samples = Vec::new();
    for k in 0..200 {
        let body = &bodies[k % bodies.len()];
        let (result, ns) =
            timed(|| gbd_serve::client::request(deployment.addr, "POST", "/search_top_k", body));
        let (status, _) = result.map_err(|e| format!("one-shot client: {e}"))?;
        if status != 200 {
            return Err(format!("one-shot client: status {status}"));
        }
        samples.push(ns);
    }
    let kept_alive = trace
        .summary("http.top_k")
        .get("http.top_k")
        .map_or(0.0, |s| s.median_ns);
    report.set_once("serve.server.connect_ns", median(&samples) - kept_alive);
    Ok(())
}

fn mean(values: impl Iterator<Item = usize>) -> f64 {
    let (mut sum, mut count) = (0usize, 0usize);
    for value in values {
        sum += value;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// The engine-level layers, by direct calls on `engine`'s published
/// generation: kernel times and the exact per-query counts from
/// `SearchStats`, query flattening, postings, the posterior cache.
pub fn engine_probes(engine: &ConcurrentEngine, queries: &[Graph], report: &mut Report) {
    let generation = engine.pin();
    let reader = engine.reader();
    // One untimed pass so the posterior memo holds every key the queries
    // need; the timed passes then see the steady state a served query sees.
    for query in queries {
        reader.search_pinned(&generation, query);
        reader.search_top_k_pinned(&generation, query, TOP_K);
    }
    let threshold: Vec<SearchStats> = queries
        .iter()
        .map(|q| reader.search_pinned(&generation, q).stats)
        .collect();
    let ranked: Vec<SearchStats> = queries
        .iter()
        .map(|q| reader.search_top_k_pinned(&generation, q, TOP_K).stats)
        .collect();
    let seconds = |stats: &[SearchStats], pick: fn(&SearchStats) -> f64| {
        median(&stats.iter().map(|s| pick(s) * 1e9).collect::<Vec<_>>())
    };
    let count =
        |stats: &[SearchStats], pick: fn(&SearchStats) -> usize| mean(stats.iter().map(pick));

    let scan_ns = seconds(&threshold, |s| s.scan_seconds);
    let evaluated = count(&threshold, |s| s.evaluated);
    report.set_once("core.kernel.scan_ns", scan_ns);
    report.set_once(
        "core.kernel.topk_scan_ns",
        seconds(&ranked, |s| s.scan_seconds),
    );
    report.set_once("core.kernel.ns_per_graph", scan_ns / evaluated.max(1.0));
    let reported_flatten_ns = seconds(&threshold, |s| s.flatten_seconds);

    report.set_once(
        "core.filter.bound_rejected",
        count(&threshold, |s| s.bound_rejected),
    );
    report.set_once(
        "core.filter.bound_accepted",
        count(&threshold, |s| s.bound_accepted),
    );
    report.set_once(
        "core.filter.stage2_decided",
        count(&threshold, |s| s.stage2_decided),
    );
    report.set_once(
        "core.filter.postings_resolved",
        count(&threshold, |s| s.postings_resolved),
    );
    report.set_once("core.filter.merged", count(&threshold, |s| s.merged));
    let decided: usize = threshold
        .iter()
        .chain(&ranked)
        .map(|s| s.bound_rejected + s.bound_accepted + s.rank_rejected)
        .sum();
    let attempts: usize = threshold.iter().chain(&ranked).map(|s| s.evaluated).sum();
    report.set_once(
        "core.filter.bound_decided_ratio",
        decided as f64 / attempts.max(1) as f64,
    );
    report.set_once(
        "core.filter.planner.planned_scans",
        count(&threshold, |s| s.planned_scans),
    );
    report.set_once(
        "core.filter.planner.skipped_stage2",
        count(&threshold, |s| s.plan_skipped_stage2),
    );
    report.set_once(
        "core.filter.planner.postings_first",
        count(&threshold, |s| s.plan_postings_first),
    );
    let hits = count(&threshold, |s| s.cache_hits);
    let misses = count(&threshold, |s| s.cache_misses);
    report.set_once("core.posterior_cache.hits", hits);
    report.set_once("core.posterior_cache.misses", misses);
    report.set_once(
        "core.posterior_cache.hit_ratio",
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        },
    );
    report.set_once("core.topk.heap_inserts", count(&ranked, |s| s.heap_inserts));
    report.set_once(
        "core.topk.rank_rejected",
        count(&ranked, |s| s.rank_rejected),
    );

    // Query-side flattening, the postings a query touches, and the linear
    // count filter over the whole base segment.
    let base = generation.view_base();
    let catalog = generation.view_catalog();
    let (mut extract, mut flatten, mut intersect, mut touched) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for query in queries {
        extract.push(median_ns(5, || {
            std::hint::black_box(BranchMultiset::from_graph(query));
        }));
        flatten.push(median_ns(5, || {
            std::hint::black_box(catalog.flatten_graph(query));
        }));
        let flat = catalog.flatten_graph(query);
        touched.push(
            flat.known_runs()
                .iter()
                .map(|run| base.postings(run.id).len())
                .sum::<usize>(),
        );
        let cascade = FilterCascade::new(base, &flat, None);
        intersect.push(median_ns(3, || {
            std::hint::black_box(cascade.intersections_linear(0..base.len()));
        }));
    }
    report.set_once("graph.branch.extract_ns", median(&extract));
    // `SearchStats::flatten_seconds` is the reported value; the direct call
    // is its cross-check, kept beside it in the output.
    report.set(
        "graph.catalog.flatten_ns",
        Measured {
            value: reported_flatten_ns,
            rounds: vec![reported_flatten_ns, median(&flatten)],
        },
    );
    report.set_once("core.filter.postings_touched", mean(touched.into_iter()));
    report.set_once("core.filter.intersections_ns", median(&intersect));
    report.set_once("core.database.arena_runs", base.arena_len() as f64);
    report.set_once("core.database.postings_len", base.postings_len() as f64);

    // A warm lookup in a posterior memo of its own, and the first
    // evaluation per extended size on a cold offline index.
    let index = reader.index();
    let cache = PosteriorCache::new(TAU_HAT);
    let size = base.max_vertices().max(1);
    cache.posterior(index, size, 3);
    let lookups = 100_000;
    let (_, ns) = timed(|| {
        for _ in 0..lookups {
            std::hint::black_box(cache.posterior(index, std::hint::black_box(size), 3));
        }
    });
    report.set_once("core.posterior_cache.lookup_ns", ns / lookups as f64);
    if let Ok(cold) = OfflineIndex::build(base, &engine_config()) {
        let fresh = QueryEngine::new(base, &cold, engine_config());
        let firsts: Vec<f64> = base
            .distinct_sizes()
            .iter()
            .take(32)
            .map(|&size| timed(|| std::hint::black_box(fresh.posterior_value(size, 3))).1 / 1e3)
            .collect();
        if !firsts.is_empty() {
            report.set_once("prob.posterior_cold_us", median(&firsts));
        }
    }

    let pins = 100_000;
    let (_, ns) = timed(|| {
        for _ in 0..pins {
            std::hint::black_box(engine.pin());
        }
    });
    report.set_once("core.concurrent.pin_ns", ns / pins as f64);
}

/// The telemetry layer: one counter increment, one Prometheus rendering,
/// and `work` at `TelemetryLevel::Metrics` over `work` at `Off`.
pub fn telemetry_probes(mut work: impl FnMut(), report: &mut Report) {
    use gbd_telemetry::{global, set_level, TelemetryLevel};
    let counter = global().counter(
        "gbda_benchmark_probe_total",
        "Increments made by the benchmark's telemetry probe.",
    );
    let increments = 1_000_000;
    let (_, ns) = timed(|| {
        for _ in 0..increments {
            counter.inc();
        }
    });
    report.set_once("telemetry.counter_inc_ns", ns / increments as f64);
    report.set_once(
        "telemetry.render_prometheus_us",
        median_ns(20, || {
            std::hint::black_box(global().render_prometheus());
        }) / 1e3,
    );

    let level = gbd_telemetry::level();
    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        set_level(TelemetryLevel::Off);
        let off = median_ns(40, &mut work);
        set_level(TelemetryLevel::Metrics);
        let on = median_ns(40, &mut work);
        ratios.push(on / off.max(1.0));
    }
    set_level(level);
    report.set(
        "telemetry.metrics_overhead_ratio",
        Measured::of_rounds(ratios),
    );
}

/// Builds a second engine over the workload's initial graphs, without a
/// background compactor, for the mutation-path layers, and measures on the
/// way: `core.dynamic.insert_us` (delta sizes 0…256), then
/// `core.concurrent.insert_us` / `remove_us` (mutate + publish at delta
/// sizes 0…255), then `core.dynamic.delta_scan_ratio` (a search at
/// delta = 255 plus tombstones over the same search just after compaction).
/// The engine is returned compacted, with an empty delta.
pub fn scratch_engine(
    graphs: Vec<Graph>,
    alphabets: Option<LabelAlphabets>,
    dataset: &Dataset,
    report: &mut Report,
) -> Result<ConcurrentEngine, String> {
    let config = engine_config();
    let database = build_database(graphs, alphabets);
    let index = OfflineIndex::build(&database, &config).map_err(|e| format!("offline: {e}"))?;
    let mut pool = dataset.pool.iter().cycle();

    let mut dynamic = DynamicDatabase::new(database);
    let inserts: Vec<f64> = (0..256)
        .map(|_| {
            let graph = pool.next().expect("the pool is not empty").clone();
            timed(|| dynamic.insert(graph)).1 / 1e3
        })
        .collect();
    report.set_once("core.dynamic.insert_us", median(&inserts));
    dynamic.compact();

    let engine = ConcurrentEngine::new(dynamic, index, config);
    let doomed: Vec<u64> = engine.pin().live_ids().into_iter().take(255).collect();
    let inserts: Vec<f64> = (0..255)
        .map(|_| {
            let graph = pool.next().expect("the pool is not empty").clone();
            timed(|| engine.insert(graph)).1 / 1e3
        })
        .collect();
    report.set_once("core.concurrent.insert_us", median(&inserts));
    let removes: Vec<f64> = doomed
        .iter()
        .map(|&id| timed(|| engine.remove(id)).1 / 1e3)
        .collect();
    report.set_once("core.concurrent.remove_us", median(&removes));

    let search_ns = |engine: &ConcurrentEngine| {
        let generation = engine.pin();
        let samples: Vec<f64> = dataset
            .queries
            .iter()
            .map(|q| timed(|| engine.reader().search_pinned(&generation, q)).1)
            .collect();
        median(&samples)
    };
    search_ns(&engine);
    let with_delta = search_ns(&engine);
    engine.compact();
    search_ns(&engine);
    let compacted = search_ns(&engine);
    report.set_once(
        "core.dynamic.delta_scan_ratio",
        with_delta / compacted.max(1.0),
    );
    Ok(engine)
}

/// Replays `/insert` and `/remove` in decomposed form: the socket round
/// trip, then parse, `handle` (a second real mutation of the serving
/// engine), the JSON and graph decoding, and the engine mutation itself on
/// the scratch engine.
pub fn replay_writes(
    deployment: &Deployment,
    scratch: &ConcurrentEngine,
    dataset: &Dataset,
    trace: &mut Trace,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut connection = Connection::connect(deployment.addr).map_err(|e| e.to_string())?;
    let inserted_id = |body: &[u8]| -> Result<u64, String> {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        json::parse(text)?
            .get("id")
            .and_then(JsonValue::as_usize)
            .map(|id| id as u64)
            .ok_or_else(|| "/insert answered without an id".to_owned())
    };
    // Two of the three copies of every insert land on the serving engine;
    // stay below its compaction threshold so no background rebuild runs
    // underneath. Each copy inserts a graph of its own: the first insert of
    // a graph interns its new branches, a repeat would not. The scratch
    // engine takes its copies from the end of the pool, which its own
    // construction (from the front) did not reach.
    let pairs = (dataset.pool.len() / 3).min(crate::serving::COMPACT_THRESHOLD / 2 - 8);
    let mut id = 1 << 32;
    for (graphs, fresh) in dataset
        .pool
        .chunks_exact(2)
        .zip(dataset.pool.iter().rev())
        .take(pairs)
    {
        // /insert
        id += 1;
        tally.attempted += 1;
        let (bytes, replayed) = (insert_request(&graphs[0]), insert_request(&graphs[1]));
        let (first, root) = trace.record("http.insert", None, id, || {
            connection
                .round_trip(&bytes)
                .map(|(status, body)| (status, body.to_vec()))
        });
        let (status, body) = first.map_err(|e| format!("http.insert: {e}"))?;
        if status != 200 {
            tally.failed += 1;
            continue;
        }
        let over_socket = inserted_id(&body)?;
        let (request, _) = trace.record("serve.http.parse", Some(root), id, || {
            read_request(&mut Cursor::new(replayed.as_slice()))
        });
        let request = request.map_err(|e| format!("replayed parse: {e:?}"))?;
        let (response, handled) = trace.record("serve.api.handle", Some(root), id, || {
            handle(&deployment.state, &request)
        });
        let in_process = inserted_id(&response.body)?;
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let (document, _) = trace.record("serve.api.json_parse", Some(handled), id, || {
            json::parse(text)
        });
        let document = document?;
        let member = document.get("graph").ok_or("request without a graph")?;
        let (decoded, _) = trace.record("serve.api.graph_decode", Some(handled), id, || {
            graph_from_json(member)
        });
        decoded?;
        let fresh = fresh.clone();
        let (scratch_id, _) = trace.record("core.concurrent.insert", Some(handled), id, || {
            scratch.insert(fresh)
        });
        record_write(trace, root, id, &response)?;

        // /remove
        id += 1;
        tally.attempted += 1;
        let bytes = remove_request(over_socket);
        let (status, root) = trace.record("http.remove", None, id, || {
            connection.round_trip(&bytes).map(|(status, _)| status)
        });
        if status.map_err(|e| format!("http.remove: {e}"))? != 200 {
            tally.failed += 1;
        }
        let request = request_from(format!("{{\"id\": {in_process}}}"), "/remove");
        let (response, handled) = trace.record("serve.api.handle", Some(root), id, || {
            handle(&deployment.state, &request)
        });
        if response.status != 200 {
            tally.failed += 1;
        }
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let (document, _) = trace.record("serve.api.json_parse", Some(handled), id, || {
            json::parse(text)
        });
        document?;
        let (removed, _) = trace.record("core.concurrent.remove", Some(handled), id, || {
            scratch.remove(scratch_id)
        });
        removed.map_err(|e| format!("scratch remove: {e}"))?;
        record_write(trace, root, id, &response)?;
    }
    Ok(())
}

/// The `serve.http.write` span: `write_response` into a buffer. Returns the
/// bytes written.
fn record_write(
    trace: &mut Trace,
    root: usize,
    request: u64,
    response: &gbd_serve::Response,
) -> Result<usize, String> {
    let (written, _) = trace.record("serve.http.write", Some(root), request, || {
        let mut out = Vec::with_capacity(response.body.len() + 128);
        write_response(&mut out, response, false).map(|()| out.len())
    });
    written.map_err(|e| format!("write_response: {e}"))
}

/// What `mixed_rw` alone observes; other workloads report 0 for the stall
/// and the lateness (they run no open-loop writer).
pub fn concurrency_counts(
    deployment: &Deployment,
    rw: Option<&RwOutcome>,
    report: &mut Report,
) -> Result<(), String> {
    let mut connection = Connection::connect(deployment.addr).map_err(|e| e.to_string())?;
    let health = crate::client::render_request("GET", "/healthz", "");
    let (status, body) = connection.round_trip(&health).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/healthz: status {status}"));
    }
    let epoch = json::parse(std::str::from_utf8(body).map_err(|e| e.to_string())?)?
        .get("epoch")
        .and_then(JsonValue::as_f64)
        .ok_or("/healthz lacks an epoch")?;
    report.set_once("core.concurrent.epochs_published", epoch);
    report.set_once(
        "core.concurrent.compactions",
        rw.map_or(0.0, |rw| rw.compactions as f64),
    );
    report.set_once(
        "core.concurrent.writer_stall_max_ms",
        rw.map_or(0.0, |rw| rw.stall_max_ms),
    );
    report.set_once("loadgen.late_max_ms", rw.map_or(0.0, |rw| rw.late_max_ms));
    Ok(())
}

/// The store layers, on `store` (as [`crate::durable::run_cycles`] left it:
/// freshly compacted) in `dir`; `scratch` is an empty directory for the
/// stand-alone WAL writer.
pub fn store_probes(
    dir: &Path,
    scratch: &Path,
    mut store: DurableDatabase<StdVfs>,
    cycles: &StoreOutcome,
    dataset: &Dataset,
    trace: &mut Trace,
    report: &mut Report,
) -> Result<(), String> {
    let config = engine_config();
    let mut pool = dataset.pool.iter().cycle();
    let mut next_graph = || pool.next().expect("the pool is not empty").clone();
    let probes = 100usize;

    // DurableDatabase::insert directly, then the same through the
    // snapshot-isolated wrapper: the difference is the publication.
    let mut direct = Vec::with_capacity(probes);
    for _ in 0..probes {
        let graph = next_graph();
        let (result, ns) = timed(|| store.insert(graph));
        result.map_err(|e| error("insert", e))?;
        direct.push(ns / 1e3);
    }
    let index = OfflineIndex::build(store.database().base(), &config)
        .map_err(|e| format!("offline: {e}"))?;
    let serving = ConcurrentDurable::new(store, index, config.clone());
    let mut wal = WalWriter::new(scratch.join("probe.log"), 1, 0);
    let (mut wrapped, mut encodes) = (Vec::new(), Vec::new());
    for k in 0..probes {
        let graph = next_graph();
        let record = WalRecord::Insert {
            id: k as u64,
            graph: graph.clone(),
        };
        let request = (2u64 << 32) + k as u64;
        let (result, root) = trace.record("store.insert", None, request, || serving.insert(graph));
        result.map_err(|e| error("insert", e))?;
        wrapped.push(trace.spans()[root].duration_ns() as f64 / 1e3);
        let (_, encoded) = trace.record("store.wal.encode", Some(root), request, || {
            std::hint::black_box(encode_record(k as u64, &record));
        });
        encodes.push(trace.spans()[encoded].duration_ns() as f64);
        let (appended, _) = trace.record("store.wal.sync_append", Some(root), request, || {
            wal.append(&StdVfs, &record, true)
        });
        appended.map_err(|e| error("scratch wal append", e))?;
    }
    let summary = trace.summary("store.insert");
    report.set_once("store.wal.encode_ns", median(&encodes));
    report.set_once(
        "store.wal.sync_append_us",
        summary
            .get("store.wal.sync_append")
            .map_or(0.0, |s| s.median_ns / 1e3),
    );
    report.set_once(
        "store.concurrent.publish_us",
        median(&wrapped) - median(&direct),
    );
    let mut unsynced = Vec::with_capacity(2 * probes);
    for k in 0..2 * probes {
        let record = WalRecord::Insert {
            id: (probes + k) as u64,
            graph: next_graph(),
        };
        let (result, ns) = timed(|| wal.append(&StdVfs, &record, false));
        result.map_err(|e| error("scratch wal append", e))?;
        unsynced.push(ns / 1e3);
    }
    report.set_once("store.wal.append_us", median(&unsynced));
    for id in serving.pin().live_ids().into_iter().take(probes / 4) {
        serving.remove(id).map_err(|e| error("remove", e))?;
    }
    report.set_once("store.wal.bytes_per_insert", cycles.wal_bytes_per_insert);
    report.set_once("store.wal.fsyncs", cycles.fsyncs as f64);
    report.set_once(
        "store.durable.replayed_records",
        cycles.replayed_records as f64,
    );
    report.set_once("store.snapshot.bytes", cycles.snapshot_bytes as f64);

    // Close; then recovery as a whole and piece by piece.
    let durable = serving.into_inner();
    let manifest = Manifest {
        generation: durable.generation(),
    };
    drop(durable);
    let read = |path: std::path::PathBuf| {
        std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))
    };
    let wal_bytes = read(manifest.wal_path(dir))?;
    let snapshot_bytes = read(manifest.snapshot_path(dir))?;
    let mut reopened = None;
    for k in 0..3u64 {
        let request = (3u64 << 32) + k;
        let (opened, root) = trace.record("store.open", None, request, || {
            DurableDatabase::open(StdVfs, dir, durability())
        });
        reopened = Some(opened.map_err(|e| error("open", e))?);
        let (snapshot, _) = trace.record("store.snapshot.decode", Some(root), request, || {
            Snapshot::from_bytes(&snapshot_bytes)
        });
        let snapshot = snapshot.map_err(|e| error("snapshot decode", e))?;
        let (database, _) =
            trace.record("store.snapshot.into_database", Some(root), request, || {
                snapshot.into_database()
            });
        database.map_err(|e| error("snapshot into_database", e))?;
        let (replay, _) = trace.record("store.wal.decode", Some(root), request, || {
            decode_wal(&wal_bytes)
        });
        replay.map_err(|e| error("wal decode", e))?;
    }
    let summary = trace.summary("store.open");
    let ms = |name: &str| summary.get(name).map_or(0.0, |s| s.median_ns / 1e6);
    report.set_once("store.wal.decode_ms", ms("store.wal.decode"));
    report.set_once("store.snapshot.decode_ms", ms("store.snapshot.decode"));
    report.set_once(
        "store.snapshot.into_database_ms",
        ms("store.snapshot.into_database"),
    );
    report.set_once(
        "store.durable.replay_ms",
        summary
            .get("store.open")
            .map_or(0.0, |s| s.median_self_ns / 1e6),
    );
    let mut durable = reopened.expect("three opens succeeded");
    let survivors = live_graphs(durable.database());
    let alphabets = durable.database().alphabets();
    let (_, rebuild_ns) = timed(|| {
        std::hint::black_box(build_database(survivors, Some(alphabets)));
    });
    report.set_once(
        "store.durable.rebuild_ratio",
        ms("store.open") / (rebuild_ns / 1e6).max(1e-9),
    );

    let request = 4u64 << 32;
    let (compacted, root) = trace.record("store.compact", None, request, || durable.compact());
    compacted.map_err(|e| error("compact", e))?;
    let (_, encoded) = trace.record("store.snapshot.encode", Some(root), request, || {
        std::hint::black_box(Snapshot::from_database(durable.database().base()).to_bytes());
    });
    report.set_once(
        "store.snapshot.encode_ms",
        trace.spans()[encoded].duration_ns() as f64 / 1e6,
    );
    let rotated = Manifest {
        generation: durable.generation(),
    };
    let rewritten = read(rotated.snapshot_path(dir))?.len() as u64 + durable.wal_bytes();
    report.set_once(
        "store.durable.bytes_rewritten_per_compact",
        rewritten as f64,
    );
    Ok(())
}

/// One line per span name under `root`: median duration, median self time
/// and their share of the root's median duration.
pub fn waterfall(trace: &Trace, root: &str) -> String {
    let summary = trace.summary(root);
    let Some(whole) = summary.get(root) else {
        return String::new();
    };
    let mut lines = vec![format!(
        "waterfall {root}: {} operations, median {:.1} us as the caller observed it",
        whole.count,
        whole.median_ns / 1e3
    )];
    let mut rows: Vec<_> = summary.iter().collect();
    rows.sort_by(|a, b| b.1.median_ns.total_cmp(&a.1.median_ns));
    for (name, row) in rows {
        let label = if *name == root && root.starts_with("http.") {
            "(self: socket + worker hand-off)"
        } else {
            ""
        };
        lines.push(format!(
            "  {name:<30} {:>10.1} us  self {:>10.1} us  {:>5.1}% {label}",
            row.median_ns / 1e3,
            row.median_self_ns / 1e3,
            100.0 * row.median_self_ns / whole.median_ns.max(1.0),
        ));
    }
    lines.join("\n")
}
