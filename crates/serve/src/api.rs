//! The endpoint layer: JSON codecs for graphs and the request dispatcher
//! over a shared [`gbda_core::ConcurrentEngine`].
//!
//! Every query endpoint pins one published generation and answers entirely
//! from it, echoing the generation's `epoch` in the response — the wire
//! form of the serving layer's consistency guarantee: the results are
//! bit-identical to a static engine over that generation's live set.
//!
//! | Method | Path            | Body                                  | Response |
//! |--------|-----------------|---------------------------------------|----------|
//! | POST   | `/search`       | `{"graph": …}`                        | `{"epoch", "matches", "evaluated", "seconds"}` |
//! | POST   | `/search_top_k` | `{"graph": …, "k": N}`                | `{"epoch", "hits": [{"id", "posterior"}]}` |
//! | POST   | `/insert`       | `{"graph": …}`                        | `{"id", "epoch"}` |
//! | POST   | `/remove`       | `{"id": N}`                           | `{"epoch"}` (404 on unknown id) |
//! | GET    | `/healthz`      | —                                     | `{"status", "epoch", "live_graphs"}` |
//! | GET    | `/metrics`      | —                                     | Prometheus text exposition |
//! | GET    | `/metrics.json` | —                                     | JSON exposition |
//! | POST   | `/shutdown`     | —                                     | `{"status": "shutting down"}` |
//!
//! A graph travels as `{"vertices": [label, …], "edges": [[a, b, label],
//! …]}` with `u32` labels and vertex indices into the `vertices` array.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use gbd_bench::json::{self, JsonValue};
use gbd_graph::{Graph, Label};
use gbd_telemetry::{global, metrics_enabled};
use gbda_core::ConcurrentEngine;

use crate::http::{Request, Response};

/// The shared serving state: the engine plus the graceful-shutdown latch
/// that `POST /shutdown` trips.
pub struct ServeState {
    engine: ConcurrentEngine,
    shutdown: AtomicBool,
}

impl ServeState {
    /// Wraps an engine for serving.
    pub fn new(engine: ConcurrentEngine) -> Self {
        ServeState {
            engine,
            shutdown: AtomicBool::new(false),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ConcurrentEngine {
        &self.engine
    }

    /// Whether `POST /shutdown` was received.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Decodes `{"vertices": …, "edges": …}` into a [`Graph`].
///
/// # Errors
/// A human-readable message naming the offending member.
pub fn graph_from_json(value: &JsonValue) -> Result<Graph, String> {
    let labels = value
        .get("vertices")
        .and_then(JsonValue::as_array)
        .ok_or("graph needs a \"vertices\" array")?;
    let mut graph = Graph::with_capacity(labels.len());
    let mut vertices = Vec::with_capacity(labels.len());
    for (i, label) in labels.iter().enumerate() {
        let label = label
            .as_usize()
            .and_then(|l| u32::try_from(l).ok())
            .ok_or(format!("vertex {i} is not a u32 label"))?;
        vertices.push(graph.add_vertex(Label(label)));
    }
    let edges = value
        .get("edges")
        .and_then(JsonValue::as_array)
        .ok_or("graph needs an \"edges\" array")?;
    for (i, edge) in edges.iter().enumerate() {
        let parts = edge
            .as_array()
            .filter(|parts| parts.len() == 3)
            .ok_or(format!("edge {i} is not an [a, b, label] triple"))?;
        let index = |k: usize| -> Result<usize, String> {
            parts[k]
                .as_usize()
                .filter(|&v| v < vertices.len())
                .ok_or(format!("edge {i} endpoint {k} is out of range"))
        };
        let label = parts[2]
            .as_usize()
            .and_then(|l| u32::try_from(l).ok())
            .ok_or(format!("edge {i} label is not a u32"))?;
        graph
            .add_edge(vertices[index(0)?], vertices[index(1)?], Label(label))
            .map_err(|e| format!("edge {i}: {e}"))?;
    }
    Ok(graph)
}

fn parse_body(request: &Request) -> Result<JsonValue, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "body is not UTF-8"))?;
    json::parse(text).map_err(|e| Response::error(400, &format!("body is not JSON: {e}")))
}

fn body_graph(document: &JsonValue) -> Result<Graph, Response> {
    let member = document
        .get("graph")
        .ok_or_else(|| Response::error(400, "body needs a \"graph\" member"))?;
    graph_from_json(member).map_err(|e| Response::error(400, &e))
}

fn number(n: f64) -> JsonValue {
    JsonValue::Number(n)
}

fn ids(ids: &[u64]) -> JsonValue {
    JsonValue::Array(ids.iter().map(|&id| number(id as f64)).collect())
}

/// Dispatches one request against the serving state.
pub fn handle(state: &ServeState, request: &Request) -> Response {
    let started = Instant::now();
    let response = dispatch(state, request);
    record_request(request, &response, started.elapsed().as_secs_f64());
    response
}

fn dispatch(state: &ServeState, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/search") => {
            let document = match parse_body(request) {
                Ok(document) => document,
                Err(response) => return response,
            };
            let query = match body_graph(&document) {
                Ok(query) => query,
                Err(response) => return response,
            };
            let generation = state.engine.pin();
            let outcome = state.engine.reader().search_pinned(&generation, &query);
            Response::json(
                200,
                JsonValue::Object(vec![
                    ("epoch".into(), number(generation.epoch() as f64)),
                    ("matches".into(), ids(&outcome.matches)),
                    ("evaluated".into(), number(outcome.stats.evaluated as f64)),
                    ("seconds".into(), number(outcome.seconds)),
                ])
                .render(),
            )
        }
        ("POST", "/search_top_k") => {
            let document = match parse_body(request) {
                Ok(document) => document,
                Err(response) => return response,
            };
            let query = match body_graph(&document) {
                Ok(query) => query,
                Err(response) => return response,
            };
            let Some(k) = document.get("k").and_then(JsonValue::as_usize) else {
                return Response::error(400, "body needs a non-negative integer \"k\"");
            };
            let generation = state.engine.pin();
            let outcome = state
                .engine
                .reader()
                .search_top_k_pinned(&generation, &query, k);
            let hits = outcome
                .hits
                .iter()
                .map(|hit| {
                    JsonValue::Object(vec![
                        ("id".into(), number(hit.id as f64)),
                        ("posterior".into(), number(hit.posterior)),
                    ])
                })
                .collect();
            Response::json(
                200,
                JsonValue::Object(vec![
                    ("epoch".into(), number(generation.epoch() as f64)),
                    ("hits".into(), JsonValue::Array(hits)),
                    ("seconds".into(), number(outcome.seconds)),
                ])
                .render(),
            )
        }
        ("POST", "/insert") => {
            let document = match parse_body(request) {
                Ok(document) => document,
                Err(response) => return response,
            };
            let graph = match body_graph(&document) {
                Ok(graph) => graph,
                Err(response) => return response,
            };
            // The epoch echoed is the one this insert published, not whatever
            // is current by now: another writer may already have moved on.
            let (id, epoch) = state.engine.insert_published(graph);
            Response::json(
                200,
                JsonValue::Object(vec![
                    ("id".into(), number(id as f64)),
                    ("epoch".into(), number(epoch as f64)),
                ])
                .render(),
            )
        }
        ("POST", "/remove") => {
            let document = match parse_body(request) {
                Ok(document) => document,
                Err(response) => return response,
            };
            let Some(id) = document.get("id").and_then(JsonValue::as_usize) else {
                return Response::error(400, "body needs a non-negative integer \"id\"");
            };
            match state.engine.remove(id as u64) {
                Ok(epoch) => Response::json(
                    200,
                    JsonValue::Object(vec![("epoch".into(), number(epoch as f64))]).render(),
                ),
                Err(e) => Response::error(404, &e.to_string()),
            }
        }
        ("GET", "/healthz") => {
            let generation = state.engine.pin();
            Response::json(
                200,
                JsonValue::Object(vec![
                    ("status".into(), JsonValue::String("ok".into())),
                    ("epoch".into(), number(generation.epoch() as f64)),
                    ("live_graphs".into(), number(generation.len() as f64)),
                ])
                .render(),
            )
        }
        ("GET", "/metrics") => Response::text(200, global().render_prometheus()),
        ("GET", "/metrics.json") => Response::json(200, global().render_json()),
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            Response::json(200, "{\"status\": \"shutting down\"}\n")
        }
        (
            _,
            "/search" | "/search_top_k" | "/insert" | "/remove" | "/healthz" | "/metrics"
            | "/metrics.json" | "/shutdown",
        ) => Response::error(405, "method not allowed for this path"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// Books one finished request into the workspace telemetry.
fn record_request(request: &Request, response: &Response, seconds: f64) {
    if !metrics_enabled() {
        return;
    }
    let g = global();
    g.counter(
        "gbd_serve_requests_total",
        "HTTP requests answered by the serving layer.",
    )
    .inc();
    if response.status >= 400 {
        g.counter(
            "gbd_serve_errors_total",
            "HTTP requests answered with a 4xx/5xx status.",
        )
        .inc();
    }
    if request.method == "POST" && (request.path == "/search" || request.path == "/search_top_k") {
        g.histogram(
            "gbd_serve_query_seconds",
            "End-to-end latency of one HTTP query request.",
        )
        .record(seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_graph::{GeneratorConfig, LabelAlphabets};
    use gbda_core::{GbdaConfig, GraphDatabase, OfflineIndex, QueryEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graphs() -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(7);
        GeneratorConfig::new(8, 2.0)
            .with_alphabets(LabelAlphabets::new(4, 2))
            .generate_many(10, &mut rng)
            .unwrap()
    }

    fn config() -> GbdaConfig {
        GbdaConfig::new(2, 0.5).with_sample_pairs(60)
    }

    fn state() -> ServeState {
        let database = GraphDatabase::from_graphs(graphs());
        let index = OfflineIndex::build(&database, &config()).unwrap();
        let engine =
            ConcurrentEngine::new(gbda_core::DynamicDatabase::new(database), index, config());
        ServeState::new(engine)
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            close: false,
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            close: false,
            body: Vec::new(),
        }
    }

    const TRIANGLE: &str =
        "{\"vertices\": [1, 2, 3], \"edges\": [[0, 1, 0], [1, 2, 1], [0, 2, 0]]}";

    #[test]
    fn graph_codec_round_trips_the_triangle() {
        let graph = graph_from_json(&json::parse(TRIANGLE).unwrap()).unwrap();
        assert_eq!(graph.vertex_count(), 3);
        assert_eq!(graph.edge_count(), 3);
    }

    #[test]
    fn graph_codec_rejects_malformed_members() {
        for bad in [
            "{}",
            "{\"vertices\": 3}",
            "{\"vertices\": [1], \"edges\": [[0, 1, 0]]}",
            "{\"vertices\": [1, 2], \"edges\": [[0, 1]]}",
            "{\"vertices\": [-1], \"edges\": []}",
        ] {
            assert!(
                graph_from_json(&json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    /// The served engine is built from the defaults, so `/search` runs the
    /// threshold scan that records no posteriors, and answers exactly what a
    /// recording scan over the same graphs would.
    #[test]
    fn served_search_records_no_posteriors_and_matches_a_recording_scan() {
        let state = state();
        assert!(!state.engine.config().record_posteriors);
        let database = GraphDatabase::from_graphs(graphs());
        let recording = QueryEngine::new(
            &database,
            state.engine.reader().index(),
            config().with_record_posteriors(true),
        );
        let triangle = graph_from_json(&json::parse(TRIANGLE).unwrap()).unwrap();
        let generation = state.engine.pin();
        let mut matched = 0;
        for query in graphs().iter().chain([&triangle]) {
            let served = state.engine.reader().search_pinned(&generation, query);
            let recorded = recording.search(query);
            assert!(served.posteriors.is_empty());
            assert_eq!(recorded.posteriors.len(), recorded.stats.evaluated);
            let ids: Vec<u64> = recorded.matches.iter().map(|&i| i as u64).collect();
            assert_eq!(served.matches, ids);
            matched += ids.len();
        }
        assert!(matched > 0, "every database graph matches itself");
    }

    #[test]
    fn search_insert_remove_round_trip_with_epochs() {
        let state = state();
        let body = format!("{{\"graph\": {TRIANGLE}}}");

        let response = handle(&state, &post("/search", &body));
        assert_eq!(response.status, 200);
        let document = json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(document.get("epoch").and_then(JsonValue::as_usize), Some(0));
        assert_eq!(
            document.get("evaluated").and_then(JsonValue::as_usize),
            Some(10)
        );

        let response = handle(&state, &post("/insert", &body));
        let document = json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let id = document.get("id").and_then(JsonValue::as_usize).unwrap();
        assert_eq!(id, 10);
        assert_eq!(document.get("epoch").and_then(JsonValue::as_usize), Some(1));

        // The inserted triangle matches itself on the next search.
        let response = handle(&state, &post("/search", &body));
        let document = json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(document.get("epoch").and_then(JsonValue::as_usize), Some(1));
        let matches = document
            .get("matches")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(matches.iter().any(|m| m.as_usize() == Some(id)));

        let response = handle(&state, &post("/remove", &format!("{{\"id\": {id}}}")));
        assert_eq!(response.status, 200);
        let response = handle(&state, &post("/remove", "{\"id\": 999}"));
        assert_eq!(response.status, 404);
    }

    /// Two writer connections at once: each `/insert` and `/remove` echoes
    /// the epoch of the generation *it* published, so the echoed epochs are
    /// pairwise distinct, number the mutations 1..=N, and replaying them in
    /// echoed order reproduces every generation the writers pinned.
    #[test]
    fn concurrent_writers_echo_their_own_epochs() {
        const ROUNDS: usize = 500;
        let state = state();
        let initial = state.engine.pin().live_ids();
        let field = |response: &Response, name: &str| {
            assert_eq!(response.status, 200);
            let document = json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
            document.get(name).and_then(JsonValue::as_usize).unwrap() as u64
        };
        let start = std::sync::Barrier::new(2);
        let writer = || {
            start.wait();
            let mut acks = Vec::new(); // (epoch, id, inserted?)
            let mut pins = Vec::new();
            for _ in 0..ROUNDS {
                let body = format!("{{\"graph\": {TRIANGLE}}}");
                let response = handle(&state, &post("/insert", &body));
                let (id, epoch) = (field(&response, "id"), field(&response, "epoch"));
                let pinned = state.engine.pin();
                // Nobody else removes this id, so it is in every generation
                // from the echoed one up to this writer's own remove.
                assert!(pinned.epoch() >= epoch);
                assert!(pinned.live_ids().contains(&id));
                acks.push((epoch, id, true));
                pins.push(pinned);

                let response = handle(&state, &post("/remove", &format!("{{\"id\": {id}}}")));
                let epoch = field(&response, "epoch");
                let pinned = state.engine.pin();
                assert!(pinned.epoch() >= epoch);
                assert!(!pinned.live_ids().contains(&id));
                acks.push((epoch, id, false));
                pins.push(pinned);
            }
            (acks, pins)
        };
        let ((mut acks, mut pins), (other_acks, other_pins)) = std::thread::scope(|scope| {
            let other = scope.spawn(writer);
            (writer(), other.join().unwrap())
        });
        acks.extend(other_acks);
        pins.extend(other_pins);

        acks.sort_unstable();
        let epochs: Vec<u64> = acks.iter().map(|&(epoch, _, _)| epoch).collect();
        assert_eq!(epochs, (1..=4 * ROUNDS as u64).collect::<Vec<_>>());
        // live[e] is the live set after the mutation that echoed epoch e.
        let mut live = vec![initial];
        for &(_, id, inserted) in &acks {
            let mut next = live.last().unwrap().clone();
            if inserted {
                next.push(id);
            } else {
                next.retain(|&other| other != id);
            }
            live.push(next);
        }
        for pinned in pins {
            assert_eq!(pinned.live_ids(), live[pinned.epoch() as usize]);
        }
    }

    #[test]
    fn top_k_health_metrics_and_errors() {
        let state = state();
        let body = format!("{{\"graph\": {TRIANGLE}, \"k\": 3}}");
        let response = handle(&state, &post("/search_top_k", &body));
        assert_eq!(response.status, 200);
        let document = json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert!(
            document
                .get("hits")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len()
                <= 3
        );

        assert_eq!(handle(&state, &get("/healthz")).status, 200);
        let metrics = handle(&state, &get("/metrics"));
        assert_eq!(metrics.status, 200);
        assert!(String::from_utf8(metrics.body)
            .unwrap()
            .contains("gbda_generations_published_total"));
        let metrics_json = handle(&state, &get("/metrics.json"));
        assert!(json::parse(std::str::from_utf8(&metrics_json.body).unwrap()).is_ok());

        assert_eq!(handle(&state, &post("/search", "{not json")).status, 400);
        assert_eq!(handle(&state, &get("/search")).status, 405);
        assert_eq!(handle(&state, &get("/nope")).status, 404);
        assert!(!state.shutdown_requested());
        assert_eq!(handle(&state, &post("/shutdown", "")).status, 200);
        assert!(state.shutdown_requested());
    }
}
