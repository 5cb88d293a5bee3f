//! The four seeded workloads: their generators, their sizing, the request
//! bytes they send, and the one-sentence reason each exists.
//!
//! Everything here is a pure function of `--seed` (and the sizing derived
//! from `--seconds`): two runs with one seed send byte-identical requests.
//! The program under test receives only the generated graphs and request
//! bytes, never the seed.

use gbd_datasets::{generate_real_like, DatasetProfile, RealLikeConfig};
use gbd_graph::{EditOp, GeneratorConfig, Graph, Label, LabelAlphabets};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::render_request;

/// Vertex counts of the dense generator's four size buckets (the shape of
/// `gbd_bench::workloads::mixed_size_online_workload`, but seeded).
pub const DENSE_BUCKETS: [usize; 4] = [40, 48, 56, 64];
const DENSE_VERTEX_LABELS: u32 = 8;
const DENSE_EDGE_LABELS: u32 = 4;
/// `GeneratorConfig` keeps edge labels in their own id range.
const DENSE_EDGE_LABEL_OFFSET: u32 = 1000;
/// The similarity threshold `τ̂` every workload searches with.
pub const TAU_HAT: u64 = 5;
/// The `k` of every `/search_top_k` request.
pub const TOP_K: usize = 10;
/// Rounds every timed phase is cut into; a metric is the median of its
/// per-round values.
pub const ROUNDS: usize = 5;
/// Rounds of the closed-loop write phase of `http_dense` / `http_sparse`.
pub const WRITE_ROUNDS: usize = 3;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense, small-alphabet graphs behind the HTTP front door.
    HttpDense,
    /// AASD-like clustered molecules behind the HTTP front door.
    HttpSparse,
    /// Reads beside an open-loop write stream and background compaction.
    MixedRw,
    /// The durable store at library level on a real directory.
    DurableStore,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::HttpDense,
        Workload::HttpSparse,
        Workload::MixedRw,
        Workload::DurableStore,
    ];

    /// The name used on the command line, in the output and in
    /// `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpDense => "http_dense",
            Workload::HttpSparse => "http_sparse",
            Workload::MixedRw => "mixed_rw",
            Workload::DurableStore => "durable_store",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (also the `why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HttpDense => {
                "Small label alphabets give long postings lists, so the scan kernel, filter \
                 cascade and posterior cache are about 85% of a /search round trip."
            }
            Workload::HttpSparse => {
                "Cluster-private labels make top-k scans tiny, so HTTP framing, JSON, query \
                 flattening and the socket hand-off dominate; it also carries F1 against ground truth."
            }
            Workload::MixedRw => {
                "An open-loop write stream beside a closed-loop reader exposes publish cost, \
                 delta-scan overhead and the writer stalls of background compaction."
            }
            Workload::DurableStore => {
                "Synced WAL appends, recovery and snapshot rotation on a real directory: the only \
                 workload in which the store layers do most of the work."
            }
        }
    }

    /// Whether the workload drives the HTTP front door (the durable store
    /// is driven at library level).
    pub fn is_http(self) -> bool {
        self != Workload::DurableStore
    }
}

/// How much work one run does. Every count is a function of the workload,
/// `--seconds` and `--smoke` only, so two runs with the same arguments do
/// the same operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// A `--smoke` run: tiny databases, so timing checks only report.
    pub smoke: bool,
    /// Database graphs.
    pub graphs: usize,
    /// Times the whole set-up is repeated (`setup_s` is the median).
    pub setups: usize,
    /// Warm-up before the first timed round.
    pub warmup_secs: f64,
    /// Per round: closed-loop `/search` on one connection.
    pub search_secs: f64,
    /// Per round: closed-loop `/search_top_k` on one connection.
    pub topk_secs: f64,
    /// Per round: closed-loop `/search` on two connections.
    pub pair_secs: f64,
    /// `mixed_rw`: length of one window (= round).
    pub window_secs: f64,
    /// `mixed_rw`: scheduled mutations per second.
    pub write_rate: f64,
    /// Graphs in the durable store's initial base.
    pub store_graphs: usize,
    /// Persistence cycles (mutate → reopen → compact).
    pub store_cycles: usize,
    /// Mutations per persistence cycle: three inserts for every remove.
    pub store_mutations: usize,
    /// Timed `open` calls per persistence cycle.
    pub store_opens: usize,
    /// `http_dense` / `http_sparse`: `/insert`s per round of the
    /// closed-loop write rounds (all rounds together stay below the serving
    /// engine's compaction threshold).
    pub write_inserts: usize,
    /// Traced run: decomposed requests per endpoint.
    pub replay_requests: usize,
}

impl Plan {
    /// The sizing of one run.
    pub fn new(workload: Workload, seconds: f64, smoke: bool) -> Plan {
        let round = seconds / ROUNDS as f64;
        let graphs = match (smoke, workload) {
            (true, _) => 500,
            (false, Workload::HttpDense) => 20_000,
            (false, _) => 10_000,
        };
        // The durable store is the whole run of `durable_store` and a side
        // measurement elsewhere; mutation counts scale with the run length
        // so that a longer run measures more, not the same work slower.
        let store_mutations = match workload {
            Workload::DurableStore => (seconds * 12.0) as usize,
            _ => (seconds * 1.6) as usize,
        }
        .max(2)
            * 4;
        Plan {
            smoke,
            graphs,
            setups: if smoke { 1 } else { 3 },
            warmup_secs: if smoke { 0.1 } else { 1.0 },
            search_secs: round * 0.4,
            topk_secs: round * 0.35,
            pair_secs: round * 0.25,
            window_secs: round,
            write_rate: 300.0,
            store_graphs: graphs.min(10_000),
            store_cycles: ROUNDS,
            store_mutations,
            store_opens: 3,
            write_inserts: if smoke { 9 } else { 81 },
            replay_requests: if smoke { 100 } else { 1_000 },
        }
    }

    /// Fresh graphs the run may insert: every persistence cycle's inserts
    /// or the open-loop writer's share of `mixed_rw`, and after those the
    /// graphs of the closed-loop write rounds, which no other phase reuses
    /// (the first insert of a graph interns its branches, a repeat does not).
    pub fn pool(&self, workload: Workload) -> usize {
        let store = self.store_cycles * self.store_mutations * 3 / 4;
        let writer = if workload == Workload::MixedRw {
            let seconds = self.warmup_secs + self.window_secs * ROUNDS as f64;
            (seconds * self.write_rate / 2.0).ceil() as usize + 64
        } else {
            0
        };
        store.max(writer).max(64) + self.write_graphs()
    }

    /// Graphs the closed-loop write rounds insert.
    pub fn write_graphs(&self) -> usize {
        WRITE_ROUNDS * self.write_inserts
    }
}

/// What a workload's generator produces.
pub struct Dataset {
    /// The database, in id order (graph `i` gets id `i`).
    pub graphs: Vec<Graph>,
    /// Label alphabets to build the database with (`None`: derive them).
    pub alphabets: Option<LabelAlphabets>,
    /// The distinct queries.
    pub queries: Vec<Graph>,
    /// Per query, the ids whose GED to the query is known to be within
    /// [`TAU_HAT`]: complete ground truth for the sparse generator, the
    /// planted source graph for the dense one.
    pub truth: Vec<Vec<u64>>,
    /// Fresh graphs for inserts.
    pub pool: Vec<Graph>,
}

/// Generates the dataset of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, plan: &Plan) -> Dataset {
    let pool = plan.pool(workload);
    match workload {
        Workload::HttpSparse => sparse(seed, plan.graphs, pool),
        _ => dense(seed, plan.graphs, pool),
    }
}

fn dense_config(vertices: usize) -> GeneratorConfig {
    GeneratorConfig::new(vertices, 2.4).with_alphabets(LabelAlphabets::new(
        DENSE_VERTEX_LABELS as usize,
        DENSE_EDGE_LABELS as usize,
    ))
}

/// `n` graphs over [`DENSE_BUCKETS`] (grouped by size, like the repo's
/// `mixed_size_online_workload`), 48 member queries (12 per bucket) carrying
/// 1–5 random relabels, 16 fresh non-member queries (4 per bucket), and
/// `pool` fresh graphs.
fn dense(seed: u64, n: usize, pool: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_bucket = n.div_ceil(DENSE_BUCKETS.len());
    let mut graphs = Vec::with_capacity(per_bucket * DENSE_BUCKETS.len());
    for size in DENSE_BUCKETS {
        graphs.extend(
            dense_config(size)
                .generate_many(per_bucket, &mut rng)
                .expect("dense generation places every edge"),
        );
    }
    graphs.truncate(n);

    // The same number of member queries from every size bucket, so that the
    // query mix — and with it the latency distribution — is the same for
    // every seed.
    let mut queries = Vec::with_capacity(64);
    let mut truth = Vec::with_capacity(64);
    for k in 0..48 {
        let bucket = k % DENSE_BUCKETS.len();
        let (low, high) = (
            bucket * per_bucket,
            ((bucket + 1) * per_bucket).min(graphs.len()),
        );
        let source = if low < high {
            rng.gen_range(low..high)
        } else {
            rng.gen_range(0..graphs.len())
        };
        let mut query = graphs[source].clone();
        for _ in 0..rng.gen_range(1..=5usize) {
            random_relabel(&query, &mut rng)
                .apply(&mut query)
                .expect("relabels of existing vertices and edges apply");
        }
        queries.push(query);
        // At most five relabels away from its source, so GED ≤ τ̂.
        truth.push(vec![source as u64]);
    }
    for k in 0..16 {
        let size = DENSE_BUCKETS[k % DENSE_BUCKETS.len()];
        queries.push(
            dense_config(size)
                .generate(&mut rng)
                .expect("dense generation places every edge"),
        );
        truth.push(Vec::new());
    }

    let pool = (0..pool)
        .map(|k| {
            dense_config(DENSE_BUCKETS[k % DENSE_BUCKETS.len()])
                .generate(&mut rng)
                .expect("dense generation places every edge")
        })
        .collect();
    Dataset {
        graphs,
        alphabets: None,
        queries,
        truth,
        pool,
    }
}

/// One relabel of a random vertex or edge to a different label of the
/// dense alphabets.
fn random_relabel(graph: &Graph, rng: &mut StdRng) -> EditOp {
    let edges: Vec<_> = graph.edges().collect();
    if !edges.is_empty() && rng.gen_bool(0.5) {
        let (key, old) = edges[rng.gen_range(0..edges.len())];
        let shift = rng.gen_range(1..DENSE_EDGE_LABELS);
        let label = (old.id() - DENSE_EDGE_LABEL_OFFSET + shift) % DENSE_EDGE_LABELS;
        EditOp::RelabelEdge {
            u: key.u,
            v: key.v,
            label: Label::new(DENSE_EDGE_LABEL_OFFSET + label),
        }
    } else {
        let vertex = gbd_graph::VertexId::new(rng.gen_range(0..graph.vertex_count()) as u32);
        let old = graph.vertex_labels()[vertex.index()];
        let shift = rng.gen_range(1..DENSE_VERTEX_LABELS);
        EditOp::RelabelVertex {
            vertex,
            label: Label::new((old.id() + shift) % DENSE_VERTEX_LABELS),
        }
    }
}

/// The AASD-like clustered generator at `n` graphs and 100 queries, with
/// complete ground truth, plus `pool` more graphs of the same shape.
fn sparse(seed: u64, n: usize, pool: usize) -> Dataset {
    let profile = |database_size, query_count| DatasetProfile {
        database_size,
        query_count,
        ..DatasetProfile::aasd()
    };
    let dataset = generate_real_like(&RealLikeConfig::new(profile(n, 100), 1.0).with_seed(seed))
        .expect("real-like generation succeeds");
    let truth = (0..dataset.queries.len())
        .map(|q| {
            dataset
                .ground_truth
                .positives(q, TAU_HAT as usize, dataset.graphs.len())
                .into_iter()
                .map(|g| g as u64)
                .collect()
        })
        .collect();
    let pool = generate_real_like(
        &RealLikeConfig::new(profile(pool, 1), 1.0).with_seed(seed ^ 0x5EED_F00D),
    )
    .expect("real-like generation succeeds")
    .graphs;
    Dataset {
        graphs: dataset.graphs,
        alphabets: Some(dataset.alphabets),
        queries: dataset.queries,
        truth,
        pool,
    }
}

/// The wire form of a graph: `{"vertices": [label, …], "edges": [[a, b,
/// label], …]}`.
pub fn graph_json(graph: &Graph) -> String {
    let vertices: Vec<String> = graph
        .vertex_labels()
        .iter()
        .map(|label| label.id().to_string())
        .collect();
    let edges: Vec<String> = graph
        .edges()
        .map(|(key, label)| format!("[{}, {}, {}]", key.u.raw(), key.v.raw(), label.id()))
        .collect();
    format!(
        "{{\"vertices\": [{}], \"edges\": [{}]}}",
        vertices.join(", "),
        edges.join(", ")
    )
}

/// The complete `POST /search` request for `query`.
pub fn search_request(query: &Graph) -> Vec<u8> {
    render_request(
        "POST",
        "/search",
        &format!("{{\"graph\": {}}}", graph_json(query)),
    )
}

/// The body of a `POST /search_top_k` for `query` with `k =` [`TOP_K`].
pub fn top_k_body(query: &Graph) -> String {
    format!("{{\"graph\": {}, \"k\": {TOP_K}}}", graph_json(query))
}

/// The complete `POST /search_top_k` request for `query`.
pub fn top_k_request(query: &Graph) -> Vec<u8> {
    render_request("POST", "/search_top_k", &top_k_body(query))
}

/// The complete `POST /insert` request for `graph`.
pub fn insert_request(graph: &Graph) -> Vec<u8> {
    render_request(
        "POST",
        "/insert",
        &format!("{{\"graph\": {}}}", graph_json(graph)),
    )
}

/// The complete `POST /remove` request for `id`.
pub fn remove_request(id: u64) -> Vec<u8> {
    render_request("POST", "/remove", &format!("{{\"id\": {id}}}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(workload: Workload, seed: u64) -> Vec<Vec<u8>> {
        let plan = Plan::new(workload, 1.0, true);
        let dataset = generate(workload, seed, &plan);
        dataset
            .queries
            .iter()
            .flat_map(|q| [search_request(q), top_k_request(q)])
            .chain(dataset.pool.iter().map(insert_request))
            .chain(dataset.graphs.iter().take(20).map(insert_request))
            .collect()
    }

    #[test]
    fn one_seed_gives_byte_identical_requests_and_another_seed_differs() {
        for workload in Workload::ALL {
            let first = requests(workload, 7);
            assert_eq!(first, requests(workload, 7), "{}", workload.name());
            assert_ne!(first, requests(workload, 8), "{}", workload.name());
        }
    }

    #[test]
    fn datasets_have_the_documented_shape() {
        let plan = Plan::new(Workload::HttpDense, 1.0, true);
        let dense = generate(Workload::HttpDense, 1, &plan);
        assert_eq!(dense.graphs.len(), 500);
        assert_eq!(dense.queries.len(), 64);
        assert_eq!(dense.truth.iter().filter(|t| t.len() == 1).count(), 48);
        assert_eq!(dense.pool.len(), plan.pool(Workload::HttpDense));
        for graph in &dense.graphs {
            assert!(DENSE_BUCKETS.contains(&graph.vertex_count()));
        }
        // A member query differs from its source, by relabels only.
        let source = &dense.graphs[dense.truth[0][0] as usize];
        assert_eq!(source.vertex_count(), dense.queries[0].vertex_count());
        assert_eq!(source.edge_count(), dense.queries[0].edge_count());
        assert_ne!(graph_json(source), graph_json(&dense.queries[0]));

        let sparse = generate(
            Workload::HttpSparse,
            1,
            &Plan::new(Workload::HttpSparse, 1.0, true),
        );
        assert_eq!(sparse.graphs.len(), 500);
        assert_eq!(sparse.queries.len(), 100);
        assert!(sparse.truth.iter().any(|t| !t.is_empty()));
        assert!(sparse.alphabets.is_some());
    }

    #[test]
    fn the_wire_form_round_trips_through_the_servers_decoder() {
        let dataset = generate(
            Workload::HttpSparse,
            3,
            &Plan::new(Workload::HttpSparse, 1.0, true),
        );
        for graph in dataset.queries.iter().take(10) {
            let document = gbd_bench::json::parse(&graph_json(graph)).unwrap();
            let decoded = gbd_serve::graph_from_json(&document).unwrap();
            assert_eq!(decoded.vertex_labels(), graph.vertex_labels());
            assert_eq!(
                decoded.edges().collect::<Vec<_>>(),
                graph.edges().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn plans_scale_with_the_run_length_and_every_workload_has_a_why() {
        let short = Plan::new(Workload::DurableStore, 5.0, false);
        let long = Plan::new(Workload::DurableStore, 10.0, false);
        assert_eq!(long.store_mutations, 2 * short.store_mutations);
        assert_eq!(short.store_mutations % 4, 0);
        assert_eq!(short.store_cycles, ROUNDS);
        assert_eq!(
            Plan::new(Workload::HttpSparse, 15.0, false).store_cycles,
            ROUNDS
        );
        assert_eq!(Plan::new(Workload::HttpDense, 15.0, false).graphs, 20_000);
        assert_eq!(Plan::new(Workload::HttpDense, 15.0, true).graphs, 500);
        for workload in Workload::ALL {
            assert!(workload.why().len() <= 200, "{}", workload.name());
            assert!(!workload.why().contains('\n'));
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
