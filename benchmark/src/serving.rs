//! The HTTP side of the benchmark: boots the real `gbd_serve::serve` front
//! door in-process and drives it from outside over loop-back sockets.
//!
//! Load shape: at most `min(nproc, 2)` client threads, each owning one
//! keep-alive connection; the server runs two workers. The front door is a
//! connection-per-worker pool, so the benchmark never holds more than two
//! connections open at once — a third would wait for a worker forever.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gbd_bench::json::{self, JsonValue};
use gbd_graph::{Graph, LabelAlphabets};
use gbd_serve::{serve, ServeState, ServerConfig, ServerHandle};
use gbd_store::format::fnv1a64;
use gbda_core::{
    ConcurrentEngine, DynamicDatabase, DynamicView, GbdaConfig, Generation, GraphDatabase,
    OfflineIndex, QueryEngine,
};

use crate::affinity::Placement;
use crate::client::{ClientError, Connection};
use crate::workloads::{
    insert_request, remove_request, search_request, top_k_request, Dataset, Plan, ROUNDS, TAU_HAT,
    TOP_K, WRITE_ROUNDS,
};

/// Delta length at which the serving engine compacts in the background
/// (the `gbd-serve` binary's default).
pub const COMPACT_THRESHOLD: usize = 256;
/// The quoted member names of the answer arrays the digests are taken over.
const MATCHES: &[u8] = b"\"matches\"";
const HITS: &[u8] = b"\"hits\"";
/// A `mixed_rw` write acknowledged later than this after it was due is a
/// failed operation.
const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// The engine configuration, built the way `gbd-serve` builds it: only the
/// thresholds and the pair-sample size are set, every other field keeps its
/// default — so a later change to a default shows up here.
pub fn engine_config() -> GbdaConfig {
    GbdaConfig::new(TAU_HAT, 0.8).with_sample_pairs(2_000)
}

/// Client threads the load generator may use.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Builds the database the way every workload does.
pub fn build_database(graphs: Vec<Graph>, alphabets: Option<LabelAlphabets>) -> GraphDatabase {
    match alphabets {
        Some(alphabets) => GraphDatabase::with_alphabets(graphs, alphabets),
        None => GraphDatabase::from_graphs(graphs),
    }
}

/// Milliseconds the parts of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `GraphDatabase` construction.
    pub build_ms: f64,
    /// `OfflineIndex::build`.
    pub offline_ms: f64,
}

/// The server under test, running in this process.
pub struct Deployment {
    /// The state the server answers from (for the traced run's in-process
    /// replay of the same requests).
    pub state: Arc<ServeState>,
    server: ServerHandle,
    /// Where the server listens.
    pub addr: SocketAddr,
}

impl Deployment {
    /// Builds the database and the offline index and boots the front door
    /// on an ephemeral loop-back port.
    pub fn boot(
        graphs: Vec<Graph>,
        alphabets: Option<LabelAlphabets>,
    ) -> Result<(Deployment, SetupTimes), String> {
        let started = Instant::now();
        let database = build_database(graphs, alphabets);
        let build_ms = started.elapsed().as_secs_f64() * 1e3;
        let config = engine_config();
        let started = Instant::now();
        let index = OfflineIndex::build(&database, &config).map_err(|e| format!("offline: {e}"))?;
        let offline_ms = started.elapsed().as_secs_f64() * 1e3;
        let engine = ConcurrentEngine::with_auto_compact(
            DynamicDatabase::new(database),
            index,
            config,
            COMPACT_THRESHOLD,
        );
        let state = Arc::new(ServeState::new(engine));
        let server = serve(
            Arc::clone(&state),
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 2,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.addr();
        Ok((
            Deployment {
                state,
                server,
                addr,
            },
            SetupTimes {
                build_ms,
                offline_ms,
            },
        ))
    }

    /// Drains and joins the server's threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// The bytes of the JSON array under the quoted member name `key` (from its
/// `[` to its first `]`; neither `matches` nor `hits` nests an array).
fn array_section<'a>(body: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    let at = body.windows(key.len()).position(|window| window == key)?;
    let open = at + body[at..].iter().position(|&b| b == b'[')?;
    let close = open + body[open..].iter().position(|&b| b == b']')?;
    Some(&body[open..=close])
}

fn parse_body(body: &[u8]) -> Result<JsonValue, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_owned())?;
    json::parse(text).map_err(|e| format!("response is not JSON: {e}"))
}

fn id_array(document: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    document
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or(format!("response lacks {key}"))?
        .iter()
        .map(|v| {
            v.as_usize()
                .map(|id| id as u64)
                .ok_or(format!("bad id in {key}"))
        })
        .collect()
}

fn expect_ok<'a>(
    what: &str,
    result: Result<(u16, &'a [u8]), ClientError>,
) -> Result<&'a [u8], String> {
    match result {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!(
            "{what}: status {status}: {}",
            String::from_utf8_lossy(body)
        )),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// The requests of a run, rendered once, with what the gate verified about
/// their answers.
pub struct Prepared {
    /// `POST /search`, one per distinct query.
    pub search: Vec<Vec<u8>>,
    /// `POST /search_top_k`, one per distinct query.
    pub top_k: Vec<Vec<u8>>,
    /// Digest of the verified `matches` array of each `/search` answer.
    search_digest: Vec<u64>,
    /// Digest of the verified `hits` array of each `/search_top_k` answer.
    top_k_digest: Vec<u64>,
    /// The verified `/search` answer of each query.
    pub answers: Vec<Vec<u64>>,
}

/// The correctness gate, run before any timing: every distinct query's
/// `/search` id set and `/search_top_k` hits must equal the seed-faithful
/// `QueryEngine::reference_search` / `top_k_reference` over the same graphs.
/// Returns the prepared requests, or the first mismatch.
pub fn gate(deployment: &Deployment, queries: &[Graph]) -> Result<Prepared, String> {
    let generation = deployment.state.engine().pin();
    if !generation.view_delta().is_empty() || generation.view_base_tombstones().set_count() != 0 {
        return Err("the gate must run before any mutation".into());
    }
    let reference = QueryEngine::new(
        generation.view_base(),
        deployment.state.engine().reader().index(),
        engine_config(),
    );
    let mut prepared = Prepared {
        search: queries.iter().map(search_request).collect(),
        top_k: queries.iter().map(top_k_request).collect(),
        search_digest: Vec::with_capacity(queries.len()),
        top_k_digest: Vec::with_capacity(queries.len()),
        answers: Vec::with_capacity(queries.len()),
    };
    let mut connection = Connection::connect(deployment.addr).map_err(|e| e.to_string())?;
    for (q, query) in queries.iter().enumerate() {
        let body = expect_ok("/search", connection.round_trip(&prepared.search[q]))?;
        let matches = id_array(&parse_body(body)?, "matches")?;
        let want: Vec<u64> = reference
            .reference_search(query)
            .matches
            .iter()
            .map(|&i| i as u64)
            .collect();
        if matches != want {
            return Err(format!(
                "query {q}: /search returned {} ids, the reference {}: {matches:?} vs {want:?}",
                matches.len(),
                want.len()
            ));
        }
        let section = array_section(body, MATCHES).ok_or("no matches array")?;
        prepared.search_digest.push(fnv1a64(section));
        prepared.answers.push(matches);

        let body = expect_ok("/search_top_k", connection.round_trip(&prepared.top_k[q]))?;
        let document = parse_body(body)?;
        let hits = document
            .get("hits")
            .and_then(JsonValue::as_array)
            .ok_or("response lacks hits")?;
        let want = reference.top_k_reference(query, TOP_K);
        let same = hits.len() == want.len()
            && hits.iter().zip(&want).all(|(hit, want)| {
                hit.get("id").and_then(JsonValue::as_usize) == Some(want.id)
                    && hit
                        .get("posterior")
                        .and_then(JsonValue::as_f64)
                        .map(f64::to_bits)
                        == Some(want.posterior.to_bits())
            });
        if !same {
            return Err(format!(
                "query {q}: /search_top_k hits differ from the reference: {hits:?} vs {want:?}"
            ));
        }
        let section = array_section(body, HITS).ok_or("no hits array")?;
        prepared.top_k_digest.push(fnv1a64(section));
    }
    Ok(prepared)
}

/// Precision, recall and F1 of `answers` against `truth`, pooled over all
/// queries (micro-averaged).
pub fn f1(answers: &[Vec<u64>], truth: &[Vec<u64>]) -> (f64, f64, f64) {
    let (mut hit, mut returned, mut relevant) = (0usize, 0usize, 0usize);
    for (answer, truth) in answers.iter().zip(truth) {
        hit += answer.iter().filter(|id| truth.contains(id)).count();
        returned += answer.len();
        relevant += truth.len();
    }
    let ratio = |n: usize, d: usize| if d == 0 { 1.0 } else { n as f64 / d as f64 };
    let (precision, recall) = (ratio(hit, returned), ratio(hit, relevant));
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    (precision, recall, f1)
}

/// Which endpoint a closed loop drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /search`.
    Search,
    /// `POST /search_top_k`.
    TopK,
}

/// Operations tried and operations that failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a status other than 200, an answer that
    /// differs from the verified one, or a write past its deadline.
    pub failed: u64,
}

impl Tally {
    /// Adds another tally to this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Sends `prepared`'s requests for `endpoint` back to back on one
/// connection until `deadline`, starting at query `*cursor`; returns each
/// round trip in microseconds. With `verify`, every answer must match the
/// digest the gate verified (off while writes change the live set).
pub fn closed_loop(
    connection: &mut Connection,
    prepared: &Prepared,
    endpoint: Endpoint,
    deadline: Instant,
    cursor: &mut usize,
    verify: bool,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let (requests, digests, key) = match endpoint {
        Endpoint::Search => (&prepared.search, &prepared.search_digest, MATCHES),
        Endpoint::TopK => (&prepared.top_k, &prepared.top_k_digest, HITS),
    };
    let mut latencies = Vec::new();
    while Instant::now() < deadline {
        let q = *cursor % requests.len();
        *cursor += 1;
        let sent = Instant::now();
        let result = connection.round_trip(&requests[q]);
        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
        tally.attempted += 1;
        match result {
            Ok((200, body)) => {
                let right = !verify || array_section(body, key).map(fnv1a64) == Some(digests[q]);
                if !right {
                    tally.failed += 1;
                }
            }
            Ok(_) => tally.failed += 1,
            // A broken connection cannot carry the next request either.
            Err(e) => return Err(format!("{endpoint:?} request {q}: {e}")),
        }
    }
    Ok(latencies)
}

/// What the read rounds of `http_dense` / `http_sparse` measured.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// `/search` round trips per round, microseconds, one connection.
    pub search: Vec<Vec<f64>>,
    /// `/search_top_k` round trips per round, microseconds, one connection.
    pub top_k: Vec<Vec<f64>>,
    /// Completed `/search` per second per round, two connections.
    pub qps: Vec<f64>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

/// Warm-up, then [`ROUNDS`] rounds of: closed-loop `/search` on one
/// connection, `/search_top_k` on one connection, `/search` on
/// [`client_threads`] connections.
pub fn read_rounds(
    addr: SocketAddr,
    prepared: &Prepared,
    plan: &Plan,
) -> Result<ReadOutcome, String> {
    let connect = || Connection::connect(addr).map_err(|e| e.to_string());
    let mut connections = (0..client_threads())
        .map(|_| connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut outcome = ReadOutcome::default();
    let mut cursor = 0usize;
    let after = |seconds: f64| Instant::now() + Duration::from_secs_f64(seconds);

    let mut warm = Tally::default();
    for endpoint in [Endpoint::Search, Endpoint::TopK] {
        closed_loop(
            &mut connections[0],
            prepared,
            endpoint,
            after(plan.warmup_secs / 2.0),
            &mut cursor,
            true,
            &mut warm,
        )?;
    }
    outcome.tally.add(warm);

    for _ in 0..ROUNDS {
        let mut tally = Tally::default();
        outcome.search.push(closed_loop(
            &mut connections[0],
            prepared,
            Endpoint::Search,
            after(plan.search_secs),
            &mut cursor,
            true,
            &mut tally,
        )?);
        outcome.top_k.push(closed_loop(
            &mut connections[0],
            prepared,
            Endpoint::TopK,
            after(plan.topk_secs),
            &mut cursor,
            true,
            &mut tally,
        )?);

        let started = Instant::now();
        let deadline = after(plan.pair_secs);
        let stride = prepared.search.len() / connections.len();
        let results: Vec<Result<(usize, Tally), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = connections
                .iter_mut()
                .enumerate()
                .map(|(k, connection)| {
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        let mut cursor = k * stride;
                        closed_loop(
                            connection,
                            prepared,
                            Endpoint::Search,
                            deadline,
                            &mut cursor,
                            true,
                            &mut tally,
                        )
                        .map(|latencies| (latencies.len(), tally))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a client thread panicked".into()))
                })
                .collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        let mut completed = 0usize;
        for result in results {
            let (count, thread_tally) = result?;
            completed += count;
            tally.add(thread_tally);
        }
        outcome.qps.push(completed as f64 / elapsed);
        outcome.tally.add(tally);
    }
    Ok(outcome)
}

/// The write rounds of `http_dense` / `http_sparse`, after their read
/// rounds: [`WRITE_ROUNDS`] rounds of closed-loop mutations on one
/// connection, three `/insert`s of fresh graphs for every `/remove` (of the
/// oldest graph the phase inserted) — the mix of the persistence cycles, so
/// that the median is an insert's — with all rounds together below the
/// compaction threshold. Returns the acknowledgement latencies per round,
/// microseconds.
pub fn write_rounds(
    addr: SocketAddr,
    dataset: &Dataset,
    plan: &Plan,
    tally: &mut Tally,
) -> Result<Vec<Vec<f64>>, String> {
    assert!(
        plan.write_graphs() < COMPACT_THRESHOLD,
        "write rounds must not compact"
    );
    let mut connection = Connection::connect(addr).map_err(|e| e.to_string())?;
    let fresh = &dataset.pool[dataset.pool.len() - plan.write_graphs()..];
    let mut inserted = VecDeque::new();
    let mut rounds = Vec::with_capacity(WRITE_ROUNDS);
    for graphs in fresh.chunks(plan.write_inserts) {
        let mut latencies = Vec::with_capacity(graphs.len() * 4 / 3);
        for (k, graph) in graphs.iter().enumerate() {
            let request = insert_request(graph);
            let sent = Instant::now();
            let result = connection.round_trip(&request);
            latencies.push(sent.elapsed().as_secs_f64() * 1e6);
            let id = parse_body(expect_ok("/insert", result)?)?
                .get("id")
                .and_then(JsonValue::as_usize)
                .ok_or("/insert answered without an id")?;
            inserted.push_back(id as u64);
            tally.attempted += 1;
            if k % 3 == 2 {
                let oldest = inserted
                    .pop_front()
                    .expect("three inserts precede a remove");
                let request = remove_request(oldest);
                let sent = Instant::now();
                let result = connection.round_trip(&request);
                latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                expect_ok("/remove", result)?;
                tally.attempted += 1;
            }
        }
        rounds.push(latencies);
    }
    Ok(rounds)
}

/// Where a live graph of the `mixed_rw` ledger came from.
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// Database graph `i` of the initial set.
    Base(usize),
    /// Pool graph `i`, inserted by the writer.
    Pool(usize),
}

/// What `mixed_rw` measured.
#[derive(Debug, Default)]
pub struct RwOutcome {
    /// `/search` round trips per window, microseconds.
    pub search: Vec<Vec<f64>>,
    /// `/search_top_k` round trips per window, microseconds.
    pub top_k: Vec<Vec<f64>>,
    /// Completed `/search` per second per window (the one reader).
    pub qps: Vec<f64>,
    /// `/insert` and `/remove` acknowledgements per window, microseconds
    /// from each mutation's due time.
    pub write: Vec<Vec<f64>>,
    /// The latest a mutation was sent after it was due, milliseconds.
    pub late_max_ms: f64,
    /// The longest a mutation waited for its acknowledgement, milliseconds.
    pub stall_max_ms: f64,
    /// Background compactions that ran during the windows.
    pub compactions: u64,
    /// Generations published during the windows.
    pub epochs: u64,
    /// Operations attempted and failed.
    pub tally: Tally,
}

/// One reader connection (closed loop, alternating `/search` and
/// `/search_top_k`) beside one writer connection (open loop at
/// `plan.write_rate` mutations per second, alternating `/insert` of a fresh
/// pool graph and `/remove` of the oldest live id, each timed from its due
/// time), for [`ROUNDS`] windows. Afterwards every query's `/search` answer
/// is re-checked against the reference over the ledger of acknowledged
/// writes.
pub fn mixed_rw(
    deployment: &Deployment,
    dataset: &Dataset,
    prepared: &Prepared,
    plan: &Plan,
    placement: Placement,
) -> Result<RwOutcome, String> {
    // The first generation keeps the initial base alive, so the ledger can
    // name its graphs after compactions replaced the serving base.
    let first: Arc<Generation> = deployment.state.engine().pin();
    let base_len = first.view_base().len();
    let mut reader = Connection::connect(deployment.addr).map_err(|e| e.to_string())?;
    let mut writer = Connection::connect(deployment.addr).map_err(|e| e.to_string())?;
    let inserts: Vec<Vec<u8>> = dataset.pool.iter().map(insert_request).collect();

    let mut warm = Tally::default();
    let mut cursor = 0usize;
    for endpoint in [Endpoint::Search, Endpoint::TopK] {
        let deadline = Instant::now() + Duration::from_secs_f64(plan.warmup_secs / 2.0);
        closed_loop(
            &mut reader,
            prepared,
            endpoint,
            deadline,
            &mut cursor,
            true,
            &mut warm,
        )?;
    }

    let window = Duration::from_secs_f64(plan.window_secs);
    let before = gbd_telemetry::global().snapshot();
    // A little ahead, so that the writer has moved itself before its first
    // mutation is due.
    let start = Instant::now() + Duration::from_millis(50);
    let end = start + window * ROUNDS as u32;
    let window_of = |at: Instant| {
        ((at.duration_since(start).as_secs_f64() / plan.window_secs) as usize).min(ROUNDS - 1)
    };

    type ReaderResult = Result<(Vec<Vec<f64>>, Vec<Vec<f64>>, Tally), String>;
    type WriterResult = Result<(Vec<Vec<f64>>, f64, VecDeque<(u64, Origin)>, Tally), String>;
    let (read, written): (ReaderResult, WriterResult) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| -> ReaderResult {
            let mut search = vec![Vec::new(); ROUNDS];
            let mut top_k = vec![Vec::new(); ROUNDS];
            let mut tally = Tally::default();
            let mut q = 0usize;
            std::thread::sleep(start.saturating_duration_since(Instant::now()));
            'windows: loop {
                for top in [false, true] {
                    let sent = Instant::now();
                    if sent >= end {
                        break 'windows;
                    }
                    let (requests, sink) = if top {
                        (&prepared.top_k, &mut top_k)
                    } else {
                        (&prepared.search, &mut search)
                    };
                    let result = reader.round_trip(&requests[q % requests.len()]);
                    sink[window_of(sent)].push(sent.elapsed().as_secs_f64() * 1e6);
                    tally.attempted += 1;
                    match result {
                        Ok((200, _)) => {}
                        Ok(_) => tally.failed += 1,
                        Err(e) => return Err(format!("reader: {e}")),
                    }
                }
                q += 1;
            }
            Ok((search, top_k, tally))
        });
        let writing = scope.spawn(|| -> WriterResult {
            placement.move_current_to_background();
            let mut write = vec![Vec::new(); ROUNDS];
            let mut ledger: VecDeque<(u64, Origin)> =
                (0..base_len).map(|i| (i as u64, Origin::Base(i))).collect();
            let mut tally = Tally::default();
            let mut late_max = 0.0f64;
            let total = (plan.window_secs * ROUNDS as f64 * plan.write_rate) as usize;
            for i in 0..total {
                let due = start + Duration::from_secs_f64(i as f64 / plan.write_rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                late_max = late_max.max(sent.duration_since(due).as_secs_f64() * 1e3);
                let remove;
                let (request, inserted) = if i % 2 == 0 {
                    let k = (i / 2) % inserts.len();
                    (&inserts[k], Some(k))
                } else {
                    let (id, _) = ledger.pop_front().ok_or("the ledger ran empty")?;
                    remove = remove_request(id);
                    (&remove, None)
                };
                let result = writer.round_trip(request);
                let waited = due.elapsed();
                write[window_of(due)].push(waited.as_secs_f64() * 1e6);
                tally.attempted += 1;
                match result {
                    Ok((200, body)) => {
                        if let Some(k) = inserted {
                            let id = parse_body(body)?
                                .get("id")
                                .and_then(JsonValue::as_usize)
                                .ok_or("/insert answered without an id")?;
                            ledger.push_back((id as u64, Origin::Pool(k)));
                        }
                        if waited > WRITE_DEADLINE {
                            tally.failed += 1;
                        }
                    }
                    Ok((status, _)) => {
                        return Err(format!("write {i}: status {status}"));
                    }
                    Err(e) => return Err(format!("writer: {e}")),
                }
            }
            Ok((write, late_max, ledger, tally))
        });
        (
            reading
                .join()
                .unwrap_or_else(|_| Err("the reader thread panicked".into())),
            writing
                .join()
                .unwrap_or_else(|_| Err("the writer thread panicked".into())),
        )
    });
    let (search, top_k, read_tally) = read?;
    let (write, late_max_ms, ledger, write_tally) = written?;
    let delta = gbd_telemetry::global().snapshot().delta(&before);

    let mut outcome = RwOutcome {
        qps: search
            .iter()
            .map(|w| w.len() as f64 / plan.window_secs)
            .collect(),
        search,
        top_k,
        stall_max_ms: write
            .iter()
            .flatten()
            .fold(0.0f64, |m, &us| m.max(us / 1e3)),
        write,
        late_max_ms,
        compactions: delta.counter("gbda_background_compactions_total"),
        epochs: delta.counter("gbda_generations_published_total"),
        tally: warm,
    };
    outcome.tally.add(read_tally);
    outcome.tally.add(write_tally);

    // Re-check /search against the reference over the acknowledged writes.
    let ids: Vec<u64> = ledger.iter().map(|&(id, _)| id).collect();
    let survivors: Vec<Graph> = ledger
        .iter()
        .map(|&(_, origin)| match origin {
            Origin::Base(i) => first.view_base().graph(i).clone(),
            Origin::Pool(k) => dataset.pool[k].clone(),
        })
        .collect();
    let fresh = GraphDatabase::with_alphabets(survivors, first.alphabets());
    let reference = QueryEngine::new(
        &fresh,
        deployment.state.engine().reader().index(),
        engine_config(),
    );
    for (q, query) in dataset.queries.iter().enumerate() {
        let body = expect_ok("/search", reader.round_trip(&prepared.search[q]))?;
        let mut matches = id_array(&parse_body(body)?, "matches")?;
        matches.sort_unstable();
        let mut want: Vec<u64> = reference
            .reference_search(query)
            .matches
            .iter()
            .map(|&i| ids[i])
            .collect();
        want.sort_unstable();
        outcome.tally.attempted += 1;
        if matches != want {
            outcome.tally.failed += 1;
            eprintln!("# mixed_rw: query {q} differs from the reference over the ledger");
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_sections_are_cut_at_the_first_closing_bracket() {
        let body = b"{\n  \"epoch\": 3,\n  \"matches\": [\n    1,\n    2\n  ],\n  \"x\": [9]\n}";
        assert_eq!(
            array_section(body, MATCHES).unwrap(),
            b"[\n    1,\n    2\n  ]"
        );
        assert_eq!(array_section(b"{\"hits\": []}", HITS).unwrap(), b"[]");
        assert!(array_section(body, HITS).is_none());
    }

    #[test]
    fn f1_is_micro_averaged_and_total_on_empty_truth() {
        let (p, r, f) = f1(&[vec![1, 2], vec![]], &[vec![1], vec![]]);
        assert_eq!((p, r), (0.5, 1.0));
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(f1(&[vec![]], &[vec![]]), (1.0, 1.0, 1.0));
        assert_eq!(f1(&[vec![3]], &[vec![4]]).2, 0.0);
    }
}
