//! The store side of the benchmark: a real `gbd_store::ConcurrentDurable`
//! on a real directory (`StdVfs`, `sync_acks = true`, no auto-compaction),
//! driven at library level by one thread.
//!
//! One *persistence cycle* is: mutations (three inserts for every remove,
//! each synced acknowledgement timed) → drop → `DurableDatabase::open`
//! timed several times → `compact()` timed once. `durable_store` runs
//! five cycles and also reads the recovered store; the HTTP workloads
//! run one cycle over their own data as a side measurement, so that every
//! workload reports what persisting and recovering *its* graphs costs.
//!
//! Latencies here are the sandbox's page cache and its `fsync`, not a
//! device's.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gbd_graph::{Graph, LabelAlphabets};
use gbd_store::{ConcurrentDurable, DurableDatabase, FaultVfs, Manifest, StdVfs, StoreError};
use gbda_core::{
    DurabilityConfig, DynamicDatabase, DynamicEngine, DynamicOutcome, OfflineIndex, QueryEngine,
};

use crate::serving::{build_database, client_threads, engine_config, SetupTimes, Tally};
use crate::workloads::{Dataset, Plan, TOP_K};

/// Synced acknowledgements, compaction only when asked: the durable
/// store's defaults, spelled out because the flush policy is part of what
/// is measured.
pub fn durability() -> DurabilityConfig {
    DurabilityConfig::default()
        .with_sync_acks(true)
        .with_auto_compact_wal_bytes(None)
}

pub fn store_error(what: &str, e: StoreError) -> String {
    format!("{what}: {e}")
}

/// A scratch directory under `root` that is removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `root/<name>-<pid>` afresh.
    pub fn create(root: &Path, name: &str) -> Result<ScratchDir, String> {
        let path = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds the database and the offline index over `graphs` and creates the
/// durable store in `dir`.
pub fn create_store(
    dir: &Path,
    graphs: Vec<Graph>,
    alphabets: Option<LabelAlphabets>,
) -> Result<(DurableDatabase<StdVfs>, OfflineIndex, SetupTimes), String> {
    let started = Instant::now();
    let database = build_database(graphs, alphabets);
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let index =
        OfflineIndex::build(&database, &engine_config()).map_err(|e| format!("offline: {e}"))?;
    let offline_ms = started.elapsed().as_secs_f64() * 1e3;
    let store = DurableDatabase::create(StdVfs, dir, database, durability())
        .map_err(|e| store_error("create", e))?;
    Ok((
        store,
        index,
        SetupTimes {
            build_ms,
            offline_ms,
        },
    ))
}

/// The correctness gate of the library-level workload: before any mutation,
/// every distinct query's answer from the store's scan path equals the
/// seed-faithful reference over the same graphs. Returns the verified
/// answers.
pub fn gate(
    store: &DurableDatabase<StdVfs>,
    index: &OfflineIndex,
    queries: &[Graph],
) -> Result<Vec<Vec<u64>>, String> {
    let database = store.database();
    let reference = QueryEngine::new(database.base(), index, engine_config());
    let engine = DynamicEngine::new(database, index, engine_config());
    let mut answers = Vec::with_capacity(queries.len());
    for (q, query) in queries.iter().enumerate() {
        let got = engine.search(query).matches;
        let want: Vec<u64> = reference
            .reference_search(query)
            .matches
            .iter()
            .map(|&i| database.base_ids()[i])
            .collect();
        if got != want {
            return Err(format!("query {q}: search differs from the reference"));
        }
        let hits = engine.search_top_k(query, TOP_K).hits;
        let want = reference.top_k_reference(query, TOP_K);
        let same = hits.len() == want.len()
            && hits.iter().zip(&want).all(|(hit, want)| {
                hit.id == database.base_ids()[want.id]
                    && hit.posterior.to_bits() == want.posterior.to_bits()
            });
        if !same {
            return Err(format!("query {q}: top-k differs from the reference"));
        }
        answers.push(got);
    }
    Ok(answers)
}

/// What the persistence cycles measured.
#[derive(Debug, Default)]
pub struct StoreOutcome {
    /// Synced acknowledgement latencies per cycle, microseconds. A cycle is
    /// the round: the cost of an acknowledgement grows with the records
    /// logged since the last compaction, so only whole cycles compare.
    pub write: Vec<Vec<f64>>,
    /// Every timed `DurableDatabase::open`, milliseconds.
    pub open_ms: Vec<f64>,
    /// Every timed `compact()`, milliseconds.
    pub compact_ms: Vec<f64>,
    /// (snapshot + WAL bytes) / live graphs at the end of the last cycle,
    /// before its compaction.
    pub stored_bytes_per_graph: f64,
    /// WAL bytes one cycle's mutations appended, per insert of that cycle.
    pub wal_bytes_per_insert: f64,
    /// `fsync`s the WAL issued over all cycles' mutations.
    pub fsyncs: u64,
    /// Records one `open` replayed (the same for every open of a cycle).
    pub replayed_records: u64,
    /// Bytes of the last snapshot generation on disk.
    pub snapshot_bytes: u64,
    /// Library-level reads of the recovered store, per cycle, microseconds
    /// (only when reads were asked for).
    pub search: Vec<Vec<f64>>,
    /// As [`Self::search`], for top-k.
    pub top_k: Vec<Vec<f64>>,
    /// Searches per second with [`client_threads`] reader threads, per cycle.
    pub qps: Vec<f64>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

fn same_outcome(a: &DynamicOutcome, b: &DynamicOutcome) -> bool {
    a.ids == b.ids
        && a.matches == b.matches
        && a.posteriors.len() == b.posteriors.len()
        && a.posteriors
            .iter()
            .zip(&b.posteriors)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

/// Runs `plan.store_cycles` persistence cycles on `store` (just created in
/// `dir`, ids `0..n` live) and hands the store back, freshly compacted. `index` is the offline index of the initial
/// base; it answers the recorded search on both sides of every restart.
/// With `reads`, every cycle also times library-level searches over the
/// recovered store.
pub fn run_cycles(
    dir: &Path,
    store: DurableDatabase<StdVfs>,
    index: &OfflineIndex,
    dataset: &Dataset,
    plan: &Plan,
    reads: bool,
) -> Result<(StoreOutcome, DurableDatabase<StdVfs>), String> {
    let config = engine_config();
    let mut outcome = StoreOutcome {
        write: vec![Vec::new(); plan.store_cycles],
        ..StoreOutcome::default()
    };
    let mut live: VecDeque<u64> = store.database().live_ids().into();
    let recorded = &dataset.queries[0];
    let fsyncs_before = gbd_telemetry::global().snapshot();
    let mut store = Some(store);
    let mut pool = dataset.pool.iter().cycle();

    for cycle in 0..plan.store_cycles {
        // Mutations through the snapshot-isolated wrapper, each synced
        // acknowledgement timed. The wrapper wants an index of its own.
        let durable = store.take().expect("a store is open between cycles");
        let cycle_index = OfflineIndex::build(durable.database().base(), &config)
            .map_err(|e| format!("offline: {e}"))?;
        let wal_before = durable.wal_bytes();
        let serving = ConcurrentDurable::new(durable, cycle_index, config.clone());
        for j in 0..plan.store_mutations {
            outcome.tally.attempted += 1;
            if j % 4 == 3 {
                let id = live.pop_front().ok_or("the store ran empty")?;
                let started = Instant::now();
                let result = serving.remove(id);
                outcome.write[cycle].push(started.elapsed().as_secs_f64() * 1e6);
                result.map_err(|e| store_error("remove", e))?;
            } else {
                let graph = pool.next().expect("the pool is not empty").clone();
                let started = Instant::now();
                let result = serving.insert(graph);
                outcome.write[cycle].push(started.elapsed().as_secs_f64() * 1e6);
                live.push_back(result.map_err(|e| store_error("insert", e))?);
            }
        }
        let durable = serving.into_inner();
        let inserts = plan.store_mutations - plan.store_mutations / 4;
        outcome.wal_bytes_per_insert = (durable.wal_bytes() - wal_before) as f64 / inserts as f64;
        let before_close =
            DynamicEngine::new(durable.database(), index, config.clone()).search(recorded);
        if cycle + 1 == plan.store_cycles {
            let manifest = Manifest {
                generation: durable.generation(),
            };
            outcome.snapshot_bytes = file_len(&manifest.snapshot_path(dir))?;
            outcome.stored_bytes_per_graph =
                (outcome.snapshot_bytes + durable.wal_bytes()) as f64 / durable.len() as f64;
        }
        drop(durable);

        // Recovery, timed; every reopened store must hold exactly the
        // acknowledged set and answer the recorded search bit-identically.
        let replay_before = gbd_telemetry::global().snapshot();
        for _ in 0..plan.store_opens {
            let started = Instant::now();
            let reopened = DurableDatabase::open(StdVfs, dir, durability())
                .map_err(|e| store_error("open", e))?;
            outcome.open_ms.push(started.elapsed().as_secs_f64() * 1e3);
            outcome.tally.attempted += 1;
            let after_open =
                DynamicEngine::new(reopened.database(), index, config.clone()).search(recorded);
            let intact = live.iter().eq(reopened.database().live_ids().iter())
                && same_outcome(&before_close, &after_open);
            if !intact {
                outcome.tally.failed += 1;
                eprintln!(
                    "# cycle {cycle}: the reopened store differs from the acknowledged state"
                );
            }
            store = Some(reopened);
        }
        outcome.replayed_records = gbd_telemetry::global()
            .snapshot()
            .delta(&replay_before)
            .counter("gbda_recovery_replayed_records_total")
            / plan.store_opens as u64;

        let durable = store.take().expect("the last reopened store");
        let cycle_index = OfflineIndex::build(durable.database().base(), &config)
            .map_err(|e| format!("offline: {e}"))?;
        let serving = ConcurrentDurable::new(durable, cycle_index, config.clone());
        if reads {
            read_recovered(&serving, dataset, plan, &mut outcome);
        }
        let started = Instant::now();
        let survivors = serving.compact().map_err(|e| store_error("compact", e))?;
        outcome
            .compact_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        outcome.tally.attempted += 1;
        if survivors != live.len() {
            outcome.tally.failed += 1;
        }
        store = Some(serving.into_inner());
    }
    outcome.fsyncs = gbd_telemetry::global()
        .snapshot()
        .delta(&fsyncs_before)
        .counter("gbda_wal_fsyncs_total");
    let store = store.take().expect("a store is open after the last cycle");
    Ok((outcome, store))
}

/// Times library-level searches over a recovered store: every distinct
/// query, threshold and top-k, on one thread; then threshold searches on
/// [`client_threads`] threads for throughput.
fn read_recovered(
    serving: &ConcurrentDurable<StdVfs>,
    dataset: &Dataset,
    plan: &Plan,
    outcome: &mut StoreOutcome,
) {
    let budget = plan.search_secs.min(0.5);
    let (mut search, mut top_k) = (Vec::new(), Vec::new());
    let started = Instant::now();
    'passes: loop {
        for query in &dataset.queries {
            let sent = Instant::now();
            std::hint::black_box(serving.search(query));
            search.push(sent.elapsed().as_secs_f64() * 1e6);
            let sent = Instant::now();
            std::hint::black_box(serving.search_top_k(query, TOP_K));
            top_k.push(sent.elapsed().as_secs_f64() * 1e6);
            if started.elapsed().as_secs_f64() >= budget {
                break 'passes;
            }
        }
    }
    outcome.tally.attempted += (search.len() + top_k.len()) as u64;
    outcome.search.push(search);
    outcome.top_k.push(top_k);

    let started = Instant::now();
    let threads = client_threads();
    let completed: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                scope.spawn(move || {
                    let mut count = 0usize;
                    let offset = k * dataset.queries.len() / threads;
                    while started.elapsed().as_secs_f64() < budget / 2.0 {
                        let query = &dataset.queries[(offset + count) % dataset.queries.len()];
                        std::hint::black_box(serving.search(query));
                        count += 1;
                    }
                    count
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    });
    outcome.tally.attempted += completed as u64;
    outcome
        .qps
        .push(completed as f64 / started.elapsed().as_secs_f64());
}

/// The crash check: on an in-memory `FaultVfs`, every synced
/// acknowledgement must survive a power cycle. Returns the operations
/// checked and how many were lost.
pub fn power_cycle_check(dataset: &Dataset) -> Result<Tally, String> {
    let vfs = FaultVfs::new();
    let dir = Path::new("fault-store");
    let base: Vec<Graph> = dataset.pool.iter().take(32).cloned().collect();
    let mut store = DurableDatabase::create(
        vfs.clone(),
        dir,
        build_database(base, dataset.alphabets),
        durability(),
    )
    .map_err(|e| store_error("create on FaultVfs", e))?;
    let mut live: Vec<u64> = store.database().live_ids();
    let mut tally = Tally::default();
    for (j, graph) in dataset.pool.iter().cycle().skip(32).take(48).enumerate() {
        tally.attempted += 1;
        if j % 4 == 3 {
            let id = live.remove(0);
            store
                .remove(id)
                .map_err(|e| store_error("remove on FaultVfs", e))?;
        } else {
            live.push(
                store
                    .insert(graph.clone())
                    .map_err(|e| store_error("insert on FaultVfs", e))?,
            );
        }
    }
    drop(store);
    vfs.power_cycle();
    let recovered = DurableDatabase::open(vfs.clone(), dir, durability())
        .map_err(|e| store_error("open after the power cycle", e))?;
    if recovered.database().live_ids() != live {
        tally.failed = tally.attempted;
    }
    Ok(tally)
}

/// A fresh copy of the live graphs of `database`, in id order.
pub fn live_graphs(database: &DynamicDatabase) -> Vec<Graph> {
    database
        .live_graphs()
        .map(|(_, graph)| graph.clone())
        .collect()
}
