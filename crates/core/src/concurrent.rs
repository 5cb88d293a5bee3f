//! Snapshot-isolated concurrent serving over the dynamic layer:
//! [`Generation`], [`SnapshotReader`] and [`ConcurrentEngine`].
//!
//! [`crate::DynamicEngine`] rules out overlapping queries and mutations at compile
//! time — a query borrows the [`DynamicDatabase`] shared, a mutation
//! borrows it exclusively. A serving workload needs both *at once*:
//! thousands of readers while inserts, removes and compaction proceed.
//! This module adds epoch-style snapshot isolation on top of the same scan
//! driver, in the same dynamic view shape (base part + delta-prefix part,
//! one lane — see [`crate::dynamic`]):
//!
//! * A **[`Generation`]** is an immutable snapshot of one dynamic state,
//!   carrying a monotonically increasing **epoch**. It *shares* everything
//!   big with the writer through [`Arc`]s — the base segment (with the base
//!   branch catalog), the base id list, the base tombstone words, and the
//!   append-only delta log (`Arc<RwLock<_>>`, one per base epoch) — and
//!   *owns* only its cut of that log: three lengths (graphs, overlay
//!   branches, distinct sizes) plus a copy of the words that mutate in place
//!   (`delta / 64` tombstone words and the bucket runs). Publishing
//!   therefore costs the same whatever the catalog size and, up to those few
//!   words, whatever the delta length.
//! * **Why a prefix is a snapshot.** An insert only appends to the log; no
//!   element already written is ever touched. A generation reads the log
//!   through a [`DeltaPrefix`], which truncates every structure to the cut
//!   (`aggregates[..n]`, postings cut at the first entry `≥ n`, overlay ids
//!   past the cut flattened as unknown), so later appends are invisible and
//!   a scan is bit-identical, stage counters included, to one over a frozen
//!   copy. Compaction never empties a log: it installs a fresh one, and
//!   pinned generations keep the old one alive.
//! * A **[`SnapshotReader`]** publishes generations behind a pointer cell.
//!   [`SnapshotReader::pin`] is an [`Arc`] clone under the cell's read lock;
//!   [`SnapshotReader::publish`] builds the new generation *first* and holds
//!   the cell's write lock for the pointer swap alone, so a pin never waits
//!   for a capture. A query against a pinned generation then takes the
//!   log's read guard twice, briefly — around the query flatten (only when
//!   the query has a branch the base catalog lacks) and around the
//!   delta-segment scan; the base scan holds no lock. An insert waits for
//!   those guards (it needs the write guard for its one append); a reader
//!   never waits for more than that append.
//! * A **[`ConcurrentEngine`]** owns the writer side: `insert`/`remove`
//!   mutate the single writer-locked [`DynamicDatabase`] and publish a new
//!   generation per mutation, returning the epoch they published; `compact`
//!   folds the delta into a fresh base without ever stopping a reader
//!   (in-flight readers finish on their pinned pre-compaction generation,
//!   new pins see the compacted one). An optional background worker compacts
//!   once the delta crosses a threshold.
//!
//! The consistency guarantee is exactly the workspace's equivalence
//! invariant, lifted to concurrency: **every query result is bit-identical
//! to what a fresh static [`crate::QueryEngine`] would return over the live
//! set of *some* published generation** — the one the reader pinned. The
//! interleaving proptests in `tests/serving.rs` verify this across
//! Standard/V1/V2 × threshold/top-k/streaming.

use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Mutex, RwLock};

use gbd_graph::{Graph, LabelAlphabets};

use crate::config::GbdaConfig;
use crate::database::GraphDatabase;
use crate::dynamic::{
    live_graphs_of, DeltaCut, DeltaPrefix, DynamicDatabase, DynamicOutcome, DynamicView, LiveGraph,
    Tombstones, ViewCatalog, ViewScan,
};
use crate::error::EngineResult;
use crate::offline::OfflineIndex;
use crate::scan::Scanner;
use crate::search::SearchStats;
use crate::topk::DynamicTopKOutcome;

/// An immutable snapshot of one dynamic-layer state, published at a fixed
/// **epoch**.
///
/// Everything big is shared with the writer through an [`Arc`]: the base
/// segment (and with it the base branch catalog), its id list, its tombstone
/// words, and the append-only delta log. What makes the shared log a
/// snapshot is this generation's *cut* of it — how many graphs, overlay
/// branches and distinct sizes existed at publication, plus its own copy of
/// the few words that mutate in place (delta tombstones, bucket runs).
/// Appends land past the cut and compaction swaps in a fresh log, so a
/// pinned generation never changes — queries against it are oblivious to
/// concurrent inserts, removes and compactions.
pub struct Generation {
    epoch: u64,
    base: Arc<GraphDatabase>,
    base_ids: Arc<Vec<u64>>,
    base_tombstones: Arc<Tombstones>,
    delta: DeltaCut,
    alphabets: LabelAlphabets,
    max_vertices_hint: usize,
    /// The GBDA-V1 `|V'1|` sample over this generation's live set (`None`
    /// for the other variants), drawn by the first query that needs it: a
    /// deterministic function of the reader's seed and the live vertex
    /// counts, so it lives and dies with the generation.
    fixed_extended_size: OnceLock<Option<usize>>,
}

impl Generation {
    /// Captures the database's current state as a generation at `epoch`:
    /// `Arc` bumps plus the cut's few words — independent of the catalog
    /// size and, up to `delta / 64` tombstone words and the bucket runs, of
    /// the delta length.
    fn capture(database: &DynamicDatabase, epoch: u64) -> Self {
        Generation {
            epoch,
            base: Arc::clone(database.base_arc()),
            base_ids: Arc::clone(database.base_ids_arc()),
            base_tombstones: Arc::clone(database.base_tombstones_arc()),
            delta: database.delta_cut().share(),
            alphabets: database.alphabets(),
            max_vertices_hint: database.max_vertices_hint(),
            fixed_extended_size: OnceLock::new(),
        }
    }

    /// The publication epoch: 0 for the initial generation, then +1 per
    /// published mutation or compaction.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live graphs in this generation.
    pub fn len(&self) -> usize {
        self.view_len()
    }

    /// Returns `true` when no graph is live in this generation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Label alphabet sizes of the probabilistic model.
    pub fn alphabets(&self) -> LabelAlphabets {
        self.alphabets
    }

    /// Iterates over `(id, graph)` for every live graph in **canonical
    /// order** (base by index, then delta by insertion order) — the order a
    /// fresh rebuild of this generation's live set preserves, which is what
    /// the consistency checks rebuild from.
    pub fn live_graphs(&self) -> impl Iterator<Item = (u64, LiveGraph<'_>)> + '_ {
        live_graphs_of(self)
    }

    /// Live graph ids in canonical order.
    pub fn live_ids(&self) -> Vec<u64> {
        self.live_graphs().map(|(id, _)| id).collect()
    }
}

impl DynamicView for Generation {
    fn view_base(&self) -> &GraphDatabase {
        &self.base
    }

    fn view_base_ids(&self) -> &[u64] {
        &self.base_ids
    }

    fn view_base_tombstones(&self) -> &Tombstones {
        &self.base_tombstones
    }

    fn view_delta(&self) -> DeltaPrefix<'_> {
        self.delta.prefix()
    }

    fn view_delta_tombstones(&self) -> &Tombstones {
        self.delta.tombstones()
    }

    fn view_catalog(&self) -> ViewCatalog<'_> {
        self.delta.catalog_over(self.base.catalog())
    }

    fn view_max_vertices_hint(&self) -> usize {
        self.max_vertices_hint
    }
}

/// The reader half of the concurrent serving layer: a publication cell of
/// [`Generation`]s plus the scan driver that runs queries over whichever
/// generation a reader pinned.
///
/// Pinning ([`Self::pin`]) is one `Arc` clone under the cell's read lock;
/// [`Self::publish`] (called by the writer) holds the write lock for a
/// pointer swap only and never waits for in-flight queries, which keep
/// their pinned `Arc` until they finish. All shared scan state (posterior
/// memo, decision tables) is internally synchronized and safe to share
/// across generations: decision tables are keyed by the
/// generation-dependent vertex cap.
pub struct SnapshotReader {
    index: OfflineIndex,
    scanner: Scanner,
    cell: RwLock<Arc<Generation>>,
}

impl SnapshotReader {
    /// Publishes the database's current state as epoch 0 and readies the
    /// scan driver. Applies `config.telemetry` via
    /// [`gbd_telemetry::escalate_level`], like every engine constructor.
    pub fn new(database: &DynamicDatabase, index: OfflineIndex, config: GbdaConfig) -> Self {
        let scanner = Scanner::new(config);
        let generation = Arc::new(Generation::capture(database, 0));
        crate::obs::record_generation_publish(0, generation.len());
        SnapshotReader {
            index,
            scanner,
            cell: RwLock::new(generation),
        }
    }

    /// The configuration queries run with.
    pub fn config(&self) -> &GbdaConfig {
        &self.scanner.config
    }

    /// The offline index queries run against.
    pub fn index(&self) -> &OfflineIndex {
        &self.index
    }

    /// Pins the current generation: one `Arc` clone under the cell's read
    /// lock, after which the returned snapshot is immune to concurrent
    /// mutation and compaction.
    pub fn pin(&self) -> Arc<Generation> {
        Arc::clone(&self.cell.read())
    }

    /// The epoch of the currently published generation.
    pub fn epoch(&self) -> u64 {
        self.cell.read().epoch
    }

    /// Publishes the database's current state as the next generation and
    /// returns its epoch.
    ///
    /// Callers must hold the writer lock of the owning engine across the
    /// mutation *and* this publish, so epochs order identically to the
    /// mutation history. That lock — not the cell's — is what makes reading
    /// the epoch and swapping the pointer one step: the generation is built
    /// before the cell's write lock is taken and the displaced one is dropped
    /// after it is released, so a concurrent [`Self::pin`] waits for a
    /// pointer swap, never for a capture or a deallocation.
    pub fn publish(&self, database: &DynamicDatabase) -> u64 {
        let epoch = self.epoch() + 1;
        let generation = Arc::new(Generation::capture(database, epoch));
        let live = generation.len();
        let displaced = std::mem::replace(&mut *self.cell.write(), generation);
        drop(displaced);
        crate::obs::record_generation_publish(epoch, live);
        epoch
    }

    /// The scan driver pointed at one pinned generation.
    fn scan<'a>(&'a self, generation: &'a Generation) -> ViewScan<'a, Generation> {
        let fixed_extended_size = *generation.fixed_extended_size.get_or_init(|| {
            self.scanner
                .fixed_extended_size(|| generation.view_live_vertex_counts())
        });
        ViewScan {
            scanner: &self.scanner,
            view: generation,
            index: &self.index,
            fixed_extended_size,
        }
    }

    /// Runs Algorithm 1 against a pinned generation. Bit-identical to a
    /// [`crate::DynamicEngine`] (or a fresh static [`crate::QueryEngine`]) over
    /// that generation's live set.
    pub fn search_pinned(&self, generation: &Generation, query: &Graph) -> DynamicOutcome {
        self.scan(generation).search(query)
    }

    /// Pins the current generation and runs Algorithm 1 against it.
    pub fn search(&self, query: &Graph) -> DynamicOutcome {
        self.search_pinned(&self.pin(), query)
    }

    /// Runs a ranked query against a pinned generation (see
    /// [`crate::DynamicEngine::search_top_k`] for the equivalence guarantee).
    pub fn search_top_k_pinned(
        &self,
        generation: &Generation,
        query: &Graph,
        k: usize,
    ) -> DynamicTopKOutcome {
        self.scan(generation).search_top_k(query, k)
    }

    /// Pins the current generation and runs a ranked query against it.
    pub fn search_top_k(&self, query: &Graph, k: usize) -> DynamicTopKOutcome {
        self.search_top_k_pinned(&self.pin(), query, k)
    }

    /// Streams Algorithm 1 hits from a pinned generation as the scan finds
    /// them (see [`crate::DynamicEngine::search_streaming`]).
    pub fn search_streaming_pinned<F>(
        &self,
        generation: &Generation,
        query: &Graph,
        on_match: F,
    ) -> SearchStats
    where
        F: FnMut(u64, Option<f64>),
    {
        self.scan(generation).search_streaming(query, on_match)
    }

    /// Pins the current generation and streams hits from it.
    pub fn search_streaming<F>(&self, query: &Graph, on_match: F) -> SearchStats
    where
        F: FnMut(u64, Option<f64>),
    {
        self.search_streaming_pinned(&self.pin(), query, on_match)
    }
}

/// What the writer tells the background compactor.
enum Signal {
    /// The delta crossed the compaction threshold after a mutation.
    Compact,
    /// The engine is shutting down; exit the worker loop.
    Shutdown,
}

/// The state shared between the engine handle and its background compactor.
struct Shared {
    reader: SnapshotReader,
    writer: Mutex<DynamicDatabase>,
    /// Delta length at which a mutation signals the background compactor
    /// (`None` without a compactor: compaction is explicit only).
    compact_threshold: Option<usize>,
}

impl Shared {
    /// Folds the delta and tombstones into a fresh base and publishes the
    /// compacted generation. Readers are never stopped: in-flight queries
    /// finish on their pinned pre-compaction generation (whose `Arc`s keep
    /// the old base alive), new pins see the compacted one.
    fn compact_now(&self) -> usize {
        let mut database = self.writer.lock();
        let survivors = database.compact();
        self.reader.publish(&database);
        survivors
    }

    /// The background variant: skips the rebuild when a competing explicit
    /// compaction already emptied the delta and tombstones (signals
    /// coalesce, so a burst of inserts triggers one compaction, not one
    /// per insert).
    fn compact_in_background(&self) {
        let mut database = self.writer.lock();
        if database.delta().is_empty() && database.tombstone_count() == 0 {
            return;
        }
        database.compact();
        self.reader.publish(&database);
        crate::obs::record_background_compaction();
    }
}

/// A thread-safe serving engine over the dynamic layer: snapshot-isolated
/// readers, a mutex-serialized writer, and (optionally) a background
/// compaction worker.
///
/// All methods take `&self`; share the engine across threads with
/// [`Arc<ConcurrentEngine>`]. Readers ([`Self::search`],
/// [`Self::search_top_k`], [`Self::search_streaming`], or [`Self::pin`] +
/// the `_pinned` variants on [`Self::reader`]) never take the writer lock;
/// writers ([`Self::insert`], [`Self::remove`], [`Self::compact`])
/// serialize on it and publish a new [`Generation`] before returning, so a
/// mutation is visible to every reader that pins afterwards
/// (read-your-writes for the mutating thread).
///
/// Dropping the engine shuts the background compactor down gracefully.
pub struct ConcurrentEngine {
    shared: Arc<Shared>,
    signals: Option<mpsc::Sender<Signal>>,
    compactor: Option<JoinHandle<()>>,
}

impl ConcurrentEngine {
    /// Creates an engine without a background compactor: compaction runs
    /// only on explicit [`Self::compact`] calls.
    pub fn new(database: DynamicDatabase, index: OfflineIndex, config: GbdaConfig) -> Self {
        ConcurrentEngine {
            shared: Arc::new(Shared {
                reader: SnapshotReader::new(&database, index, config),
                writer: Mutex::new(database),
                compact_threshold: None,
            }),
            signals: None,
            compactor: None,
        }
    }

    /// Creates an engine with a background compaction worker: a mutation
    /// that leaves at least `delta_threshold` graphs in the delta segment
    /// signals the worker, which compacts off the writer's latency path.
    /// Signals coalesce — a burst of inserts triggers one compaction.
    /// `delta_threshold` is clamped to at least 1.
    pub fn with_auto_compact(
        database: DynamicDatabase,
        index: OfflineIndex,
        config: GbdaConfig,
        delta_threshold: usize,
    ) -> Self {
        let shared = Arc::new(Shared {
            reader: SnapshotReader::new(&database, index, config),
            writer: Mutex::new(database),
            compact_threshold: Some(delta_threshold.max(1)),
        });
        let (tx, rx) = mpsc::channel();
        let worker_shared = Arc::clone(&shared);
        let compactor = std::thread::Builder::new()
            .name("gbda-compactor".into())
            .spawn(move || compactor_loop(worker_shared, rx))
            .expect("spawning the compactor thread");
        ConcurrentEngine {
            shared,
            signals: Some(tx),
            compactor: Some(compactor),
        }
    }

    /// The reader half, for pinning generations explicitly and running the
    /// `_pinned` query variants.
    pub fn reader(&self) -> &SnapshotReader {
        &self.shared.reader
    }

    /// The configuration queries run with.
    pub fn config(&self) -> &GbdaConfig {
        self.shared.reader.config()
    }

    /// Pins the currently published generation.
    pub fn pin(&self) -> Arc<Generation> {
        self.shared.reader.pin()
    }

    /// Number of live graphs in the currently published generation.
    pub fn len(&self) -> usize {
        self.pin().len()
    }

    /// Returns `true` when the currently published generation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a graph and publishes the new generation; returns the stable
    /// id. May signal the background compactor (never compacts inline).
    pub fn insert(&self, graph: Graph) -> u64 {
        self.insert_published(graph).0
    }

    /// [`Self::insert`], returning `(id, epoch)`: the stable id and the
    /// epoch of the generation this insert published — the first one that
    /// contains the id. Reading [`SnapshotReader::epoch`] afterwards is not
    /// the same thing: another writer may have published in between.
    pub fn insert_published(&self, graph: Graph) -> (u64, u64) {
        let (id, epoch, compact_due) = {
            let mut database = self.shared.writer.lock();
            let id = database.insert(graph);
            let epoch = self.shared.reader.publish(&database);
            let due = self
                .shared
                .compact_threshold
                .is_some_and(|t| database.delta().len() >= t);
            (id, epoch, due)
        };
        if compact_due {
            self.signal_compact();
        }
        (id, epoch)
    }

    /// Removes a graph by id and publishes the new generation; returns the
    /// epoch of the first generation that lacks it.
    ///
    /// # Errors
    /// [`crate::EngineError::UnknownGraphId`] when the id never existed or
    /// was already removed; nothing is published.
    pub fn remove(&self, id: u64) -> EngineResult<u64> {
        let mut database = self.shared.writer.lock();
        database.remove(id)?;
        Ok(self.shared.reader.publish(&database))
    }

    /// Compacts synchronously on the calling thread and publishes the
    /// compacted generation; returns the number of surviving graphs.
    /// Readers never stop: in-flight queries finish on their pinned
    /// pre-compaction generation.
    pub fn compact(&self) -> usize {
        self.shared.compact_now()
    }

    /// Runs Algorithm 1 against the current generation (pin + scan).
    pub fn search(&self, query: &Graph) -> DynamicOutcome {
        self.shared.reader.search(query)
    }

    /// Runs a ranked query against the current generation.
    pub fn search_top_k(&self, query: &Graph, k: usize) -> DynamicTopKOutcome {
        self.shared.reader.search_top_k(query, k)
    }

    /// Streams hits from the current generation as the scan finds them.
    pub fn search_streaming<F>(&self, query: &Graph, on_match: F) -> SearchStats
    where
        F: FnMut(u64, Option<f64>),
    {
        self.shared.reader.search_streaming(query, on_match)
    }

    fn signal_compact(&self) {
        if let Some(signals) = &self.signals {
            // A send can only fail after the worker exited, which only
            // happens on shutdown; a lost signal is then harmless.
            let _ = signals.send(Signal::Compact);
        }
    }
}

impl Drop for ConcurrentEngine {
    fn drop(&mut self) {
        if let Some(signals) = self.signals.take() {
            let _ = signals.send(Signal::Shutdown);
        }
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
    }
}

/// The background compactor: waits for signals, coalesces bursts, and
/// compacts under the writer lock. Exits on [`Signal::Shutdown`] or when
/// every sender is gone.
fn compactor_loop(shared: Arc<Shared>, signals: mpsc::Receiver<Signal>) {
    while let Ok(signal) = signals.recv() {
        match signal {
            Signal::Shutdown => return,
            Signal::Compact => {
                // Coalesce the burst that accumulated while we were idle
                // (or compacting): one pass serves them all.
                loop {
                    match signals.try_recv() {
                        Ok(Signal::Shutdown) => return,
                        Ok(Signal::Compact) => continue,
                        Err(_) => break,
                    }
                }
                shared.compact_in_background();
            }
        }
    }
}

// The compile-time contract behind `Arc<ConcurrentEngine>` sharing: every
// piece of shared state is internally synchronized.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentEngine>();
    assert_send_sync::<SnapshotReader>();
    assert_send_sync::<Generation>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GbdaVariant;
    use crate::engine::QueryEngine;
    use gbd_graph::GeneratorConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graphs(seed: u64, count: usize, size: usize) -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(seed);
        GeneratorConfig::new(size, 2.2)
            .with_alphabets(LabelAlphabets::new(6, 3))
            .generate_many(count, &mut rng)
            .unwrap()
    }

    fn setup() -> (DynamicDatabase, OfflineIndex, GbdaConfig) {
        let base = GraphDatabase::from_graphs(graphs(21, 16, 12));
        let config = GbdaConfig::new(4, 0.7).with_sample_pairs(200);
        let index = OfflineIndex::build(&base, &config).unwrap();
        (DynamicDatabase::new(base), index, config)
    }

    /// A pinned generation is immune to inserts, removes and compactions
    /// published after the pin.
    #[test]
    fn pinned_generations_are_snapshot_isolated() {
        let (database, index, config) = setup();
        let engine = ConcurrentEngine::new(database, index, config.with_record_posteriors(true));
        let query = graphs(5, 1, 12).pop().unwrap();

        let old = engine.pin();
        assert_eq!(old.epoch(), 0);
        let old_ids = old.live_ids();
        let old_outcome = engine.reader().search_pinned(&old, &query);

        for g in graphs(31, 6, 11) {
            engine.insert(g);
        }
        engine.remove(3).unwrap();
        engine.compact();

        // The pinned snapshot still answers from the pre-mutation state.
        assert_eq!(old.live_ids(), old_ids);
        let replay = engine.reader().search_pinned(&old, &query);
        assert_eq!(replay.ids, old_outcome.ids);
        assert_eq!(replay.matches, old_outcome.matches);
        assert_eq!(replay.posteriors.len(), replay.stats.evaluated);
        assert_eq!(replay.posteriors.len(), old_outcome.posteriors.len());
        for (a, b) in replay.posteriors.iter().zip(&old_outcome.posteriors) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // A fresh pin sees all of it, with a strictly larger epoch.
        let new = engine.pin();
        assert_eq!(new.epoch(), 8, "6 inserts + 1 remove + 1 compaction");
        assert_eq!(new.len(), 21);
        assert!(!new.live_ids().contains(&3));
        assert_ne!(new.live_ids(), old_ids);
    }

    /// Isolation where the delta log is *shared*: the pinned generation's
    /// log grows under it — new graphs, and a vocabulary that now contains
    /// every branch of the query — and is then replaced by a compaction, yet
    /// threshold and ranked scans of the pinned generation stay bit-identical
    /// down to the stage counters.
    #[test]
    fn pinned_scans_survive_vocabulary_growth_bit_for_bit() {
        fn timeless(mut stats: SearchStats) -> SearchStats {
            stats.flatten_seconds = 0.0;
            stats.scan_seconds = 0.0;
            stats
        }
        let mut rng = StdRng::seed_from_u64(77);
        let aliens = GeneratorConfig::new(12, 2.5)
            .with_alphabets(LabelAlphabets::new(40, 9))
            .generate_many(6, &mut rng)
            .unwrap();
        let query = &aliens[0];
        for variant in [
            GbdaVariant::Standard,
            GbdaVariant::AverageExtendedSize { sample_graphs: 4 },
            GbdaVariant::WeightedGbd { weight: 0.5 },
        ] {
            let (database, index, config) = setup();
            let config = config.with_variant(variant).with_record_posteriors(true);
            let engine = ConcurrentEngine::new(database, index, config);
            // The pinned generation already has a delta and an overlay, so
            // both are truncated, not merely empty.
            engine.insert(aliens[1].clone());
            engine.insert(graphs(31, 1, 11).remove(0));
            let pinned = engine.pin();
            let reader = engine.reader();
            reader.search_pinned(&pinned, query); // warms the posterior memo
            reader.search_top_k_pinned(&pinned, query, 5);
            let scan = reader.search_pinned(&pinned, query);
            assert_eq!(scan.posteriors.len(), scan.stats.evaluated);
            let ranked = reader.search_top_k_pinned(&pinned, query, 5);
            let known_before = pinned.view_catalog().flatten_graph(query);

            let check = |context: &str| {
                let again = reader.search_pinned(&pinned, query);
                assert_eq!(again.ids, scan.ids, "{variant:?} {context}");
                assert_eq!(again.matches, scan.matches, "{variant:?} {context}");
                let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&again.posteriors), bits(&scan.posteriors));
                assert_eq!(timeless(again.stats), timeless(scan.stats), "{context}");
                let again = reader.search_top_k_pinned(&pinned, query, 5);
                assert_eq!(again.hits.len(), ranked.hits.len(), "{variant:?} {context}");
                for (a, b) in again.hits.iter().zip(&ranked.hits) {
                    assert_eq!((a.id, a.posterior.to_bits()), (b.id, b.posterior.to_bits()));
                }
                assert_eq!(timeless(again.stats), timeless(ranked.stats), "{context}");
                assert_eq!(pinned.view_catalog().flatten_graph(query), known_before);
            };

            // Same log, grown: the query itself goes in, so every one of its
            // branches now has an overlay id the pinned cut must not see.
            let ids: Vec<u64> = aliens.iter().map(|a| engine.insert(a.clone())).collect();
            engine.remove(3).unwrap();
            engine.remove(pinned.live_ids()[pinned.len() - 1]).unwrap();
            let grown = engine.pin();
            assert!(grown.view_catalog().len() > pinned.view_catalog().len());
            let flat = grown.view_catalog().flatten_graph(query);
            assert_eq!(flat.known_len(), flat.len(), "the new cut knows the query");
            assert!(known_before.known_len() < known_before.len());
            check("after growth");

            engine.compact();
            check("after compaction");
            assert!(engine.search(query).ids.contains(&ids[0]));
        }
    }

    /// Reads through the concurrent engine are bit-identical to a fresh
    /// static engine over the pinned generation's live set — per variant.
    #[test]
    fn concurrent_reads_match_fresh_static_engines() {
        for variant in [
            GbdaVariant::Standard,
            GbdaVariant::AverageExtendedSize { sample_graphs: 4 },
            GbdaVariant::WeightedGbd { weight: 0.5 },
        ] {
            let (database, index, config) = setup();
            let config = config.with_variant(variant).with_record_posteriors(true);
            let engine = ConcurrentEngine::new(database, index, config.clone());
            for g in graphs(47, 5, 13) {
                engine.insert(g);
            }
            engine.remove(2).unwrap();
            engine.remove(18).unwrap();

            let generation = engine.pin();
            let survivors: Vec<Graph> = generation.live_graphs().map(|(_, g)| g.clone()).collect();
            let ids = generation.live_ids();
            let fresh = GraphDatabase::with_alphabets(survivors, generation.alphabets());
            let static_engine = QueryEngine::new(&fresh, &engine.reader().index, config);

            let query = graphs(7, 1, 12).pop().unwrap();
            let expected = static_engine.search(&query);
            let got = engine.search(&query);
            let expected_ids: Vec<u64> = expected.matches.iter().map(|&i| ids[i]).collect();
            assert_eq!(got.matches, expected_ids, "variant {variant:?}");
            assert_eq!(got.posteriors.len(), got.stats.evaluated);
            assert_eq!(got.posteriors.len(), expected.posteriors.len());
            for (a, b) in got.posteriors.iter().zip(&expected.posteriors) {
                assert_eq!(a.to_bits(), b.to_bits(), "variant {variant:?}");
            }

            let expected_top = static_engine.search_top_k(&query, 5);
            let got_top = engine.search_top_k(&query, 5);
            assert_eq!(got_top.hits.len(), expected_top.hits.len());
            for (a, b) in got_top.hits.iter().zip(&expected_top.hits) {
                assert_eq!(a.id, ids[b.id], "variant {variant:?}");
                assert_eq!(a.posterior.to_bits(), b.posterior.to_bits());
            }

            let mut streamed = Vec::new();
            engine.search_streaming(&query, |id, _| streamed.push(id));
            assert_eq!(streamed, got.matches, "variant {variant:?}");
        }
    }

    /// Readers pinned across a mutation stream always observe a published
    /// generation, never a torn intermediate.
    #[test]
    fn readers_under_writes_observe_only_published_generations() {
        let (database, index, config) = setup();
        let engine = Arc::new(ConcurrentEngine::new(database, index, config));
        let query = graphs(9, 1, 12).pop().unwrap();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let query = query.clone();
                std::thread::spawn(move || {
                    let mut observations = Vec::new();
                    for _ in 0..40 {
                        let generation = engine.pin();
                        let outcome = engine.reader().search_pinned(&generation, &query);
                        observations.push((generation, outcome));
                    }
                    observations
                })
            })
            .collect();
        for (round, g) in graphs(63, 12, 11).into_iter().enumerate() {
            let id = engine.insert(g);
            if round % 3 == 2 {
                engine.remove(id).unwrap();
            }
            if round % 5 == 4 {
                engine.compact();
            }
        }
        for reader in readers {
            for (generation, outcome) in reader.join().unwrap() {
                // The outcome's scanned-id list is the pinned generation's
                // live set — the snapshot didn't shift mid-query.
                assert_eq!(outcome.ids, generation.live_ids());
                let replay = engine.reader().search_pinned(&generation, &query);
                assert_eq!(replay.matches, outcome.matches);
            }
        }
    }

    /// The background compactor folds the delta without being asked and
    /// without perturbing the live set.
    #[test]
    fn background_compactor_folds_the_delta() {
        let (database, index, config) = setup();
        let engine = ConcurrentEngine::with_auto_compact(database, index, config, 4);
        let mut expected_ids = engine.pin().live_ids();
        for g in graphs(83, 10, 11) {
            expected_ids.push(engine.insert(g));
        }
        // Inserts below the threshold never signal, so the delta need not
        // end empty — but a background compaction must have pushed it back
        // below the threshold, with the live set intact.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let generation = engine.pin();
            if generation.len() == 26 && generation.view_delta().len() < 4 {
                assert_eq!(generation.live_ids(), expected_ids);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "compactor did not fold the delta in time (delta len {})",
                generation.view_delta().len()
            );
            std::thread::yield_now();
        }
        drop(engine); // joins the worker; must not hang or panic
    }
}
