//! The dynamic layer of the storage engine: [`DynamicDatabase`] and
//! [`DynamicEngine`].
//!
//! [`crate::GraphDatabase`] is immutable by design — its arena, aggregates
//! and CSR postings are sealed at construction, which is exactly what makes
//! the scan fast. Production workloads also need *inserts* and *deletes*
//! without a stop-the-world rebuild, so the dynamic layer follows the
//! classic LSM shape:
//!
//! * an immutable **base segment** (a plain [`GraphDatabase`], possibly
//!   loaded from a snapshot file),
//! * an append-only **delta segment** holding inserted graphs with the same
//!   per-graph structures (flat interned runs, aggregates, a small inverted
//!   index), so delta graphs go through the same filter cascade as base
//!   graphs,
//! * **tombstone bitsets** marking removed graphs in either segment,
//! * a **vocabulary overlay** inside the delta segment for branches first
//!   seen by an insert: its ids extend the immutable base [`BranchCatalog`]
//!   — base ids are a strict prefix, so one query flattening serves both
//!   segments.
//!
//! [`DynamicDatabase::compact`] folds delta and tombstones into a fresh base
//! segment; afterwards the database is structurally identical to
//! [`GraphDatabase::with_alphabets`] over the surviving graphs.
//!
//! Queries run on the one scan driver every engine shares (`scan.rs`), in
//! its **dynamic view shape**: the base segment as one part, then the
//! view's [`DeltaPrefix`] as a second part under the delta log's read guard,
//! each under its tombstone mask and keyed by stable ids — so one sink (one
//! top-k heap) spans both. [`crate::QueryEngine`] is the other shape (one
//! unmasked part); no scan logic lives in either. At *any* point — compacted or not — [`DynamicEngine`]
//! therefore returns bit-identical matches and posteriors to a
//! [`crate::QueryEngine`] over a freshly built database of the survivors
//! (given the same [`OfflineIndex`]), for every variant and cascade mode;
//! the equivalence proptests in the workspace exercise random
//! insert/remove/compact interleavings.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

use gbd_graph::{
    Branch, BranchCatalog, BranchMultiset, BranchRun, FlatBranchSet, FlatBranchView, Graph,
    LabelAlphabets, UNKNOWN_BRANCH_ID,
};

use crate::config::GbdaConfig;
use crate::database::{BucketRun, GraphAggregate, GraphDatabase, Posting};
use crate::error::{EngineError, EngineResult};
use crate::filter::SegmentIndex;
use crate::kernel::{CollectAll, Sink, Subscriber, TopKSink};
use crate::offline::OfflineIndex;
use crate::scan::{Mode, Rank, Scanner, Target, Threshold};
use crate::search::SearchStats;
use crate::topk::DynamicTopKOutcome;

/// A fixed-universe bitset marking removed graphs of one segment.
///
/// Slots are appended unset (a new graph is alive) and can only flip from
/// alive to tombstoned — removal is monotone until a compaction resets the
/// segment.
#[derive(Debug, Clone, Default)]
pub struct Tombstones {
    words: Vec<u64>,
    len: usize,
    set: usize,
}

impl Tombstones {
    /// An all-alive bitset over `len` slots.
    pub fn new(len: usize) -> Self {
        Tombstones {
            words: vec![0; len.div_ceil(64)],
            len,
            set: 0,
        }
    }

    /// Number of slots tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no slots are tracked at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of tombstoned slots.
    pub fn set_count(&self) -> usize {
        self.set
    }

    /// Whether slot `i` is tombstoned.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The slots not tombstoned, ascending.
    pub(crate) fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| !self.get(i))
    }

    /// Appends one alive slot.
    fn push_alive(&mut self) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
    }

    /// Tombstones slot `i`; returns `false` when it already was.
    fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if self.words[i / 64] & mask != 0 {
            return false;
        }
        self.words[i / 64] |= mask;
        self.set += 1;
        true
    }
}

/// The append-only delta log of one base epoch: inserted graphs with the
/// same per-graph structures as the base [`GraphDatabase`] — flat interned
/// runs in a contiguous arena, scan aggregates, and a small inverted index —
/// so the filter cascade prunes delta graphs exactly like base graphs, plus
/// the **vocabulary overlay**: branches first seen by an insert, whose ids
/// continue from the base catalog's length in first-seen order.
///
/// The writer and every [`crate::concurrent::Generation`] published since
/// the last compaction share one log behind an `Arc<RwLock<_>>`. Everything
/// in it only grows at the tail, so what the first `n` graphs wrote never
/// changes again and a [`DeltaPrefix`] is a snapshot without being a copy.
/// The two structures that *do* mutate in place — tombstone bits and the
/// open last bucket run — live in each view's [`DeltaCut`] instead.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaSegment {
    graphs: Vec<Arc<Graph>>,
    /// Stable ids by delta index.
    ids: Vec<u64>,
    arena: Vec<BranchRun>,
    spans: Vec<(u32, u32)>,
    /// One packed [`GraphAggregate`] per graph — the same cache-line-conscious
    /// scan layout as the base segment, so the chunked bound sweep reads one
    /// contiguous stream here too.
    aggregates: Vec<GraphAggregate>,
    /// Distinct vertex counts in first-seen order; each aggregate's `bucket`
    /// indexes its vertex count here so per-size cutoff tables are shared.
    distinct_sizes: Vec<usize>,
    /// Branch id → postings, sorted by delta-local graph index (appends
    /// arrive in insertion order, so sortedness is free).
    postings: HashMap<u32, Vec<Posting>>,
    /// The vocabulary overlay: branch → id, for branches the base catalog
    /// lacks. Ids are dense from the base catalog's length upward, so "the
    /// overlay as of `k` branches" is exactly the ids below `base + k`.
    vocab: HashMap<Branch, u32>,
}

impl DeltaSegment {
    /// The overlay id of a branch the base catalog (of `base_len` branches)
    /// lacks, interning it on first sight.
    fn intern(&mut self, branch: &Branch, base_len: usize) -> u32 {
        if let Some(&id) = self.vocab.get(branch) {
            return id;
        }
        let id =
            u32::try_from(base_len + self.vocab.len()).expect("fewer than 2^32 distinct branches");
        assert!(id != UNKNOWN_BRANCH_ID, "catalog exhausted the id space");
        self.vocab.insert(branch.clone(), id);
        id
    }

    /// Appends one graph whose runs are already flattened against the base
    /// catalog plus the overlay; returns its size bucket.
    fn push(&mut self, id: u64, graph: Graph, flat: &FlatBranchSet) -> u32 {
        let delta_index = self.graphs.len() as u32;
        let start = u32::try_from(self.arena.len()).expect("fewer than 2^32 delta runs");
        let runs = flat.runs();
        self.arena.extend_from_slice(runs);
        self.spans.push((start, runs.len() as u32));
        let size = graph.vertex_count();
        let bucket = self
            .distinct_sizes
            .iter()
            .position(|&s| s == size)
            .unwrap_or_else(|| {
                self.distinct_sizes.push(size);
                self.distinct_sizes.len() - 1
            }) as u32;
        self.aggregates.push(GraphAggregate {
            size: size as u32,
            bucket,
            runs: runs.len() as u32,
            max_run: runs.iter().map(|r| r.count).max().unwrap_or(0),
        });
        for run in runs {
            self.postings.entry(run.id).or_default().push(Posting {
                graph: delta_index,
                count: run.count,
            });
        }
        self.graphs.push(Arc::new(graph));
        self.ids.push(id);
        bucket
    }
}

/// One view's cut of the shared delta log: the log, how much of it the view
/// sees, and the two small structures that mutate in place and therefore
/// cannot live in the append-only log. The writer advances its cut on every
/// insert; a published generation holds a [`Self::share`]d one, frozen.
#[derive(Debug, Default)]
pub(crate) struct DeltaCut {
    log: Arc<RwLock<DeltaSegment>>,
    /// Overlay branches visible: the ids below `base catalog len + vocab_len`.
    vocab_len: usize,
    /// Distinct vertex counts visible (a prefix of the first-seen table).
    sizes_len: usize,
    /// Maximal constant-bucket intervals over the visible aggregates,
    /// maintained incrementally on append for the kernel's stage-1 sweep.
    bucket_runs: Vec<BucketRun>,
    /// One slot per visible graph — its length *is* the visible prefix.
    tombstones: Tombstones,
}

impl DeltaCut {
    /// The same cut over the **same** log — what publishing a generation
    /// costs: an `Arc` bump, `delta / 64` tombstone words and the bucket
    /// runs, independent of catalog size and of everything else in the log.
    pub(crate) fn share(&self) -> DeltaCut {
        DeltaCut {
            log: Arc::clone(&self.log),
            vocab_len: self.vocab_len,
            sizes_len: self.sizes_len,
            bucket_runs: self.bucket_runs.clone(),
            tombstones: self.tombstones.clone(),
        }
    }

    /// Appends `graph` under `id`: flattens it against `catalog` plus the
    /// overlay (interning unseen branches) and advances the cut past it.
    /// The write guard covers only the append itself.
    fn append(&mut self, catalog: &BranchCatalog, id: u64, graph: Graph) {
        let multiset = BranchMultiset::from_graph(&graph);
        let mut log = self.log.write();
        let flat = catalog
            .flatten_lookup_with(&multiset, |branch| Some(log.intern(branch, catalog.len())));
        let bucket = log.push(id, graph, &flat);
        self.vocab_len = log.vocab.len();
        self.sizes_len = log.distinct_sizes.len();
        drop(log);
        self.tombstones.push_alive();
        let end = self.len() as u32;
        match self.bucket_runs.last_mut() {
            Some(run) if run.bucket == bucket => run.end = end,
            _ => self.bucket_runs.push(BucketRun { end, bucket }),
        }
    }

    /// Number of visible graphs (tombstoned ones included).
    fn len(&self) -> usize {
        self.tombstones.len()
    }

    /// The tombstone bitset of the visible prefix.
    pub(crate) fn tombstones(&self) -> &Tombstones {
        &self.tombstones
    }

    /// The visible prefix of the log, under its read guard.
    pub(crate) fn prefix(&self) -> DeltaPrefix<'_> {
        DeltaPrefix {
            log: self.log.read(),
            cut: self,
        }
    }

    /// The vocabulary of this cut over the base `catalog`.
    pub(crate) fn catalog_over<'a>(&'a self, catalog: &'a BranchCatalog) -> ViewCatalog<'a> {
        ViewCatalog {
            base: catalog,
            log: &self.log,
            vocab_len: self.vocab_len,
        }
    }
}

/// Cloning **forks** the log: the copy belongs to an independent writer.
impl Clone for DeltaCut {
    fn clone(&self) -> Self {
        DeltaCut {
            log: Arc::new(RwLock::new(self.log.read().clone())),
            ..self.share()
        }
    }
}

/// The first `n` graphs of a shared delta log, held under the log's read
/// guard: a [`SegmentIndex`] by truncation. Because the log is append-only,
/// what a prefix shows is fixed at the moment its cut was taken — appends
/// that land later (even while this guard is *not* held) are past the end
/// of every slice it hands out — so a scan over it is bit-identical to a
/// scan over a frozen copy.
///
/// Hold it only as long as the read takes: an insert waits for it.
pub struct DeltaPrefix<'a> {
    log: RwLockReadGuard<'a, DeltaSegment>,
    cut: &'a DeltaCut,
}

impl DeltaPrefix<'_> {
    /// Number of graphs in the prefix (tombstoned ones included).
    pub fn len(&self) -> usize {
        self.cut.len()
    }

    /// Returns `true` when the view has seen no insert since the last
    /// compaction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th delta graph.
    pub fn graph(&self, i: usize) -> &Graph {
        &self.log.graphs[..self.len()][i]
    }

    /// Stable ids of the prefix's graphs by delta index (tombstoned slots
    /// included).
    pub fn ids(&self) -> &[u64] {
        &self.log.ids[..self.len()]
    }
}

impl SegmentIndex for DeltaPrefix<'_> {
    fn aggregates(&self) -> &[GraphAggregate] {
        &self.log.aggregates[..self.len()]
    }

    fn bucket_runs(&self) -> &[BucketRun] {
        &self.cut.bucket_runs
    }

    fn distinct_sizes(&self) -> &[usize] {
        &self.log.distinct_sizes[..self.cut.sizes_len]
    }

    fn postings_of(&self, branch_id: u32) -> &[Posting] {
        let postings = self
            .log
            .postings
            .get(&branch_id)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let n = self.len() as u32;
        &postings[..postings.partition_point(|p| p.graph < n)]
    }

    fn flat_view(&self, i: usize) -> FlatBranchView<'_> {
        let (start, len) = self.log.spans[..self.len()][i];
        FlatBranchView::new(
            &self.log.arena[start as usize..(start + len) as usize],
            self.log.aggregates[i].size as usize,
        )
    }
}

/// The branch vocabulary a view flattens queries against: the immutable
/// base catalog plus the overlay branches the view's cut of the delta log
/// can see. Base ids are a strict prefix of the id space, so one flattening
/// serves both segments.
///
/// Holds no guard: the log is read-locked per call, and only when the query
/// carries a branch the base catalog lacks and the overlay is not empty.
pub struct ViewCatalog<'a> {
    base: &'a BranchCatalog,
    log: &'a RwLock<DeltaSegment>,
    vocab_len: usize,
}

impl ViewCatalog<'_> {
    /// Number of distinct branches with an id.
    pub fn len(&self) -> usize {
        self.base.len() + self.vocab_len
    }

    /// Returns `true` when no branch has an id.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`BranchCatalog::flatten_lookup`] over the base catalog and the
    /// visible overlay: overlay branches interned *after* the cut was taken
    /// are unknown to it, exactly as they were when it was taken.
    pub fn flatten_lookup(&self, multiset: &BranchMultiset) -> FlatBranchSet {
        let limit = self.len() as u32;
        let mut log = None;
        self.base.flatten_lookup_with(multiset, |branch| {
            if self.vocab_len == 0 {
                return None;
            }
            let log = log.get_or_insert_with(|| self.log.read());
            log.vocab.get(branch).copied().filter(|&id| id < limit)
        })
    }

    /// Flattens the branch multiset of `graph`.
    pub fn flatten_graph(&self, graph: &Graph) -> FlatBranchSet {
        self.flatten_lookup(&BranchMultiset::from_graph(graph))
    }
}

/// A live graph handed out by `live_graphs`: borrowed from the base
/// segment, or shared out of the delta log (whose storage sits behind a
/// lock and cannot be borrowed for the caller's lifetime). Dereferences to
/// the [`Graph`]; deliberately not `Clone`, so `.clone()` clones the graph.
#[derive(Debug)]
pub enum LiveGraph<'a> {
    /// A base-segment graph.
    Base(&'a Graph),
    /// A delta-log graph.
    Delta(Arc<Graph>),
}

impl std::ops::Deref for LiveGraph<'_> {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        match self {
            LiveGraph::Base(graph) => graph,
            LiveGraph::Delta(graph) => graph,
        }
    }
}

/// `(id, graph)` for every live graph of a view in **canonical order**: base
/// graphs by base index, then delta graphs by insertion order. The delta
/// part is collected up front so no guard outlives this call.
pub(crate) fn live_graphs_of<V: DynamicView + ?Sized>(
    view: &V,
) -> impl Iterator<Item = (u64, LiveGraph<'_>)> + '_ {
    let base = view.view_base();
    let base_part = view
        .view_base_tombstones()
        .live()
        .map(move |i| (view.view_base_ids()[i], LiveGraph::Base(base.graph(i))));
    let delta = view.view_delta();
    let delta_part: Vec<_> = view
        .view_delta_tombstones()
        .live()
        .map(|i| {
            (
                delta.ids()[i],
                LiveGraph::Delta(Arc::clone(&delta.log.graphs[i])),
            )
        })
        .collect();
    base_part.chain(delta_part)
}

/// Where a live graph id currently resides.
#[derive(Debug, Clone, Copy)]
enum Location {
    Base(usize),
    Delta(usize),
}

/// A graph database that absorbs inserts and deletes without rebuilding its
/// immutable base segment. See the [module docs](self) for the layout.
///
/// Graph ids are stable `u64`s: the initial base graphs get `0..len` (their
/// base indices), every insert gets the next fresh id, and ids survive
/// [`Self::compact`].
#[derive(Debug, Clone)]
pub struct DynamicDatabase {
    /// The sealed base segment (and with it the base branch catalog). Behind
    /// an [`Arc`] so publishing a [`crate::concurrent::Generation`] shares it
    /// instead of copying it — the base never mutates in place, it is only
    /// *replaced* by [`Self::compact`].
    base: Arc<GraphDatabase>,
    alphabets: LabelAlphabets,
    /// The writer's cut of the delta log: always the whole log.
    delta: DeltaCut,
    /// Shared with published generations until the next removal of a base
    /// graph, which clones the words first.
    base_tombstones: Arc<Tombstones>,
    /// Stable ids of the base graphs by base index; replaced wholesale by
    /// [`Self::compact`], never edited, hence shareable like the base.
    base_ids: Arc<Vec<u64>>,
    locations: HashMap<u64, Location>,
    next_id: u64,
    /// Upper bound on the live maximum vertex count (never shrinks on
    /// remove; only used to cap posterior decision tables, so an
    /// overestimate costs nothing but a few extra memo entries).
    max_vertices_hint: usize,
    /// When `true`, mutations skip the per-mutation telemetry (counters
    /// *and* gauges). See [`Self::set_metrics_quiet`].
    metrics_quiet: bool,
}

impl DynamicDatabase {
    /// Wraps an immutable base segment (built by
    /// [`GraphDatabase::from_graphs`] or loaded from a snapshot).
    pub fn new(base: GraphDatabase) -> Self {
        let n = base.len();
        let base_ids: Vec<u64> = (0..n as u64).collect();
        let locations = base_ids
            .iter()
            .map(|&id| (id, Location::Base(id as usize)))
            .collect();
        DynamicDatabase {
            alphabets: base.alphabets(),
            max_vertices_hint: base.max_vertices(),
            base_tombstones: Arc::new(Tombstones::new(n)),
            base_ids: Arc::new(base_ids),
            locations,
            next_id: n as u64,
            delta: DeltaCut::default(),
            base: Arc::new(base),
            metrics_quiet: false,
        }
    }

    /// Reconstructs a database around a base segment whose graphs carry
    /// pre-assigned stable ids — the replay hook of the durable storage
    /// layer, mirroring [`GraphDatabase::from_parts`]. `ids[i]` is the
    /// stable id of base graph `i` (the order [`Self::compact`] preserves),
    /// and `next_id` is where the id counter resumes, so replayed inserts
    /// re-assign exactly the ids they were originally acknowledged with.
    ///
    /// # Errors
    /// [`EngineError::CorruptDatabase`] when the id list does not match the
    /// base (wrong length, duplicates, or an id at or above `next_id`).
    pub fn with_base_ids(base: GraphDatabase, ids: Vec<u64>, next_id: u64) -> EngineResult<Self> {
        if ids.len() != base.len() {
            return Err(EngineError::CorruptDatabase {
                reason: format!("{} base ids for {} base graphs", ids.len(), base.len()),
            });
        }
        let mut locations = HashMap::with_capacity(ids.len());
        for (i, &id) in ids.iter().enumerate() {
            if id >= next_id {
                return Err(EngineError::CorruptDatabase {
                    reason: format!("base id {id} is not below the next id {next_id}"),
                });
            }
            if locations.insert(id, Location::Base(i)).is_some() {
                return Err(EngineError::CorruptDatabase {
                    reason: format!("duplicate base id {id}"),
                });
            }
        }
        let n = base.len();
        Ok(DynamicDatabase {
            alphabets: base.alphabets(),
            max_vertices_hint: base.max_vertices(),
            base_tombstones: Arc::new(Tombstones::new(n)),
            base_ids: Arc::new(ids),
            locations,
            next_id,
            delta: DeltaCut::default(),
            base: Arc::new(base),
            metrics_quiet: false,
        })
    }

    /// The immutable base segment.
    pub fn base(&self) -> &GraphDatabase {
        &self.base
    }

    /// The stable id the next [`Self::insert`] will assign — the export hook
    /// a write-ahead log uses to record an insert's id *before* applying it.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Stable ids of the base-segment graphs by base index (tombstoned
    /// slots included) — with [`Self::next_id`], everything a checkpoint
    /// record needs to make [`Self::with_base_ids`] resume id assignment
    /// exactly where this database left off.
    pub fn base_ids(&self) -> &[u64] {
        &self.base_ids
    }

    /// The delta segment: every graph inserted since the last compaction,
    /// under the delta log's read guard.
    pub fn delta(&self) -> DeltaPrefix<'_> {
        self.delta.prefix()
    }

    /// The tombstone bitset of the base segment.
    pub fn base_tombstones(&self) -> &Tombstones {
        &self.base_tombstones
    }

    /// The tombstone bitset of the delta segment.
    pub fn delta_tombstones(&self) -> &Tombstones {
        &self.delta.tombstones
    }

    /// The shared handle of the base segment (for generation capture).
    pub(crate) fn base_arc(&self) -> &Arc<GraphDatabase> {
        &self.base
    }

    /// The shared handle of the base id list (for generation capture).
    pub(crate) fn base_ids_arc(&self) -> &Arc<Vec<u64>> {
        &self.base_ids
    }

    /// The shared handle of the base tombstones (for generation capture).
    pub(crate) fn base_tombstones_arc(&self) -> &Arc<Tombstones> {
        &self.base_tombstones
    }

    /// The writer's cut of the delta log (for generation capture).
    pub(crate) fn delta_cut(&self) -> &DeltaCut {
        &self.delta
    }

    /// The combined branch vocabulary (base catalog ids first, ids of
    /// branches first seen by an insert after). Queries are flattened
    /// against this.
    pub fn catalog(&self) -> ViewCatalog<'_> {
        self.delta.catalog_over(self.base.catalog())
    }

    /// Label alphabet sizes of the probabilistic model, fixed at
    /// construction (the domain alphabet, not whatever subset the current
    /// live set happens to exercise).
    pub fn alphabets(&self) -> LabelAlphabets {
        self.alphabets
    }

    /// Number of live graphs.
    pub fn len(&self) -> usize {
        self.view_len()
    }

    /// Returns `true` when no graph is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tombstoned graphs awaiting compaction (both segments).
    pub fn tombstone_count(&self) -> usize {
        self.base_tombstones.set_count() + self.delta.tombstones.set_count()
    }

    /// Upper bound on the live maximum vertex count.
    pub fn max_vertices_hint(&self) -> usize {
        self.max_vertices_hint
    }

    /// Silences (or re-arms) the per-mutation dynamic-layer telemetry of
    /// this database instance.
    ///
    /// Replay paths use this: recovery re-applies historical, already-
    /// acknowledged mutations, and booking those into the process-wide
    /// insert/remove/compaction counters would misreport them as fresh
    /// traffic — worse, a replay that *fails* midway would leave gauges
    /// describing a database object that is then discarded. Quiet replay
    /// records nothing; after a successful replay,
    /// [`Self::publish_metric_gauges`] resyncs the level gauges in one
    /// step. Fresh databases start loud (`quiet = false`).
    pub fn set_metrics_quiet(&mut self, quiet: bool) {
        self.metrics_quiet = quiet;
    }

    /// Re-publishes the delta/tombstone level gauges from this database's
    /// current state — the companion of [`Self::set_metrics_quiet`]: call
    /// it once after a quiet replay commits, so the gauges describe the
    /// recovered state without the replay inflating mutation counters.
    pub fn publish_metric_gauges(&self) {
        crate::obs::record_dynamic_levels(self.delta.len(), self.tombstone_count());
    }

    /// Whether `id` refers to a live graph.
    pub fn contains(&self, id: u64) -> bool {
        self.locations.contains_key(&id)
    }

    /// Iterates over `(id, graph)` for every live graph in **canonical
    /// order**: base graphs by base index, then delta graphs by insertion
    /// order. This is the order a compaction (and the equivalence tests'
    /// fresh rebuild) preserves.
    pub fn live_graphs(&self) -> impl Iterator<Item = (u64, LiveGraph<'_>)> + '_ {
        live_graphs_of(self)
    }

    /// Live graph ids in canonical order.
    pub fn live_ids(&self) -> Vec<u64> {
        self.live_graphs().map(|(id, _)| id).collect()
    }

    /// Inserts a graph into the delta segment and returns its stable id.
    ///
    /// Cost is proportional to the graph itself: one branch extraction, one
    /// flatten against the base catalog plus the delta log's vocabulary
    /// overlay (interning unseen branches *there* — the base catalog is never
    /// touched, let alone copied), and one postings append per distinct run.
    pub fn insert(&mut self, graph: Graph) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.max_vertices_hint = self.max_vertices_hint.max(graph.vertex_count());
        let delta_index = self.delta.len();
        self.delta.append(self.base.catalog(), id, graph);
        self.locations.insert(id, Location::Delta(delta_index));
        if !self.metrics_quiet {
            crate::obs::record_dynamic_insert(delta_index + 1, self.tombstone_count());
        }
        id
    }

    /// Removes a graph by id (a tombstone mark; storage is reclaimed by the
    /// next [`Self::compact`]).
    ///
    /// # Errors
    /// [`EngineError::UnknownGraphId`] when the id never existed or was
    /// already removed.
    pub fn remove(&mut self, id: u64) -> EngineResult<()> {
        match self.locations.remove(&id) {
            Some(Location::Base(i)) => {
                Arc::make_mut(&mut self.base_tombstones).set(i);
            }
            Some(Location::Delta(i)) => {
                self.delta.tombstones.set(i);
            }
            None => return Err(EngineError::UnknownGraphId(id)),
        }
        if !self.metrics_quiet {
            crate::obs::record_dynamic_remove(self.delta.len(), self.tombstone_count());
        }
        Ok(())
    }

    /// Folds the delta segment and all tombstones into a fresh immutable
    /// base — rebuilding arena, aggregates and CSR postings over exactly the
    /// surviving graphs — and empties the delta. Ids are preserved.
    ///
    /// Afterwards the base segment is structurally identical to
    /// [`GraphDatabase::with_alphabets`] over [`Self::live_graphs`] (same
    /// construction, same canonical order). Returns the number of surviving
    /// graphs.
    pub fn compact(&mut self) -> usize {
        let started = std::time::Instant::now();
        let _span = gbd_telemetry::span!("dynamic.compact");
        let (ids, graphs): (Vec<u64>, Vec<Graph>) = self
            .live_graphs()
            .map(|(id, graph)| (id, graph.clone()))
            .unzip();
        // The old base, id list and delta log are replaced, not mutated:
        // published generations that still share them keep scanning the
        // pre-compaction state, frozen.
        self.base = Arc::new(GraphDatabase::with_alphabets(graphs, self.alphabets));
        self.base_tombstones = Arc::new(Tombstones::new(self.base.len()));
        self.delta = DeltaCut::default();
        self.locations = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, Location::Base(i)))
            .collect();
        self.base_ids = Arc::new(ids);
        self.max_vertices_hint = self.base.max_vertices();
        if !self.metrics_quiet {
            crate::obs::record_dynamic_compact(
                started.elapsed().as_secs_f64(),
                self.delta.len(),
                self.tombstone_count(),
            );
        }
        self.base.len()
    }
}

/// Result of one dynamic search: like [`crate::SearchOutcome`], but keyed by
/// stable graph ids instead of database indices.
#[derive(Debug, Clone, Default)]
pub struct DynamicOutcome {
    /// Ids of the live graphs that were scanned, in canonical order.
    pub ids: Vec<u64>,
    /// Ids of the live graphs with `Φ ≥ γ`, in canonical order.
    pub matches: Vec<u64>,
    /// The posterior of every live graph, aligned with [`Self::ids`]
    /// (empty when [`GbdaConfig::record_posteriors`] is off).
    pub posteriors: Vec<f64>,
    /// Wall-clock seconds of the scan.
    pub seconds: f64,
    /// Per-stage counters, directly comparable with a static engine's.
    pub stats: SearchStats,
}

/// A read-only view of one segmented state of the dynamic layer: a base
/// segment and a delta segment, each under a tombstone mask, plus the
/// catalog both were flattened against.
///
/// Implemented by [`DynamicDatabase`] itself (the live, writer-owned state)
/// and by [`crate::concurrent::Generation`] (an immutable published
/// snapshot), so the one scan driver serves the borrow-checked
/// [`DynamicEngine`] and the snapshot-isolated
/// [`crate::concurrent::ConcurrentEngine`] alike. Method names carry a
/// `view_` prefix so they never shadow the richer inherent accessors.
pub trait DynamicView {
    /// The immutable base segment.
    fn view_base(&self) -> &GraphDatabase;
    /// Stable ids of the base graphs by base index (tombstoned included).
    fn view_base_ids(&self) -> &[u64];
    /// The tombstone bitset of the base segment.
    fn view_base_tombstones(&self) -> &Tombstones;
    /// The delta segment as this view sees it, under the delta log's read
    /// guard — take it late and drop it early (an insert waits for it).
    fn view_delta(&self) -> DeltaPrefix<'_>;
    /// The tombstone bitset of the delta segment.
    fn view_delta_tombstones(&self) -> &Tombstones;
    /// The vocabulary queries are flattened against (base ids a strict
    /// prefix).
    fn view_catalog(&self) -> ViewCatalog<'_>;
    /// Upper bound on the live maximum vertex count.
    fn view_max_vertices_hint(&self) -> usize;

    /// Number of live graphs in this view.
    fn view_len(&self) -> usize {
        let (base, delta) = (self.view_base_tombstones(), self.view_delta_tombstones());
        (base.len() - base.set_count()) + (delta.len() - delta.set_count())
    }

    /// Vertex counts of the live graphs in canonical order (base by index,
    /// then delta by insertion order) — the GBDA-V1 sampling population.
    fn view_live_vertex_counts(&self) -> Vec<usize> {
        let (base, delta) = (self.view_base(), self.view_delta());
        let base_sizes = self.view_base_tombstones().live().map(|i| base.size_of(i));
        let delta_sizes = self
            .view_delta_tombstones()
            .live()
            .map(|i| delta.size_of(i));
        base_sizes.chain(delta_sizes).collect()
    }
}

impl DynamicView for DynamicDatabase {
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
        &self.delta.tombstones
    }

    fn view_catalog(&self) -> ViewCatalog<'_> {
        self.catalog()
    }

    fn view_max_vertices_hint(&self) -> usize {
        self.max_vertices_hint
    }
}

/// The dynamic view shape of the scan driver: a [`Scanner`] pointed at one
/// [`DynamicView`] — the base segment as one part, then the view's
/// [`DeltaPrefix`] as a second part under the delta log's read guard, both
/// under their tombstone masks and keyed by stable ids, into **one sink**
/// that spans both parts (a strong base candidate tightens the rank
/// bound that prunes delta graphs and vice versa).
///
/// [`DynamicEngine`] builds one over its borrowed [`DynamicDatabase`],
/// [`crate::concurrent::SnapshotReader`] over whatever
/// [`crate::concurrent::Generation`] a reader pinned.
pub(crate) struct ViewScan<'a, V: ?Sized> {
    pub(crate) scanner: &'a Scanner,
    pub(crate) view: &'a V,
    pub(crate) index: &'a OfflineIndex,
    pub(crate) fixed_extended_size: Option<usize>,
}

impl<V: DynamicView + ?Sized> ViewScan<'_, V> {
    /// One driver run over base then delta. `before_part` sees each part's
    /// tombstones and stable ids (by slot) just before it is scanned, and
    /// whether the log's read guard is held across it.
    fn run<M: Mode, K: Sink<u64>>(
        &self,
        span: &'static str,
        query: &Graph,
        mode: M,
        sink: K,
        mut before_part: impl FnMut(&Tombstones, &[u64], bool),
    ) -> (K, SearchStats, f64) {
        let view = self.view;
        let target = Target {
            span,
            index: self.index,
            fixed_extended_size: self.fixed_extended_size,
            max_vertices: view.view_max_vertices_hint(),
            candidates: view.view_len(),
        };
        let flatten = |branches: &BranchMultiset| view.view_catalog().flatten_lookup(branches);
        self.scanner.run(target, query, flatten, mode, sink, |run| {
            let (tombstones, ids) = (view.view_base_tombstones(), view.view_base_ids());
            before_part(tombstones, ids, false);
            run.part(view.view_base(), |i| tombstones.get(i), |i| ids[i]);
            // The guard spans the delta scan only — never the base scan.
            let delta = view.view_delta();
            let (tombstones, ids) = (view.view_delta_tombstones(), delta.ids());
            before_part(tombstones, ids, true);
            run.part(&delta, |i| tombstones.get(i), |i| ids[i]);
        })
    }

    /// Runs Algorithm 1 over the view's live set.
    pub(crate) fn search(&self, query: &Graph) -> DynamicOutcome {
        let mut live = Vec::new();
        let sink = CollectAll::new(self.scanner.config.record_posteriors);
        let (sink, stats, seconds) = self.run(
            "dynamic.search",
            query,
            Threshold,
            sink,
            |tombstones, ids, _| live.extend(tombstones.live().map(|i| ids[i])),
        );
        DynamicOutcome {
            ids: live,
            matches: sink.matches,
            posteriors: sink.posteriors,
            seconds,
            stats,
        }
    }

    /// The [`Subscriber`]-sink instantiation: base hits reach `on_match` as
    /// the scan finds them. Delta hits are buffered and delivered once the
    /// log's read guard is gone, so the caller's code never runs under it (a
    /// callback that inserts into the same engine would otherwise wait on
    /// itself).
    pub(crate) fn search_streaming<F>(&self, query: &Graph, mut on_match: F) -> SearchStats
    where
        F: FnMut(u64, Option<f64>),
    {
        let guarded = Cell::new(false);
        let mut deferred = Vec::new();
        let sink = Subscriber::new(|id, phi| {
            if guarded.get() {
                deferred.push((id, phi));
            } else {
                on_match(id, phi);
            }
        });
        let (_, stats, _) = self.run(
            "dynamic.search_streaming",
            query,
            Threshold,
            sink,
            |_, _, under_guard| guarded.set(under_guard),
        );
        for (id, phi) in deferred {
            on_match(id, phi);
        }
        stats
    }

    /// Runs a ranked query over the view's live set, keyed by stable ids.
    /// Slots map to ascending stable ids (base, then delta), which is the
    /// scan order the heap's strict admission bound needs.
    pub(crate) fn search_top_k(&self, query: &Graph, k: usize) -> DynamicTopKOutcome {
        if k == 0 {
            return DynamicTopKOutcome::default();
        }
        let (sink, stats, seconds) = self.run(
            "dynamic.search_top_k",
            query,
            Rank(k),
            TopKSink::new(k),
            |_, _, _| {},
        );
        DynamicTopKOutcome {
            hits: sink.into_sorted_hits(),
            seconds,
            stats,
        }
    }
}

/// The segment-aware query engine over a [`DynamicDatabase`].
///
/// Mirrors [`crate::QueryEngine`] — same variants, same cascade, same
/// posterior memo, the same scan driver — but scans base and delta segments
/// under their tombstone masks. Given the same [`OfflineIndex`] and
/// configuration, its results are bit-identical to a `QueryEngine` over a
/// freshly built database of the live graphs.
///
/// This engine borrows the database, so overlapping queries and mutations
/// are ruled out at compile time; for snapshot-isolated reads *under*
/// writes, see [`crate::concurrent::ConcurrentEngine`], which runs the same
/// driver over published [`crate::concurrent::Generation`]s.
pub struct DynamicEngine<'a> {
    dynamic: &'a DynamicDatabase,
    index: &'a OfflineIndex,
    /// `|V'1|` override of the GBDA-V1 variant, sampled over the live set in
    /// canonical order — exactly how [`crate::QueryEngine::new`] samples a
    /// static database of the same graphs.
    fixed_extended_size: Option<usize>,
    scanner: Scanner,
}

impl<'a> DynamicEngine<'a> {
    /// Creates an engine over the database's *current* live set. After an
    /// insert, remove or compact, create a new engine (the borrow checker
    /// enforces this: mutation needs `&mut DynamicDatabase`).
    pub fn new(dynamic: &'a DynamicDatabase, index: &'a OfflineIndex, config: GbdaConfig) -> Self {
        let scanner = Scanner::new(config);
        DynamicEngine {
            dynamic,
            index,
            fixed_extended_size: scanner.fixed_extended_size(|| dynamic.view_live_vertex_counts()),
            scanner,
        }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &GbdaConfig {
        &self.scanner.config
    }

    /// The fixed `|V'1|` of the GBDA-V1 variant, if active.
    pub fn fixed_extended_size(&self) -> Option<usize> {
        self.fixed_extended_size
    }

    fn scan(&self) -> ViewScan<'_, DynamicDatabase> {
        ViewScan {
            scanner: &self.scanner,
            view: self.dynamic,
            index: self.index,
            fixed_extended_size: self.fixed_extended_size,
        }
    }

    /// Runs Algorithm 1 over the live set: base then delta, each under its
    /// tombstone mask, both through the same filter cascade.
    pub fn search(&self, query: &Graph) -> DynamicOutcome {
        self.scan().search(query)
    }

    /// Runs Algorithm 1 over the live set, delivering hits to `on_match` in
    /// scan order (base then delta, ascending stable ids) — the
    /// [`Subscriber`]-sink instantiation of the kernel. Fast-path accepts
    /// arrive with `None`; resolved hits carry `Some(Φ)`. The delivered id
    /// set is exactly [`Self::search`]'s `matches`, in the same order.
    pub fn search_streaming<F>(&self, query: &Graph, on_match: F) -> SearchStats
    where
        F: FnMut(u64, Option<f64>),
    {
        self.scan().search_streaming(query, on_match)
    }

    /// Runs a **ranked** query over the live set: the `k` live graphs with
    /// the highest posterior, best first, keyed by stable ids. See
    /// [`crate::QueryEngine::search_top_k`] for the shared ranking rules;
    /// the dynamic guarantee is bit-identity — same ids, same posterior
    /// bits — with a static engine over a fresh build of the live set,
    /// because the live set is scanned in canonical order and both engines
    /// rank under the same total order with ascending-id tie-breaks.
    pub fn search_top_k(&self, query: &Graph, k: usize) -> DynamicTopKOutcome {
        self.scan().search_top_k(query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let base = GraphDatabase::from_graphs(graphs(11, 16, 12));
        let config = GbdaConfig::new(4, 0.7).with_sample_pairs(200);
        let index = OfflineIndex::build(&base, &config).unwrap();
        (DynamicDatabase::new(base), index, config)
    }

    #[test]
    fn tombstones_track_set_slots() {
        let mut t = Tombstones::new(70);
        assert_eq!(t.len(), 70);
        assert!(!t.is_empty());
        assert_eq!(t.set_count(), 0);
        assert!(t.set(0));
        assert!(t.set(69));
        assert!(!t.set(69), "double-set is reported");
        assert_eq!(t.set_count(), 2);
        assert!(t.get(0) && t.get(69) && !t.get(35));
        t.push_alive();
        assert_eq!(t.len(), 71);
        assert!(!t.get(70));
        assert!(Tombstones::new(0).is_empty());
    }

    #[test]
    fn ids_are_stable_across_insert_remove_compact() {
        let (mut dynamic, _, _) = setup();
        assert_eq!(dynamic.len(), 16);
        let inserted = dynamic.insert(graphs(99, 1, 10).pop().unwrap());
        assert_eq!(inserted, 16);
        assert!(dynamic.contains(inserted));
        assert_eq!(dynamic.len(), 17);
        dynamic.remove(3).unwrap();
        assert!(!dynamic.contains(3));
        assert_eq!(
            dynamic.remove(3).unwrap_err(),
            EngineError::UnknownGraphId(3)
        );
        assert_eq!(
            dynamic.remove(1000).unwrap_err(),
            EngineError::UnknownGraphId(1000)
        );
        assert_eq!(dynamic.tombstone_count(), 1);
        let live_before = dynamic.live_ids();
        let survivors = dynamic.compact();
        assert_eq!(survivors, 16);
        assert_eq!(dynamic.live_ids(), live_before, "compaction preserves ids");
        assert_eq!(dynamic.tombstone_count(), 0);
        assert!(dynamic.delta().is_empty());
        assert!(dynamic.contains(inserted));
        // The next insert keeps counting upward.
        let next = dynamic.insert(graphs(98, 1, 10).pop().unwrap());
        assert_eq!(next, 17);
    }

    #[test]
    fn with_base_ids_resumes_id_assignment() {
        let (mut dynamic, _, _) = setup();
        dynamic.insert(graphs(42, 1, 10).pop().unwrap());
        dynamic.remove(3).unwrap();
        dynamic.compact();
        let ids = dynamic.base_ids().to_vec();
        let next_id = dynamic.next_id();
        assert_eq!(next_id, 17);
        assert!(!ids.contains(&3));

        let rebuilt =
            DynamicDatabase::with_base_ids(dynamic.base().clone(), ids.clone(), next_id).unwrap();
        assert_eq!(rebuilt.live_ids(), dynamic.live_ids());
        assert_eq!(rebuilt.next_id(), next_id);
        // The next insert in both databases assigns the same id.
        let mut rebuilt = rebuilt;
        let a = dynamic.insert(graphs(43, 1, 10).pop().unwrap());
        let b = rebuilt.insert(graphs(43, 1, 10).pop().unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn with_base_ids_rejects_inconsistent_id_lists() {
        let (dynamic, _, _) = setup();
        let base = dynamic.base().clone();
        let short = DynamicDatabase::with_base_ids(base.clone(), vec![0, 1], 16);
        assert!(matches!(short, Err(EngineError::CorruptDatabase { .. })));
        let mut dup: Vec<u64> = (0..16).collect();
        dup[5] = 4;
        assert!(DynamicDatabase::with_base_ids(base.clone(), dup, 16).is_err());
        let high: Vec<u64> = (0..16).collect();
        assert!(
            DynamicDatabase::with_base_ids(base, high, 10).is_err(),
            "ids at or above next_id are rejected"
        );
    }

    #[test]
    fn delta_segment_mirrors_base_structures() {
        let (mut dynamic, _, _) = setup();
        let extra = graphs(55, 3, 14);
        for g in extra.clone() {
            dynamic.insert(g);
        }
        let delta = dynamic.delta();
        assert_eq!(delta.len(), 3);
        for (i, g) in extra.iter().enumerate() {
            assert_eq!(delta.size_of(i), g.vertex_count());
            let flat = dynamic.catalog().flatten_graph(g);
            assert_eq!(delta.flat_view(i).runs(), flat.runs());
            assert_eq!(delta.distinct_runs(i), flat.runs().len());
            assert_eq!(
                delta.max_run_count(i),
                flat.runs().iter().map(|r| r.count).max().unwrap_or(0)
            );
        }
        // Delta postings reconstruct every delta flat set, like the base CSR.
        let mut gathered: Vec<Vec<(u32, u32)>> = vec![Vec::new(); delta.len()];
        for id in 0..dynamic.catalog().len() as u32 {
            let postings = delta.postings_of(id);
            assert!(postings.windows(2).all(|w| w[0].graph < w[1].graph));
            for p in postings {
                gathered[p.graph as usize].push((id, p.count));
            }
        }
        for (i, mut runs) in gathered.into_iter().enumerate() {
            runs.sort_unstable_by_key(|&(id, _)| id);
            let expected: Vec<(u32, u32)> = delta
                .flat_view(i)
                .runs()
                .iter()
                .map(|r| (r.id, r.count))
                .collect();
            assert_eq!(runs, expected, "delta postings diverge for graph {i}");
        }
    }

    /// The snapshot argument of the append-only log: a cut shared at delta
    /// length `n` keeps reading — while the log grows under it — exactly what
    /// a log rebuilt from the first `n` graphs alone holds.
    #[test]
    fn every_prefix_equals_a_log_rebuilt_from_its_graphs() {
        let (mut dynamic, _, _) = setup();
        // Interleaved sizes split the bucket runs; the alien alphabet grows
        // the vocabulary overlay with almost every insert.
        let mut rng = StdRng::seed_from_u64(9);
        let inserted: Vec<Graph> = (0..12)
            .map(|i| {
                GeneratorConfig::new(8 + i % 3, 2.2)
                    .with_alphabets(LabelAlphabets::new(30, 7))
                    .generate_many(1, &mut rng)
                    .unwrap()
                    .remove(0)
            })
            .collect();
        let mut cuts = vec![dynamic.delta.share()];
        for graph in &inserted {
            dynamic.insert(graph.clone());
            cuts.push(dynamic.delta.share());
        }
        let base = dynamic.base().clone();
        let vocabulary = dynamic.catalog().len() as u32;
        assert!(vocabulary as usize > base.catalog().len());

        for (n, cut) in cuts.iter().enumerate() {
            let mut rebuilt = DynamicDatabase::new(base.clone());
            for graph in &inserted[..n] {
                rebuilt.insert(graph.clone());
            }
            let (got, want) = (cut.prefix(), rebuilt.delta());
            assert_eq!(got.len(), n);
            assert_eq!(got.ids(), want.ids(), "n={n}");
            assert_eq!(got.aggregates(), want.aggregates(), "n={n}");
            assert_eq!(got.bucket_runs(), want.bucket_runs(), "n={n}");
            assert_eq!(got.distinct_sizes(), want.distinct_sizes(), "n={n}");
            for id in (0..vocabulary).chain([UNKNOWN_BRANCH_ID]) {
                assert_eq!(got.postings_of(id), want.postings_of(id), "n={n} id={id}");
            }
            for i in 0..n {
                assert_eq!(got.flat_view(i).runs(), want.flat_view(i).runs());
                assert_eq!(got.flat_view(i).len(), want.flat_view(i).len());
            }
            drop((got, want));
            // The cut's vocabulary stops where it stood at length `n`: every
            // later graph flattens as it did then.
            let (got, want) = (cut.catalog_over(base.catalog()), rebuilt.catalog());
            assert_eq!(got.len(), want.len(), "n={n}");
            for graph in &inserted {
                assert_eq!(got.flatten_graph(graph), want.flatten_graph(graph), "n={n}");
            }
        }
    }

    #[test]
    fn compacted_base_equals_a_fresh_build() {
        let (mut dynamic, _, _) = setup();
        for g in graphs(77, 4, 10) {
            dynamic.insert(g);
        }
        dynamic.remove(0).unwrap();
        dynamic.remove(17).unwrap();
        let survivors: Vec<Graph> = dynamic.live_graphs().map(|(_, g)| g.clone()).collect();
        dynamic.compact();
        let fresh = GraphDatabase::with_alphabets(survivors, dynamic.alphabets());
        let base = dynamic.base();
        assert_eq!(base.len(), fresh.len());
        assert_eq!(base.arena_len(), fresh.arena_len());
        assert_eq!(base.postings_len(), fresh.postings_len());
        assert_eq!(base.distinct_sizes(), fresh.distinct_sizes());
        for i in 0..base.len() {
            assert_eq!(base.flat(i).runs(), fresh.flat(i).runs());
            assert_eq!(base.size_of(i), fresh.size_of(i));
        }
        assert!(base.verify_postings());
    }

    /// One engine-level spot check; the cross-mode interleaving equivalence
    /// lives in the workspace-level proptests.
    #[test]
    fn dynamic_search_matches_a_fresh_static_engine() {
        let (mut dynamic, index, config) = setup();
        for g in graphs(123, 5, 13) {
            dynamic.insert(g);
        }
        dynamic.remove(2).unwrap();
        dynamic.remove(18).unwrap();
        let query = dynamic.base().graph(5).clone();

        let survivors: Vec<Graph> = dynamic.live_graphs().map(|(_, g)| g.clone()).collect();
        let ids = dynamic.live_ids();
        let fresh = GraphDatabase::with_alphabets(survivors, dynamic.alphabets());
        for cascade in [true, false] {
            let config = config
                .clone()
                .with_filter_cascade(cascade)
                .with_record_posteriors(true);
            let static_engine = QueryEngine::new(&fresh, &index, config.clone());
            let dynamic_engine = DynamicEngine::new(&dynamic, &index, config);
            let expected = static_engine.search(&query);
            let got = dynamic_engine.search(&query);
            assert_eq!(got.ids, ids);
            let expected_ids: Vec<u64> = expected.matches.iter().map(|&i| ids[i]).collect();
            assert_eq!(got.matches, expected_ids, "cascade={cascade}");
            assert_eq!(got.posteriors.len(), got.stats.evaluated);
            assert_eq!(got.posteriors.len(), expected.posteriors.len());
            for (a, b) in got.posteriors.iter().zip(&expected.posteriors) {
                assert_eq!(a.to_bits(), b.to_bits(), "cascade={cascade}");
            }
            assert_eq!(got.stats.evaluated, fresh.len());
        }
    }

    /// One ranked spot check; the cross-mode interleaving equivalence lives
    /// in the workspace-level proptests.
    #[test]
    fn dynamic_top_k_matches_a_fresh_static_engine() {
        let (mut dynamic, index, config) = setup();
        for g in graphs(123, 5, 13) {
            dynamic.insert(g);
        }
        dynamic.remove(2).unwrap();
        dynamic.remove(18).unwrap();
        let query = dynamic.base().graph(5).clone();

        let survivors: Vec<Graph> = dynamic.live_graphs().map(|(_, g)| g.clone()).collect();
        let ids = dynamic.live_ids();
        let fresh = GraphDatabase::with_alphabets(survivors, dynamic.alphabets());
        for cascade in [true, false] {
            let config = config.clone().with_filter_cascade(cascade);
            let static_engine = QueryEngine::new(&fresh, &index, config.clone());
            let dynamic_engine = DynamicEngine::new(&dynamic, &index, config);
            for k in [1usize, 4, fresh.len(), fresh.len() + 3] {
                let expected = static_engine.search_top_k(&query, k);
                let got = dynamic_engine.search_top_k(&query, k);
                assert_eq!(
                    got.hits.len(),
                    expected.hits.len(),
                    "cascade={cascade} k={k}"
                );
                for (a, b) in got.hits.iter().zip(&expected.hits) {
                    assert_eq!(a.id, ids[b.id], "cascade={cascade} k={k}");
                    assert_eq!(
                        a.posterior.to_bits(),
                        b.posterior.to_bits(),
                        "cascade={cascade} k={k}"
                    );
                }
                assert_eq!(got.stats.evaluated, fresh.len());
            }
        }
        // k = 0 short-circuits without scanning.
        let engine = DynamicEngine::new(&dynamic, &index, config);
        let zero = engine.search_top_k(&query, 0);
        assert!(zero.hits.is_empty());
        assert_eq!(zero.stats.evaluated, 0);
    }

    #[test]
    fn empty_dynamic_database_is_searchable() {
        let base = GraphDatabase::from_graphs(graphs(5, 2, 8));
        let config = GbdaConfig::new(3, 0.8).with_sample_pairs(50);
        let index = OfflineIndex::build(&base, &config).unwrap();
        let mut dynamic = DynamicDatabase::new(base);
        dynamic.remove(0).unwrap();
        dynamic.remove(1).unwrap();
        assert!(dynamic.is_empty());
        let query = graphs(6, 1, 8).pop().unwrap();
        let engine = DynamicEngine::new(&dynamic, &index, config);
        let outcome = engine.search(&query);
        assert!(outcome.ids.is_empty());
        assert!(outcome.matches.is_empty());
        assert_eq!(outcome.stats.evaluated, 0);
        assert_eq!(dynamic.compact(), 0);
        assert!(dynamic.base().is_empty());
    }
}
