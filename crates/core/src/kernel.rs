//! The one generic scan kernel behind every online search path.
//!
//! The paper's online phase is a single conceptual operation: scan candidate
//! graphs, prune through the [`FilterCascade`], resolve the observed distance
//! ϕ and the memoized posterior `Φ = Pr[GED ≤ τ̂ | GBD = ϕ]`, and deliver
//! survivors — under either a *static* probability threshold γ (Algorithm 1)
//! or a *tightening* top-k rank bound. [`ScanKernel::scan`] implements that
//! loop exactly once, over a cutoff policy ([`Cutoff`]), a result sink
//! ([`Sink`]) and a segment ([`SegmentIndex`]) — and exactly one piece of
//! code calls it: the crate-private scan driver (`scan.rs`), which also
//! owns the posterior memo, the decision tables and the stage planner.
//!
//! # One driver, two view shapes
//!
//! A run of the driver flattens the query, then for each **part** of the
//! view (a segment, a tombstone mask, a slot → id map) asks the planner for
//! a schedule, builds the kernel, prepares the cutoff of the run's **mode**
//! and scans the part's slots, in ascending order on the calling thread,
//! into the run's one sink, one stats block and one local posterior memo;
//! it then books the plans, feeds the planner and flushes the telemetry.
//! The modes fix the cutoff and the sinks that make sense with it:
//!
//! | mode | cutoff | sinks | public API |
//! |---|---|---|---|
//! | threshold γ | [`StaticPhi`] | [`CollectAll`] | `search`, `search_pinned` |
//! | threshold γ | [`StaticPhi`] | [`Subscriber`] | `search_streaming`, `search_streaming_pinned` |
//! | rank k | [`TighteningRank`] | [`TopKSink`] | `search_top_k`, `search_top_k_pinned` |
//!
//! and the engines are the two shapes a view can take:
//!
//! | view shape | engines | parts |
//! |---|---|---|
//! | static | [`QueryEngine`] | the [`GraphDatabase`]: unmasked, slots are ids |
//! | dynamic | [`DynamicEngine`], [`SnapshotReader`](crate::SnapshotReader) / [`ConcurrentEngine`](crate::ConcurrentEngine) | base segment, then the [`DeltaPrefix`](crate::DeltaPrefix) under the log's read guard; both under tombstone masks, keyed by stable ids — one sink (one heap, one tightening bound) spans both parts |
//!
//! A static database is the dynamic shape with an empty log and no
//! tombstones; the two engines then agree on every answer and every
//! [`SearchStats`] counter (`tests/kernel.rs`).
//!
//! A ranked scan needs resolved posteriors for every candidate it keeps, so
//! [`TighteningRank`] never *accepts* a graph early — pairing [`TopKSink`]
//! with a cutoff that does ([`StaticPhi`] with a non-empty accept region)
//! violates the sink contract and panics. Every other pairing composes
//! freely. The canonical tie-break total order for *all* ranked results is
//! defined once, by [`crate::topk::rank_order`] (posterior descending via
//! `f64::total_cmp`, then graph id ascending).
//!
//! # The chunked bound sweep
//!
//! With the cascade on, the scan walks the segment's packed
//! [`GraphAggregate`] records in 64-graph chunks. Per chunk it compiles (or
//! reuses) one [`BucketPlan`] per size bucket under the sink's current
//! bound — the stage-1 verdict plus a stage-2 *reject threshold* on the
//! intersection upper bound — and sweeps the chunk's aggregates into
//! branchless accept/reject `u64` words (one comparison-derived bit per
//! graph, no branches in the loop body). Stage-3 postings are accumulated
//! through resumable [`PostingsCursors`], either eagerly per chunk
//! (postings-first) or only for chunks the bounds left undecided
//! (bound-first) — the per-query [`planner`](crate::filter::planner) picks,
//! and [`ScanKernel::new`] takes, the schedule. Accepts and exact
//! resolutions are then delivered in ascending index order; under a
//! tightening rank bound each undecided graph is re-tested against the
//! *freshest* bound before resolving (plans are recompiled when the bound
//! moved), so the chunked sweep reproduces the per-graph scan bit for bit —
//! results and stats counters alike. Bounds only tighten, so chunk-start
//! rejections always remain valid.
//!
//! # Accounting
//!
//! The kernel owns the [`SearchStats`] stage counters. Per scanned, unmasked
//! graph exactly one of the following fires, so
//! `bound_rejected + bound_accepted + rank_rejected + postings_resolved +
//! merged == evaluated` ([`SearchStats::stage_partition`]) holds on every
//! instantiation:
//!
//! * `bound_accepted` / `bound_rejected` — decided by the stage-1 size bound
//!   or the stage-2 distinct-run refinement under a [`StaticPhi`] cutoff;
//! * `rank_rejected` — decided by the same bound stages under a
//!   [`TighteningRank`] cutoff;
//! * `postings_resolved` — survived to the stage-3 count filter, which
//!   resolves the exact ϕ from the inverted postings;
//! * `merged` — cascade disabled; ϕ came from a full flat-run merge.
//!
//! `stage2_decided` additionally counts the subset of bound decisions made
//! specifically by stage 2 — the marginal selectivity the planner's cost
//! model feeds on.
//!
//! [`GraphAggregate`]: crate::database::GraphAggregate
//! [`PostingsCursors`]: crate::filter::PostingsCursors
//! [`QueryEngine`]: crate::QueryEngine
//! [`DynamicEngine`]: crate::DynamicEngine
//! [`GraphDatabase`]: crate::GraphDatabase

use std::sync::Arc;

use gbd_graph::FlatBranchSet;

use crate::filter::planner::QueryPlan;
use crate::filter::{FilterCascade, RankDecision, SegmentIndex, SizeDecision};
use crate::search::SearchStats;
use crate::topk::{RankedHit, TopKHeap};

/// Chunk width of the bound sweep: one `u64` word of per-graph bits.
const CHUNK: usize = 64;

/// Chunks per superchunk: the bound sweep classifies this many chunks in one
/// pass before a single postings accumulation covers them all, amortising
/// the per-(chunk, query-run) cursor setup sixteen-fold. The whole
/// superchunk accumulator (16 × 64 × 4 B = 4 KiB) stays in L1.
const SUPER_CHUNKS: usize = 16;

/// Graphs per superchunk.
const SUPER: usize = SUPER_CHUNKS * CHUNK;

/// The verdict of a cutoff policy on a graph (or a whole ϕ interval).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundClass {
    /// The graph is provably a hit; no posterior needs to be resolved.
    Accept,
    /// The graph provably cannot be delivered; skip it.
    Reject,
    /// The evidence is inconclusive; fall through to the next stage.
    Undecided,
}

/// One size bucket's compiled verdict under a specific bound: everything
/// the chunked sweep needs to classify a graph of that bucket with two
/// branch-free comparisons.
///
/// `class` is the stage-1 verdict of the bucket's ϕ interval (constant over
/// the bucket). `reject_below` encodes the stage-2 distinct-run refinement:
/// in an [`BoundClass::Undecided`] bucket, a graph is rejected exactly when
/// its intersection upper bound ([`FilterCascade::stage2_inter_ub`]) is
/// `< reject_below` — the ϕ table is non-increasing in the intersection, so
/// the stage-2 interval test collapses to one integer comparison. `0` means
/// stage 2 can never reject in this bucket (or was planned away).
///
/// The remaining three fields pre-compile the cutoff's **stage-3** verdict
/// ([`Cutoff::classify_phi`]) into intersection space, again exploiting the
/// non-increasing ϕ table: for a graph with exact intersection `inter`,
/// `classify_phi(bucket, table[inter])` equals `Accept` iff
/// `inter ≥ accept_from`, `Reject` iff `reject_lo ≤ inter < reject_hi`, and
/// `Undecided` otherwise — so the delivery loop resolves most graphs with
/// three `u32` comparisons and never touches the ϕ table except to feed a
/// posterior lookup. A cutoff that never fast-classifies at stage 3 (the
/// rank bound) compiles the empty thresholds (`u32::MAX`, `0`, `0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketPlan {
    /// Stage-1 verdict, shared by every graph in the bucket.
    pub class: BoundClass,
    /// Stage-2 rejection threshold on the intersection upper bound.
    pub reject_below: u32,
    /// Stage-3: smallest exact intersection that fast-accepts.
    pub accept_from: u32,
    /// Stage-3: start of the fast-rejecting intersection interval.
    pub reject_lo: u32,
    /// Stage-3: one-past-the-end of the fast-rejecting interval.
    pub reject_hi: u32,
}

/// A cutoff policy: how the kernel decides, per graph, whether the filter
/// bounds settle the outcome or the posterior must be resolved — and whether
/// a resolved posterior is admitted.
///
/// Two policies exist: [`StaticPhi`] (the fixed probability threshold γ of
/// Algorithm 1) and [`TighteningRank`] (the running k-th-best bound of a
/// top-k heap). See the [module docs](self) for which API uses which.
pub trait Cutoff {
    /// Whether any bound tables exist at all. When `false` the kernel skips
    /// the bound stages entirely and resolves every graph.
    fn prunes(&self) -> bool;

    /// Compiles one [`BucketPlan`] per size bucket into `plans` under the
    /// sink's current `bound` (the running k-th-best posterior for ranked
    /// sinks, `None` otherwise). `tables` holds each bucket's ϕ table
    /// ([`FilterCascade::bucket_phi_tables`]); `use_stage2 == false` zeroes
    /// every `reject_below` (the planner skipped stage 2). Returns `false`
    /// when nothing can prune under this bound — no tables (recording
    /// mode), or a rank cutoff whose heap has not filled yet — in which
    /// case `plans` is left untouched and every graph is undecided.
    fn plan_buckets(
        &self,
        bound: Option<f64>,
        use_stage2: bool,
        tables: &[Vec<u64>],
        plans: &mut Vec<BucketPlan>,
    ) -> bool;

    /// Stage 3 — classify one graph from its *exact* ϕ. `Undecided` means
    /// the posterior must be resolved and [`Self::admits`] consulted.
    fn classify_phi(&self, bucket: usize, phi: u64) -> BoundClass;

    /// The merge-path (cascade disabled) counterpart of
    /// [`Self::classify_phi`]: may fast-*accept* from ϕ, never rejects —
    /// the merge scan has no bound stages to make rejection sound cheaper
    /// than the posterior lookup it replaces.
    fn merge_classify_phi(&self, bucket: usize, phi: u64) -> BoundClass;

    /// Whether a resolved posterior is delivered as a hit.
    fn admits(&self, posterior: f64) -> bool;

    /// Books `n` bound-stage rejections into the right stats counter
    /// (`bound_rejected` for a threshold, `rank_rejected` for a rank
    /// bound).
    fn count_pruned_n(&self, stats: &mut SearchStats, n: usize);
}

/// The static-threshold cutoff of Algorithm 1: accept when `Φ(ϕ) ≥ γ` is
/// guaranteed, reject when `Φ(ϕ) < γ` is guaranteed, resolve otherwise.
///
/// Holds one [`SizeDecision`] per size bucket of the segment plus the
/// stage-1 classification of each bucket's ϕ interval. Recording mode is
/// opt-in (`record_posteriors`, off by default): there both tables are
/// empty, so every graph resolves its posterior — the definitional scan.
#[derive(Debug)]
pub struct StaticPhi {
    gamma: f64,
    /// One decision per size bucket; empty in recording mode.
    decisions: Vec<SizeDecision>,
    /// Stage-1 verdict per size bucket; empty when the cascade is off, the
    /// bounds are unusable (GBDA-V2 with `w < 0`), or in recording mode.
    classes: Vec<BoundClass>,
}

impl StaticPhi {
    /// Builds the per-bucket threshold tables for one query against one
    /// segment. `resolve_all` (recording mode) leaves both tables empty;
    /// `decision_for` maps an extended size to its [`SizeDecision`].
    pub fn prepare<S: SegmentIndex>(
        kernel: &ScanKernel<'_, S>,
        gamma: f64,
        resolve_all: bool,
        mut decision_for: impl FnMut(usize) -> SizeDecision,
    ) -> Self {
        if resolve_all {
            return StaticPhi {
                gamma,
                decisions: Vec::new(),
                classes: Vec::new(),
            };
        }
        let decisions: Vec<SizeDecision> = kernel
            .segment
            .distinct_sizes()
            .iter()
            .map(|&size| decision_for(kernel.extended_size_for(size)))
            .collect();
        let classes = match &kernel.cascade {
            Some(cascade) if cascade.bounds_usable() => kernel
                .segment
                .distinct_sizes()
                .iter()
                .zip(&decisions)
                .map(|(&size, decision)| {
                    let (lb, ub) = cascade.size_bounds(size);
                    match decision.classify_interval(lb, ub) {
                        Some(true) => BoundClass::Accept,
                        Some(false) => BoundClass::Reject,
                        None => BoundClass::Undecided,
                    }
                })
                .collect(),
            _ => Vec::new(),
        };
        StaticPhi {
            gamma,
            decisions,
            classes,
        }
    }
}

impl Cutoff for StaticPhi {
    fn prunes(&self) -> bool {
        !self.classes.is_empty()
    }

    fn plan_buckets(
        &self,
        _bound: Option<f64>,
        use_stage2: bool,
        tables: &[Vec<u64>],
        plans: &mut Vec<BucketPlan>,
    ) -> bool {
        if self.classes.is_empty() {
            return false;
        }
        plans.clear();
        plans.extend(self.classes.iter().zip(&self.decisions).zip(tables).map(
            |((&class, decision), table)| {
                // Stage 2 can never *accept* in an undecided bucket (its
                // ϕ upper bound equals stage 1's, which already failed
                // the accept test), so the refinement reduces to the
                // reject half of `classify_interval`: in an undecided
                // bucket with `ub1 ≤ cap`, reject exactly the graphs
                // whose intersection upper bound keeps ϕ ≥ reject_min —
                // a prefix of the non-increasing ϕ table.
                let reject_below =
                    if use_stage2 && class == BoundClass::Undecided && table[0] <= decision.cap {
                        table.partition_point(|&phi| phi >= decision.reject_min) as u32
                    } else {
                        0
                    };
                // Stage-3 thresholds: `accepts(ϕ)` is a suffix of the
                // non-increasing table, `rejects(ϕ)` (`reject_min ≤ ϕ ≤
                // cap`) an interior interval.
                let accept_from = match decision.accept_max {
                    Some(t) => table.partition_point(|&phi| phi > t) as u32,
                    None => u32::MAX,
                };
                BucketPlan {
                    class,
                    reject_below,
                    accept_from,
                    reject_lo: table.partition_point(|&phi| phi > decision.cap) as u32,
                    reject_hi: table.partition_point(|&phi| phi >= decision.reject_min) as u32,
                }
            },
        ));
        true
    }

    fn classify_phi(&self, bucket: usize, phi: u64) -> BoundClass {
        match self.decisions.get(bucket) {
            Some(decision) if decision.accepts(phi) => BoundClass::Accept,
            Some(decision) if decision.rejects(phi) => BoundClass::Reject,
            _ => BoundClass::Undecided,
        }
    }

    fn merge_classify_phi(&self, bucket: usize, phi: u64) -> BoundClass {
        match self.decisions.get(bucket) {
            Some(decision) if decision.accepts(phi) => BoundClass::Accept,
            _ => BoundClass::Undecided,
        }
    }

    fn admits(&self, posterior: f64) -> bool {
        posterior >= self.gamma
    }

    fn count_pruned_n(&self, stats: &mut SearchStats, n: usize) {
        stats.bound_rejected += n;
    }
}

/// The tightening rank cutoff of a top-k scan: once the heap is full, a
/// graph whose ϕ interval provably cannot *strictly beat* the running
/// k-th-best posterior is rejected ([`RankDecision::rejects_from`]).
///
/// Never accepts early — every kept candidate needs its exact posterior for
/// ranking — and never consults γ. Empty (no pruning) when the cascade is
/// off, the bounds are unusable, or `k` covers every candidate.
#[derive(Debug, Default)]
pub struct TighteningRank {
    /// Per size bucket: the suffix-max table and the stage-1 ϕ interval.
    buckets: Vec<(Arc<RankDecision>, (u64, u64))>,
}

impl TighteningRank {
    /// Builds the per-bucket rank tables for one query against one segment.
    /// `candidates` is the number of graphs competing for the `k` slots
    /// (the *whole* database for a dynamic scan, not one segment): when
    /// `k >= candidates` the heap can never fill, so no tables are built
    /// and the cutoff never prunes.
    pub fn prepare<S: SegmentIndex>(
        kernel: &ScanKernel<'_, S>,
        k: usize,
        candidates: usize,
        mut rank_for: impl FnMut(usize) -> Arc<RankDecision>,
    ) -> Self {
        let buckets = match &kernel.cascade {
            Some(cascade) if cascade.bounds_usable() && k < candidates => kernel
                .segment
                .distinct_sizes()
                .iter()
                .map(|&size| {
                    let decision = rank_for(kernel.extended_size_for(size));
                    let interval = cascade.size_bounds(size);
                    (decision, interval)
                })
                .collect(),
            _ => Vec::new(),
        };
        TighteningRank { buckets }
    }
}

impl Cutoff for TighteningRank {
    fn prunes(&self) -> bool {
        !self.buckets.is_empty()
    }

    fn plan_buckets(
        &self,
        bound: Option<f64>,
        use_stage2: bool,
        tables: &[Vec<u64>],
        plans: &mut Vec<BucketPlan>,
    ) -> bool {
        if self.buckets.is_empty() {
            return false;
        }
        // Until the heap fills there is no bound to prune under.
        let Some(bound) = bound else {
            return false;
        };
        plans.clear();
        plans.extend(
            self.buckets
                .iter()
                .zip(tables)
                .map(|((decision, (lb1, ub1)), table)| {
                    // A rank cutoff never fast-classifies at stage 3 (every
                    // kept candidate needs its exact posterior), so both
                    // stage-3 thresholds stay empty.
                    if decision.rejects_from(*lb1, *ub1, bound) {
                        BucketPlan {
                            class: BoundClass::Reject,
                            reject_below: 0,
                            accept_from: u32::MAX,
                            reject_lo: 0,
                            reject_hi: 0,
                        }
                    } else {
                        // `rejects_from(lb2, ub1, bound) ⟺ ub1 ≤ cap ∧
                        // lb2 ≥ cutoff(bound)` (proven by the RankDecision unit
                        // tests), and lb2 is a non-increasing function of the
                        // intersection upper bound — so stage-2 rejection is a
                        // prefix of the ϕ table here too.
                        let reject_below = if use_stage2 && *ub1 <= decision.cap {
                            let cutoff_phi = decision.cutoff(bound);
                            table.partition_point(|&phi| phi >= cutoff_phi) as u32
                        } else {
                            0
                        };
                        BucketPlan {
                            class: BoundClass::Undecided,
                            reject_below,
                            accept_from: u32::MAX,
                            reject_lo: 0,
                            reject_hi: 0,
                        }
                    }
                }),
        );
        true
    }

    fn classify_phi(&self, _bucket: usize, _phi: u64) -> BoundClass {
        BoundClass::Undecided
    }

    fn merge_classify_phi(&self, _bucket: usize, _phi: u64) -> BoundClass {
        BoundClass::Undecided
    }

    fn admits(&self, _posterior: f64) -> bool {
        true
    }

    fn count_pruned_n(&self, stats: &mut SearchStats, n: usize) {
        stats.rank_rejected += n;
    }
}

/// A result sink: where the kernel delivers survivors.
///
/// The kernel calls [`Sink::accept`] for graphs proven to be hits *without*
/// a posterior (threshold fast path) and [`Sink::offer`] for graphs whose
/// posterior was resolved. [`Sink::bound`] feeds the cutoff's tightening
/// bound back into the bound stages (ranked sinks only).
pub trait Sink<I: Copy> {
    /// The sink's current pruning bound — the k-th-best posterior of a full
    /// top-k heap, `None` for unbounded sinks.
    fn bound(&self) -> Option<f64> {
        None
    }

    /// Delivers a graph proven to be a hit without resolving its posterior.
    fn accept(&mut self, id: I);

    /// Delivers one resolved `(id, posterior)` pair; `admitted` is the
    /// cutoff's verdict. `stats` lets ranked sinks book `heap_inserts`.
    fn offer(&mut self, id: I, posterior: f64, admitted: bool, stats: &mut SearchStats);
}

/// Collects matches (and, when recording, every resolved posterior in scan
/// order) — the sink behind threshold search.
#[derive(Debug)]
pub struct CollectAll<I> {
    record: bool,
    /// Ids delivered as hits, in scan order.
    pub matches: Vec<I>,
    /// When recording: one posterior per scanned graph, in scan order.
    pub posteriors: Vec<f64>,
}

impl<I: Copy> CollectAll<I> {
    /// An empty sink; `record` mirrors
    /// [`GbdaConfig::record_posteriors`](crate::GbdaConfig).
    pub fn new(record: bool) -> Self {
        CollectAll {
            record,
            matches: Vec::new(),
            posteriors: Vec::new(),
        }
    }
}

impl<I: Copy> Sink<I> for CollectAll<I> {
    fn accept(&mut self, id: I) {
        self.matches.push(id);
    }

    fn offer(&mut self, id: I, posterior: f64, admitted: bool, _stats: &mut SearchStats) {
        if self.record {
            self.posteriors.push(posterior);
        }
        if admitted {
            self.matches.push(id);
        }
    }
}

/// A bounded ranked sink wrapping [`TopKHeap`] — the sink behind top-k
/// search. Must be paired with a cutoff that never [`BoundClass::Accept`]s
/// (i.e. [`TighteningRank`]): a rank needs the posterior.
#[derive(Debug)]
pub struct TopKSink<I: Ord + Copy> {
    heap: TopKHeap<I>,
}

impl<I: Ord + Copy> TopKSink<I> {
    /// An empty heap keeping the best `k` candidates.
    pub fn new(k: usize) -> Self {
        TopKSink {
            heap: TopKHeap::new(k),
        }
    }

    /// The kept candidates, best first (ties by ascending id).
    pub fn into_sorted_hits(self) -> Vec<RankedHit<I>> {
        self.heap.into_sorted_hits()
    }
}

impl<I: Ord + Copy> Sink<I> for TopKSink<I> {
    fn bound(&self) -> Option<f64> {
        self.heap.threshold()
    }

    fn accept(&mut self, _id: I) {
        unreachable!("a ranked sink cannot admit a graph without its posterior");
    }

    fn offer(&mut self, id: I, posterior: f64, _admitted: bool, stats: &mut SearchStats) {
        if self.heap.push(RankedHit { id, posterior }) {
            stats.heap_inserts += 1;
        }
    }
}

/// A streaming sink: hits are delivered to a callback as the scan finds
/// them, instead of being buffered. Fast-path accepts arrive with `None`
/// (their posterior was never resolved); resolved hits with `Some(Φ)`.
#[derive(Debug)]
pub struct Subscriber<F> {
    callback: F,
}

impl<F> Subscriber<F> {
    /// Wraps a `FnMut(id, Option<posterior>)` callback.
    pub fn new(callback: F) -> Self {
        Subscriber { callback }
    }
}

impl<I: Copy, F: FnMut(I, Option<f64>)> Sink<I> for Subscriber<F> {
    fn accept(&mut self, id: I) {
        (self.callback)(id, None);
    }

    fn offer(&mut self, id: I, posterior: f64, admitted: bool, _stats: &mut SearchStats) {
        if admitted {
            (self.callback)(id, Some(posterior));
        }
    }
}

/// The extended size `|V'1|` of one (query, graph) pair: the larger vertex
/// count, or GBDA-V1's fixed size when the variant is active.
pub(crate) fn extended_size(fixed: Option<usize>, query_size: usize, graph_size: usize) -> usize {
    fixed.unwrap_or_else(|| query_size.max(graph_size).max(1))
}

/// Per-query scan state over one segment: the flattened query, the filter
/// cascade (when enabled) and the extended-size rule. Built once per
/// (query, segment) pair.
#[derive(Debug)]
pub struct ScanKernel<'q, S: SegmentIndex> {
    segment: &'q S,
    cascade: Option<FilterCascade<'q, S>>,
    query_flat: &'q FlatBranchSet,
    query_size: usize,
    fixed_extended_size: Option<usize>,
    weight: Option<f64>,
    plan: QueryPlan,
}

impl<'q, S: SegmentIndex> ScanKernel<'q, S> {
    /// Builds the kernel for one query against one segment. `query_flat`
    /// must be flattened against the segment's catalog (or an extension of
    /// it); `fixed_extended_size` is `Some` under GBDA-V1, `weight` under
    /// GBDA-V2; `use_cascade` mirrors
    /// [`GbdaConfig::filter_cascade`](crate::GbdaConfig). `plan` is the stage
    /// schedule — the planner's choice or [`QueryPlan::fixed`]; any plan
    /// yields bit-identical results, only the work schedule changes.
    pub fn new(
        segment: &'q S,
        query_flat: &'q FlatBranchSet,
        query_size: usize,
        fixed_extended_size: Option<usize>,
        weight: Option<f64>,
        use_cascade: bool,
        plan: QueryPlan,
    ) -> Self {
        let cascade = use_cascade.then(|| FilterCascade::new(segment, query_flat, weight));
        ScanKernel {
            segment,
            cascade,
            query_flat,
            query_size,
            fixed_extended_size,
            weight,
            plan,
        }
    }

    /// The extended size `|V'1|` for a graph of `graph_size` vertices.
    pub fn extended_size_for(&self, graph_size: usize) -> usize {
        extended_size(self.fixed_extended_size, self.query_size, graph_size)
    }

    /// The scan loop. Drives every slot of the segment, in ascending
    /// order, through the cascade stages under `cutoff`, resolving
    /// posteriors through `lookup` (signature
    /// `(stats, extended_size, phi) -> posterior` so implementations can
    /// book cache hits/misses), and delivers survivors to `sink`.
    ///
    /// `mask(i)` returns `true` for slots to skip entirely (tombstones);
    /// `id_of(i)` maps a segment-local index to the sink's id space.
    pub fn scan<I, C, K>(
        &self,
        cutoff: &C,
        sink: &mut K,
        stats: &mut SearchStats,
        mask: impl Fn(usize) -> bool,
        id_of: impl Fn(usize) -> I,
        mut lookup: impl FnMut(&mut SearchStats, usize, u64) -> f64,
    ) where
        I: Copy,
        C: Cutoff,
        K: Sink<I>,
    {
        // Armed only at TelemetryLevel::MetricsAndTraces; otherwise one
        // relaxed load per scan call (not per graph).
        let _span = gbd_telemetry::span!("kernel.scan");
        let range = 0..self.segment.segment_len();
        match &self.cascade {
            Some(cascade) => {
                let prune = self.plan.use_bounds && cascade.bounds_usable() && cutoff.prunes();
                let use_stage2 = self.plan.use_stage2;
                let postings_first = self.plan.postings_first;
                // Per-bucket ϕ tables: the raw material bucket plans are
                // compiled from (bound-independent, built once per scan).
                let tables = if prune {
                    cascade.bucket_phi_tables()
                } else {
                    Vec::new()
                };
                let mut plans: Vec<BucketPlan> = Vec::new();
                // The bound key the plans were compiled under: `None` = not
                // yet compiled, `Some(k)` = compiled under bound bits `k`.
                // Static cutoffs keep one compilation for the whole scan; a
                // tightening rank bound recompiles as it moves (cheap — one
                // entry per size bucket).
                let mut compiled_for: Option<Option<u64>> = None;
                let mut plans_active = false;
                let mut cursors = cascade.cursors();
                let mut acc = [0u32; SUPER];
                let aggregates = self.segment.aggregates();
                let bucket_runs = self.segment.bucket_runs();

                let mut super_start = range.start;
                while super_start < range.end {
                    let super_end = (super_start + SUPER).min(range.end);

                    // One bound key serves the whole superchunk sweep:
                    // nothing is delivered during it, so the bound cannot
                    // move until phase 3. Static cutoffs keep one
                    // compilation for the whole scan; a tightening rank
                    // bound recompiles as it moves (cheap — one entry per
                    // size bucket).
                    let mut words_key: Option<Option<u64>> = None;
                    if prune {
                        let bound = sink.bound();
                        let key = bound.map(f64::to_bits);
                        if compiled_for != Some(key) {
                            plans_active =
                                cutoff.plan_buckets(bound, use_stage2, &tables, &mut plans);
                            compiled_for = Some(key);
                        }
                        words_key = Some(key);
                    }

                    // Phase 1 — stages 1 + 2 across every chunk: stage 1
                    // classifies whole constant-bucket intervals with one
                    // plan lookup and a mask merge; stage 2 touches
                    // per-graph aggregates only inside undecided intervals
                    // with a non-trivial reject threshold.
                    let mut accept_words = [0u64; SUPER_CHUNKS];
                    let mut undecided_words = [0u64; SUPER_CHUNKS];
                    let mut any_undecided = false;
                    // Bucket run containing `super_start`; advanced in step
                    // with the ascending chunks.
                    let mut run_idx =
                        bucket_runs.partition_point(|r| (r.end as usize) <= super_start);
                    for (c, chunk_start) in (super_start..super_end).step_by(CHUNK).enumerate() {
                        let chunk_end = (chunk_start + CHUNK).min(super_end);
                        let width = chunk_end - chunk_start;

                        // Live mask: tombstoned slots are skipped entirely.
                        let mut live: u64 = if width == CHUNK {
                            !0u64
                        } else {
                            (1u64 << width) - 1
                        };
                        for j in 0..width {
                            live &= !((mask(chunk_start + j) as u64) << j);
                        }
                        stats.evaluated += live.count_ones() as usize;

                        let mut accept = 0u64;
                        let mut reject = 0u64;
                        if prune && plans_active && live != 0 {
                            let mut reject2 = 0u64;
                            let mut pos = chunk_start;
                            let mut rr = run_idx;
                            while pos < chunk_end {
                                let run = bucket_runs[rr];
                                let interval_end = (run.end as usize).min(chunk_end);
                                let plan = plans[run.bucket as usize];
                                let offset = pos - chunk_start;
                                let len = interval_end - pos;
                                let bits = if len == CHUNK {
                                    !0u64
                                } else {
                                    ((1u64 << len) - 1) << offset
                                };
                                match plan.class {
                                    BoundClass::Accept => accept |= bits,
                                    BoundClass::Reject => reject |= bits,
                                    BoundClass::Undecided if plan.reject_below > 0 => {
                                        for (j, agg) in
                                            aggregates[pos..interval_end].iter().enumerate()
                                        {
                                            let stage2 =
                                                cascade.stage2_inter_ub(*agg) < plan.reject_below;
                                            reject2 |= (stage2 as u64) << (offset + j);
                                        }
                                    }
                                    BoundClass::Undecided => {}
                                }
                                pos = interval_end;
                                rr += ((run.end as usize) <= chunk_end) as usize;
                            }
                            accept &= live;
                            reject &= live;
                            reject2 &= live;
                            stats.bound_accepted += accept.count_ones() as usize;
                            stats.stage2_decided += reject2.count_ones() as usize;
                            reject |= reject2;
                            cutoff.count_pruned_n(stats, reject.count_ones() as usize);
                        }
                        // Keep the run cursor aligned even when the sweep
                        // was skipped for this chunk.
                        while run_idx < bucket_runs.len()
                            && (bucket_runs[run_idx].end as usize) <= chunk_end
                        {
                            run_idx += 1;
                        }
                        let undecided = live & !(accept | reject);
                        accept_words[c] = accept;
                        undecided_words[c] = undecided;
                        any_undecided |= undecided != 0;
                    }

                    // Phase 2 — stage 3 postings for the whole superchunk in
                    // one accumulation: eager under a postings-first plan,
                    // otherwise only when some chunk stayed undecided. The
                    // cursors resume where the previous superchunk stopped,
                    // so every postings list is walked at most once per scan
                    // regardless of chunking.
                    let acc_super = &mut acc[..super_end - super_start];
                    if any_undecided || postings_first {
                        acc_super.fill(0);
                        cursors.accumulate(super_start..super_end, acc_super);
                    }

                    // Phase 3 — delivery: accepts and exact resolutions
                    // interleave in ascending index order, exactly as a
                    // per-graph scan.
                    for (c, chunk_start) in (super_start..super_end).step_by(CHUNK).enumerate() {
                        let accept = accept_words[c];
                        let chunk_acc = &acc_super[chunk_start - super_start..];
                        let mut deliver = accept | undecided_words[c];
                        while deliver != 0 {
                            let j = deliver.trailing_zeros() as usize;
                            deliver &= deliver - 1;
                            let i = chunk_start + j;
                            if (accept >> j) & 1 == 1 {
                                sink.accept(id_of(i));
                                continue;
                            }
                            let agg = aggregates[i];
                            // A tightening bound may have moved since the
                            // superchunk's words were built; re-test this
                            // graph under the fresh bound so the swept scan
                            // books the same per-graph decisions as a scalar
                            // scan. Bounds only tighten, so the sweep-time
                            // rejections above stay valid.
                            if prune {
                                let bound = sink.bound();
                                let key = bound.map(f64::to_bits);
                                if words_key != Some(key) {
                                    if compiled_for != Some(key) {
                                        plans_active = cutoff
                                            .plan_buckets(bound, use_stage2, &tables, &mut plans);
                                        compiled_for = Some(key);
                                    }
                                    if plans_active {
                                        let plan = plans[agg.bucket as usize];
                                        match plan.class {
                                            BoundClass::Accept => {
                                                stats.bound_accepted += 1;
                                                sink.accept(id_of(i));
                                                continue;
                                            }
                                            BoundClass::Reject => {
                                                cutoff.count_pruned_n(stats, 1);
                                                continue;
                                            }
                                            BoundClass::Undecided => {
                                                if cascade.stage2_inter_ub(agg) < plan.reject_below
                                                {
                                                    stats.stage2_decided += 1;
                                                    cutoff.count_pruned_n(stats, 1);
                                                    continue;
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                            // Stage 3: classify from the exact accumulated
                            // intersection. Under compiled plans the
                            // cutoff's ϕ-space verdict is pre-translated
                            // into intersection thresholds (the ϕ table is
                            // non-increasing), so the common accept/reject
                            // outcomes cost three `u32` comparisons; only a
                            // posterior lookup needs ϕ itself, read from
                            // the bucket's table — which the accumulated
                            // intersection can never overrun, because
                            // `inter ≤ min(known(Q), |G|)`.
                            let inter = chunk_acc[j] as usize;
                            stats.postings_resolved += 1;
                            if prune && plans_active {
                                let plan = plans[agg.bucket as usize];
                                if inter >= plan.accept_from as usize {
                                    stats.threshold_accepts += 1;
                                    sink.accept(id_of(i));
                                    continue;
                                }
                                if inter >= plan.reject_lo as usize
                                    && inter < plan.reject_hi as usize
                                {
                                    continue;
                                }
                                let phi = tables[agg.bucket as usize][inter];
                                let extended_size = self.extended_size_for(agg.size as usize);
                                let posterior = lookup(stats, extended_size, phi);
                                sink.offer(id_of(i), posterior, cutoff.admits(posterior), stats);
                                continue;
                            }
                            let phi = if prune {
                                tables[agg.bucket as usize][inter]
                            } else {
                                cascade.phi_from_intersection(agg.size as usize, inter)
                            };
                            match cutoff.classify_phi(agg.bucket as usize, phi) {
                                BoundClass::Accept => {
                                    stats.threshold_accepts += 1;
                                    sink.accept(id_of(i));
                                }
                                BoundClass::Reject => {}
                                BoundClass::Undecided => {
                                    let extended_size = self.extended_size_for(agg.size as usize);
                                    let posterior = lookup(stats, extended_size, phi);
                                    sink.offer(
                                        id_of(i),
                                        posterior,
                                        cutoff.admits(posterior),
                                        stats,
                                    );
                                }
                            }
                        }
                    }
                    super_start = super_end;
                }
            }
            None => {
                // Merge path: ϕ from a full flat-run merge per graph.
                let query = self.query_flat.as_view();
                for i in range {
                    if mask(i) {
                        continue;
                    }
                    stats.evaluated += 1;
                    stats.merged += 1;
                    let extended_size = self.extended_size_for(self.segment.size_of(i));
                    let phi = match self.weight {
                        Some(w) => {
                            let value = query.weighted_gbd(self.segment.flat_view(i), w);
                            value.round().max(0.0) as u64
                        }
                        None => query.gbd(self.segment.flat_view(i)) as u64,
                    };
                    match cutoff.merge_classify_phi(self.segment.bucket_of(i), phi) {
                        BoundClass::Accept => {
                            stats.threshold_accepts += 1;
                            sink.accept(id_of(i));
                        }
                        BoundClass::Reject => unreachable!("merge scans never fast-reject"),
                        BoundClass::Undecided => {
                            let posterior = lookup(stats, extended_size, phi);
                            sink.offer(id_of(i), posterior, cutoff.admits(posterior), stats);
                        }
                    }
                }
            }
        }
    }
}
