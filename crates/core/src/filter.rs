//! The candidate-pruning layer: a cascade of monotone GBD bounds plus the
//! inverted-index count filter.
//!
//! The online decision for one database graph `G` only needs the posterior
//! `Φ = Pr[GED ≤ τ̂ | GBD = ϕ]` compared against `γ`, and `Φ` depends on the
//! pair only through `(|V'1|, ϕ)`. Because the extended size is shared by
//! every graph in a size bucket, the whole decision collapses to "where does
//! ϕ fall inside this bucket's [`SizeDecision`]": an *accepting prefix*
//! `ϕ ≤ accept_max` and a *rejecting suffix* `ϕ ≥ reject_min`, both derived
//! from the same memoized posterior the exact path evaluates. A graph can
//! therefore be resolved from *bounds* on ϕ alone:
//!
//! 1. **L1 size bound** — `|B_Q ∩ B_G| ≤ min(known(Q), |G|)`, so
//!    `ϕ ≥ max(|Q|, |G|) − min(known(Q), |G|)`. Constant per size bucket:
//!    whole buckets are accepted or rejected with two comparisons.
//! 2. **Distinct-run bound** — at most `min(d_Q, d_G)` distinct branches can
//!    match, each at most `min(maxrun_Q, maxrun_G)` times. Per graph, still
//!    only aggregate reads.
//! 3. **Partial-intersection count filter** — walking the query's runs over
//!    the database's inverted postings accumulates the *exact*
//!    `|B_Q ∩ B_G|` for every graph in a range, so ϕ is known exactly
//!    without merging a single run pair.
//!
//! Every stage is conservative: a bound decides only when the entire
//! possible ϕ interval lands inside the accepting prefix or the rejecting
//! suffix, and the count filter reproduces the merge's intersection
//! bit-for-bit, so cascade results are identical to the exact scan.
//!
//! # Hardware-fast layout
//!
//! The stages read per-graph state through two cache-conscious structures:
//!
//! - **Packed aggregates** — [`SegmentIndex::aggregates`] exposes one
//!   16-byte [`GraphAggregate`] record per graph (size, bucket, distinct
//!   runs, max run multiplicity), so the stage-1/2 sweep streams one
//!   contiguous array instead of gathering from four parallel vectors.
//! - **Adaptive postings cursors** — [`PostingsCursors`] walks each query
//!   run's postings list with a monotone cursor that is *reused across
//!   sub-ranges* (a chunked scan does O(postings) total work, not a fresh
//!   binary search per chunk) and locates each range start adaptively: a
//!   few linear probes for runs dense in the range, exponential galloping
//!   plus binary search for runs whose postings dwarf the range width. The
//!   accumulated intersection is bit-identical to the linear reference walk
//!   ([`FilterCascade::intersections_linear`]) because `u32` addition is
//!   associative and each posting is visited exactly once.
//!
//! The per-query stage *planner* built on top of these lives in
//! [`planner`].

pub mod planner;

use std::ops::Range;

use gbd_graph::FlatBranchSet;

use crate::database::{BucketRun, GraphAggregate, GraphDatabase, Posting};
use crate::offline::OfflineIndex;
use crate::posterior_cache::PosteriorCache;

/// The slice of database structure the filter cascade reads, abstracted so
/// the same cascade code prunes any *segment*: the immutable base
/// [`GraphDatabase`] or the append-only delta segment of
/// [`crate::DynamicDatabase`]. Graph indices are segment-local.
pub trait SegmentIndex {
    /// The packed per-graph scan aggregates, one 16-byte record per graph
    /// in segment-local index order. This is the array the scan kernel's
    /// chunked stage-1/2 sweep streams; the per-graph accessors below are
    /// derived views of it.
    fn aggregates(&self) -> &[GraphAggregate];

    /// The maximal constant-bucket index intervals over
    /// [`Self::aggregates`], ascending and covering `0..segment_len`. The
    /// scan kernel's stage-1 sweep classifies each interval with one bucket
    /// plan lookup and a mask merge instead of a branch per graph; segments
    /// stored grouped by size (the common case) collapse to a handful of
    /// long runs.
    fn bucket_runs(&self) -> &[BucketRun];

    /// Number of graphs in the segment.
    fn segment_len(&self) -> usize {
        self.aggregates().len()
    }

    /// Vertex count of the segment's `i`-th graph.
    fn size_of(&self, i: usize) -> usize {
        self.aggregates()[i].size as usize
    }

    /// Number of distinct branch runs of the segment's `i`-th graph.
    fn distinct_runs(&self, i: usize) -> usize {
        self.aggregates()[i].runs as usize
    }

    /// Largest run multiplicity of the segment's `i`-th graph.
    fn max_run_count(&self, i: usize) -> u32 {
        self.aggregates()[i].max_run
    }

    /// Index of the `i`-th graph's vertex count in
    /// [`Self::distinct_sizes`] — its *size bucket*.
    fn bucket_of(&self, i: usize) -> usize {
        self.aggregates()[i].bucket as usize
    }

    /// The distinct vertex counts occurring in the segment, in a fixed
    /// order. `bucket_of` indexes into this slice; per-size cutoff tables
    /// are computed once per entry and shared by every graph in the bucket.
    fn distinct_sizes(&self) -> &[usize];

    /// The `(graph, count)` postings of one branch id, sorted by
    /// segment-local graph index. Ids the segment has never stored — the
    /// unknown sentinel, or ids interned after this segment was sealed —
    /// yield an empty list rather than a panic; that is what makes a query
    /// flattened against a *newer* catalog safe to run against an *older*
    /// segment.
    fn postings_of(&self, branch_id: u32) -> &[Posting];

    /// The flat branch runs of the segment's `i`-th graph — the merge-path
    /// fallback when the cascade is disabled.
    fn flat_view(&self, i: usize) -> gbd_graph::FlatBranchView<'_>;
}

impl SegmentIndex for GraphDatabase {
    fn aggregates(&self) -> &[GraphAggregate] {
        GraphDatabase::aggregates(self)
    }

    fn bucket_runs(&self) -> &[BucketRun] {
        GraphDatabase::bucket_runs(self)
    }

    fn distinct_sizes(&self) -> &[usize] {
        GraphDatabase::distinct_sizes(self)
    }

    fn postings_of(&self, branch_id: u32) -> &[Posting] {
        if (branch_id as usize) < self.catalog().len() {
            self.postings(branch_id)
        } else {
            &[]
        }
    }

    fn flat_view(&self, i: usize) -> gbd_graph::FlatBranchView<'_> {
        self.flat(i)
    }
}

/// Computes the accept/reject regions of the memoized posterior for one
/// extended size: the largest contiguous accepting prefix `{0, …}` whose
/// posteriors all clear `gamma` and the largest contiguous rejecting suffix
/// (up to `cap`) whose posteriors all miss it. Memoized by the scan driver
/// every engine runs on, so static and dynamic scans resolve graphs from
/// the *same* regions.
///
/// `cap` only bounds how far the regions extend — a ϕ beyond it always falls
/// back to a posterior comparison — so an over- or under-estimated cap can
/// never change a search result, only how often the fallback runs.
pub fn compute_size_decision(
    cache: &PosteriorCache,
    index: &OfflineIndex,
    gamma: f64,
    extended_size: usize,
    cap: u64,
) -> SizeDecision {
    let mut accept_max = None;
    for phi in 0..=cap {
        if cache.posterior(index, extended_size, phi) >= gamma {
            accept_max = Some(phi);
        } else {
            break;
        }
    }
    let mut reject_min = cap + 1;
    for phi in (0..=cap).rev() {
        // Mirror the scan's `posterior >= gamma` branch exactly, so a
        // NaN-producing model fault could never flip a decision.
        if cache.posterior(index, extended_size, phi) >= gamma {
            break;
        }
        reject_min = phi;
    }
    SizeDecision {
        extended_size,
        cap,
        accept_max,
        reject_min,
    }
}

/// Computes the ranked-query counterpart of [`compute_size_decision`]: the
/// suffix-maximum table of the memoized posterior for one extended size,
/// `suffix_max[ϕ] = max{Φ(ϕ') : ϕ ≤ ϕ' ≤ cap}`. Memoized by the scan driver
/// every engine runs on, so static and dynamic ranked scans prune from the
/// *same* table.
///
/// Unlike a [`SizeDecision`], which is fixed by `γ`, a [`RankDecision`]
/// accepts the bound at *query time* ([`RankDecision::rejects_from`],
/// [`RankDecision::cutoff`]): the running k-th-best posterior of a top-k heap
/// tightens as the scan proceeds, and the same table serves every value it
/// takes. No monotonicity of `Φ` in ϕ is assumed — the suffix maximum is
/// conservative by construction.
pub fn compute_rank_decision(
    cache: &PosteriorCache,
    index: &OfflineIndex,
    extended_size: usize,
    cap: u64,
) -> RankDecision {
    let mut suffix_max = vec![0.0f64; cap as usize + 1];
    let mut best = f64::NEG_INFINITY;
    for phi in (0..=cap).rev() {
        let posterior = cache.posterior(index, extended_size, phi);
        // `max` via total_cmp so a NaN-producing model fault propagates into
        // the table (making the bound unable to prune) instead of vanishing.
        if best.total_cmp(&posterior) == std::cmp::Ordering::Less {
            best = posterior;
        }
        suffix_max[phi as usize] = best;
    }
    RankDecision {
        extended_size,
        cap,
        suffix_max,
    }
}

/// The per-extended-size suffix-maximum table of the posterior used by
/// ranked (top-k) scans — see [`compute_rank_decision`].
///
/// A graph whose ϕ is known to be at least `lb` can reach a posterior of at
/// most `suffix_max[lb]`; once a top-k heap is full, any graph with
/// `suffix_max[lb] ≤ bound` (the running k-th-best posterior) can be
/// rejected without resolving ϕ or the posterior at all. ϕ values beyond
/// `cap` are not covered and always fall back to exact resolution, so an
/// under-estimated cap can never change a result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankDecision {
    /// The extended size `|V'1|` this table applies to.
    pub extended_size: usize,
    /// Largest ϕ the table covers.
    pub cap: u64,
    /// `suffix_max[ϕ] = max{Φ(ϕ') : ϕ ≤ ϕ' ≤ cap}`, non-increasing in ϕ.
    suffix_max: Vec<f64>,
}

impl RankDecision {
    /// The best posterior any ϕ in `[phi_lb, cap]` can reach, or `None` when
    /// `phi_lb` lies beyond the table's cap (nothing can be guaranteed).
    pub fn best_from(&self, phi_lb: u64) -> Option<f64> {
        self.suffix_max.get(phi_lb as usize).copied()
    }

    /// Returns `true` when a graph whose ϕ interval is `[phi_lb, phi_ub]`
    /// provably cannot **strictly beat** `bound` — the sound rejection test
    /// of a full top-k heap scanning in ascending id order, where an equal
    /// posterior already loses the tie-break (see
    /// [`crate::topk::TopKHeap::threshold`]).
    ///
    /// Conservative on both ends: `phi_ub` must not exceed the cap (a ϕ
    /// beyond the table could have any posterior) and the comparison uses
    /// the heap's own total order ([`f64::total_cmp`]) — not IEEE `<=` — so
    /// `-0.0` vs `0.0` (and a NaN-producing model fault) order identically
    /// on the pruning side and the admission side.
    pub fn rejects_from(&self, phi_lb: u64, phi_ub: u64, bound: f64) -> bool {
        debug_assert!(phi_lb <= phi_ub);
        if phi_ub > self.cap {
            return false;
        }
        match self.best_from(phi_lb) {
            Some(best) => best.total_cmp(&bound) != std::cmp::Ordering::Greater,
            None => false,
        }
    }

    /// The ϕ cutoff induced by `bound`: the smallest ϕ whose whole suffix
    /// (up to the cap) cannot strictly beat `bound`. Every graph whose ϕ
    /// interval lies inside `[cutoff, cap]` is rejected by
    /// [`Self::rejects_from`]; a tighter (larger) bound yields a smaller
    /// cutoff, rejecting more graphs. Returns `cap + 1` when even ϕ = cap
    /// could still beat the bound.
    ///
    /// This is the *diagnostic* form of the rejection rule — useful for
    /// inspecting how much a given bound prunes (the unit tests prove
    /// `rejects_from(lb, cap, b) ⟺ lb ≥ cutoff(b)`). Scans never call it:
    /// the bound tightens per admission, so the per-graph `O(1)` table read
    /// of [`Self::rejects_from`] beats re-deriving the cutoff by binary
    /// search.
    pub fn cutoff(&self, bound: f64) -> u64 {
        self.suffix_max
            .partition_point(|best| best.total_cmp(&bound) == std::cmp::Ordering::Greater)
            as u64
    }
}

/// The per-extended-size accept/reject regions of the posterior, shared by
/// every graph in a size bucket.
///
/// Built by `QueryEngine::size_decision` from the memoized posterior: the
/// accepting prefix is the largest `ϕ` range `{0, …, accept_max}` whose
/// posteriors all clear `γ`, the rejecting suffix is the smallest
/// `reject_min` such that every `ϕ ∈ [reject_min, cap]` misses `γ`. Values
/// between the two regions (possible when the posterior is non-monotone in
/// ϕ) always fall back to a memoized posterior comparison, so the regions
/// can never change a result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeDecision {
    /// The extended size `|V'1|` this decision applies to.
    pub extended_size: usize,
    /// Largest ϕ the decision covers; ϕ beyond `cap` is never classified.
    pub cap: u64,
    /// Largest ϕ of the contiguous accepting prefix (`None` when ϕ = 0
    /// already misses `γ`).
    pub accept_max: Option<u64>,
    /// Smallest ϕ of the contiguous rejecting suffix (`cap + 1` when even
    /// ϕ = cap clears `γ`).
    pub reject_min: u64,
}

impl SizeDecision {
    /// Returns `true` when `Φ(ϕ) ≥ γ` is guaranteed.
    pub fn accepts(&self, phi: u64) -> bool {
        matches!(self.accept_max, Some(t) if phi <= t)
    }

    /// Returns `true` when `Φ(ϕ) < γ` is guaranteed.
    pub fn rejects(&self, phi: u64) -> bool {
        phi >= self.reject_min && phi <= self.cap
    }

    /// Classifies a whole ϕ interval: `Some(true)` when every value in
    /// `[lb, ub]` is accepted, `Some(false)` when every value is rejected,
    /// `None` when the interval straddles a region boundary.
    pub fn classify_interval(&self, lb: u64, ub: u64) -> Option<bool> {
        debug_assert!(lb <= ub);
        if self.accepts(ub) {
            // The prefix is contiguous from 0, so accepting `ub` accepts all.
            Some(true)
        } else if lb >= self.reject_min && ub <= self.cap {
            Some(false)
        } else {
            None
        }
    }
}

/// Per-query pruning state: the query's flat runs plus the handful of
/// aggregates the bound stages read.
///
/// The cascade is variant-aware: for GBDA-V2 the observed distance is the
/// weighted `VGBD = max{|V1|, |V2|} − w · |B_Q ∩ B_G|` (Equation 26), which
/// is monotone in the intersection only for `w ≥ 0` — [`Self::bounds_usable`]
/// gates the bound stages accordingly, while the count filter stays exact
/// for any weight.
#[derive(Debug)]
pub struct FilterCascade<'a, S: SegmentIndex = GraphDatabase> {
    database: &'a S,
    query: &'a FlatBranchSet,
    /// `|Q|` — all query branches, unknowns included (what GBD divides on).
    query_total: usize,
    /// Query branches with a catalogued id (only these can intersect).
    query_known: usize,
    /// Number of distinct catalogued query runs.
    query_known_runs: usize,
    /// Largest multiplicity among the catalogued query runs.
    query_max_run: u32,
    /// `Some(w)` for GBDA-V2, `None` for the plain GBD.
    weight: Option<f64>,
}

impl<'a, S: SegmentIndex> FilterCascade<'a, S> {
    /// Builds the cascade state for one query (already flattened against the
    /// catalog the segment's runs are interned in — or any *extension* of
    /// it). `weight` is `Some` for the GBDA-V2 variant.
    pub fn new(database: &'a S, query: &'a FlatBranchSet, weight: Option<f64>) -> Self {
        let view = query.as_view();
        FilterCascade {
            database,
            query,
            query_total: view.len(),
            query_known: view.known_len(),
            query_known_runs: view.known_runs().len(),
            query_max_run: view.max_known_run_count(),
            weight,
        }
    }

    /// Whether the bound stages may be used: the observed distance must be
    /// monotone non-increasing in the intersection size. Always true for the
    /// plain GBD; true for the weighted variant only when `w ≥ 0`.
    pub fn bounds_usable(&self) -> bool {
        self.weight.is_none_or(|w| w >= 0.0)
    }

    /// The observed distance for a graph of `graph_total` vertices with
    /// intersection `inter` — exactly the arithmetic of
    /// [`gbd_graph::FlatBranchView::gbd`] / `weighted_gbd` plus the engine's
    /// rounding, so a value computed from the count filter is bit-identical
    /// to one computed from a merge.
    pub fn phi_from_intersection(&self, graph_total: usize, inter: usize) -> u64 {
        let max = self.query_total.max(graph_total);
        match self.weight {
            None => (max - inter) as u64,
            Some(w) => {
                let value = max as f64 - w * inter as f64;
                value.round().max(0.0) as u64
            }
        }
    }

    /// Stage 1 — the L1 size/total-count bound, constant over a size bucket:
    /// `(ϕ_lb, ϕ_ub)` for any graph with `graph_total` vertices.
    ///
    /// Only catalogued query branches can match, so
    /// `|B_Q ∩ B_G| ≤ min(known(Q), |G|)` and ϕ is at least the distance at
    /// that intersection; ϕ is at most the distance at intersection 0.
    pub fn size_bounds(&self, graph_total: usize) -> (u64, u64) {
        let inter_ub = self.query_known.min(graph_total);
        (
            self.phi_from_intersection(graph_total, inter_ub),
            self.phi_from_intersection(graph_total, 0),
        )
    }

    /// Stage 2's intersection upper bound for one packed aggregate record:
    /// at most `min(d_Q, d_G)` distinct branches can match, each
    /// contributing at most `min(maxrun_Q, maxrun_G)` copies, and never more
    /// than `min(known(Q), |G|)` in total. Computed in `u64` so the
    /// runs × per-run product cannot overflow; the result fits `u32` because
    /// it is capped by the graph's `u32` size.
    pub fn stage2_inter_ub(&self, agg: GraphAggregate) -> u32 {
        let runs = (self.query_known_runs as u64).min(agg.runs as u64);
        let per_run = (self.query_max_run as u64).min(agg.max_run as u64);
        (self.query_known as u64)
            .min(agg.size as u64)
            .min(runs * per_run) as u32
    }

    /// The ϕ value of every possible intersection for a graph of
    /// `graph_total` vertices: `table[inter] = ϕ(inter)` for
    /// `inter ∈ [0, min(known(Q), graph_total)]`. Non-increasing whenever
    /// [`Self::bounds_usable`] holds, so `table[0]` is the stage-1 upper
    /// bound and the last entry the stage-1 lower bound — the raw material
    /// the scan kernel's per-bucket plans are compiled from.
    pub fn phi_table(&self, graph_total: usize) -> Vec<u64> {
        let inter_max = self.query_known.min(graph_total);
        (0..=inter_max)
            .map(|inter| self.phi_from_intersection(graph_total, inter))
            .collect()
    }

    /// One ϕ table per size bucket of the segment, in
    /// [`SegmentIndex::distinct_sizes`] order.
    pub fn bucket_phi_tables(&self) -> Vec<Vec<u64>> {
        self.database
            .distinct_sizes()
            .iter()
            .map(|&size| self.phi_table(size))
            .collect()
    }

    /// Stage 2 — the distinct-run refinement for one graph. A thin per-graph
    /// view of [`Self::stage2_inter_ub`], so the scalar and chunked sweeps
    /// compute the same bound by construction.
    pub fn refined_bounds(&self, graph: usize) -> (u64, u64) {
        let agg = self.database.aggregates()[graph];
        let inter_ub = self.stage2_inter_ub(agg) as usize;
        (
            self.phi_from_intersection(agg.size as usize, inter_ub),
            self.phi_from_intersection(agg.size as usize, 0),
        )
    }

    /// Builds the resumable per-run cursors for stage 3. One set of cursors
    /// serves an entire ascending scan: feeding consecutive sub-ranges to
    /// [`PostingsCursors::accumulate`] walks every postings list exactly
    /// once in total, however the scan is chunked.
    pub fn cursors(&self) -> PostingsCursors<'a> {
        PostingsCursors {
            runs: self
                .query
                .runs()
                .iter()
                .map(|run| CursorRun {
                    postings: self.database.postings_of(run.id),
                    count: run.count,
                    pos: 0,
                })
                .collect(),
        }
    }

    /// Stage 3 — the count filter: walks the query's runs over the inverted
    /// postings and accumulates the **exact** multiset intersection
    /// `|B_Q ∩ B_G|` for every graph in `range` (indexed relative to
    /// `range.start`). Graphs sharing no branch with the query are never
    /// touched and keep intersection 0. Query runs the segment has no
    /// postings for — unknown branches, or ids interned after the segment
    /// was built — contribute nothing, exactly as in a merge.
    ///
    /// One-shot convenience over [`Self::cursors`]; a scan that visits many
    /// ranges should hold one [`PostingsCursors`] instead.
    pub fn intersections(&self, range: Range<usize>) -> Vec<u32> {
        let mut acc = vec![0u32; range.len()];
        self.cursors().accumulate(range, &mut acc);
        acc
    }

    /// The pre-adaptive reference implementation of [`Self::intersections`]:
    /// a fresh `partition_point` per run followed by a linear walk. Kept as
    /// the equivalence oracle for the adaptive kernel (property tests and
    /// `bench_scan_kernel --check` compare against it) and as the baseline
    /// the micro-bench times.
    pub fn intersections_linear(&self, range: Range<usize>) -> Vec<u32> {
        let mut acc = vec![0u32; range.len()];
        for run in self.query.runs() {
            let postings = self.database.postings_of(run.id);
            let lo = postings.partition_point(|p| (p.graph as usize) < range.start);
            for posting in &postings[lo..] {
                let graph = posting.graph as usize;
                if graph >= range.end {
                    break;
                }
                acc[graph - range.start] += run.count.min(posting.count);
            }
        }
        acc
    }

    /// The exact observed distance for one graph given its accumulated
    /// intersection from [`Self::intersections`].
    pub fn phi_exact(&self, graph: usize, intersection: u32) -> u64 {
        self.phi_from_intersection(self.database.size_of(graph), intersection as usize)
    }
}

/// How many in-order probes the cursor advance tries before switching to
/// galloping. Small enough that a dense run never pays a binary search to
/// move one or two postings forward, large enough that galloping only kicks
/// in when it saves real work.
const LINEAR_PROBES: usize = 8;

/// A run whose remaining postings exceed `GALLOP_DENSITY ×` the range width
/// is treated as *rare in range*: most of its postings lie outside the
/// range, so the cursor gallops straight to the range start instead of
/// probing linearly first.
const GALLOP_DENSITY: usize = 4;

/// One query run's resumable position in its postings list.
#[derive(Debug)]
struct CursorRun<'a> {
    postings: &'a [Posting],
    count: u32,
    pos: usize,
}

/// The adaptive stage-3 intersection kernel: per-run monotone cursors over
/// the query's postings lists, fed ascending, non-overlapping graph ranges.
///
/// Two properties make it fast without changing a single accumulated bit:
///
/// - **Cursor reuse** — each run remembers where the previous range left
///   off, so a scan split into chunks walks every postings list
///   exactly once in total. The old per-range `partition_point` from index 0
///   cost an extra `O(runs · log postings)` per sub-range.
/// - **Adaptive range location** — advancing a cursor to the next range
///   start uses up to `LINEAR_PROBES` in-order probes (the common dense
///   case: the next posting is adjacent), then exponential galloping plus a
///   binary search over the located window (the rare case: a long gap).
///   Runs whose remaining postings dwarf the range width
///   (`GALLOP_DENSITY`) skip the probes and gallop immediately.
///
/// Accumulation within the range is a plain linear walk — every posting in
/// range must be added exactly once, and `u32` addition commutes, so the
/// result is bit-identical to [`FilterCascade::intersections_linear`].
#[derive(Debug)]
pub struct PostingsCursors<'a> {
    runs: Vec<CursorRun<'a>>,
}

impl PostingsCursors<'_> {
    /// Accumulates the exact multiset intersection for every graph in
    /// `range` into `acc` (indexed relative to `range.start`, which must
    /// hold `range.len()` zero-initialized slots). Ranges must be fed in
    /// ascending, non-overlapping order — the cursors only move forward.
    pub fn accumulate(&mut self, range: Range<usize>, acc: &mut [u32]) {
        debug_assert_eq!(acc.len(), range.len());
        if range.is_empty() {
            return;
        }
        for run in &mut self.runs {
            let remaining = run.postings.len() - run.pos;
            let probe = remaining <= GALLOP_DENSITY.saturating_mul(range.len());
            let mut pos = advance(run.postings, run.pos, range.start, probe);
            while pos < run.postings.len() {
                let posting = run.postings[pos];
                let graph = posting.graph as usize;
                if graph >= range.end {
                    break;
                }
                acc[graph - range.start] += run.count.min(posting.count);
                pos += 1;
            }
            run.pos = pos;
        }
    }
}

/// Advances a cursor over a sorted postings list to the first posting with
/// `graph ≥ target`. With `probe` set, up to `LINEAR_PROBES` in-order
/// comparisons run first; either way the fallback is exponential galloping
/// (doubling steps from the current position) finished by a binary search
/// over the overshot window — `O(log gap)` instead of `O(gap)`.
pub(crate) fn advance(postings: &[Posting], mut pos: usize, target: usize, probe: bool) -> usize {
    if probe {
        let limit = (pos + LINEAR_PROBES).min(postings.len());
        while pos < limit {
            if postings[pos].graph as usize >= target {
                return pos;
            }
            pos += 1;
        }
    }
    if pos >= postings.len() || postings[pos].graph as usize >= target {
        return pos;
    }
    // Gallop: postings[pos] is still below the target, double the step until
    // the window [lo, lo + step] brackets it, then binary-search the window.
    let mut lo = pos;
    let mut step = 1usize;
    while lo + step < postings.len() && (postings[lo + step].graph as usize) < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(postings.len());
    lo + postings[lo..hi].partition_point(|p| (p.graph as usize) < target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_graph::{BranchMultiset, GeneratorConfig, Graph, LabelAlphabets};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (GraphDatabase, Vec<Graph>) {
        let mut rng = StdRng::seed_from_u64(77);
        let mut graphs = Vec::new();
        for size in [6usize, 9, 12] {
            let cfg = GeneratorConfig::new(size, 2.0).with_alphabets(LabelAlphabets::new(4, 3));
            graphs.extend(cfg.generate_many(8, &mut rng).unwrap());
        }
        // Queries from a different seed so some branches are unknown.
        let cfg = GeneratorConfig::new(10, 2.0).with_alphabets(LabelAlphabets::new(4, 3));
        let queries = cfg.generate_many(4, &mut rng).unwrap();
        (GraphDatabase::from_graphs(graphs), queries)
    }

    #[test]
    fn count_filter_reproduces_the_merge_intersection() {
        let (db, queries) = setup();
        for query in &queries {
            let multiset = BranchMultiset::from_graph(query);
            let flat = db.catalog().flatten_lookup(&multiset);
            let cascade = FilterCascade::new(&db, &flat, None);
            let acc = cascade.intersections(0..db.len());
            for (i, &acc_i) in acc.iter().enumerate() {
                let merged = flat.as_view().intersection_size(db.flat(i));
                assert_eq!(acc_i as usize, merged, "intersection diverges on {i}");
                assert_eq!(
                    cascade.phi_exact(i, acc_i),
                    flat.as_view().gbd(db.flat(i)) as u64,
                    "exact ϕ diverges on {i}"
                );
            }
        }
    }

    #[test]
    fn count_filter_respects_sub_ranges() {
        let (db, queries) = setup();
        let multiset = BranchMultiset::from_graph(&queries[0]);
        let flat = db.catalog().flatten_lookup(&multiset);
        let cascade = FilterCascade::new(&db, &flat, None);
        let full = cascade.intersections(0..db.len());
        for range in [0..5usize, 5..db.len(), 11..12, 3..3] {
            let partial = cascade.intersections(range.clone());
            assert_eq!(partial.len(), range.len());
            for (offset, value) in partial.iter().enumerate() {
                assert_eq!(*value, full[range.start + offset]);
            }
        }
    }

    #[test]
    fn bounds_sandwich_the_exact_distance() {
        let (db, queries) = setup();
        for weight in [None, Some(0.0), Some(0.4), Some(1.0)] {
            for query in &queries {
                let multiset = BranchMultiset::from_graph(query);
                let flat = db.catalog().flatten_lookup(&multiset);
                let cascade = FilterCascade::new(&db, &flat, weight);
                assert!(cascade.bounds_usable());
                let acc = cascade.intersections(0..db.len());
                for (i, &acc_i) in acc.iter().enumerate() {
                    let phi = cascade.phi_exact(i, acc_i);
                    let (lb1, ub1) = cascade.size_bounds(db.size_of(i));
                    let (lb2, ub2) = cascade.refined_bounds(i);
                    assert!(lb1 <= phi && phi <= ub1, "stage-1 bound violated on {i}");
                    assert!(lb2 <= phi && phi <= ub2, "stage-2 bound violated on {i}");
                    assert!(lb2 >= lb1, "stage 2 must refine stage 1");
                }
            }
        }
    }

    #[test]
    fn negative_weights_disable_the_bound_stages() {
        let (db, queries) = setup();
        let multiset = BranchMultiset::from_graph(&queries[0]);
        let flat = db.catalog().flatten_lookup(&multiset);
        let cascade = FilterCascade::new(&db, &flat, Some(-0.5));
        assert!(!cascade.bounds_usable());
        // The count filter stays exact regardless of the weight.
        let acc = cascade.intersections(0..db.len());
        for (i, &acc_i) in acc.iter().enumerate() {
            let expected = flat.as_view().weighted_gbd(db.flat(i), -0.5);
            assert_eq!(
                cascade.phi_exact(i, acc_i),
                expected.round().max(0.0) as u64
            );
        }
    }

    #[test]
    fn cascade_is_well_defined_on_an_empty_database() {
        let db = GraphDatabase::from_graphs(Vec::new());
        let query = BranchMultiset::from_graph(&{
            let mut rng = StdRng::seed_from_u64(3);
            GeneratorConfig::new(6, 1.8)
                .with_alphabets(LabelAlphabets::new(3, 2))
                .generate(&mut rng)
                .unwrap()
        });
        let flat = db.catalog().flatten_lookup(&query);
        let cascade = FilterCascade::new(&db, &flat, None);
        assert!(cascade.bounds_usable());
        assert!(cascade.intersections(0..0).is_empty());
        // Every query branch is unknown to an empty catalog, so the size
        // bound degenerates to "nothing can intersect".
        let (lb, ub) = cascade.size_bounds(0);
        assert_eq!(lb, ub);
        assert_eq!(ub, query.len() as u64);
    }

    #[test]
    fn cascade_is_exact_on_a_single_graph_database() {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = GeneratorConfig::new(8, 2.0).with_alphabets(LabelAlphabets::new(4, 3));
        let only = cfg.generate(&mut rng).unwrap();
        let query = cfg.generate(&mut rng).unwrap();
        let db = GraphDatabase::from_graphs(vec![only]);
        let multiset = BranchMultiset::from_graph(&query);
        let flat = db.catalog().flatten_lookup(&multiset);
        let cascade = FilterCascade::new(&db, &flat, None);
        let acc = cascade.intersections(0..1);
        assert_eq!(acc.len(), 1);
        assert_eq!(
            cascade.phi_exact(0, acc[0]),
            flat.as_view().gbd(db.flat(0)) as u64
        );
        let (lb1, ub1) = cascade.size_bounds(db.size_of(0));
        let (lb2, ub2) = cascade.refined_bounds(0);
        let phi = cascade.phi_exact(0, acc[0]);
        assert!(lb1 <= phi && phi <= ub1);
        assert!(lb2 <= phi && phi <= ub2);
        // Self-query: the exact ϕ is 0 and the bounds must allow it.
        let self_flat = db.catalog().flatten_graph(db.graph(0));
        let self_cascade = FilterCascade::new(&db, &self_flat, None);
        let self_acc = self_cascade.intersections(0..1);
        assert_eq!(self_cascade.phi_exact(0, self_acc[0]), 0);
        assert_eq!(self_cascade.refined_bounds(0).0, 0);
    }

    #[test]
    fn advance_agrees_with_partition_point_on_adversarial_shapes() {
        let shapes: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![7],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            vec![0, 1, 2, 10, 11, 100, 1000, 1001],
            vec![5, 5, 5], // duplicate graph ids cannot occur, but stay safe
            (0..200).collect(),
            (0..200).map(|g| g * 17).collect(),
        ];
        for graphs in shapes {
            let postings: Vec<Posting> = graphs
                .iter()
                .map(|&g| Posting { graph: g, count: 1 })
                .collect();
            for start in 0..=postings.len() {
                for target in 0..1100usize {
                    let expected =
                        start + postings[start..].partition_point(|p| (p.graph as usize) < target);
                    for probe in [false, true] {
                        // A cursor never sits past a posting below the
                        // target, so only starts at or before the answer
                        // are reachable states.
                        if start <= expected {
                            assert_eq!(
                                advance(&postings, start, target, probe),
                                expected,
                                "start {start}, target {target}, probe {probe}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cursors_match_the_linear_walk_over_any_chunking() {
        let (db, queries) = setup();
        for query in &queries {
            let multiset = BranchMultiset::from_graph(query);
            let flat = db.catalog().flatten_lookup(&multiset);
            let cascade = FilterCascade::new(&db, &flat, None);
            let full = cascade.intersections_linear(0..db.len());
            // Split the scan range at every boundary, including empty and
            // single-graph chunks, reusing one cursor set across chunks.
            for width in 1..=db.len() {
                let mut cursors = cascade.cursors();
                let mut acc = Vec::new();
                let mut start = 0;
                while start < db.len() {
                    let end = (start + width).min(db.len());
                    let mut chunk = vec![0u32; end - start];
                    cursors.accumulate(start..end, &mut chunk);
                    acc.extend_from_slice(&chunk);
                    start = end;
                }
                assert_eq!(acc, full, "chunk width {width}");
            }
        }
    }

    #[test]
    fn postings_of_is_total_over_any_branch_id() {
        let (db, queries) = setup();
        // In-range ids go to the CSR; unseen and sentinel ids are empty
        // rather than a panic — the segment-awareness the dynamic layer
        // relies on.
        assert!(db.postings_of(0).len() <= db.postings_len());
        assert!(db.postings_of(db.catalog().len() as u32).is_empty());
        assert!(db.postings_of(u32::MAX).is_empty());
        let _ = queries;
    }

    #[test]
    fn rank_decision_is_the_exact_suffix_maximum() {
        use crate::config::GbdaConfig;
        use crate::posterior_cache::PosteriorCache;

        let (db, _) = setup();
        let config = GbdaConfig::new(4, 0.8).with_sample_pairs(120);
        let index = crate::offline::OfflineIndex::build(&db, &config).unwrap();
        let cache = PosteriorCache::new(config.tau_hat);
        let cap = db.max_vertices() as u64;
        for &size in db.distinct_sizes() {
            let decision = compute_rank_decision(&cache, &index, size, cap);
            assert_eq!(decision.extended_size, size);
            assert_eq!(decision.cap, cap);
            for lb in 0..=cap {
                let expected = (lb..=cap)
                    .map(|phi| cache.posterior(&index, size, phi))
                    .fold(f64::NEG_INFINITY, f64::max);
                let best = decision.best_from(lb).unwrap();
                assert_eq!(best.to_bits(), expected.to_bits(), "size {size}, lb {lb}");
                // Every posterior in the suffix is really dominated.
                for phi in lb..=cap {
                    assert!(cache.posterior(&index, size, phi) <= best);
                }
            }
            assert_eq!(decision.best_from(cap + 1), None);
        }
    }

    #[test]
    fn rank_rejection_matches_the_cutoff_and_is_conservative() {
        use crate::config::GbdaConfig;
        use crate::posterior_cache::PosteriorCache;

        let (db, _) = setup();
        let config = GbdaConfig::new(4, 0.8).with_sample_pairs(120);
        let index = crate::offline::OfflineIndex::build(&db, &config).unwrap();
        let cache = PosteriorCache::new(config.tau_hat);
        let cap = db.max_vertices() as u64;
        let size = db.distinct_sizes()[0];
        let decision = compute_rank_decision(&cache, &index, size, cap);
        for bound in [0.0f64, 0.2, 0.5, 0.9, 1.0] {
            let cutoff = decision.cutoff(bound);
            assert!(cutoff <= cap + 1);
            for lb in 0..=cap {
                let rejected = decision.rejects_from(lb, cap, bound);
                assert_eq!(
                    rejected,
                    lb >= cutoff,
                    "bound {bound}, lb {lb}: rejection must equal the cutoff test"
                );
                if rejected {
                    // Nothing in the suffix can strictly beat the bound.
                    for phi in lb..=cap {
                        assert!(cache.posterior(&index, size, phi) <= bound);
                    }
                }
            }
            // A ϕ interval leaking past the cap is never rejected.
            assert!(!decision.rejects_from(0, cap + 1, 2.0));
        }
        // A tighter bound never rejects fewer graphs.
        assert!(decision.cutoff(0.9) <= decision.cutoff(0.1));
    }

    #[test]
    fn size_decision_classifies_intervals_conservatively() {
        let d = SizeDecision {
            extended_size: 10,
            cap: 10,
            accept_max: Some(2),
            reject_min: 6,
        };
        assert!(d.accepts(0) && d.accepts(2) && !d.accepts(3));
        assert!(d.rejects(6) && d.rejects(10) && !d.rejects(5) && !d.rejects(11));
        assert_eq!(d.classify_interval(0, 2), Some(true));
        assert_eq!(d.classify_interval(6, 10), Some(false));
        assert_eq!(d.classify_interval(2, 6), None); // straddles the gap
        assert_eq!(d.classify_interval(5, 5), None); // inside the gap
        assert_eq!(d.classify_interval(8, 11), None); // exceeds the cap
        let none = SizeDecision {
            extended_size: 10,
            cap: 10,
            accept_max: None,
            reject_min: 0,
        };
        assert!(!none.accepts(0));
        assert_eq!(none.classify_interval(0, 10), Some(false));
    }
}
