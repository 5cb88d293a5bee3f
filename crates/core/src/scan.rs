//! The one scan driver behind every engine: [`Scanner`].
//!
//! The paper's online stage is one operation — Algorithm 1 with the V1/V2
//! swaps of Section VII-D — and [`crate::kernel::ScanKernel::scan`] is its
//! per-graph loop. This module is everything *around* that loop, written
//! once: flatten the query, ask the planner for a per-part schedule, prepare
//! the cutoff, scan, book the plan, observe the stats, flush the telemetry.
//! A [`Scanner`] is the only owner of the posterior memo, the
//! `(extended_size, cap)`-keyed decision tables and the planner.
//!
//! One [`Scanner::run`] is generic (monomorphized) over
//!
//! * a **mode** ([`Mode`]) — [`Threshold`] prepares a [`StaticPhi`] cutoff
//!   from `γ` (sinks: [`crate::CollectAll`] or [`crate::Subscriber`]),
//!   [`Rank`] a [`TighteningRank`] cutoff from `k` (sink:
//!   [`crate::TopKSink`]);
//! * a list of **parts** ([`Run::part`]) — a [`SegmentIndex`], a tombstone
//!   mask and a slot → id map each, scanned in call order on the calling
//!   thread into the run's one sink, one stats block and one local
//!   posterior memo.
//!
//! The engines are the two view shapes over it: [`crate::QueryEngine`] scans
//! a `&GraphDatabase` as a single unmasked identity-id part; the dynamic and
//! concurrent engines scan a base part and a [`crate::DeltaPrefix`] part
//! (under the delta log's read guard), so one sink spans both.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use gbd_graph::{BranchMultiset, FlatBranchSet, Graph};

use crate::config::{GbdaConfig, GbdaVariant};
use crate::filter::planner::{Planner, QueryPlan};
use crate::filter::{
    compute_rank_decision, compute_size_decision, RankDecision, SegmentIndex, SizeDecision,
};
use crate::kernel::{Cutoff, ScanKernel, Sink, StaticPhi, TighteningRank};
use crate::offline::OfflineIndex;
use crate::posterior_cache::PosteriorCache;
use crate::search::SearchStats;

/// Configuration plus every memo a scan consults. All of it is internally
/// synchronized and independent of *what* is scanned, so one scanner serves
/// concurrent searches over different [`crate::Generation`]s: decision
/// tables are keyed by the view-dependent vertex cap, and the planner only
/// reroutes cascade stages, which never changes results.
pub(crate) struct Scanner {
    pub(crate) config: GbdaConfig,
    cache: PosteriorCache,
    /// Accept/reject regions of the posterior per `(extended size, cap)`.
    decisions: RwLock<HashMap<(usize, u64), SizeDecision>>,
    /// Posterior suffix-maximum tables per `(extended size, cap)`.
    rank_decisions: RwLock<HashMap<(usize, u64), Arc<RankDecision>>>,
    /// Consulted once per part (a big base and a small delta usually deserve
    /// different schedules), fed every finished run's stats.
    planner: Planner,
}

/// One decision table's entry for `key`, computed outside the lock on first
/// use (a racing thread computes the same deterministic value).
fn memoized<V: Clone>(
    table: &RwLock<HashMap<(usize, u64), V>>,
    key: (usize, u64),
    compute: impl FnOnce() -> V,
) -> V {
    if let Some(value) = table.read().get(&key) {
        return value.clone();
    }
    let value = compute();
    table.write().entry(key).or_insert(value).clone()
}

/// What one run scans *for*: everything about the view that is not a part.
pub(crate) struct Target<'a> {
    /// Name of the telemetry span covering the run.
    pub(crate) span: &'static str,
    pub(crate) index: &'a OfflineIndex,
    /// `|V'1|` override of the GBDA-V1 variant.
    pub(crate) fixed_extended_size: Option<usize>,
    /// Upper bound on the view's maximum vertex count. It only caps how far
    /// the decision tables extend, so an overestimate costs memo entries,
    /// never correctness.
    pub(crate) max_vertices: usize,
    /// Graphs competing for a ranked run's `k` slots — the whole live set,
    /// not one part.
    pub(crate) candidates: usize,
}

/// The cutoff policy of a run, prepared once per part.
pub(crate) trait Mode {
    type Cutoff: Cutoff;

    fn prepare<S: SegmentIndex>(
        &self,
        scanner: &Scanner,
        target: &Target<'_>,
        kernel: &ScanKernel<'_, S>,
    ) -> Self::Cutoff;
}

/// Algorithm 1: the static threshold `γ` of the scanner's configuration.
pub(crate) struct Threshold;

impl Mode for Threshold {
    type Cutoff = StaticPhi;

    fn prepare<S: SegmentIndex>(
        &self,
        scanner: &Scanner,
        target: &Target<'_>,
        kernel: &ScanKernel<'_, S>,
    ) -> StaticPhi {
        let config = &scanner.config;
        StaticPhi::prepare(
            kernel,
            config.gamma,
            config.record_posteriors,
            |extended_size| scanner.size_decision(target.index, extended_size, target.max_vertices),
        )
    }
}

/// A ranked query for the best `k`; `γ` and posterior recording play no role.
pub(crate) struct Rank(pub(crate) usize);

impl Mode for Rank {
    type Cutoff = TighteningRank;

    fn prepare<S: SegmentIndex>(
        &self,
        scanner: &Scanner,
        target: &Target<'_>,
        kernel: &ScanKernel<'_, S>,
    ) -> TighteningRank {
        // With `k ≥ candidates` no heap can ever fill, so no table is built.
        TighteningRank::prepare(kernel, self.0, target.candidates, |extended_size| {
            scanner.rank_decision(target.index, extended_size, target.max_vertices)
        })
    }
}

/// One query in flight: the flattened query, the sink its parts fill, the
/// run's counters, and the run-local memo in front of the shared
/// [`PosteriorCache`] that keeps the steady-state inner loop off every lock.
pub(crate) struct Run<'a, M, K> {
    scanner: &'a Scanner,
    target: Target<'a>,
    mode: M,
    query_flat: FlatBranchSet,
    query_size: usize,
    sink: K,
    stats: SearchStats,
    memo: PosteriorMemo,
}

/// A run's local posterior memo: one row per extended size the run met,
/// indexed by ϕ, so a repeated key costs two indexings instead of a hash.
///
/// A query meets few extended sizes (every graph no larger than the query
/// shares the query's), so rows are found by a linear search over the
/// sizes: a huge `|V'1|` costs one row, never `|V'1|` slots. A row grows
/// only to the largest ϕ looked up in it. An empty slot is `None`, not a
/// NaN, because a model fault can produce a NaN posterior.
///
/// The GBD is bounded by the larger vertex count, but GBDA-V2's
/// `max − w·|∩|` is not: a weight far below zero drives ϕ to any size, up
/// to `u64::MAX` at `w = −∞`. Rows therefore only cover
/// `ϕ ≤ 2·|V'1| + 16` (the slack absorbs GBDA-V1's fixed `|V'1|` sitting
/// below a graph's own size); a key past that has no slot.
#[derive(Default)]
struct PosteriorMemo {
    sizes: Vec<usize>,
    rows: Vec<Vec<Option<f64>>>,
}

impl PosteriorMemo {
    /// The slot of `(extended_size, phi)`, grown into the memo if new, or
    /// `None` when ϕ is past the row's dense range.
    fn slot(&mut self, extended_size: usize, phi: u64) -> Option<&mut Option<f64>> {
        let limit = (extended_size as u64).saturating_mul(2).saturating_add(16);
        if phi > limit {
            return None;
        }
        let phi = usize::try_from(phi).ok()?;
        let row = match self.sizes.iter().position(|&size| size == extended_size) {
            Some(row) => row,
            None => {
                self.sizes.push(extended_size);
                self.rows.push(Vec::new());
                self.rows.len() - 1
            }
        };
        let row = &mut self.rows[row];
        if phi >= row.len() {
            row.resize(phi + 1, None);
        }
        Some(&mut row[phi])
    }
}

impl<M: Mode, K> Run<'_, M, K> {
    /// Scans one part into the sink. `mask(slot)` is `true` for tombstoned
    /// slots, `id_of(slot)` maps a slot to the sink's id space. Per-graph
    /// results are independent of the neighbours, so skipping masked slots
    /// cannot change the survivors' values.
    ///
    /// Slots are scanned in ascending order, part after part. Ranked sinks
    /// rely on that order: a heap's strict admission bound is only sound
    /// because a later candidate loses posterior ties against earlier kept
    /// hits.
    pub(crate) fn part<S, I>(
        &mut self,
        segment: &S,
        mask: impl Fn(usize) -> bool,
        id_of: impl Fn(usize) -> I,
    ) where
        S: SegmentIndex,
        I: Copy,
        K: Sink<I>,
    {
        let scanner = self.scanner;
        let index = self.target.index;
        let plan = (!scanner.config.force_fixed_pipeline)
            .then(|| scanner.planner.plan_for(segment, &self.query_flat));
        let kernel = ScanKernel::new(
            segment,
            &self.query_flat,
            self.query_size,
            self.target.fixed_extended_size,
            scanner.weight(),
            scanner.config.filter_cascade,
            plan.unwrap_or_else(QueryPlan::fixed),
        );
        let cutoff = self.mode.prepare(scanner, &self.target, &kernel);
        let memo = &mut self.memo;
        kernel.scan(
            &cutoff,
            &mut self.sink,
            &mut self.stats,
            mask,
            id_of,
            |stats, extended_size, phi| scanner.lookup(index, memo, stats, extended_size, phi),
        );
        if let (Some(plan), true) = (plan, segment.segment_len() > 0) {
            Planner::book(plan, &mut self.stats);
        }
    }
}

impl Scanner {
    /// Applies `config.telemetry` via [`gbd_telemetry::escalate_level`], on
    /// behalf of every engine constructor.
    pub(crate) fn new(config: GbdaConfig) -> Self {
        gbd_telemetry::escalate_level(config.telemetry);
        Scanner {
            cache: PosteriorCache::new(config.tau_hat),
            decisions: RwLock::new(HashMap::new()),
            rank_decisions: RwLock::new(HashMap::new()),
            planner: Planner::new(),
            config,
        }
    }

    pub(crate) fn cache(&self) -> &PosteriorCache {
        &self.cache
    }

    /// The GBDA-V1 fixed `|V'1|` — shuffle the live graphs' positions with
    /// the variant's derived seed, take `sample_graphs`, average their
    /// vertex counts — or `None` for the other variants. `vertex_counts`
    /// lists the live graphs in canonical order, which is what makes every
    /// engine over the same live set draw the same sample.
    pub(crate) fn fixed_extended_size(
        &self,
        vertex_counts: impl FnOnce() -> Vec<usize>,
    ) -> Option<usize> {
        let GbdaVariant::AverageExtendedSize { sample_graphs } = self.config.variant else {
            return None;
        };
        let vertex_counts = vertex_counts();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xA1FA);
        let mut indices: Vec<usize> = (0..vertex_counts.len()).collect();
        indices.shuffle(&mut rng);
        let sample: Vec<usize> = indices.into_iter().take(sample_graphs.max(1)).collect();
        let avg =
            sample.iter().map(|&i| vertex_counts[i]).sum::<usize>() as f64 / sample.len() as f64;
        Some(avg.round().max(1.0) as usize)
    }

    /// The GBDA-V2 weight, `None` for the other variants.
    fn weight(&self) -> Option<f64> {
        match self.config.variant {
            GbdaVariant::WeightedGbd { weight } => Some(weight),
            _ => None,
        }
    }

    /// The memoized accept/reject regions of the posterior for one extended
    /// size, capped by `max_vertices` (see [`Target::max_vertices`]).
    pub(crate) fn size_decision(
        &self,
        index: &OfflineIndex,
        extended_size: usize,
        max_vertices: usize,
    ) -> SizeDecision {
        let cap = max_vertices.max(extended_size) as u64;
        memoized(&self.decisions, (extended_size, cap), || {
            compute_size_decision(&self.cache, index, self.config.gamma, extended_size, cap)
        })
    }

    /// The ranked counterpart of [`Self::size_decision`]: the memoized
    /// posterior suffix-maximum table for one extended size.
    pub(crate) fn rank_decision(
        &self,
        index: &OfflineIndex,
        extended_size: usize,
        max_vertices: usize,
    ) -> Arc<RankDecision> {
        let cap = max_vertices.max(extended_size) as u64;
        memoized(&self.rank_decisions, (extended_size, cap), || {
            Arc::new(compute_rank_decision(
                &self.cache,
                index,
                extended_size,
                cap,
            ))
        })
    }

    /// Memoized posterior lookup through a run's local memo in front of the
    /// shared cache, booking the hit or miss. A key the memo has no slot for
    /// goes to the shared cache every time, which books a repeat as the same
    /// hit the memo would.
    fn lookup(
        &self,
        index: &OfflineIndex,
        memo: &mut PosteriorMemo,
        stats: &mut SearchStats,
        extended_size: usize,
        phi: u64,
    ) -> f64 {
        let slot = memo.slot(extended_size, phi);
        if let Some(&Some(posterior)) = slot.as_deref() {
            stats.cache_hits += 1;
            return posterior;
        }
        let (posterior, hit) = self.cache.posterior_tracked(index, extended_size, phi);
        if let Some(slot) = slot {
            *slot = Some(posterior);
        }
        if hit {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
        }
        posterior
    }

    /// Runs one query: flattens it with `flatten`, lets `parts` scan the
    /// view's parts into `sink`, then books the totals with the planner and
    /// the telemetry registry. Returns the sink, the run's stats and its
    /// wall-clock seconds.
    pub(crate) fn run<M: Mode, K>(
        &self,
        target: Target<'_>,
        query: &Graph,
        flatten: impl FnOnce(&BranchMultiset) -> FlatBranchSet,
        mode: M,
        sink: K,
        parts: impl FnOnce(&mut Run<'_, M, K>),
    ) -> (K, SearchStats, f64) {
        let started = Instant::now();
        let _span = gbd_telemetry::Span::enter(target.span);
        let mut run = Run {
            scanner: self,
            target,
            mode,
            query_flat: flatten(&BranchMultiset::from_graph(query)),
            query_size: query.vertex_count(),
            sink,
            stats: SearchStats::default(),
            memo: PosteriorMemo::default(),
        };
        let flatten_seconds = started.elapsed().as_secs_f64();
        let scan_started = Instant::now();
        parts(&mut run);
        let Run {
            sink, mut stats, ..
        } = run;
        stats.flatten_seconds = flatten_seconds;
        stats.scan_seconds = scan_started.elapsed().as_secs_f64();
        if !self.config.force_fixed_pipeline {
            self.planner.observe(&stats);
        }
        let seconds = started.elapsed().as_secs_f64();
        crate::obs::record_search(&stats, seconds);
        (sink, stats, seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::GraphDatabase;
    use gbd_graph::{GeneratorConfig, LabelAlphabets};

    #[test]
    fn dense_memo_returns_the_shared_caches_bits_and_books_the_same_hits_and_misses() {
        let mut rng = StdRng::seed_from_u64(8);
        let graphs = GeneratorConfig::new(10, 2.0)
            .with_alphabets(LabelAlphabets::new(5, 3))
            .generate_many(12, &mut rng)
            .unwrap();
        let database = GraphDatabase::from_graphs(graphs);
        let config = GbdaConfig::new(4, 0.8).with_sample_pairs(60);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let scanner = Scanner::new(config.clone());
        let direct = PosteriorCache::new(config.tau_hat);

        // Repeated keys, two interleaved extended sizes, a ϕ that keeps
        // growing past each row's end, and one huge extended size.
        let mut keys = Vec::new();
        for phi in 0..12u64 {
            keys.extend([(10, phi), (12, phi / 2), (10, phi / 3)]);
        }
        keys.extend([(1 << 20, 3), (12, 40), (1 << 20, 3), (10, 0), (1 << 20, 0)]);
        // GBDA-V2 ϕs past the dense range: w = −1e6 over 100 shared branches,
        // and the saturated ϕ of w = −∞. Each is asked twice.
        for _ in 0..2 {
            keys.extend([
                (10, 100_000_010),
                (12, 41),
                (10, u64::MAX),
                (1 << 20, u64::MAX),
            ]);
        }

        let mut memo = PosteriorMemo::default();
        let mut stats = SearchStats::default();
        let (mut hits, mut misses) = (0, 0);
        for &(extended_size, phi) in &keys {
            let got = scanner.lookup(&index, &mut memo, &mut stats, extended_size, phi);
            let (expected, hit) = direct.posterior_tracked(&index, extended_size, phi);
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "|V'1| = {extended_size}, ϕ = {phi}"
            );
            if hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        assert_eq!((stats.cache_hits, stats.cache_misses), (hits, misses));
        assert_eq!(scanner.cache().len(), direct.len());
        assert_eq!(memo.sizes, [10, 12, 1 << 20]);
        let row_lens: Vec<usize> = memo.rows.iter().map(Vec::len).collect();
        assert_eq!(row_lens, [12, 41, 4], "a row grows to its largest ϕ only");
    }

    /// A GBDA-V2 weight far below zero drives ϕ past every dense row; the
    /// scans still return the reference bits without growing a row to ϕ.
    #[test]
    fn huge_v2_phis_bypass_the_dense_memo_and_keep_the_reference_bits() {
        let mut rng = StdRng::seed_from_u64(9);
        let graphs = GeneratorConfig::new(10, 2.0)
            .with_alphabets(LabelAlphabets::new(3, 2))
            .generate_many(12, &mut rng)
            .unwrap();
        let database = GraphDatabase::from_graphs(graphs);
        for weight in [-1e6, f64::NEG_INFINITY] {
            let config = GbdaConfig::new(4, 0.8)
                .with_sample_pairs(60)
                .with_variant(GbdaVariant::WeightedGbd { weight })
                .with_record_posteriors(true);
            let index = OfflineIndex::build(&database, &config).unwrap();
            let engine = crate::QueryEngine::new(&database, &index, config);
            for q in 0..database.len() {
                let query = database.graph(q);
                let got = engine.search(query);
                let expected = engine.reference_search(query);
                assert_eq!(got.matches, expected.matches, "w = {weight}, query {q}");
                assert_eq!(got.posteriors.len(), got.stats.evaluated);
                assert_eq!(got.posteriors.len(), expected.posteriors.len());
                for (a, b) in got.posteriors.iter().zip(&expected.posteriors) {
                    assert_eq!(a.to_bits(), b.to_bits(), "w = {weight}, query {q}");
                }
                let ranked = engine.search_top_k(query, 3).hits;
                let reference = engine.top_k_reference(query, 3);
                let bits = |hits: &[crate::RankedHit]| -> Vec<(usize, u64)> {
                    hits.iter().map(|h| (h.id, h.posterior.to_bits())).collect()
                };
                assert_eq!(bits(&ranked), bits(&reference), "w = {weight}, query {q}");
            }
        }
    }
}
