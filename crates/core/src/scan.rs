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
//!   mask and a slot → id map each, scanned in call order;
//! * one or more **lanes** — one sink, one stats block and one thread-local
//!   posterior memo each. Every part's slots are split into contiguous
//!   ranges, one per lane; the caller concatenates (or
//!   [`crate::topk::merge_ranked`]s) the sinks it gets back.
//!
//! The engines are the two view shapes over it: [`crate::QueryEngine`] scans
//! a `&GraphDatabase` as a single unmasked identity-id part over
//! `config.shards` lanes; the dynamic and concurrent engines scan a base
//! part and a [`crate::DeltaPrefix`] part (under the delta log's read guard)
//! in one lane, so one sink spans both.

use std::collections::HashMap;
use std::ops::Range;
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
    type Cutoff: Cutoff + Sync;

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

/// One lane of a run: a sink, its share of the counters, and the
/// thread-local memo in front of the shared [`PosteriorCache`] that keeps
/// the steady-state inner loop off every lock.
pub(crate) struct Lane<K> {
    sink: K,
    stats: SearchStats,
    memo: HashMap<(usize, u64), f64>,
}

/// How a part's slots reach a run's lanes: [`crate::kernel::scan_shards`]
/// (scoped threads; needs `Send` sinks) or [`inline`].
pub(crate) type Spread<K> = fn(usize, &mut [Lane<K>], &(dyn Fn(Range<usize>, &mut Lane<K>) + Sync));

/// Scans a part on the calling thread — for single-lane runs, whose sink
/// (a caller's streaming callback, say) need not be `Send`.
pub(crate) fn inline<L>(n: usize, lanes: &mut [L], scan: &(dyn Fn(Range<usize>, &mut L) + Sync)) {
    let [lane] = lanes else {
        panic!("an inline run has exactly one lane");
    };
    scan(0..n, lane);
}

/// One query in flight: the flattened query and the lanes its parts fill.
pub(crate) struct Run<'a, M, K> {
    scanner: &'a Scanner,
    target: Target<'a>,
    mode: M,
    query_flat: FlatBranchSet,
    query_size: usize,
    lanes: Vec<Lane<K>>,
}

impl<M: Mode, K> Run<'_, M, K> {
    /// Scans one part into the lanes. `mask(slot)` is `true` for tombstoned
    /// slots, `id_of(slot)` maps a slot to the sinks' id space. Per-graph
    /// results are independent of the neighbours, so skipping masked slots
    /// cannot change the survivors' values.
    ///
    /// Lane `j` takes the `j`-th contiguous range of every part, so sinks
    /// come back in ascending scan order when the run has one lane or one
    /// part — the two shapes the engines use. Ranked sinks rely on that
    /// order too: a heap's strict admission bound is only sound because a
    /// later candidate loses posterior ties against earlier kept hits.
    pub(crate) fn part<S, I>(
        &mut self,
        segment: &S,
        mask: impl Fn(usize) -> bool + Sync,
        id_of: impl Fn(usize) -> I + Sync,
        spread: Spread<K>,
    ) where
        S: SegmentIndex + Sync,
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
        let n = segment.segment_len();
        spread(n, &mut self.lanes, &|range, lane| {
            let Lane { sink, stats, memo } = lane;
            kernel.scan(
                range,
                &cutoff,
                sink,
                stats,
                &mask,
                &id_of,
                |stats, extended_size, phi| scanner.lookup(index, memo, stats, extended_size, phi),
            );
        });
        if let (Some(plan), true) = (plan, n > 0) {
            Planner::book(plan, &mut self.lanes[0].stats);
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

    /// Memoized posterior lookup through a lane's local memo in front of the
    /// shared cache, booking the hit or miss.
    fn lookup(
        &self,
        index: &OfflineIndex,
        memo: &mut HashMap<(usize, u64), f64>,
        stats: &mut SearchStats,
        extended_size: usize,
        phi: u64,
    ) -> f64 {
        let key = (extended_size, phi);
        if let Some(&posterior) = memo.get(&key) {
            stats.cache_hits += 1;
            return posterior;
        }
        let (posterior, hit) = self.cache.posterior_tracked(index, extended_size, phi);
        memo.insert(key, posterior);
        if hit {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
        }
        posterior
    }

    /// Runs one query: flattens it with `flatten`, lets `parts` scan the
    /// view's parts into one lane per sink, then books the totals with the
    /// planner and the telemetry registry. Returns the sinks in lane order,
    /// the run's stats (`shards` = lanes) and its wall-clock seconds.
    pub(crate) fn run<M: Mode, K>(
        &self,
        target: Target<'_>,
        query: &Graph,
        flatten: impl FnOnce(&BranchMultiset) -> FlatBranchSet,
        mode: M,
        sinks: Vec<K>,
        parts: impl FnOnce(&mut Run<'_, M, K>),
    ) -> (Vec<K>, SearchStats, f64) {
        let started = Instant::now();
        let _span = gbd_telemetry::Span::enter(target.span);
        let mut run = Run {
            scanner: self,
            target,
            mode,
            query_flat: flatten(&BranchMultiset::from_graph(query)),
            query_size: query.vertex_count(),
            lanes: sinks
                .into_iter()
                .map(|sink| Lane {
                    sink,
                    stats: SearchStats::default(),
                    memo: HashMap::new(),
                })
                .collect(),
        };
        let flatten_seconds = started.elapsed().as_secs_f64();
        let scan_started = Instant::now();
        parts(&mut run);
        let mut stats = SearchStats::default();
        let sinks: Vec<K> = run
            .lanes
            .into_iter()
            .map(|lane| {
                stats.absorb(&lane.stats);
                lane.sink
            })
            .collect();
        stats.shards = sinks.len();
        stats.flatten_seconds = flatten_seconds;
        stats.scan_seconds = scan_started.elapsed().as_secs_f64();
        if !self.config.force_fixed_pipeline {
            self.planner.observe(&stats);
        }
        let seconds = started.elapsed().as_secs_f64();
        crate::obs::record_search(&stats, seconds);
        (sinks, stats, seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::GraphDatabase;
    use crate::kernel::{scan_shards, CollectAll, TopKSink};
    use crate::topk::merge_ranked;
    use gbd_graph::{GeneratorConfig, LabelAlphabets};

    /// Sizes spread far enough apart that the bound stages decide graphs,
    /// and a copy of graph 13 at the very end so it matches in both halves.
    fn setup() -> (GraphDatabase, OfflineIndex, GbdaConfig) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut graphs = Vec::new();
        for size in [8usize, 16, 24, 32] {
            let generator =
                GeneratorConfig::new(size, 2.2).with_alphabets(LabelAlphabets::new(6, 3));
            graphs.extend(generator.generate_many(12, &mut rng).unwrap());
        }
        graphs.push(graphs[13].clone());
        let database = GraphDatabase::from_graphs(graphs);
        let config = GbdaConfig::new(4, 0.8).with_sample_pairs(300);
        let index = OfflineIndex::build(&database, &config).unwrap();
        (database, index, config)
    }

    /// One run over `database` as a single unmasked part, one lane per sink.
    fn run<M: Mode, K: Sink<usize> + Send>(
        scanner: &Scanner,
        (database, index): (&GraphDatabase, &OfflineIndex),
        query: &Graph,
        mode: M,
        sinks: Vec<K>,
    ) -> (Vec<K>, SearchStats) {
        let target = Target {
            span: "test.run",
            index,
            fixed_extended_size: None,
            max_vertices: database.max_vertices(),
            candidates: database.len(),
        };
        let flatten = |branches: &BranchMultiset| database.catalog().flatten_lookup(branches);
        let (sinks, stats, _) = scanner.run(target, query, flatten, mode, sinks, |run| {
            run.part(database, |_| false, |slot| slot, scan_shards)
        });
        (sinks, stats)
    }

    /// Two lanes over one part equal one lane: concatenated matches and
    /// posteriors in database order, `merge_ranked` hits, summed counters.
    #[test]
    fn two_lanes_over_one_part_equal_one_lane() {
        let (database, index, config) = setup();
        let view = (&database, &index);
        let query = database.graph(13).clone();
        for record in [true, false] {
            let config = config.clone().with_record_posteriors(record);
            // One scanner per lane count, with the same history: a warm-up
            // run fills the posterior memo (so no lane can miss) and feeds
            // both planners the same observation.
            let scan = |lanes: usize| {
                let scanner = Scanner::new(config.clone());
                run(
                    &scanner,
                    view,
                    &query,
                    Threshold,
                    vec![CollectAll::new(record)],
                );
                let sinks = (0..lanes).map(|_| CollectAll::new(record)).collect();
                let (sinks, stats) = run(&scanner, view, &query, Threshold, sinks);
                let ranked = (0..lanes).map(|_| TopKSink::new(5)).collect();
                let (ranked, ranked_stats) = run(&scanner, view, &query, Rank(5), ranked);
                (sinks, stats, ranked, ranked_stats)
            };
            let (one, one_stats, one_ranked, one_ranked_stats) = scan(1);
            let (two, two_stats, two_ranked, two_ranked_stats) = scan(2);

            let matches = |sinks: &[CollectAll<usize>]| -> Vec<usize> {
                sinks.iter().flat_map(|s| s.matches.clone()).collect()
            };
            let posteriors = |sinks: &[CollectAll<usize>]| -> Vec<u64> {
                let all = sinks.iter().flat_map(|s| s.posteriors.iter());
                all.map(|p| p.to_bits()).collect()
            };
            assert!(!matches(&one).is_empty());
            assert!(!two[0].matches.is_empty() && !two[1].matches.is_empty());
            assert!(two[0].matches.last() < two[1].matches.first(), "lane order");
            assert_eq!(matches(&two), matches(&one), "record={record}");
            assert_eq!(posteriors(&two), posteriors(&one), "record={record}");
            assert_eq!((one_stats.shards, two_stats.shards), (1, 2));
            assert_eq!(one_stats.cache_misses, 0, "the warm-up filled the memo");
            let comparable = |mut stats: SearchStats| {
                (stats.shards, stats.flatten_seconds, stats.scan_seconds) = (0, 0.0, 0.0);
                stats
            };
            assert_eq!(
                comparable(two_stats),
                comparable(one_stats),
                "summed counters"
            );

            let hits = |sinks: Vec<TopKSink<usize>>| {
                merge_ranked(sinks.into_iter().map(TopKSink::into_sorted_hits), 5)
            };
            assert_eq!(hits(two_ranked), hits(one_ranked), "record={record}");
            // Each lane's heap tightens on its own, so only the totals match.
            assert_eq!(two_ranked_stats.evaluated, one_ranked_stats.evaluated);
            assert_eq!(two_ranked_stats.stage_partition(), database.len());
        }
    }
}
