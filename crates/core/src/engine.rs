//! The static view of the scan driver: [`QueryEngine`].
//!
//! The online stage itself — flatten, plan, cutoff, scan, book — is written
//! once, in the crate-private scan driver (`scan.rs`), which also owns the
//! posterior memo, the decision tables and the stage planner. A
//! [`QueryEngine`] is that driver pointed at an immutable
//! [`GraphDatabase`]: **one unmasked part** whose slots are their own ids.
//! ([`crate::DynamicEngine`] is the other view shape: a base part and a
//! delta part feeding one sink.) It offers
//!
//! * [`QueryEngine::search`] / [`QueryEngine::search_top_k`] /
//!   [`QueryEngine::search_streaming`] — one query, threshold, ranked or
//!   streamed, scanned on the calling thread,
//! * [`QueryEngine::reference_search`] / [`QueryEngine::top_k_reference`] —
//!   the seed-faithful sequential scans, kept as the equivalence baselines
//!   for tests and benchmarks.
//!
//! Per pair, the hot path depends on [`GbdaConfig::filter_cascade`]. With
//! the cascade on (the default), most graphs are resolved by the pruning
//! layer of [`crate::filter`]: whole size buckets are accepted or rejected
//! from the L1 size bound, per-graph aggregates refine the bound, and the
//! inverted-index count filter supplies the exact `ϕ` of the survivors —
//! without merging a single branch run. With the cascade off, every pair
//! pays one branchless merge over the flat interned branch runs, then a
//! single integer comparison against the per-size ϕ threshold or, when that
//! does not accept the graph or posterior recording was asked for, a
//! [`PosteriorCache`] lookup. All modes return bit-identical matches and
//! posteriors because every path evaluates the same
//! [`gbd_prob::posterior_ged_at_most`] on the same inputs, and the count
//! filter reproduces the merge's intersection exactly.

use std::sync::Arc;
use std::time::Instant;

use gbd_graph::{BranchMultiset, FlatBranchSet, Graph};
use gbd_prob::posterior_ged_at_most;

use crate::config::{GbdaConfig, GbdaVariant};
use crate::database::GraphDatabase;
use crate::filter::{RankDecision, SizeDecision};
use crate::kernel::{extended_size, CollectAll, Sink, Subscriber, TopKSink};
use crate::offline::OfflineIndex;
use crate::posterior_cache::PosteriorCache;
use crate::scan::{Mode, Rank, Scanner, Target, Threshold};
use crate::search::{SearchOutcome, SearchStats};
use crate::topk::{rank_by_posterior, RankedHit, TopKOutcome};

/// The GBDA query engine over an immutable database: database + offline
/// index + the scan driver (configuration and memo state).
pub struct QueryEngine<'a> {
    database: &'a GraphDatabase,
    index: &'a OfflineIndex,
    /// `|V'1|` override used by the GBDA-V1 variant.
    fixed_extended_size: Option<usize>,
    scanner: Scanner,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine. For the GBDA-V1 variant the average extended size
    /// is sampled here, once, exactly as the paper describes.
    pub fn new(database: &'a GraphDatabase, index: &'a OfflineIndex, config: GbdaConfig) -> Self {
        let scanner = Scanner::new(config);
        QueryEngine {
            database,
            index,
            fixed_extended_size: scanner
                .fixed_extended_size(|| (0..database.len()).map(|i| database.size_of(i)).collect()),
            scanner,
        }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &GbdaConfig {
        &self.scanner.config
    }

    /// The database scanned by this engine.
    pub fn database(&self) -> &GraphDatabase {
        self.database
    }

    /// The offline index backing the probabilistic model.
    pub fn index(&self) -> &OfflineIndex {
        self.index
    }

    /// The fixed `|V'1|` of the GBDA-V1 variant, if active.
    pub fn fixed_extended_size(&self) -> Option<usize> {
        self.fixed_extended_size
    }

    /// The shared posterior memo.
    pub fn posterior_cache(&self) -> &PosteriorCache {
        self.scanner.cache()
    }

    /// The branch distance fed into the model for one pair, honouring the
    /// GBDA-V2 variant (Equation 26). The value is rounded to the nearest
    /// integer ϕ because the model is defined over integer branch distances.
    ///
    /// This diagnostic path merges the stored multisets directly; scans use
    /// the flat interned runs via one per-query flatten instead.
    pub fn observed_phi(&self, query: &BranchMultiset, graph_index: usize) -> u64 {
        match self.config().variant {
            GbdaVariant::WeightedGbd { weight } => {
                let value = query.weighted_gbd(self.database.branches(graph_index), weight);
                value.round().max(0.0) as u64
            }
            _ => self.database.gbd_to(query, graph_index) as u64,
        }
    }

    fn observed_phi_flat(&self, query: &FlatBranchSet, graph_index: usize) -> u64 {
        match self.config().variant {
            GbdaVariant::WeightedGbd { weight } => {
                let value = query
                    .as_view()
                    .weighted_gbd(self.database.flat(graph_index), weight);
                value.round().max(0.0) as u64
            }
            _ => query.as_view().gbd(self.database.flat(graph_index)) as u64,
        }
    }

    /// The extended size `|V'1|` used for one pair, honouring GBDA-V1.
    fn extended_size(&self, query: &Graph, graph_index: usize) -> usize {
        let graph_size = self.database.size_of(graph_index);
        extended_size(self.fixed_extended_size, query.vertex_count(), graph_size)
    }

    /// The memoized posterior `Φ = Pr[GED ≤ τ̂ | GBD = ϕ]` for one
    /// `(|V'1|, ϕ)` key.
    pub fn posterior_value(&self, extended_size: usize, phi: u64) -> f64 {
        self.scanner
            .cache()
            .posterior(self.index, extended_size, phi)
    }

    /// The posterior `Φ = Pr[GED(Q, G_i) ≤ τ̂ | GBD]` for one database graph
    /// — what [`Self::search`] records for it, resolved on its own.
    pub fn posterior_of(&self, query: &Graph, graph_index: usize) -> f64 {
        let phi = self.observed_phi(&BranchMultiset::from_graph(query), graph_index);
        self.posterior_value(self.extended_size(query, graph_index), phi)
    }

    /// The accept/reject regions of the posterior for one extended size,
    /// computed once per engine from the memoized posterior and cached.
    ///
    /// The accepting prefix is the largest contiguous `{0, 1, …}` range
    /// whose posteriors all clear `γ`; the rejecting suffix is the largest
    /// contiguous tail up to `cap` whose posteriors all miss it. ϕ values
    /// between the regions (possible when `Φ` is non-monotone in ϕ) fall
    /// back to a memoized posterior compare, so the regions cannot change
    /// any result.
    pub fn size_decision(&self, extended_size: usize) -> SizeDecision {
        self.scanner
            .size_decision(self.index, extended_size, self.database.max_vertices())
    }

    /// The largest ϕ of the contiguous prefix `{0, 1, …}` whose posteriors
    /// all clear `γ`, for one extended size; `None` when ϕ = 0 already
    /// misses. Exploits that `Φ` decays in ϕ in practice: a scan can then
    /// accept `ϕ ≤ threshold` with a single integer comparison.
    pub fn phi_threshold(&self, extended_size: usize) -> Option<u64> {
        self.size_decision(extended_size).accept_max
    }

    /// The posterior suffix-maximum table for one extended size, computed
    /// once per engine from the memoized posterior and cached — the ranked
    /// counterpart of [`Self::size_decision`]. Ranked scans compare a
    /// graph's ϕ lower bound against this table under the running k-th-best
    /// posterior to reject graphs without resolving them.
    pub fn rank_decision(&self, extended_size: usize) -> Arc<RankDecision> {
        self.scanner
            .rank_decision(self.index, extended_size, self.database.max_vertices())
    }

    /// One driver run over the database as a single unmasked part whose
    /// slots are their own ids.
    fn scan<M: Mode, K: Sink<usize>>(
        &self,
        span: &'static str,
        query: &Graph,
        mode: M,
        sink: K,
    ) -> (K, SearchStats, f64) {
        let target = Target {
            span,
            index: self.index,
            fixed_extended_size: self.fixed_extended_size,
            max_vertices: self.database.max_vertices(),
            candidates: self.database.len(),
        };
        let flatten = |branches: &BranchMultiset| self.database.catalog().flatten_lookup(branches);
        self.scanner.run(target, query, flatten, mode, sink, |run| {
            run.part(self.database, |_| false, |slot| slot)
        })
    }

    /// Runs Algorithm 1 for one query graph.
    pub fn search(&self, query: &Graph) -> SearchOutcome {
        let sink = CollectAll::new(self.config().record_posteriors);
        let (sink, stats, seconds) = self.scan("engine.search", query, Threshold, sink);
        SearchOutcome {
            matches: sink.matches,
            posteriors: sink.posteriors,
            seconds,
            stats,
        }
    }

    /// Runs Algorithm 1 for one query, delivering hits to `on_match` as the
    /// (ascending-index) scan finds them instead of buffering a result set
    /// — the [`Subscriber`]-sink instantiation of the kernel. Fast-path
    /// accepts arrive with `None` (their posterior was never resolved);
    /// resolved hits carry `Some(Φ)`, and every hit carries one when
    /// [`GbdaConfig::record_posteriors`] is on. The delivered id set is
    /// exactly [`Self::search`]'s `matches`, in the same order.
    pub fn search_streaming<F>(&self, query: &Graph, on_match: F) -> SearchStats
    where
        F: FnMut(usize, Option<f64>),
    {
        let sink = Subscriber::new(on_match);
        self.scan("engine.search_streaming", query, Threshold, sink)
            .1
    }

    /// Runs a **ranked** query: the `k` database graphs with the highest
    /// posterior `Φ = Pr[GED ≤ τ̂ | GBD]`, best first.
    ///
    /// # Determinism
    ///
    /// Results are bit-identical to "scan every graph threshold-free, sort
    /// under [`crate::topk::rank_order`] — the canonical ranking total order
    /// — truncate to `k`" ([`Self::top_k_reference`]), for every variant
    /// and cascade mode, run-to-run. `γ` plays no role in ranked queries,
    /// and [`GbdaConfig::record_posteriors`] is ignored: the hits carry
    /// their posteriors, and no full posterior array is materialised.
    ///
    /// With the cascade on, the running k-th-best posterior of the heap is
    /// converted into a per-extended-size ϕ cutoff via the monotone
    /// posterior suffix-maximum tables ([`RankDecision`]) and fed back into
    /// the [`crate::FilterCascade`] bound stages — a dynamically
    /// *tightening* bound that rejects ever more graphs as better
    /// candidates accumulate.
    ///
    /// # Examples
    ///
    /// ```
    /// use gbd_graph::GeneratorConfig;
    /// use gbda_core::{GbdaConfig, GraphDatabase, OfflineIndex, QueryEngine};
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// let graphs = GeneratorConfig::new(12, 2.0).generate_many(30, &mut rng).unwrap();
    /// let query = graphs[0].clone();
    /// let database = GraphDatabase::from_graphs(graphs);
    /// let config = GbdaConfig::new(3, 0.8).with_sample_pairs(200);
    /// let index = OfflineIndex::build(&database, &config).unwrap();
    /// let engine = QueryEngine::new(&database, &index, config);
    ///
    /// let top = engine.search_top_k(&query, 5);
    /// assert_eq!(top.hits.len(), 5);
    /// assert!(top.hits.iter().any(|hit| hit.id == 0)); // the query itself ranks in its own top 5
    /// assert!(top.hits[0].posterior >= top.hits[4].posterior); // best first
    /// ```
    pub fn search_top_k(&self, query: &Graph, k: usize) -> TopKOutcome {
        if k == 0 {
            return TopKOutcome::default();
        }
        let (sink, stats, seconds) =
            self.scan("engine.search_top_k", query, Rank(k), TopKSink::new(k));
        TopKOutcome {
            hits: sink.into_sorted_hits(),
            seconds,
            stats,
        }
    }

    /// The sort-truncate reference for ranked queries: a threshold-free full
    /// scan (one flat merge and one memoized posterior per database graph),
    /// sorted under [`crate::topk::rank_order`], truncated to `k`.
    /// [`Self::search_top_k`] is proven bit-identical to this path by the
    /// workspace proptests; kept public as the equivalence baseline for
    /// tests and `bench_topk --check`.
    pub fn top_k_reference(&self, query: &Graph, k: usize) -> Vec<RankedHit> {
        let query_branches = BranchMultiset::from_graph(query);
        let query_flat = self.database.catalog().flatten_lookup(&query_branches);
        let posteriors: Vec<f64> = (0..self.database.len())
            .map(|i| {
                let phi = self.observed_phi_flat(&query_flat, i);
                self.posterior_value(self.extended_size(query, i), phi)
            })
            .collect();
        rank_by_posterior(&posteriors, k)
    }

    /// The seed-faithful sequential scan: branch-multiset merges and a fresh
    /// posterior evaluation per database graph, no memoization, no flat
    /// storage. Kept as the equivalence baseline for tests and
    /// the `online_syn` benchmark.
    pub fn reference_search(&self, query: &Graph) -> SearchOutcome {
        let started = Instant::now();
        let config = self.config();
        let query_branches = BranchMultiset::from_graph(query);
        let mut matches = Vec::new();
        let mut posteriors = Vec::with_capacity(self.database.len());
        for i in 0..self.database.len() {
            let phi = self.observed_phi(&query_branches, i);
            let extended_size = self.extended_size(query, i);
            let lambda1 = self.index.lambda1_table(extended_size);
            let ged_prior = self.index.ged_prior().column(extended_size);
            let gbd_prior = self.index.gbd_prior().probability(phi as usize);
            let posterior =
                posterior_ged_at_most(config.tau_hat, phi, &lambda1, &ged_prior, gbd_prior);
            posteriors.push(posterior);
            if posterior >= config.gamma {
                matches.push(i);
            }
        }
        SearchOutcome {
            matches,
            posteriors,
            seconds: started.elapsed().as_secs_f64(),
            stats: SearchStats {
                evaluated: self.database.len(),
                cache_misses: self.database.len(),
                merged: self.database.len(),
                ..SearchStats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_graph::known_ged::ModificationMode;
    use gbd_graph::{GeneratorConfig, KnownGedConfig, KnownGedFamily, LabelAlphabets};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn family_setup(tau_hat: u64) -> (KnownGedFamily, GraphDatabase, GbdaConfig) {
        let mut rng = StdRng::seed_from_u64(40);
        let base = GeneratorConfig::new(20, 2.4).with_alphabets(LabelAlphabets::new(8, 4));
        let cfg = KnownGedConfig::new(base, 10, 30, 10).with_mode(ModificationMode::RelabelEdges);
        let family = KnownGedFamily::generate(&cfg, &mut rng).unwrap();
        let graphs: Vec<_> = family.members().iter().map(|m| m.graph().clone()).collect();
        let database = GraphDatabase::from_graphs(graphs);
        let config = GbdaConfig::new(tau_hat, 0.5).with_sample_pairs(400);
        (family, database, config)
    }

    fn outcomes_identical(a: &SearchOutcome, b: &SearchOutcome) {
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.posteriors.len(), a.stats.evaluated);
        assert_eq!(a.posteriors.len(), b.posteriors.len());
        for (x, y) in a.posteriors.iter().zip(&b.posteriors) {
            assert_eq!(x.to_bits(), y.to_bits(), "posteriors diverge");
        }
    }

    #[test]
    fn engine_matches_the_seed_reference_path() {
        let (family, database, config) = family_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let engine = QueryEngine::new(&database, &index, config.with_record_posteriors(true));
        for q in 0..3 {
            let query = family.member_graph(q).clone();
            outcomes_identical(&engine.search(&query), &engine.reference_search(&query));
        }
    }

    #[test]
    fn memoization_collapses_the_scan_to_few_evaluations() {
        let (family, database, config) = family_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let engine = QueryEngine::new(&database, &index, config.with_record_posteriors(true));
        let query = family.member_graph(0).clone();
        let first = engine.search(&query);
        // Misses are bounded by |sizes| × (ϕ_max + 1), not by |D|.
        let bound =
            database.distinct_sizes().len() * (database.max_vertices() + query.vertex_count() + 1);
        assert!(first.stats.cache_misses <= bound);
        // A repeat scan is answered entirely from the memo.
        let second = engine.search(&query);
        assert_eq!(second.stats.cache_misses, 0);
        assert_eq!(second.stats.cache_hits, database.len());
        outcomes_identical(&first, &second);
    }

    #[test]
    fn threshold_fast_path_returns_identical_matches() {
        let (family, database, config) = family_setup(5);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let recording = QueryEngine::new(
            &database,
            &index,
            config.clone().with_record_posteriors(true),
        );
        let fast = QueryEngine::new(&database, &index, config.with_record_posteriors(false));
        for q in 0..4 {
            let query = family.member_graph(q).clone();
            let a = recording.search(&query);
            let b = fast.search(&query);
            assert_eq!(a.matches, b.matches, "fast path diverges on query {q}");
            assert!(b.posteriors.is_empty());
        }
        // The fast path actually exercises the integer comparison.
        let outcome = fast.search(family.member_graph(0));
        assert!(outcome.stats.threshold_accepts > 0);
    }

    #[test]
    fn phi_threshold_is_the_largest_accepting_prefix() {
        let (_, database, config) = family_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let gamma = config.gamma;
        let engine = QueryEngine::new(&database, &index, config);
        let size = database.max_vertices();
        match engine.phi_threshold(size) {
            Some(t) => {
                for phi in 0..=t {
                    assert!(engine.posterior_value(size, phi) >= gamma);
                }
                assert!(engine.posterior_value(size, t + 1) < gamma);
            }
            None => assert!(engine.posterior_value(size, 0) < gamma),
        }
    }

    /// A workload whose vertex counts are spread far enough apart that the
    /// L1 size bound genuinely rejects whole buckets.
    fn spread_setup(tau_hat: u64) -> (Vec<Graph>, GraphDatabase, GbdaConfig) {
        let mut rng = StdRng::seed_from_u64(91);
        let mut graphs = Vec::new();
        for size in [8usize, 16, 24, 32] {
            let cfg = GeneratorConfig::new(size, 2.2).with_alphabets(LabelAlphabets::new(6, 3));
            graphs.extend(cfg.generate_many(10, &mut rng).unwrap());
        }
        let queries: Vec<Graph> = (0..4).map(|i| graphs[i * 11].clone()).collect();
        let database = GraphDatabase::from_graphs(graphs);
        let config = GbdaConfig::new(tau_hat, 0.8).with_sample_pairs(300);
        (queries, database, config)
    }

    #[test]
    fn cascade_scan_is_bit_identical_to_the_merge_scan() {
        let (queries, database, config) = spread_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        for record in [true, false] {
            let with = QueryEngine::new(
                &database,
                &index,
                config.clone().with_record_posteriors(record),
            );
            let without = QueryEngine::new(
                &database,
                &index,
                config
                    .clone()
                    .with_record_posteriors(record)
                    .with_filter_cascade(false),
            );
            for (qi, query) in queries.iter().enumerate() {
                let a = with.search(query);
                let b = without.search(query);
                assert_eq!(a.matches, b.matches, "record={record}, query {qi}");
                let recorded = if record { a.stats.evaluated } else { 0 };
                assert_eq!(a.posteriors.len(), recorded, "record={record}, query {qi}");
                assert_eq!(b.posteriors.len(), recorded, "record={record}, query {qi}");
                for (x, y) in a.posteriors.iter().zip(&b.posteriors) {
                    assert_eq!(x.to_bits(), y.to_bits(), "record={record}, query {qi}");
                }
            }
        }
    }

    #[test]
    fn cascade_stages_account_for_every_graph_and_skip_all_merges() {
        let (queries, database, config) = spread_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let fast = QueryEngine::new(&database, &index, config.with_record_posteriors(false));
        let mut bound_rejections = 0;
        for query in &queries {
            let stats = fast.search(query).stats;
            assert_eq!(
                stats.bound_rejected
                    + stats.bound_accepted
                    + stats.postings_resolved
                    + stats.merged,
                stats.evaluated,
                "stage counters must partition the scan"
            );
            assert_eq!(stats.evaluated, database.len());
            assert_eq!(stats.merged, 0, "the cascade never merges");
            assert_eq!(stats.skipped_merges(), database.len());
            bound_rejections += stats.bound_rejected;
        }
        assert!(
            bound_rejections > 0,
            "spread sizes must trigger L1 bound rejections"
        );
    }

    #[test]
    fn disabled_cascade_merges_every_graph() {
        let (queries, database, config) = spread_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let engine = QueryEngine::new(&database, &index, config.with_filter_cascade(false));
        let stats = engine.search(&queries[0]).stats;
        assert_eq!(stats.merged, database.len());
        assert_eq!(stats.skipped_merges(), 0);
    }

    #[test]
    fn size_decisions_agree_with_the_memoized_posterior() {
        let (_, database, config) = spread_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let gamma = config.gamma;
        let engine = QueryEngine::new(&database, &index, config);
        for &size in database.distinct_sizes() {
            let decision = engine.size_decision(size);
            assert_eq!(decision.cap, database.max_vertices() as u64);
            for phi in 0..=decision.cap {
                let accepted = engine.posterior_value(size, phi) >= gamma;
                if decision.accepts(phi) {
                    assert!(accepted, "accepting prefix lies at size {size}, ϕ {phi}");
                }
                if decision.rejects(phi) {
                    assert!(!accepted, "rejecting suffix lies at size {size}, ϕ {phi}");
                }
            }
            assert_eq!(engine.phi_threshold(size), decision.accept_max);
        }
    }

    fn hits_identical(a: &[RankedHit], b: &[RankedHit]) {
        assert_eq!(a.len(), b.len(), "ranked result lengths diverge");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "ranked ids diverge");
            assert_eq!(
                x.posterior.to_bits(),
                y.posterior.to_bits(),
                "ranked posteriors diverge"
            );
        }
    }

    #[test]
    fn top_k_equals_the_sort_truncate_reference() {
        let (queries, database, config) = spread_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        for cascade in [true, false] {
            let engine = QueryEngine::new(
                &database,
                &index,
                config.clone().with_filter_cascade(cascade),
            );
            for (qi, query) in queries.iter().enumerate() {
                for k in [1usize, 5, database.len(), database.len() + 7] {
                    let top = engine.search_top_k(query, k);
                    let reference = engine.top_k_reference(query, k);
                    hits_identical(&top.hits, &reference);
                    assert_eq!(
                        top.hits.len(),
                        k.min(database.len()),
                        "cascade={cascade} q={qi}"
                    );
                    assert_eq!(top.stats.evaluated, database.len());
                }
            }
        }
    }

    #[test]
    fn rank_bound_tightens_and_rejects_on_spread_sizes() {
        let (queries, database, config) = spread_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let engine = QueryEngine::new(&database, &index, config);
        let mut rank_rejections = 0;
        for query in &queries {
            let stats = engine.search_top_k(query, 1).stats;
            assert_eq!(
                stats.rank_rejected + stats.postings_resolved + stats.merged,
                stats.evaluated,
                "ranked stage counters must partition the scan"
            );
            assert_eq!(stats.merged, 0, "the ranked cascade never merges");
            assert!(stats.heap_inserts >= 1);
            rank_rejections += stats.rank_rejected;
        }
        assert!(
            rank_rejections > 0,
            "spread sizes must trigger rank-bound rejections at k = 1"
        );
        // Without the cascade every graph is merged and none is rejected.
        let merge_engine = QueryEngine::new(
            &database,
            &index,
            engine.config().clone().with_filter_cascade(false),
        );
        let stats = merge_engine.search_top_k(&queries[0], 1).stats;
        assert_eq!(stats.merged, database.len());
        assert_eq!(stats.rank_rejected, 0);
    }

    #[test]
    fn top_k_ignores_gamma_and_recording() {
        let (queries, database, config) = spread_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let strict = QueryEngine::new(
            &database,
            &index,
            GbdaConfig {
                gamma: 0.9999,
                ..config.clone()
            }
            .with_record_posteriors(true),
        );
        let loose = QueryEngine::new(
            &database,
            &index,
            GbdaConfig {
                gamma: 0.0,
                ..config.clone()
            }
            .with_record_posteriors(false),
        );
        for query in &queries {
            hits_identical(
                &strict.search_top_k(query, 7).hits,
                &loose.search_top_k(query, 7).hits,
            );
        }
    }

    #[test]
    fn top_k_edge_cases_are_well_defined() {
        let (queries, database, config) = spread_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let engine = QueryEngine::new(&database, &index, config.clone());
        let zero = engine.search_top_k(&queries[0], 0);
        assert!(zero.hits.is_empty());
        assert_eq!(zero.stats.evaluated, 0, "k = 0 returns without scanning");
        let all = engine.search_top_k(&queries[0], database.len() + 100);
        assert_eq!(all.hits.len(), database.len());
        for pair in all.hits.windows(2) {
            assert!(
                crate::topk::rank_order(&pair[0], &pair[1]) != std::cmp::Ordering::Greater,
                "hits must be sorted best-first"
            );
        }
        // Databases of zero and one graph, scored with the index built above.
        let empty = GraphDatabase::from_graphs(Vec::new());
        let single = GraphDatabase::from_graphs(vec![queries[1].clone()]);
        for record in [true, false] {
            let config = config.clone().with_record_posteriors(record);
            let engine = QueryEngine::new(&empty, &index, config.clone());
            let outcome = engine.search(&queries[0]);
            assert!(outcome.matches.is_empty() && outcome.posteriors.is_empty());
            assert_eq!(outcome.stats.evaluated, 0);
            let mut streamed = 0;
            let stats = engine.search_streaming(&queries[0], |_, _| streamed += 1);
            assert_eq!((streamed, stats.evaluated), (0, 0));
            let top = engine.search_top_k(&queries[0], 3);
            assert!(top.hits.is_empty());
            assert_eq!(top.stats.evaluated, 0);

            let engine = QueryEngine::new(&single, &index, config);
            for query in &queries {
                let outcome = engine.search(query);
                let reference = engine.reference_search(query);
                assert_eq!(outcome.matches, reference.matches);
                if record {
                    outcomes_identical(&outcome, &reference);
                }
                assert_eq!(outcome.stats.evaluated, 1);
                let mut streamed = Vec::new();
                engine.search_streaming(query, |id, _| streamed.push(id));
                assert_eq!(streamed, outcome.matches);
                for k in [1usize, 3] {
                    let top = engine.search_top_k(query, k);
                    hits_identical(&top.hits, &engine.top_k_reference(query, k));
                    assert_eq!(top.stats.evaluated, 1);
                }
            }
        }
    }

    #[test]
    fn top_k_is_consistent_across_variants() {
        let (family, database, config) = family_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let variants = [
            GbdaVariant::Standard,
            GbdaVariant::AverageExtendedSize { sample_graphs: 5 },
            GbdaVariant::WeightedGbd { weight: 0.4 },
            GbdaVariant::WeightedGbd { weight: -0.3 },
        ];
        for variant in variants {
            let engine = QueryEngine::new(&database, &index, config.clone().with_variant(variant));
            let query = family.member_graph(0).clone();
            let top = engine.search_top_k(&query, 5);
            hits_identical(&top.hits, &engine.top_k_reference(&query, 5));
        }
    }

    #[test]
    fn variant_v1_uses_a_fixed_extended_size() {
        let (family, database, config) = family_setup(3);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let v1 = config
            .clone()
            .with_variant(GbdaVariant::AverageExtendedSize { sample_graphs: 5 })
            .with_record_posteriors(true);
        let engine = QueryEngine::new(&database, &index, v1);
        assert!(engine.fixed_extended_size().is_some());
        let outcome = engine.search(family.member_graph(1));
        assert_eq!(outcome.posteriors.len(), database.len());
        outcomes_identical(&outcome, &engine.reference_search(family.member_graph(1)));
    }

    #[test]
    fn variant_v2_changes_the_observed_distance() {
        let (family, database, config) = family_setup(3);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let standard = QueryEngine::new(&database, &index, config.clone());
        let v2 = QueryEngine::new(
            &database,
            &index,
            config
                .with_variant(GbdaVariant::WeightedGbd { weight: 0.1 })
                .with_record_posteriors(true),
        );
        let query = family.member_graph(0).clone();
        let branches = BranchMultiset::from_graph(&query);
        // With w = 0.1 the intersection barely counts, so the observed ϕ is
        // larger than the true GBD for the identical graph.
        assert!(v2.observed_phi(&branches, 0) > standard.observed_phi(&branches, 0));
        outcomes_identical(&v2.search(&query), &v2.reference_search(&query));
    }
}
