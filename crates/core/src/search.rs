//! The online querying stage — Algorithm 1 (GBDA).
//!
//! For each database graph `G`:
//!
//! 1. compute `GBD(Q, G)` from the pre-computed flat branch runs (`O(nd)`),
//! 2. evaluate `Φ = Pr[GED(Q, G) ≤ τ̂ | GBD(Q, G) = ϕ]
//!    = Σ_τ Λ1(Q', G'; τ, ϕ) · Λ3(τ) / Λ2(ϕ)` — memoized per
//!    `(|V'1|, ϕ)` by the engine's [`crate::PosteriorCache`],
//! 3. report `G` when `Φ ≥ γ`.
//!
//! [`crate::QueryEngine`] runs it over an immutable database, one scan per
//! query; this module holds what a search returns. The two ablation
//! variants of Section VII-D (GBDA-V1 and GBDA-V2) are handled by the engine
//! by swapping the extended size or the branch distance fed into the model.

/// Per-stage execution statistics of one search.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Seconds spent extracting and flattening the query's branches.
    pub flatten_seconds: f64,
    /// Seconds spent scanning the database (wall clock).
    pub scan_seconds: f64,
    /// Posterior lookups answered from the memo.
    pub cache_hits: usize,
    /// Posterior lookups that required a genuine evaluation.
    pub cache_misses: usize,
    /// Graphs accepted by the per-size ϕ-threshold integer comparison alone
    /// (only exercised when posterior recording is off).
    pub threshold_accepts: usize,
    /// Database graphs scanned.
    pub evaluated: usize,
    /// Graphs rejected by a cascade bound stage alone — no ϕ was computed
    /// for them at all (only exercised when posterior recording is off and
    /// [`crate::GbdaConfig::filter_cascade`] is on).
    pub bound_rejected: usize,
    /// Graphs accepted by a cascade bound stage alone — the upper bound on ϕ
    /// already fell inside the accepting prefix.
    pub bound_accepted: usize,
    /// Graphs whose exact ϕ came from the inverted-index count filter
    /// instead of a branch-run merge.
    pub postings_resolved: usize,
    /// Graphs that fell through to the exact flat branch-run merge (every
    /// graph when the cascade is off; none when it is on).
    pub merged: usize,
    /// Ranked scans only: graphs rejected by the tightening rank bound alone
    /// — their ϕ lower bound proved they cannot beat the running k-th-best
    /// posterior, so neither ϕ nor a posterior was resolved for them.
    pub rank_rejected: usize,
    /// Ranked scans only: candidates admitted into a top-k heap (evicted
    /// ones included).
    pub heap_inserts: usize,
    /// Retired, always `0`: nothing writes it. It counted graphs decided by
    /// a per-graph distinct-run bound the scan no longer runs, and is kept
    /// only so existing readers of the field still compile.
    pub stage2_decided: usize,
    /// Retired, always `0`: nothing writes it. It counted segment scans
    /// whose schedule an adaptive stage planner chose; every scan now runs
    /// one schedule. Kept only so existing readers still compile.
    pub planned_scans: usize,
    /// Retired, always `0`: nothing writes it. It counted planned scans that
    /// skipped the distinct-run bound. Kept only so existing readers still
    /// compile.
    pub plan_skipped_stage2: usize,
    /// Retired, always `0`: nothing writes it. It counted planned scans that
    /// accumulated postings for every superchunk. Kept only so existing
    /// readers still compile.
    pub plan_postings_first: usize,
}

impl SearchStats {
    /// Database graphs resolved without a flat branch-run merge.
    pub fn skipped_merges(&self) -> usize {
        self.bound_rejected + self.bound_accepted + self.postings_resolved + self.rank_rejected
    }

    /// The full stage partition of a scan: every evaluated graph is decided
    /// by exactly one cascade stage or merged, so this always equals
    /// [`Self::evaluated`](SearchStats::evaluated) — on threshold, ranked,
    /// streaming and dynamic scans alike (see [`crate::kernel`]).
    pub fn stage_partition(&self) -> usize {
        self.bound_rejected
            + self.bound_accepted
            + self.rank_rejected
            + self.postings_resolved
            + self.merged
    }

    /// Sums another search's counters and timings into this one, to total
    /// a sequence of searches. Every live field is summed: each pruning and
    /// cache counter (`cache_hits` … `heap_inserts`) and both timings, so
    /// `flatten_seconds` and `scan_seconds` become total work across the
    /// absorbed searches. The four retired fields are left untouched.
    ///
    /// Absorption deliberately collapses the per-query latency
    /// distribution into totals. The per-query resolution survives in the
    /// workspace telemetry histograms (`gbda_query_seconds`,
    /// `gbda_flatten_seconds`, `gbda_scan_seconds` in the `gbd-telemetry`
    /// crate), which every search feeds when it finishes.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.flatten_seconds += other.flatten_seconds;
        self.scan_seconds += other.scan_seconds;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.threshold_accepts += other.threshold_accepts;
        self.evaluated += other.evaluated;
        self.bound_rejected += other.bound_rejected;
        self.bound_accepted += other.bound_accepted;
        self.postings_resolved += other.postings_resolved;
        self.merged += other.merged;
        self.rank_rejected += other.rank_rejected;
        self.heap_inserts += other.heap_inserts;
    }
}

/// Result of one similarity search.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// Indices of database graphs with `Φ ≥ γ`.
    pub matches: Vec<usize>,
    /// The posterior `Φ` for every database graph (same indexing as the
    /// database), useful for diagnostics and the experiment harness. Empty
    /// unless [`crate::GbdaConfig::record_posteriors`] asks for it (it is
    /// off by default).
    pub posteriors: Vec<f64>,
    /// Wall-clock seconds of the online stage for this query.
    pub seconds: f64,
    /// Per-stage timing and pruning statistics.
    pub stats: SearchStats,
}

#[cfg(test)]
mod tests {
    use crate::config::GbdaConfig;
    use crate::database::GraphDatabase;
    use crate::engine::QueryEngine;
    use crate::offline::OfflineIndex;
    use gbd_graph::known_ged::ModificationMode;
    use gbd_graph::{GeneratorConfig, KnownGedConfig, KnownGedFamily, LabelAlphabets};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a database from one known-GED family: the query is member 0 and
    /// the ground-truth GED of every member is known.
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

    #[test]
    fn identical_graph_is_always_returned() {
        let (family, database, config) = family_setup(3);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let searcher = QueryEngine::new(&database, &index, config.with_record_posteriors(true));
        let query = family.member_graph(0).clone();
        let outcome = searcher.search(&query);
        assert!(
            outcome.matches.contains(&0),
            "the query itself (GED 0) must be in the result: posteriors {:?}",
            &outcome.posteriors[..5]
        );
        assert_eq!(outcome.posteriors.len(), database.len());
        assert!(outcome.seconds >= 0.0);
        assert_eq!(outcome.stats.evaluated, database.len());
    }

    #[test]
    fn posteriors_decrease_with_distance_on_average() {
        let (family, database, config) = family_setup(5);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let searcher = QueryEngine::new(&database, &index, config.with_record_posteriors(true));
        let query = family.member_graph(0).clone();
        let outcome = searcher.search(&query);
        let mut near = Vec::new();
        let mut far = Vec::new();
        for i in 0..database.len() {
            let d = family.known_ged(0, i);
            if d <= 2 {
                near.push(outcome.posteriors[i]);
            } else if d >= 8 {
                far.push(outcome.posteriors[i]);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            avg(&near) > avg(&far),
            "near avg {} should exceed far avg {}",
            avg(&near),
            avg(&far)
        );
    }

    #[test]
    fn search_is_reasonably_effective_on_a_known_family() {
        let (family, database, config) = family_setup(4);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let searcher = QueryEngine::new(&database, &index, config.clone());
        let query = family.member_graph(0).clone();
        let outcome = searcher.search(&query);
        let positives: Vec<usize> = (0..database.len())
            .filter(|&i| family.known_ged(0, i) <= config.tau_hat as usize)
            .collect();
        let confusion = crate::effectiveness::Confusion::from_sets(&outcome.matches, &positives);
        assert!(
            confusion.f1() > 0.5,
            "GBDA should be reasonably effective on an easy family, F1 = {} (returned {}, expected {})",
            confusion.f1(),
            outcome.matches.len(),
            positives.len()
        );
    }

    #[test]
    fn posterior_accessor_matches_search_results() {
        let (family, database, config) = family_setup(3);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let searcher = QueryEngine::new(&database, &index, config.with_record_posteriors(true));
        let query = family.member_graph(0).clone();
        let outcome = searcher.search(&query);
        for i in 0..database.len() {
            assert_eq!(
                searcher.posterior_of(&query, i).to_bits(),
                outcome.posteriors[i].to_bits()
            );
        }
    }

    #[test]
    fn gamma_one_returns_a_subset_of_gamma_half() {
        let (family, database, config) = family_setup(3);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let loose = QueryEngine::new(
            &database,
            &index,
            GbdaConfig {
                gamma: 0.5,
                ..config.clone()
            },
        );
        let strict = QueryEngine::new(
            &database,
            &index,
            GbdaConfig {
                gamma: 0.99,
                ..config
            },
        );
        let query = family.member_graph(0).clone();
        let loose_matches = loose.search(&query).matches;
        let strict_matches = strict.search(&query).matches;
        assert!(strict_matches.iter().all(|m| loose_matches.contains(m)));
    }
}
