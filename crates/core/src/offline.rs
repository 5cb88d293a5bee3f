//! The offline pre-processing stage (Step 1 of Algorithm 1).
//!
//! Two prior distributions are pre-computed before any query arrives:
//!
//! 1. the **GBD prior** `Λ2` — GBDs of `N` sampled database pairs are fitted
//!    with a Gaussian mixture and discretised via continuity correction
//!    (Section V-B, cost `O(N·n·d)`),
//! 2. the **GED prior** `Λ3` — the Jeffreys prior, one normalised column per
//!    extended size `|V'1|` (Section V-C, cost `O(n·τ̂⁵)`).
//!
//! The index additionally caches one `Λ1` likelihood table per extended size
//! so that the online stage shares the `O(τ̂³)` table across all database
//! graphs of equal size, exactly as the complexity analysis assumes.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gbd_graph::LabelAlphabets;
use gbd_prob::{BranchEditModel, GbdPrior, GedPrior, Lambda1Table};

use crate::config::GbdaConfig;
use crate::database::GraphDatabase;
use crate::error::{EngineError, EngineResult};

/// Decodes a linear pair index `p ∈ [0, n(n−1)/2)` into the `(i, j)` pair
/// (`i < j`) it enumerates, rows ordered by `i`.
fn pair_from_index(p: usize, n: usize) -> (usize, usize) {
    // offset(i) = number of pairs in rows 0..i = i(n−1) − i(i−1)/2.
    let offset = |i: usize| i * (2 * n - i - 1) / 2;
    let mut lo = 0usize;
    let mut hi = n - 2;
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if offset(mid) <= p {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (lo, lo + 1 + (p - offset(lo)))
}

/// Samples `k` *distinct* pair indices from `[0, total)` without replacement
/// (Robert Floyd's algorithm), returned in sorted order for determinism.
fn sample_distinct_pairs(total: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    debug_assert!(k <= total);
    let mut chosen: HashSet<usize> = HashSet::with_capacity(k);
    let mut picked: Vec<usize> = Vec::with_capacity(k);
    for j in (total - k)..total {
        let t = rng.gen_range(0..=j);
        if chosen.insert(t) {
            picked.push(t);
        } else {
            chosen.insert(j);
            picked.push(j);
        }
    }
    picked.sort_unstable();
    picked
}

/// Costs of the offline stage, reported by the Table IV / Table V experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OfflineStats {
    /// Wall-clock seconds spent fitting the GBD prior.
    pub gbd_prior_seconds: f64,
    /// Wall-clock seconds spent computing the GED prior columns.
    pub ged_prior_seconds: f64,
    /// Number of *distinct* graph pairs actually sampled (the sampler draws
    /// without replacement, so this is also the number of unique pairs).
    pub sampled_pairs: usize,
    /// Number of stored `Pr[GBD = ϕ]` entries (space cost `O(n)`).
    pub gbd_prior_entries: usize,
    /// Number of stored `Pr[GED = τ]` entries (space cost `O(n·(1 + τ̂))`).
    pub ged_prior_entries: usize,
}

/// The pre-computed priors plus the per-size likelihood-table cache.
#[derive(Debug)]
pub struct OfflineIndex {
    gbd_prior: GbdPrior,
    ged_prior: GedPrior,
    lambda1_tables: RwLock<HashMap<usize, Arc<Lambda1Table>>>,
    alphabets: LabelAlphabets,
    tau_max: u64,
    stats: OfflineStats,
}

impl OfflineIndex {
    /// Runs the offline stage for `database` under `config`.
    ///
    /// # Errors
    /// Returns [`EngineError::DatabaseTooSmall`] if the database has fewer
    /// than two graphs (no pair to sample the GBD prior from).
    pub fn build(database: &GraphDatabase, config: &GbdaConfig) -> EngineResult<Self> {
        if database.len() < 2 {
            return Err(EngineError::DatabaseTooSmall {
                len: database.len(),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Step 1.1–1.4: sample pairs, compute GBDs, fit the GMM, discretise.
        let started = Instant::now();
        let total_pairs = database.len() * (database.len() - 1) / 2;
        let sample_count = config.sample_pairs.min(total_pairs.max(1));
        let pairs: Vec<(usize, usize)> = if total_pairs <= config.sample_pairs {
            // Small databases: enumerate every pair instead of sampling.
            let mut pairs = Vec::with_capacity(total_pairs);
            for i in 0..database.len() {
                for j in (i + 1)..database.len() {
                    pairs.push((i, j));
                }
            }
            pairs
        } else {
            // Larger databases: draw distinct pairs without replacement so
            // no pair is double-counted in the Λ2 fit.
            sample_distinct_pairs(total_pairs, sample_count, &mut rng)
                .into_iter()
                .map(|p| pair_from_index(p, database.len()))
                .collect()
        };
        let samples: Vec<f64> = pairs
            .iter()
            .map(|&(i, j)| database.gbd_between(i, j) as f64)
            .collect();
        let gbd_prior = GbdPrior::fit(&samples, database.max_vertices(), &config.gmm);
        let gbd_prior_seconds = started.elapsed().as_secs_f64();

        // GED prior: one Jeffreys column per distinct graph size in the
        // database; query-specific sizes are filled in lazily online. The
        // model clamps sizes to at least 1, so 0 and 1 collapse.
        let started = Instant::now();
        let ged_prior = GedPrior::new(database.alphabets(), config.tau_hat);
        let mut sizes: Vec<usize> = database
            .distinct_sizes()
            .iter()
            .map(|&s| s.max(1))
            .collect();
        sizes.dedup();
        ged_prior.prepare(sizes.iter().copied());
        let ged_prior_seconds = started.elapsed().as_secs_f64();

        let stats = OfflineStats {
            gbd_prior_seconds,
            ged_prior_seconds,
            sampled_pairs: samples.len(),
            gbd_prior_entries: gbd_prior.table().len(),
            ged_prior_entries: sizes.len() * (config.tau_hat as usize + 1),
        };
        Ok(OfflineIndex {
            gbd_prior,
            ged_prior,
            lambda1_tables: RwLock::new(HashMap::new()),
            alphabets: database.alphabets(),
            tau_max: config.tau_hat,
            stats,
        })
    }

    /// The GBD prior `Λ2`.
    pub fn gbd_prior(&self) -> &GbdPrior {
        &self.gbd_prior
    }

    /// The GED prior `Λ3`.
    pub fn ged_prior(&self) -> &GedPrior {
        &self.ged_prior
    }

    /// Label alphabets the model was built with.
    pub fn alphabets(&self) -> LabelAlphabets {
        self.alphabets
    }

    /// Maximal threshold `τ̂` supported by the index.
    pub fn tau_max(&self) -> u64 {
        self.tau_max
    }

    /// Offline cost statistics.
    pub fn stats(&self) -> OfflineStats {
        self.stats
    }

    /// Returns (building and caching on first use) the `Λ1` table for
    /// extended size `v = |V'1|`.
    pub fn lambda1_table(&self, extended_size: usize) -> Arc<Lambda1Table> {
        if let Some(table) = self.lambda1_tables.read().get(&extended_size) {
            return Arc::clone(table);
        }
        let model = BranchEditModel::new(extended_size, self.alphabets);
        let table = Arc::new(Lambda1Table::build(&model, self.tau_max));
        self.lambda1_tables
            .write()
            .insert(extended_size, Arc::clone(&table));
        table
    }

    /// Number of distinct `Λ1` tables currently cached.
    pub fn cached_lambda1_tables(&self) -> usize {
        self.lambda1_tables.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_graph::{GeneratorConfig, LabelAlphabets};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_database() -> GraphDatabase {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = GeneratorConfig::new(12, 2.2).with_alphabets(LabelAlphabets::new(6, 3));
        let graphs = cfg.generate_many(20, &mut rng).unwrap();
        GraphDatabase::from_graphs(graphs)
    }

    #[test]
    fn pair_index_decoding_round_trips() {
        for n in [2usize, 3, 5, 12] {
            let mut expected = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    expected.push((i, j));
                }
            }
            for (p, &pair) in expected.iter().enumerate() {
                assert_eq!(pair_from_index(p, n), pair, "p = {p}, n = {n}");
            }
        }
    }

    #[test]
    fn sampler_draws_distinct_sorted_pairs() {
        let mut rng = StdRng::seed_from_u64(11);
        for (total, k) in [(10usize, 10usize), (100, 37), (1000, 999), (50, 1)] {
            let picked = sample_distinct_pairs(total, k, &mut rng);
            assert_eq!(picked.len(), k);
            assert!(
                picked.windows(2).all(|w| w[0] < w[1]),
                "duplicates or unsorted"
            );
            assert!(picked.iter().all(|&p| p < total));
        }
    }

    #[test]
    fn build_produces_usable_priors_and_stats() {
        let db = small_database();
        let config = GbdaConfig::new(4, 0.8).with_sample_pairs(100);
        let index = OfflineIndex::build(&db, &config).unwrap();
        let stats = index.stats();
        assert!(stats.sampled_pairs > 0);
        assert!(stats.gbd_prior_entries >= db.max_vertices());
        assert!(stats.ged_prior_entries > 0);
        assert!(stats.gbd_prior_seconds >= 0.0 && stats.ged_prior_seconds >= 0.0);
        // Priors respond sensibly.
        assert!(index.gbd_prior().probability(3) > 0.0);
        assert!(index.ged_prior().probability(12, 2) > 0.0);
        assert_eq!(index.tau_max(), 4);
    }

    #[test]
    fn small_databases_enumerate_all_pairs() {
        let db = small_database();
        let config = GbdaConfig::new(3, 0.8).with_sample_pairs(100_000);
        let index = OfflineIndex::build(&db, &config).unwrap();
        assert_eq!(index.stats().sampled_pairs, 20 * 19 / 2);
    }

    #[test]
    fn sampled_pairs_reflect_unique_pairs_on_larger_databases() {
        // 20 graphs → 190 pairs; requesting 150 must yield 150 *distinct*
        // pairs (the old with-replacement sampler could double-count).
        let db = small_database();
        let config = GbdaConfig::new(3, 0.8).with_sample_pairs(150);
        let index = OfflineIndex::build(&db, &config).unwrap();
        assert_eq!(index.stats().sampled_pairs, 150);
    }

    #[test]
    fn lambda1_tables_are_cached_per_extended_size() {
        let db = small_database();
        let config = GbdaConfig::new(3, 0.8).with_sample_pairs(50);
        let index = OfflineIndex::build(&db, &config).unwrap();
        assert_eq!(index.cached_lambda1_tables(), 0);
        let a = index.lambda1_table(12);
        let b = index.lambda1_table(12);
        assert!(Arc::ptr_eq(&a, &b));
        let _c = index.lambda1_table(15);
        assert_eq!(index.cached_lambda1_tables(), 2);
    }

    #[test]
    fn refuses_degenerate_databases_with_an_error() {
        let db = GraphDatabase::from_graphs(Vec::new());
        let err = OfflineIndex::build(&db, &GbdaConfig::default()).unwrap_err();
        assert_eq!(err, crate::EngineError::DatabaseTooSmall { len: 0 });
        assert!(err.to_string().contains("at least two graphs"));
    }
}
