//! A uniform similarity-search interface over GBDA and the three baselines.
//!
//! The efficiency and effectiveness experiments (Figures 7–21 and 31–42) run
//! the same query workload through four methods. The baselines (LSAP,
//! Greedy-Sort-GED, Graph Seriation) are *estimate-and-filter* searchers:
//! they estimate the GED of every (query, graph) pair and report the graphs
//! whose estimate is at most τ̂. GBDA reports graphs whose posterior clears
//! the probability threshold γ.

use std::time::Instant;

use gbd_ged::GedEstimate;
use gbd_graph::Graph;

use crate::database::GraphDatabase;
use crate::search::SearchOutcome;

/// Anything that can answer a graph similarity-search query over a database.
pub trait SimilaritySearcher {
    /// Method name used in experiment tables.
    fn name(&self) -> String;

    /// Runs the similarity search for one query graph.
    fn search(&self, query: &Graph) -> SearchOutcome;
}

/// Estimate-and-filter searcher wrapping any [`GedEstimate`] implementation.
pub struct EstimatorSearcher<'a, E> {
    database: &'a GraphDatabase,
    estimator: E,
    tau_hat: f64,
}

impl<'a, E: GedEstimate> EstimatorSearcher<'a, E> {
    /// Creates a searcher that returns graphs whose estimated GED is at most
    /// `tau_hat`.
    pub fn new(database: &'a GraphDatabase, estimator: E, tau_hat: f64) -> Self {
        EstimatorSearcher {
            database,
            estimator,
            tau_hat,
        }
    }

    /// The wrapped estimator.
    pub fn estimator(&self) -> &E {
        &self.estimator
    }
}

impl<'a, E: GedEstimate> SimilaritySearcher for EstimatorSearcher<'a, E> {
    fn name(&self) -> String {
        self.estimator.name().to_owned()
    }

    fn search(&self, query: &Graph) -> SearchOutcome {
        let started = Instant::now();
        let mut matches = Vec::new();
        let mut posteriors = Vec::with_capacity(self.database.len());
        for i in 0..self.database.len() {
            let estimate = self.estimator.estimate_ged(query, self.database.graph(i));
            // Record a pseudo-score so downstream tooling can inspect it: the
            // larger the estimate, the smaller the score.
            posteriors.push(1.0 / (1.0 + estimate.max(0.0)));
            if estimate <= self.tau_hat + 1e-9 {
                matches.push(i);
            }
        }
        SearchOutcome {
            matches,
            posteriors,
            seconds: started.elapsed().as_secs_f64(),
            ..SearchOutcome::default()
        }
    }
}

impl<'a> SimilaritySearcher for crate::engine::QueryEngine<'a> {
    fn name(&self) -> String {
        "GBDA".to_owned()
    }

    fn search(&self, query: &Graph) -> SearchOutcome {
        crate::engine::QueryEngine::search(self, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_assignment::{GreedyGed, LsapGed};
    use gbd_ged::ExactGed;
    use gbd_graph::paper_examples::{figure1_g1, figure1_g2};

    fn database() -> GraphDatabase {
        let (g1, _) = figure1_g1();
        let (g2, _) = figure1_g2();
        GraphDatabase::from_graphs(vec![g1, g2])
    }

    #[test]
    fn exact_searcher_matches_ground_truth_thresholds() {
        let db = database();
        let (q, _) = figure1_g1();
        // GED(q, g1) = 0, GED(q, g2) = 3.
        let searcher = EstimatorSearcher::new(&db, ExactGed, 2.0);
        assert_eq!(searcher.search(&q).matches, vec![0]);
        let searcher = EstimatorSearcher::new(&db, ExactGed, 3.0);
        assert_eq!(searcher.search(&q).matches, vec![0, 1]);
    }

    #[test]
    fn lower_bound_searchers_never_miss_true_matches() {
        // LSAP estimates lower-bound the GED, so every graph within τ̂ must be
        // returned (the 100%-recall property the paper highlights).
        let db = database();
        let (q, _) = figure1_g1();
        let lsap = EstimatorSearcher::new(&db, LsapGed, 3.0);
        let result = lsap.search(&q);
        assert!(result.matches.contains(&0));
        assert!(result.matches.contains(&1));
    }

    #[test]
    fn searcher_names_are_propagated() {
        let db = database();
        assert_eq!(EstimatorSearcher::new(&db, LsapGed, 1.0).name(), "LSAP");
        assert_eq!(
            EstimatorSearcher::new(&db, GreedyGed, 1.0).name(),
            "greedysort"
        );
        assert_eq!(
            EstimatorSearcher::new(&db, ExactGed, 1.0)
                .estimator()
                .name(),
            "exact-astar"
        );
    }

    #[test]
    fn outcome_reports_scores_for_every_graph() {
        let db = database();
        let (q, _) = figure1_g1();
        let searcher = EstimatorSearcher::new(&db, GreedyGed, 0.5);
        let outcome = searcher.search(&q);
        assert_eq!(outcome.posteriors.len(), 2);
        assert!(outcome.posteriors[0] > outcome.posteriors[1]);
    }
}
