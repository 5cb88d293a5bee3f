//! # gbda — probabilistic graph similarity search via Graph Branch Distance
//!
//! A from-scratch Rust reproduction of *"An Efficient Probabilistic Approach
//! for Graph Similarity Search"* (Li, Jian, Lian, Chen — ICDE 2018). Given a
//! query graph, a database of labeled graphs, a GED threshold `τ̂` and a
//! probability threshold `γ`, GBDA returns every database graph whose Graph
//! Edit Distance to the query is — with probability at least `γ` — at most
//! `τ̂`, in `O(nd + τ̂³)` time per database graph.
//!
//! This facade crate re-exports the whole workspace through stable paths so a
//! downstream user only depends on `gbda`:
//!
//! * [`graph`] — labeled graphs, branches, GBD, generators, statistics, I/O,
//! * [`ged`] — exact GED (A\*), bounds and the estimator trait,
//! * [`assignment`] — the LSAP (Hungarian) and Greedy-Sort-GED baselines,
//! * [`seriation`] — the spectral-seriation baseline,
//! * [`prob`] — the probabilistic model (Ω/Λ factors, GMM, Jeffreys prior),
//! * [`engine`] — the GBDA search engine (offline priors + Algorithm 1),
//! * [`store`] — the storage engine: persistent snapshot files plus the
//!   crash-safe dynamic layer ([`prelude::DurableDatabase`]: checksummed
//!   write-ahead log, atomic generation rotation, deterministic
//!   fault-injection harness); in-memory inserts/removes/compaction live in
//!   [`engine`] as [`prelude::DynamicDatabase`],
//! * [`datasets`] — dataset substitutes with ground-truth GEDs,
//! * [`telemetry`] — the dependency-free observability layer every engine
//!   reports into: a lock-free [`prelude::MetricsRegistry`] of counters,
//!   gauges and latency histograms, per-query [`prelude::Span`] traces, and
//!   Prometheus/JSON exposition (see the README's "Observability" section).
//!
//! ## Quickstart
//!
//! ```
//! use gbda::prelude::*;
//! use rand::SeedableRng;
//!
//! // A small random database and one of its graphs as the query.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let graphs = GeneratorConfig::new(14, 2.2).generate_many(40, &mut rng).unwrap();
//! let query = graphs[3].clone();
//!
//! // Offline: pre-compute the priors; Online: run Algorithm 1.
//! let database = GraphDatabase::from_graphs(graphs);
//! let config = GbdaConfig::new(3, 0.8).with_sample_pairs(300);
//! let index = OfflineIndex::build(&database, &config).unwrap();
//! let engine = QueryEngine::new(&database, &index, config);
//! let result = engine.search(&query);
//! assert!(result.matches.contains(&3));
//!
//! // Ranked: the 5 most similar graphs, best first. Equal posteriors order
//! // by ascending graph id, so results are reproducible run-to-run.
//! let top = engine.search_top_k(&query, 5);
//! assert_eq!(top.hits.len(), 5);
//! assert!(top.hits.iter().any(|hit| hit.id == 3));
//! ```
//!
//! Every search is one scan on the calling thread; [`prelude::QueryEngine`]
//! also streams hits as it finds them (`search_streaming`). See the crate
//! README's "Query engine architecture" and "Ranked queries" sections.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use gbd_assignment as assignment;
pub use gbd_datasets as datasets;
pub use gbd_ged as ged;
pub use gbd_graph as graph;
pub use gbd_prob as prob;
pub use gbd_seriation as seriation;
pub use gbd_store as store;
pub use gbd_telemetry as telemetry;
pub use gbda_core as engine;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use gbd_assignment::{GreedyGed, LsapGed};
    pub use gbd_datasets::{
        generate_real_like, generate_synthetic, DatasetProfile, LabeledDataset, RealLikeConfig,
        SyntheticConfig,
    };
    pub use gbd_ged::{exact_ged, GedEstimate};
    pub use gbd_graph::{
        graph_branch_distance, Branch, BranchCatalog, BranchMultiset, FlatBranchSet,
        GeneratorConfig, Graph, Label, LabelAlphabets, Vocabulary,
    };
    pub use gbd_seriation::SeriationGed;
    pub use gbd_store::{
        load_database, save_database, ConcurrentDurable, DurableDatabase, FaultSchedule, FaultVfs,
        Manifest, Snapshot, StdVfs, StoreError, StoreResult, Vfs, WalRecord, WalReplay, WalWriter,
    };
    pub use gbd_telemetry::{
        Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot as MetricsSnapshot,
        Span, TelemetryLevel, TraceBuffer, TraceEvent, TraceKind,
    };
    pub use gbda_core::{
        rank_by_posterior, BoundClass, BucketPlan, BucketRun, CollectAll, ConcurrentEngine,
        Confusion, Cutoff, DatabaseParts, DurabilityConfig, DynamicDatabase, DynamicEngine,
        DynamicOutcome, DynamicTopKOutcome, DynamicView, EngineError, EngineResult,
        EstimatorSearcher, FilterCascade, GbdaConfig, GbdaEstimator, GbdaVariant, Generation,
        GraphAggregate, GraphDatabase, OfflineIndex, Planner, PosteriorCache, Posting,
        PostingsCursors, QueryEngine, QueryPlan, RankDecision, RankedHit, ScanKernel,
        SearchOutcome, SearchStats, SegmentIndex, SimilaritySearcher, Sink, SizeDecision,
        SnapshotReader, StaticPhi, Subscriber, TighteningRank, TopKHeap, TopKOutcome, TopKSink,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_are_usable_together() {
        let (g1, _) = crate::graph::paper_examples::figure1_g1();
        let (g2, _) = crate::graph::paper_examples::figure1_g2();
        assert_eq!(graph_branch_distance(&g1, &g2), 3);
        assert_eq!(exact_ged(&g1, &g2).0, 3);
        assert!(LsapGed.estimate_ged(&g1, &g2) <= 3.0);
        assert!(GreedyGed.estimate_ged(&g1, &g2) > 0.0);
        assert!(SeriationGed::default().estimate_ged(&g1, &g2) > 0.0);
    }
}
