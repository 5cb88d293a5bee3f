//! # gbda-core — the GBDA graph similarity search engine
//!
//! This crate assembles the paper's primary contribution (Section VI): a
//! probabilistic graph similarity search that, given a query graph `Q`, a
//! database `D`, a similarity threshold `τ̂` and a probability threshold `γ`,
//! returns every `G ∈ D` with `Pr[GED(Q, G) ≤ τ̂ | GBD(Q, G)] ≥ γ` — in
//! `O(nd + τ̂³)` per database graph instead of the NP-hard exact search.
//!
//! * [`database`] — the graph database with pre-computed branch multisets
//!   plus the arena-backed flat interned branch sets,
//! * [`offline`] — the offline stage (GBD prior, GED prior, Λ1 table cache),
//! * [`search`] — what the online stage (Algorithm 1) returns: outcomes
//!   and per-stage statistics,
//! * [`engine`] — [`QueryEngine`], the online stage over an immutable
//!   database: threshold, ranked and streaming search (and the GBDA-V1/V2
//!   variants), one scan per query on the calling thread,
//! * [`filter`] — the candidate-pruning layer: the lower-bound filter
//!   cascade and inverted-index count filter that resolve most graphs
//!   without merging their branch runs,
//! * [`kernel`] — the one generic scan loop ([`ScanKernel`]), parameterized
//!   by a cutoff policy (static γ vs. tightening rank bound) and a result
//!   sink (collect / top-k heap / streaming callback); one crate-private
//!   driver runs it for every engine,
//! * [`dynamic`] — the dynamic storage layer: [`DynamicDatabase`] (immutable
//!   base segment + append-only delta + tombstones + compaction) and the
//!   segment-aware [`DynamicEngine`],
//! * [`concurrent`] — snapshot-isolated serving over the dynamic layer:
//!   immutable published [`Generation`]s, the pinning [`SnapshotReader`],
//!   and [`ConcurrentEngine`] (mutex-serialized writer + optional
//!   background compaction) for readers that never block writers,
//! * [`topk`] — ranked (top-k) query primitives: the bounded heap, the
//!   deterministic ranking order (posterior descending, graph id ascending)
//!   and the sort-truncate reference every ranked path is proven against,
//! * [`posterior_cache`] — memoization of the posterior per `(|V'1|, ϕ)`,
//! * [`baseline`] — a uniform [`SimilaritySearcher`] interface shared with
//!   the LSAP / Greedy-Sort-GED / seriation baselines,
//! * [`estimator`] — GBDA as a point estimator of the GED,
//! * [`error`] — the engine error type,
//! * [`effectiveness`] — precision / recall / F1 used by the
//!   effectiveness experiments (runtime telemetry is the separate
//!   `gbd-telemetry` crate, fed by every scan).
//!
//! ```
//! use gbd_graph::GeneratorConfig;
//! use gbda_core::{GbdaConfig, GraphDatabase, OfflineIndex, QueryEngine};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let graphs = GeneratorConfig::new(12, 2.0).generate_many(30, &mut rng).unwrap();
//! let query = graphs[0].clone();
//! let database = GraphDatabase::from_graphs(graphs);
//! let config = GbdaConfig::new(3, 0.8).with_sample_pairs(200);
//! let index = OfflineIndex::build(&database, &config).unwrap();
//! let engine = QueryEngine::new(&database, &index, config);
//! let outcome = engine.search(&query);
//! assert!(outcome.matches.contains(&0)); // the query itself is similar
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod concurrent;
pub mod config;
pub mod database;
pub mod dynamic;
pub mod effectiveness;
pub mod engine;
pub mod error;
pub mod estimator;
pub mod filter;
pub mod kernel;
mod obs;
pub mod offline;
pub mod posterior_cache;
mod scan;
pub mod search;
pub mod topk;

pub use baseline::{EstimatorSearcher, SimilaritySearcher};
pub use concurrent::{ConcurrentEngine, Generation, SnapshotReader};
pub use config::{DurabilityConfig, GbdaConfig, GbdaVariant, TelemetryLevel};
pub use database::{BucketRun, DatabaseParts, GraphAggregate, GraphDatabase, Posting};
pub use dynamic::{
    DeltaPrefix, DynamicDatabase, DynamicEngine, DynamicOutcome, DynamicView, LiveGraph,
    Tombstones, ViewCatalog,
};
pub use effectiveness::{aggregate, Confusion};
pub use engine::QueryEngine;
pub use error::{EngineError, EngineResult};
pub use estimator::GbdaEstimator;
pub use filter::planner::{Planner, QueryPlan};
pub use filter::{FilterCascade, PostingsCursors, RankDecision, SegmentIndex, SizeDecision};
pub use kernel::{
    BoundClass, BucketPlan, CollectAll, Cutoff, ScanKernel, Sink, StaticPhi, Subscriber,
    TighteningRank, TopKSink,
};
pub use offline::{OfflineIndex, OfflineStats};
pub use posterior_cache::PosteriorCache;
pub use search::{SearchOutcome, SearchStats};
pub use topk::{
    rank_by_posterior, rank_order, DynamicTopKOutcome, RankedHit, TopKHeap, TopKOutcome,
};
