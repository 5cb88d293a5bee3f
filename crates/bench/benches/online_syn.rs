//! Online-stage microbenchmark on synthetic workloads.
//!
//! Three groups:
//!
//! * `online_query_syn_fig8` — per-query time vs graph size (GBDA vs the
//!   cheapest competitor), the Figure-8 axis;
//! * `online_query_syn_1k` — one query against a 1 000-graph database:
//!   the memoized + flat-storage engine scan against the seed-faithful
//!   sequential scan (`reference_search`), which re-evaluates the posterior
//!   per graph and merges heap-allocated branch multisets;
//! * `filter_cascade` — the cascade on/off ablation at 1 000 and 10 000
//!   graphs (posterior recording off, so the size bound can skip whole
//!   size buckets).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbd_assignment::GreedyGed;
use gbd_bench::workloads::{indexed_database, mixed_size_online_workload, synthetic_dataset};
use gbda_core::{
    EstimatorSearcher, GbdaConfig, GraphDatabase, OfflineIndex, QueryEngine, SimilaritySearcher,
};
use std::time::Duration;

fn bench_online_syn(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_query_syn_fig8");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for &n in &[100usize, 200, 400] {
        let synthetic = synthetic_dataset(&[n], true);
        let dataset = &synthetic.subsets[0].dataset;
        let query = dataset.queries[0].clone();
        let config = GbdaConfig::new(10, 0.8).with_sample_pairs(30);
        let (database, index) = indexed_database(dataset, &config).expect("offline stage builds");
        let gbda = QueryEngine::new(&database, &index, config);
        group.bench_with_input(BenchmarkId::new("GBDA_tau10", n), &n, |b, _| {
            b.iter(|| gbda.search(&query))
        });
        let greedy = EstimatorSearcher::new(&database, GreedyGed, 10.0);
        group.bench_with_input(BenchmarkId::new("greedysort", n), &n, |b, _| {
            b.iter(|| greedy.search(&query))
        });
    }
    group.finish();

    // The acceptance workload: 1 000 database graphs of mixed sizes. The
    // engine pays |sizes| × ϕ_max posterior evaluations once, then answers
    // every other pair from the memo over flat integer runs; the seed path
    // pays a full posterior evaluation and a multiset merge per graph.
    let mut group = c.benchmark_group("online_query_syn_1k");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    let (graphs, query) = mixed_size_online_workload(1000);
    let database = GraphDatabase::from_graphs(graphs);
    let config = GbdaConfig::new(5, 0.8).with_sample_pairs(500);
    let index = OfflineIndex::build(&database, &config).expect("offline stage builds");
    let engine = QueryEngine::new(&database, &index, config.clone());
    let merge_engine =
        QueryEngine::new(&database, &index, config.clone().with_filter_cascade(false));
    group.bench_function("engine_cascade_flat", |b| b.iter(|| engine.search(&query)));
    group.bench_function("engine_memoized_flat", |b| {
        b.iter(|| merge_engine.search(&query))
    });
    group.bench_function("seed_sequential_scan", |b| {
        b.iter(|| engine.reference_search(&query))
    });
    group.finish();

    // The cascade on/off ablation at 1k and 10k graphs, posterior recording
    // off: with the cascade on, whole size buckets resolve from the L1 bound
    // and the remainder from the inverted-index count filter; with it off,
    // every graph pays a flat merge (plus the ϕ-threshold compare).
    let mut group = c.benchmark_group("filter_cascade");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    for &n in &[1_000usize, 10_000] {
        let (graphs, query) = mixed_size_online_workload(n);
        let database = GraphDatabase::from_graphs(graphs);
        let config = GbdaConfig::new(5, 0.8)
            .with_sample_pairs(500)
            .with_record_posteriors(false);
        let index = OfflineIndex::build(&database, &config).expect("offline stage builds");
        let cascade_on = QueryEngine::new(&database, &index, config.clone());
        let cascade_off =
            QueryEngine::new(&database, &index, config.clone().with_filter_cascade(false));
        assert_eq!(
            cascade_on.search(&query).matches,
            cascade_off.search(&query).matches
        );
        group.bench_with_input(BenchmarkId::new("cascade_on", n), &n, |b, _| {
            b.iter(|| cascade_on.search(&query))
        });
        group.bench_with_input(BenchmarkId::new("cascade_off", n), &n, |b, _| {
            b.iter(|| cascade_off.search(&query))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_online_syn);
criterion_main!(benches);
