//! Ranked-query (top-k) microbenchmark.
//!
//! One group, `topk`, at 1 000 and 10 000 mixed-size graphs with k = 10:
//!
//! * `full_scan_sort` — the definitional baseline: a recording cascade scan
//!   followed by sort-truncate;
//! * `cascade` — `search_top_k` with the cascade on, so the running
//!   k-th-best posterior tightens the ϕ cutoff that rejects graphs from
//!   bounds alone;
//! * `merge` — `search_top_k` with the cascade off (flat merge per graph).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbd_bench::workloads::mixed_size_online_workload;
use gbda_core::{rank_by_posterior, GbdaConfig, GraphDatabase, OfflineIndex, QueryEngine};
use std::time::Duration;

fn bench_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    let k = 10usize;
    for &n in &[1_000usize, 10_000] {
        let (graphs, query) = mixed_size_online_workload(n);
        let database = GraphDatabase::from_graphs(graphs);
        let config = GbdaConfig::new(5, 0.8).with_sample_pairs(500);
        let index = OfflineIndex::build(&database, &config).expect("offline stage builds");
        let recording = QueryEngine::new(
            &database,
            &index,
            config.clone().with_record_posteriors(true),
        );
        let cascade = QueryEngine::new(
            &database,
            &index,
            config.clone().with_record_posteriors(false),
        );
        let merge = QueryEngine::new(
            &database,
            &index,
            config
                .clone()
                .with_record_posteriors(false)
                .with_filter_cascade(false),
        );
        // All three answer the same ranked question.
        let reference = rank_by_posterior(&recording.search(&query).posteriors, k);
        for hits in [
            cascade.search_top_k(&query, k).hits,
            merge.search_top_k(&query, k).hits,
        ] {
            assert_eq!(hits.len(), reference.len());
            for (a, b) in hits.iter().zip(&reference) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.posterior.to_bits(), b.posterior.to_bits());
            }
        }
        group.bench_with_input(BenchmarkId::new("full_scan_sort", n), &n, |b, _| {
            b.iter(|| rank_by_posterior(&recording.search(&query).posteriors, k))
        });
        group.bench_with_input(BenchmarkId::new("cascade", n), &n, |b, _| {
            b.iter(|| cascade.search_top_k(&query, k))
        });
        group.bench_with_input(BenchmarkId::new("merge", n), &n, |b, _| {
            b.iter(|| merge.search_top_k(&query, k))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
