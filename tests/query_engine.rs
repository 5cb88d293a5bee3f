//! Equivalence guarantees of the query engine's execution modes: the
//! driver's scan, the threshold fast path and the filter cascade must
//! return exactly the results of the seed-faithful sequential scan, for the
//! standard estimator and for both ablation variants (GBDA-V1, GBDA-V2).

use gbda::prelude::*;
use rand::SeedableRng;

fn workload() -> (Vec<Graph>, GraphDatabase) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE9E);
    let mut graphs = Vec::new();
    // Mixed sizes so the extended size genuinely varies across the scan.
    for size in [10usize, 13, 16] {
        let cfg = GeneratorConfig::new(size, 2.2).with_alphabets(LabelAlphabets::new(6, 3));
        graphs.extend(cfg.generate_many(20, &mut rng).unwrap());
    }
    let queries: Vec<Graph> = (0..6).map(|i| graphs[i * 7].clone()).collect();
    (queries, GraphDatabase::from_graphs(graphs))
}

fn assert_outcomes_identical(a: &SearchOutcome, b: &SearchOutcome, context: &str) {
    assert_eq!(a.matches, b.matches, "matches diverge: {context}");
    assert_eq!(
        a.posteriors.len(),
        b.posteriors.len(),
        "posterior lengths diverge: {context}"
    );
    for (i, (x, y)) in a.posteriors.iter().zip(&b.posteriors).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "posterior {i} diverges ({x} vs {y}): {context}"
        );
    }
}

fn check_variant(variant: GbdaVariant, label: &str) {
    let (queries, database) = workload();
    let config = GbdaConfig::new(4, 0.7)
        .with_sample_pairs(300)
        .with_variant(variant)
        .with_record_posteriors(true);
    let index = OfflineIndex::build(&database, &config).unwrap();

    let engine = QueryEngine::new(&database, &index, config);

    // Per query, in sequence on one engine (warm memo, adapting planner):
    // the driver's scan ≡ the seed reference scan.
    for (qi, query) in queries.iter().enumerate() {
        let outcome = engine.search(query);
        assert_eq!(outcome.posteriors.len(), outcome.stats.evaluated);
        assert_outcomes_identical(
            &outcome,
            &engine.reference_search(query),
            &format!("{label}, search vs reference, query {qi}"),
        );
    }
}

#[test]
fn search_matches_the_reference_scan_for_standard_gbda() {
    check_variant(GbdaVariant::Standard, "standard");
}

#[test]
fn search_matches_the_reference_scan_for_variant_v1() {
    check_variant(
        GbdaVariant::AverageExtendedSize { sample_graphs: 8 },
        "V1(α=8)",
    );
}

#[test]
fn search_matches_the_reference_scan_for_variant_v2() {
    check_variant(GbdaVariant::WeightedGbd { weight: 0.5 }, "V2(w=0.5)");
}

#[test]
fn threshold_fast_path_matches_recorded_scan_for_all_variants() {
    for (variant, label) in [
        (GbdaVariant::Standard, "standard"),
        (
            GbdaVariant::AverageExtendedSize { sample_graphs: 8 },
            "V1(α=8)",
        ),
        (GbdaVariant::WeightedGbd { weight: 0.5 }, "V2(w=0.5)"),
    ] {
        let (queries, database) = workload();
        let config = GbdaConfig::new(4, 0.7)
            .with_sample_pairs(300)
            .with_variant(variant);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let recording = QueryEngine::new(
            &database,
            &index,
            config.clone().with_record_posteriors(true),
        );
        let fast = QueryEngine::new(&database, &index, config.with_record_posteriors(false));
        for (qi, query) in queries.iter().enumerate() {
            let a = recording.search(query);
            let b = fast.search(query);
            assert_eq!(a.matches, b.matches, "{label}, query {qi}");
            assert!(b.posteriors.is_empty());
        }
    }
}

#[test]
fn filter_cascade_is_bit_identical_to_the_merge_scan_for_all_variants() {
    for (variant, label) in [
        (GbdaVariant::Standard, "standard"),
        (
            GbdaVariant::AverageExtendedSize { sample_graphs: 8 },
            "V1(α=8)",
        ),
        (GbdaVariant::WeightedGbd { weight: 0.5 }, "V2(w=0.5)"),
    ] {
        let (queries, database) = workload();
        let config = GbdaConfig::new(4, 0.7)
            .with_sample_pairs(300)
            .with_variant(variant);
        let index = OfflineIndex::build(&database, &config).unwrap();
        for record in [true, false] {
            let cascade = QueryEngine::new(
                &database,
                &index,
                config.clone().with_record_posteriors(record),
            );
            let merge = QueryEngine::new(
                &database,
                &index,
                config
                    .clone()
                    .with_record_posteriors(record)
                    .with_filter_cascade(false),
            );
            for (qi, query) in queries.iter().enumerate() {
                let a = cascade.search(query);
                let b = merge.search(query);
                let context = format!("{label}, record={record}, query {qi}");
                let recorded = if record { a.stats.evaluated } else { 0 };
                assert_eq!(a.posteriors.len(), recorded, "{context}");
                assert_outcomes_identical(&a, &b, &context);
                // The cascade run never merged a single graph; the merge run
                // merged all of them.
                assert_eq!(a.stats.merged, 0, "{context}");
                assert_eq!(a.stats.skipped_merges(), database.len(), "{context}");
                assert_eq!(b.stats.merged, database.len(), "{context}");
            }
        }
    }
}

#[test]
fn cascade_stage_counters_partition_scans_and_batch_totals() {
    let (queries, database) = workload();
    let config = GbdaConfig::new(4, 0.7)
        .with_sample_pairs(300)
        .with_record_posteriors(false);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let engine = QueryEngine::new(&database, &index, config);
    let mut batch_stats = SearchStats::default();
    for query in &queries {
        let stats = engine.search(query).stats;
        assert_eq!(
            stats.bound_rejected + stats.bound_accepted + stats.postings_resolved + stats.merged,
            database.len(),
            "stage counters must partition the scan"
        );
        batch_stats.absorb(&stats);
    }
    assert_eq!(
        batch_stats.skipped_merges() + batch_stats.merged,
        database.len() * queries.len(),
        "batch stats must aggregate the filter counters"
    );
    assert_eq!(batch_stats.evaluated, database.len() * queries.len());
}

#[test]
fn search_stats_account_for_every_database_graph() {
    let (queries, database) = workload();
    let config = GbdaConfig::new(3, 0.8)
        .with_sample_pairs(300)
        .with_record_posteriors(true);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let engine = QueryEngine::new(&database, &index, config);
    let outcome = engine.search(&queries[0]);
    assert_eq!(outcome.stats.evaluated, database.len());
    assert_eq!(
        outcome.stats.cache_hits + outcome.stats.cache_misses,
        database.len()
    );
    assert!(outcome.stats.scan_seconds >= 0.0);
}
