//! Ranked-query integration tests, exercised through the `gbda` facade.
//!
//! The central property: for **every** engine mode — Standard / V1 / V2
//! variants, cascade on/off — `search_top_k(query, k)` is
//! bit-identical to the definitional reference "scan every graph
//! threshold-free, sort by (posterior descending, graph id ascending),
//! truncate to `k`", where the reference posteriors come from the already
//! proven [`QueryEngine::search`] recording path. The tie-break suite then
//! pins the determinism guarantee itself: equal posteriors order by
//! ascending graph id, run-to-run, on static and dynamic scans.

use gbda::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn graphs_from_seed(seed: u64, count: usize, size: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    GeneratorConfig::new(size, 2.2)
        .with_alphabets(LabelAlphabets::new(6, 3))
        .generate_many(count, &mut rng)
        .expect("generation succeeds")
}

fn mixed_graphs(seed: u64, per_size: usize) -> Vec<Graph> {
    let mut graphs = Vec::new();
    for (k, size) in [8usize, 12, 16].into_iter().enumerate() {
        graphs.extend(graphs_from_seed(seed ^ (k as u64) << 8, per_size, size));
    }
    graphs
}

fn assert_hits_identical(a: &[RankedHit], b: &[RankedHit], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: lengths diverge");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.id, y.id, "{context}: hit {i} id diverges");
        assert_eq!(
            x.posterior.to_bits(),
            y.posterior.to_bits(),
            "{context}: hit {i} posterior diverges"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: ranked results equal the threshold-free
    /// sort-truncate reference across variants × cascade × k.
    #[test]
    fn top_k_equals_sort_truncate_in_every_mode(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x707);
        let graphs = mixed_graphs(seed, 6);
        let database = GraphDatabase::from_graphs(graphs);
        let n = database.len();
        let config = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(seed);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let queries = [
            database.graph(rng.gen_range(0..n)).clone(),
            graphs_from_seed(seed ^ 0xABCD, 1, 10).pop().unwrap(),
        ];
        let variants = [
            ("standard", GbdaVariant::Standard),
            ("v1", GbdaVariant::AverageExtendedSize { sample_graphs: 5 }),
            ("v2", GbdaVariant::WeightedGbd { weight: 0.4 }),
            ("v2-negative", GbdaVariant::WeightedGbd { weight: -0.3 }),
        ];
        for (name, variant) in variants {
            // The reference: the proven recording scan's posterior array,
            // ranked and truncated by the shared definitional helper.
            let reference_engine = QueryEngine::new(
                &database,
                &index,
                config
                    .clone()
                    .with_variant(variant)
                    .with_record_posteriors(true),
            );
            for (q, query) in queries.iter().enumerate() {
                let posteriors = reference_engine.search(query).posteriors;
                prop_assert_eq!(posteriors.len(), n);
                for k in [1usize, 5, n, n + 7] {
                    let expected = rank_by_posterior(&posteriors, k);
                    for cascade in [true, false] {
                        let engine = QueryEngine::new(
                            &database,
                            &index,
                            config
                                .clone()
                                .with_variant(variant)
                                .with_filter_cascade(cascade)
                                .with_record_posteriors(false),
                        );
                        let context = format!("{name}/q={q}/k={k}/cascade={cascade}");
                        let top = engine.search_top_k(query, k);
                        assert_hits_identical(&top.hits, &expected, &context);
                        prop_assert_eq!(top.stats.evaluated, n, "{}", &context);
                        // The engine's own reference path agrees too.
                        assert_hits_identical(
                            &engine.top_k_reference(query, k),
                            &expected,
                            &context,
                        );
                    }
                }
            }
        }
    }

    /// A batch of ranked queries run back to back on one engine (a shared,
    /// warming memo) equals each query run on a fresh engine, in order.
    #[test]
    fn top_k_batch_equals_per_query(seed in 0u64..10_000, k in 1usize..12) {
        let graphs = mixed_graphs(seed, 4);
        let database = GraphDatabase::from_graphs(graphs);
        let config = GbdaConfig::new(4, 0.7).with_sample_pairs(120).with_seed(seed);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let queries: Vec<Graph> = (0..4).map(|i| database.graph(i * 2).clone()).collect();
        let engine = QueryEngine::new(&database, &index, config.clone());
        let batch: Vec<TopKOutcome> =
            queries.iter().map(|query| engine.search_top_k(query, k)).collect();
        for (q, (query, outcome)) in queries.iter().zip(&batch).enumerate() {
            let fresh = QueryEngine::new(&database, &index, config.clone());
            let single = fresh.search_top_k(query, k);
            assert_hits_identical(&outcome.hits, &single.hits, &format!("batch q={q}"));
        }
    }
}

/// A database of duplicated graphs forces posterior ties; the guarantee is
/// that ties order by ascending graph id on every execution path.
#[test]
fn equal_posteriors_order_by_ascending_id() {
    let distinct = graphs_from_seed(3, 6, 10);
    // Each graph appears three times: indices i, i+6, i+12 are identical.
    let mut graphs = Vec::new();
    for _ in 0..3 {
        graphs.extend(distinct.iter().cloned());
    }
    let database = GraphDatabase::from_graphs(graphs);
    let n = database.len();
    let config = GbdaConfig::new(3, 0.8).with_sample_pairs(100);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let query = distinct[0].clone();

    let engine = QueryEngine::new(&database, &index, config);
    let top = engine.search_top_k(&query, n);
    assert_eq!(top.hits.len(), n);
    // Within every group of equal posteriors the ids strictly ascend.
    for pair in top.hits.windows(2) {
        if pair[0].posterior.to_bits() == pair[1].posterior.to_bits() {
            assert!(
                pair[0].id < pair[1].id,
                "tie at posterior {} broken out of id order",
                pair[0].posterior
            );
        }
    }
    // The query's three clones tie at the top rank, ids ascending.
    let top3: Vec<usize> = top.hits[..3].iter().map(|h| h.id).collect();
    assert_eq!(top3, vec![0, 6, 12]);
}

/// Ranked queries are reproducible run-to-run on static and dynamic paths
/// (the documented determinism guarantee).
#[test]
fn ranked_queries_are_reproducible_run_to_run() {
    let graphs = mixed_graphs(17, 5);
    let database = GraphDatabase::from_graphs(graphs.clone());
    let config = GbdaConfig::new(4, 0.7).with_sample_pairs(150);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let query = database.graph(1).clone();
    let k = 7;

    let engine = QueryEngine::new(&database, &index, config.clone());
    let first = engine.search_top_k(&query, k);
    for _ in 0..5 {
        assert_hits_identical(&engine.search_top_k(&query, k).hits, &first.hits, "static");
    }

    let mut dynamic = DynamicDatabase::new(database);
    dynamic.remove(2).unwrap();
    for g in graphs_from_seed(99, 3, 11) {
        dynamic.insert(g);
    }
    let engine = DynamicEngine::new(&dynamic, &index, config);
    let dyn_first = engine.search_top_k(&query, k);
    for _ in 0..5 {
        let again = engine.search_top_k(&query, k);
        assert_eq!(again.hits.len(), dyn_first.hits.len());
        for (a, b) in dyn_first.hits.iter().zip(&again.hits) {
            assert_eq!(a.id, b.id, "dynamic ids diverge across runs");
            assert_eq!(a.posterior.to_bits(), b.posterior.to_bits());
        }
    }
}
