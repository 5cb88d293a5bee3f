//! Property tests for the hardware-fast scan kernel, exercised through the
//! `gbda` facade.
//!
//! Two contracts:
//!
//! 1. **Adaptive ≡ linear** — the chunked/galloping postings kernel
//!    ([`FilterCascade::intersections`], [`PostingsCursors`]) accumulates
//!    exactly the intersection counts of the pre-adaptive linear reference
//!    walk ([`FilterCascade::intersections_linear`]), on adversarial
//!    postings shapes (dense and sparse runs, skewed sizes, unknown query
//!    branches) and for any ascending chunking of the scan range.
//!
//! 2. **One schedule for every segment size** — threshold, top-k and
//!    streaming searches equal the seed-faithful references on a static
//!    engine, and equal a fresh rebuild of the live set on a dynamic base
//!    with a delta of 1 to 20 graphs — and the stage partition
//!    (`SearchStats::stage_partition`) holds on every scan.

use gbda::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A database whose postings shapes are steered adversarially: `labels = 1`
/// produces one giant dense run per graph (every posting list long),
/// `labels = 8` many short sparse runs, and mixing sizes skews how many
/// graphs each branch hits.
fn adversarial_graphs(seed: u64, count: usize, labels: u32, sizes: &[usize]) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graphs = Vec::new();
    for (k, &size) in sizes.iter().enumerate() {
        let config = GeneratorConfig::new(size, 2.3)
            .with_alphabets(LabelAlphabets::new(labels.max(1) as usize, 2));
        graphs.extend(
            config
                .generate_many(count.div_ceil(sizes.len()) + (k == 0) as usize, &mut rng)
                .expect("generation succeeds"),
        );
    }
    graphs
}

/// Splits `0..n` into ascending, non-overlapping chunks with random widths —
/// the shape a superchunked scan feeds the cursors.
fn random_chunking(n: usize, rng: &mut StdRng) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < n {
        let width = rng.gen_range(1..=(n - start).min(97));
        ranges.push(start..start + width);
        start += width;
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The adaptive postings kernel accumulates bit-identical counts to the
    /// linear reference walk — whole-range, per random chunking with reused
    /// cursors, and with a query holding branches the database never
    /// catalogued.
    #[test]
    fn adaptive_kernel_matches_linear_walk(
        seed in 0u64..10_000,
        labels in 1u32..9,
        query_labels in 1u32..9,
    ) {
        let graphs = adversarial_graphs(seed, 36, labels, &[6, 11, 19]);
        let database = GraphDatabase::from_graphs(graphs);
        let n = database.len();
        // A query drawn from a possibly different alphabet: runs the
        // catalog has never seen must contribute nothing, like in a merge.
        let query = adversarial_graphs(seed ^ 0xBEEF, 1, query_labels, &[13])
            .pop()
            .unwrap();
        let multiset = BranchMultiset::from_graph(&query);
        let flat = database.catalog().flatten_lookup(&multiset);
        let cascade = FilterCascade::new(&database, &flat, None);

        let linear = cascade.intersections_linear(0..n);
        prop_assert_eq!(&cascade.intersections(0..n), &linear, "whole-range accumulation diverges");

        // One cursor set fed ascending random chunks — the superchunked
        // access pattern.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        for _ in 0..3 {
            let mut cursors = cascade.cursors();
            for range in random_chunking(n, &mut rng) {
                let mut acc = vec![0u32; range.len()];
                cursors.accumulate(range.clone(), &mut acc);
                prop_assert_eq!(
                    &acc[..],
                    &linear[range.clone()],
                    "chunked accumulation diverges on {:?}",
                    range
                );
            }
        }
    }

    /// Every segment runs one cascade schedule, small or large: on the
    /// adversarial databases, static threshold, top-k and streaming scans
    /// equal the seed-faithful references, and a dynamic base plus a delta
    /// of every size from 1 to 20 graphs equals a fresh rebuild of its live
    /// set. The stage partition holds on every scan.
    #[test]
    fn small_and_large_segments_match_the_reference(
        seed in 0u64..10_000,
        labels in 2u32..7,
    ) {
        let graphs = adversarial_graphs(seed, 45, labels, &[7, 12, 18]);
        let database = GraphDatabase::from_graphs(graphs);
        let n = database.len();
        let base_config = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(seed);
        let index = OfflineIndex::build(&database, &base_config).unwrap();
        let query = database.graph((seed % n as u64) as usize).clone();
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        // Record mode resolves every posterior; without it the size bound
        // decides whole buckets.
        for record in [false, true] {
            let config = base_config.clone().with_record_posteriors(record);
            let engine = QueryEngine::new(&database, &index, config);
            let reference = engine.reference_search(&query);
            let outcome = engine.search(&query);
            prop_assert_eq!(
                &outcome.matches, &reference.matches,
                "threshold matches diverge (record={})", record
            );
            if record {
                prop_assert_eq!(
                    bits(&outcome.posteriors), bits(&reference.posteriors),
                    "threshold posteriors diverge"
                );
            }
            prop_assert_eq!(outcome.stats.evaluated, n);
            prop_assert_eq!(outcome.stats.stage_partition(), n);

            for k in [1usize, 5, n + 3] {
                let ranked = engine.search_top_k(&query, k);
                let reference = engine.top_k_reference(&query, k);
                prop_assert_eq!(ranked.hits.len(), reference.len(), "top-{} hit count diverges", k);
                for (a, b) in ranked.hits.iter().zip(&reference) {
                    prop_assert_eq!(a.id, b.id, "top-{} ids diverge", k);
                    prop_assert_eq!(
                        a.posterior.to_bits(), b.posterior.to_bits(),
                        "top-{} posteriors diverge", k
                    );
                }
                prop_assert_eq!(ranked.stats.stage_partition(), n);
            }

            let mut streamed: Vec<usize> = Vec::new();
            let stats = engine.search_streaming(&query, |id, _| streamed.push(id));
            prop_assert_eq!(&streamed, &reference.matches, "streamed hits diverge");
            prop_assert_eq!(stats.stage_partition(), n);
        }

        // Dynamic base plus a growing delta under a tombstone, checked at
        // every delta size against a fresh build of the live set.
        let mut dynamic = DynamicDatabase::new(database);
        dynamic.remove(seed % n as u64).unwrap();
        for graph in adversarial_graphs(seed ^ 0xD1CE, 20, labels, &[9, 14]).into_iter().take(20) {
            dynamic.insert(graph);
            let delta = dynamic.live_ids().len() + 1 - n;
            let (ids, survivors): (Vec<u64>, Vec<Graph>) = dynamic
                .live_graphs()
                .map(|(id, graph)| (id, graph.clone()))
                .unzip();
            let fresh = GraphDatabase::with_alphabets(survivors, dynamic.alphabets());
            let live = fresh.len();
            let config = base_config.clone();
            let dynamic_engine = DynamicEngine::new(&dynamic, &index, config.clone());
            let fresh_engine = QueryEngine::new(&fresh, &index, config);

            let outcome = dynamic_engine.search(&query);
            let expected: Vec<u64> =
                fresh_engine.search(&query).matches.iter().map(|&i| ids[i]).collect();
            prop_assert_eq!(&outcome.matches, &expected, "delta {}: matches diverge", delta);
            prop_assert_eq!(outcome.stats.evaluated, live);
            prop_assert_eq!(outcome.stats.stage_partition(), live);

            for k in [1usize, 6, live + 2] {
                let ranked = dynamic_engine.search_top_k(&query, k);
                let expected = fresh_engine.search_top_k(&query, k);
                prop_assert_eq!(
                    ranked.hits.len(), expected.hits.len(),
                    "delta {}: top-{} hit count diverges", delta, k
                );
                for (a, b) in ranked.hits.iter().zip(&expected.hits) {
                    prop_assert_eq!(a.id, ids[b.id], "delta {}: top-{} ids diverge", delta, k);
                    prop_assert_eq!(
                        a.posterior.to_bits(), b.posterior.to_bits(),
                        "delta {}: top-{} posteriors diverge", delta, k
                    );
                }
                prop_assert_eq!(ranked.stats.stage_partition(), live);
            }

            let mut streamed: Vec<u64> = Vec::new();
            let stats = dynamic_engine.search_streaming(&query, |id, _| streamed.push(id));
            prop_assert_eq!(&streamed, &expected, "delta {}: streamed hits diverge", delta);
            prop_assert_eq!(stats.stage_partition(), live);
        }
    }
}
