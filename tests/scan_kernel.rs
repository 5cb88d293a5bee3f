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
//! 2. **Planner neutrality** — the stats-driven stage planner changes only
//!    the work schedule: threshold, top-k, streaming and dynamic searches
//!    return bit-identical results with the planner on vs.
//!    `force_fixed_pipeline`, from cold priors and
//!    from a warmed steady-state profile alike — and the stage partition
//!    (`SearchStats::stage_partition`) holds under every schedule.

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

    /// Planner-scheduled searches are bit-identical to the fixed pipeline on
    /// every path, and every schedule keeps the stage partition exact.
    #[test]
    fn planner_schedules_are_result_neutral(
        seed in 0u64..10_000,
        labels in 2u32..7,
    ) {
        let graphs = adversarial_graphs(seed, 45, labels, &[7, 12, 18]);
        let database = GraphDatabase::from_graphs(graphs.clone());
        let n = database.len();
        let config = GbdaConfig::new(4, 0.7)
            .with_sample_pairs(150)
            .with_seed(seed)
            .with_record_posteriors(true);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let query = database.graph((seed % n as u64) as usize).clone();

        let fixed = config.clone().with_force_fixed_pipeline(true);
        let planner_engine = QueryEngine::new(&database, &index, config.clone());
        let fixed_engine = QueryEngine::new(&database, &index, fixed);
        // Warm the planner past its prior phase so both the cold and
        // steady-state schedules are compared against the fixed run.
        for round in 0..10 {
            let outcome = planner_engine.search(&query);
            let reference = fixed_engine.search(&query);
            prop_assert_eq!(
                &outcome.matches, &reference.matches,
                "threshold matches diverge (round={})", round
            );
            let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(outcome.posteriors.len(), outcome.stats.evaluated);
            prop_assert_eq!(
                bits(&outcome.posteriors),
                bits(&reference.posteriors),
                "threshold posteriors diverge (round={})", round
            );
            prop_assert_eq!(outcome.stats.evaluated, n);
            prop_assert_eq!(outcome.stats.stage_partition(), outcome.stats.evaluated);
            prop_assert_eq!(reference.stats.stage_partition(), reference.stats.evaluated);
        }

        for k in [1usize, 5, n + 3] {
            let ranked = planner_engine.search_top_k(&query, k);
            let reference = fixed_engine.search_top_k(&query, k);
            prop_assert_eq!(
                ranked.hits.len(), reference.hits.len(),
                "top-{} hit count diverges", k
            );
            for (a, b) in ranked.hits.iter().zip(&reference.hits) {
                prop_assert_eq!(a.id, b.id, "top-{} ids diverge", k);
                prop_assert_eq!(
                    a.posterior.to_bits(), b.posterior.to_bits(),
                    "top-{} posteriors diverge", k
                );
            }
            prop_assert_eq!(ranked.stats.stage_partition(), ranked.stats.evaluated);
        }

        let mut streamed: Vec<usize> = Vec::new();
        let stream_stats = planner_engine.search_streaming(&query, |id, _| streamed.push(id));
        let reference = fixed_engine.search(&query);
        prop_assert_eq!(
            &streamed, &reference.matches,
            "streamed hits diverge"
        );
        prop_assert_eq!(stream_stats.stage_partition(), stream_stats.evaluated);

        // Dynamic base+delta under tombstones: the planner plans each
        // segment independently (tiny deltas skip the bound stages) and
        // must still match the fixed pipeline bit-for-bit.
        let mut dynamic = DynamicDatabase::new(database);
        for graph in adversarial_graphs(seed ^ 0xD1CE, 7, labels, &[9, 14]) {
            dynamic.insert(graph);
        }
        dynamic.remove(seed % n as u64).unwrap();
        let live = dynamic.live_ids().len();
        let planner_engine = DynamicEngine::new(&dynamic, &index, config.clone());
        let fixed_engine = DynamicEngine::new(
            &dynamic,
            &index,
            config.clone().with_force_fixed_pipeline(true),
        );
        for round in 0..10 {
            let outcome = planner_engine.search(&query);
            let reference = fixed_engine.search(&query);
            prop_assert_eq!(
                &outcome.matches, &reference.matches,
                "dynamic matches diverge (round={})", round
            );
            prop_assert_eq!(outcome.stats.evaluated, live);
            prop_assert_eq!(outcome.stats.stage_partition(), outcome.stats.evaluated);
        }
        let ranked = planner_engine.search_top_k(&query, 6);
        let reference = fixed_engine.search_top_k(&query, 6);
        prop_assert_eq!(ranked.hits.len(), reference.hits.len(), "dynamic top-k diverges");
        for (a, b) in ranked.hits.iter().zip(&reference.hits) {
            prop_assert_eq!(a.id, b.id, "dynamic top-k ids diverge");
            prop_assert_eq!(
                a.posterior.to_bits(), b.posterior.to_bits(),
                "dynamic top-k posteriors diverge"
            );
        }
        prop_assert_eq!(ranked.stats.stage_partition(), ranked.stats.evaluated);
    }
}
