//! Kernel-level invariants shared by every scan instantiation, exercised
//! through the `gbda` facade.
//!
//! Three contracts from the scan-kernel refactor:
//!
//! 1. **Stage partition** — every evaluated graph is decided by exactly one
//!    stage of the kernel, so
//!    `bound_rejected + bound_accepted + rank_rejected + postings_resolved +
//!    merged == evaluated` ([`SearchStats::stage_partition`]) on every
//!    instantiation — threshold, top-k, dynamic base+delta and streaming —
//!    and on the totals of a batch of queries.
//!
//! 2. **Streaming ≡ collecting** — the `Subscriber` sink's callback sequence
//!    yields exactly the hit set (and, in record mode, the posterior bits) of
//!    a collecting scan over the same final database state, for any
//!    interleaving of inserts, removes and compactions.
//!
//! 3. **One driver, two view shapes** — a static engine over `D` and a
//!    dynamic engine over `D` with an empty log run the same driver code, so
//!    they agree on every answer *and every stats counter*.

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

/// Every (variant, cascade, record) combination the engine supports.
fn all_modes(config: &GbdaConfig) -> Vec<(String, GbdaConfig)> {
    let variants = [
        ("standard", GbdaVariant::Standard),
        ("v1", GbdaVariant::AverageExtendedSize { sample_graphs: 5 }),
        ("v2", GbdaVariant::WeightedGbd { weight: 0.4 }),
    ];
    let mut modes = Vec::new();
    for (name, variant) in variants {
        for cascade in [true, false] {
            for record in [true, false] {
                modes.push((
                    format!("{name}/cascade={cascade}/record={record}"),
                    config
                        .clone()
                        .with_variant(variant)
                        .with_filter_cascade(cascade)
                        .with_record_posteriors(record),
                ));
            }
        }
    }
    modes
}

fn assert_partition(stats: &SearchStats, expected_evaluated: usize, context: &str) {
    assert_eq!(
        stats.evaluated, expected_evaluated,
        "{context}: evaluated diverges from the live-set size"
    );
    assert_eq!(
        stats.stage_partition(),
        stats.evaluated,
        "{context}: stages do not partition the evaluated set \
         (bound_rejected={} bound_accepted={} rank_rejected={} \
          postings_resolved={} merged={} evaluated={})",
        stats.bound_rejected,
        stats.bound_accepted,
        stats.rank_rejected,
        stats.postings_resolved,
        stats.merged,
        stats.evaluated,
    );
}

/// Threshold scans: every mode partitions exactly.
#[test]
fn stage_partition_holds_for_threshold_scans() {
    let database = GraphDatabase::from_graphs(mixed_graphs(0xA0, 5));
    let n = database.len();
    let base = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(9);
    let index = OfflineIndex::build(&database, &base).unwrap();
    let query = database.graph(2).clone();
    for (context, mode) in all_modes(&base) {
        let engine = QueryEngine::new(&database, &index, mode);
        let outcome = engine.search(&query);
        assert_partition(&outcome.stats, n, &format!("threshold {context}"));
    }
}

/// Ranked scans: every mode × k partitions exactly.
#[test]
fn stage_partition_holds_for_ranked_scans() {
    let database = GraphDatabase::from_graphs(mixed_graphs(0xB1, 5));
    let n = database.len();
    let base = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(11);
    let index = OfflineIndex::build(&database, &base).unwrap();
    let query = database.graph(0).clone();
    for (context, mode) in all_modes(&base) {
        let engine = QueryEngine::new(&database, &index, mode);
        for k in [1usize, 5, n, n + 7] {
            let outcome = engine.search_top_k(&query, k);
            assert_partition(&outcome.stats, n, &format!("top-{k} {context}"));
        }
    }
}

/// A batch of queries on one engine, one scan each: every query's stats and
/// the totals [`SearchStats::absorb`] sums from them both partition.
#[test]
fn stage_partition_holds_for_batch_scans() {
    let database = GraphDatabase::from_graphs(mixed_graphs(0xC2, 4));
    let n = database.len();
    let config = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(13);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let engine = QueryEngine::new(&database, &index, config);
    let queries: Vec<Graph> = (0..4).map(|i| database.graph(i * 2).clone()).collect();

    let (mut totals, mut ranked_totals) = (SearchStats::default(), SearchStats::default());
    for (q, query) in queries.iter().enumerate() {
        let stats = engine.search(query).stats;
        assert_partition(&stats, n, &format!("batch threshold query {q}"));
        totals.absorb(&stats);
        let stats = engine.search_top_k(query, 5).stats;
        assert_partition(&stats, n, &format!("batch top-k query {q}"));
        ranked_totals.absorb(&stats);
    }
    assert_partition(&totals, n * queries.len(), "batch threshold totals");
    assert_partition(&ranked_totals, n * queries.len(), "batch top-k totals");
}

/// Dynamic base+delta scans under tombstone masks: the partition covers the
/// live set only, for both threshold and ranked paths.
#[test]
fn stage_partition_holds_for_dynamic_scans() {
    let base = GraphDatabase::from_graphs(mixed_graphs(0xD3, 4));
    let config = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(17);
    let index = OfflineIndex::build(&base, &config).unwrap();
    let query = base.graph(1).clone();
    let mut dynamic = DynamicDatabase::new(base);
    for graph in mixed_graphs(0xD3 ^ 0xFEED, 1) {
        dynamic.insert(graph);
    }
    dynamic.remove(0).unwrap();
    dynamic.remove(4).unwrap();
    let live = dynamic.live_ids().len();

    for (context, mode) in all_modes(&config) {
        let engine = DynamicEngine::new(&dynamic, &index, mode);
        let outcome = engine.search(&query);
        assert_partition(
            &outcome.stats,
            live,
            &format!("dynamic threshold {context}"),
        );
        for k in [1usize, 3, live + 2] {
            let ranked = engine.search_top_k(&query, k);
            assert_partition(&ranked.stats, live, &format!("dynamic top-{k} {context}"));
        }
    }
}

/// Streaming scans partition too, on both the static and dynamic engines.
#[test]
fn stage_partition_holds_for_streaming_scans() {
    let base = GraphDatabase::from_graphs(mixed_graphs(0xE4, 4));
    let n = base.len();
    let config = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(19);
    let index = OfflineIndex::build(&base, &config).unwrap();
    let query = base.graph(3).clone();

    for (context, mode) in all_modes(&config) {
        let engine = QueryEngine::new(&base, &index, mode.clone());
        let stats = engine.search_streaming(&query, |_, _| {});
        assert_partition(&stats, n, &format!("static streaming {context}"));
    }

    let mut dynamic = DynamicDatabase::new(base);
    dynamic.remove(2).unwrap();
    let live = dynamic.live_ids().len();
    for (context, mode) in all_modes(&config) {
        let engine = DynamicEngine::new(&dynamic, &index, mode);
        let stats = engine.search_streaming(&query, |_, _| {});
        assert_partition(&stats, live, &format!("dynamic streaming {context}"));
    }
}

/// `QueryEngine` over `D` (one unmasked part) and `DynamicEngine` over
/// `DynamicDatabase::new(D)` (base part + empty delta part, no tombstones)
/// are the same driver in its two view shapes: they return the same ids,
/// matches, posterior bits and ranked hits, and `SearchStats` equal field
/// for field once the wall-clock fields are zeroed — for
/// threshold, top-k and streaming, in every mode. Both engines see the same
/// query sequence, so their posterior memos evolve in step.
#[test]
fn static_and_empty_log_dynamic_engines_agree_on_answers_and_stats() {
    fn timeless(mut stats: SearchStats) -> SearchStats {
        stats.flatten_seconds = 0.0;
        stats.scan_seconds = 0.0;
        stats
    }
    let bits = |posteriors: &[f64]| posteriors.iter().map(|p| p.to_bits()).collect::<Vec<_>>();

    let database = GraphDatabase::from_graphs(mixed_graphs(0xF5, 8));
    let n = database.len();
    let config = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(23);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let dynamic = DynamicDatabase::new(database.clone());
    let queries: Vec<Graph> = (0..10)
        .map(|i| database.graph((i * 5) % n).clone())
        .collect();

    for (context, mode) in all_modes(&config) {
        let fixed = QueryEngine::new(&database, &index, mode.clone());
        let live = DynamicEngine::new(&dynamic, &index, mode);
        assert_eq!(fixed.fixed_extended_size(), live.fixed_extended_size());
        for (q, query) in queries.iter().enumerate() {
            let context = format!("{context} query {q}");
            let (a, b) = (fixed.search(query), live.search(query));
            assert_eq!(b.ids, (0..n as u64).collect::<Vec<_>>(), "{context}");
            let matches: Vec<u64> = a.matches.iter().map(|&i| i as u64).collect();
            assert_eq!(matches, b.matches, "{context}: matches");
            let recorded = if fixed.config().record_posteriors {
                a.stats.evaluated
            } else {
                0
            };
            assert_eq!(a.posteriors.len(), recorded, "{context}");
            assert_eq!(bits(&a.posteriors), bits(&b.posteriors), "{context}");
            assert_eq!(timeless(a.stats), timeless(b.stats), "{context}: stats");

            for k in [1usize, 5, n + 2] {
                let (a, b) = (fixed.search_top_k(query, k), live.search_top_k(query, k));
                let hits = |id: u64, posterior: f64| (id, posterior.to_bits());
                assert_eq!(
                    a.hits
                        .iter()
                        .map(|h| hits(h.id as u64, h.posterior))
                        .collect::<Vec<_>>(),
                    b.hits
                        .iter()
                        .map(|h| hits(h.id, h.posterior))
                        .collect::<Vec<_>>(),
                    "{context}: top-{k} hits"
                );
                assert_eq!(
                    timeless(a.stats),
                    timeless(b.stats),
                    "{context}: top-{k} stats"
                );
            }

            let (mut streamed_a, mut streamed_b) = (Vec::new(), Vec::new());
            let a = fixed.search_streaming(query, |id, p| {
                streamed_a.push((id as u64, p.map(f64::to_bits)));
            });
            let b = live.search_streaming(query, |id, p| {
                streamed_b.push((id, p.map(f64::to_bits)));
            });
            assert_eq!(streamed_a, streamed_b, "{context}: streamed hits");
            assert_eq!(timeless(a), timeless(b), "{context}: streaming stats");
        }
    }
}

/// Every scan runs one cascade schedule, so a query's stats depend on the
/// query and the view alone: the twelfth run of a query on an engine books
/// exactly the counters of the first, for threshold and top-k on the
/// static and the dynamic view shape.
#[test]
fn repeated_queries_book_identical_stats() {
    fn timeless(mut stats: SearchStats) -> SearchStats {
        stats.flatten_seconds = 0.0;
        stats.scan_seconds = 0.0;
        stats
    }
    fn first_and_twelfth(run: impl Fn() -> SearchStats) -> (SearchStats, SearchStats) {
        let first = timeless(run());
        for _ in 2..12 {
            run();
        }
        (first, timeless(run()))
    }

    let database = GraphDatabase::from_graphs(mixed_graphs(0x1A, 8));
    let config = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(29);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let query = database.graph(3).clone();
    let mut dynamic = DynamicDatabase::new(database.clone());
    for graph in mixed_graphs(0x1A ^ 0xFEED, 1) {
        dynamic.insert(graph);
    }
    dynamic.remove(5).unwrap();

    let fresh_static = || QueryEngine::new(&database, &index, config.clone());
    let fresh_dynamic = || DynamicEngine::new(&dynamic, &index, config.clone());
    let runs = [
        ("static threshold", {
            let engine = fresh_static();
            first_and_twelfth(|| engine.search(&query).stats)
        }),
        ("static top-k", {
            let engine = fresh_static();
            first_and_twelfth(|| engine.search_top_k(&query, 5).stats)
        }),
        ("dynamic threshold", {
            let engine = fresh_dynamic();
            first_and_twelfth(|| engine.search(&query).stats)
        }),
        ("dynamic top-k", {
            let engine = fresh_dynamic();
            first_and_twelfth(|| engine.search_top_k(&query, 5).stats)
        }),
    ];
    for (context, (first, twelfth)) in runs {
        assert_eq!(first, twelfth, "{context}: stats depend on history");
    }
}

/// Applies `ops` random insert/remove/compact operations.
fn random_interleaving(dynamic: &mut DynamicDatabase, rng: &mut StdRng, ops: usize, seed: u64) {
    let mut fresh_graphs = mixed_graphs(seed ^ 0xFEED, ops.div_ceil(3) + 1).into_iter();
    for _ in 0..ops {
        match rng.gen_range(0u32..5) {
            0 | 1 => {
                if let Some(graph) = fresh_graphs.next() {
                    dynamic.insert(graph);
                }
            }
            2 | 3 => {
                let live = dynamic.live_ids();
                if !live.is_empty() {
                    let victim = live[rng.gen_range(0..live.len())];
                    dynamic.remove(victim).expect("live id removes");
                }
            }
            _ => {
                dynamic.compact();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Streaming over the final database state yields the same hit set —
    /// same ids in the same order — as the collecting scan, for any
    /// interleaving of inserts, removes and compactions, in every mode. In
    /// record mode the streamed posteriors are bit-identical too.
    #[test]
    fn streaming_equals_collecting_after_any_interleaving(
        seed in 0u64..10_000,
        ops in 3usize..14,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57BEA);
        let base = GraphDatabase::from_graphs(mixed_graphs(seed, 4));
        let config = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(seed);
        let index = OfflineIndex::build(&base, &config).unwrap();
        let query = graphs_from_seed(seed ^ 0xABCD, 1, 10).pop().unwrap();
        let mut dynamic = DynamicDatabase::new(base);
        random_interleaving(&mut dynamic, &mut rng, ops, seed);

        for (context, mode) in all_modes(&config) {
            // Dynamic engine: stream over base+delta under tombstones.
            let engine = DynamicEngine::new(&dynamic, &index, mode.clone());
            let collected = engine.search(&query);
            let mut streamed: Vec<(u64, Option<f64>)> = Vec::new();
            let stats = engine.search_streaming(&query, |id, posterior| {
                streamed.push((id, posterior));
            });
            let streamed_ids: Vec<u64> = streamed.iter().map(|&(id, _)| id).collect();
            prop_assert_eq!(
                &streamed_ids, &collected.matches,
                "{}: dynamic streamed hit set diverges", context
            );
            prop_assert_eq!(
                stats.evaluated, collected.stats.evaluated,
                "{}: dynamic streaming scanned a different live set", context
            );
            if mode.record_posteriors {
                // Record mode resolves every posterior; the collecting scan
                // stores them parallel to the full live-id order, so index
                // each streamed hit through `ids` and compare bits.
                for (i, &(id, posterior)) in streamed.iter().enumerate() {
                    let streamed_value = posterior.expect("record mode streams posteriors");
                    let slot = collected
                        .ids
                        .iter()
                        .position(|&live| live == id)
                        .expect("hit id is live");
                    prop_assert_eq!(
                        streamed_value.to_bits(),
                        collected.posteriors[slot].to_bits(),
                        "{}: dynamic streamed posterior {} diverges", context, i
                    );
                }
            }

            // Static engine over the surviving graphs: same contract.
            let survivors: Vec<Graph> =
                dynamic.live_graphs().map(|(_, graph)| graph.clone()).collect();
            let fresh = GraphDatabase::with_alphabets(survivors, dynamic.alphabets());
            let static_engine = QueryEngine::new(&fresh, &index, mode.clone());
            let static_collected = static_engine.search(&query);
            let mut static_streamed: Vec<usize> = Vec::new();
            static_engine.search_streaming(&query, |id, _| static_streamed.push(id));
            prop_assert_eq!(
                &static_streamed, &static_collected.matches,
                "{}: static streamed hit set diverges", context
            );
        }
    }
}
