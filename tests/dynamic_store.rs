//! Storage-engine integration tests: snapshot persistence and the dynamic
//! layer, exercised through the `gbda` facade.
//!
//! The central property: for **any** interleaving of insert / remove /
//! compact, a [`DynamicEngine`] scan is bit-identical — matches *and*
//! posteriors — to a [`QueryEngine`] over a freshly built database of the
//! surviving graphs, across every variant (Standard / V1 / V2) and cascade
//! mode, given the same offline index. The same holds for **ranked**
//! queries: `search_top_k` over the dynamic live set equals the fresh
//! rebuild's top-k (ids mapped through the canonical order) for every k.

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

/// Asserts one dynamic scan equals the fresh-rebuild scan bit-for-bit.
fn assert_equivalent(
    dynamic: &DynamicDatabase,
    index: &OfflineIndex,
    config: &GbdaConfig,
    queries: &[Graph],
    context: &str,
) {
    let (ids, survivors): (Vec<u64>, Vec<Graph>) = dynamic
        .live_graphs()
        .map(|(id, graph)| (id, graph.clone()))
        .unzip();
    let fresh = GraphDatabase::with_alphabets(survivors, dynamic.alphabets());
    let static_engine = QueryEngine::new(&fresh, index, config.clone());
    let dynamic_engine = DynamicEngine::new(dynamic, index, config.clone());
    assert_eq!(
        static_engine.fixed_extended_size(),
        dynamic_engine.fixed_extended_size(),
        "{context}: V1 sampling diverged"
    );
    for (q, query) in queries.iter().enumerate() {
        let expected = static_engine.search(query);
        let got = dynamic_engine.search(query);
        assert_eq!(
            got.ids, ids,
            "{context}: query {q} scanned a different live set"
        );
        let expected_ids: Vec<u64> = expected.matches.iter().map(|&i| ids[i]).collect();
        assert_eq!(
            got.matches, expected_ids,
            "{context}: query {q} matches diverge"
        );
        let recorded = if config.record_posteriors {
            got.stats.evaluated
        } else {
            0
        };
        assert_eq!(got.posteriors.len(), recorded, "{context}: query {q}");
        assert_eq!(
            got.posteriors.len(),
            expected.posteriors.len(),
            "{context}: query {q}"
        );
        for (i, (a, b)) in got.posteriors.iter().zip(&expected.posteriors).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: query {q} posterior {i} diverges"
            );
        }
        assert_eq!(got.stats.evaluated, fresh.len(), "{context}: query {q}");

        // Ranked queries: dynamic top-k equals the fresh rebuild's top-k with
        // indices mapped through the canonical order, for small, saturating
        // and oversized k.
        for k in [1usize, 5, fresh.len(), fresh.len() + 7] {
            let expected_top = static_engine.search_top_k(query, k);
            let got_top = dynamic_engine.search_top_k(query, k);
            assert_eq!(
                got_top.hits.len(),
                expected_top.hits.len(),
                "{context}: query {q} top-{k} lengths diverge"
            );
            for (i, (a, b)) in got_top.hits.iter().zip(&expected_top.hits).enumerate() {
                assert_eq!(
                    a.id, ids[b.id],
                    "{context}: query {q} top-{k} hit {i} id diverges"
                );
                assert_eq!(
                    a.posterior.to_bits(),
                    b.posterior.to_bits(),
                    "{context}: query {q} top-{k} hit {i} posterior diverges"
                );
            }
        }
    }
}

/// Every (variant, cascade, record) combination the engine supports.
fn all_modes(config: &GbdaConfig) -> Vec<(String, GbdaConfig)> {
    let variants = [
        ("standard", GbdaVariant::Standard),
        ("v1", GbdaVariant::AverageExtendedSize { sample_graphs: 5 }),
        ("v2", GbdaVariant::WeightedGbd { weight: 0.4 }),
        ("v2-negative", GbdaVariant::WeightedGbd { weight: -0.3 }),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance property: random interleavings, all modes,
    /// bit-identical to a fresh `from_graphs` over the survivors.
    #[test]
    fn dynamic_scans_equal_a_fresh_rebuild(seed in 0u64..10_000, ops in 3usize..14) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
        let base = GraphDatabase::from_graphs(mixed_graphs(seed, 4));
        let config = GbdaConfig::new(4, 0.7).with_sample_pairs(150).with_seed(seed);
        let index = OfflineIndex::build(&base, &config).unwrap();
        let queries = [
            base.graph(rng.gen_range(0..base.len())).clone(),
            graphs_from_seed(seed ^ 0xABCD, 1, 10).pop().unwrap(),
        ];
        let mut dynamic = DynamicDatabase::new(base);
        random_interleaving(&mut dynamic, &mut rng, ops, seed);
        for (context, mode_config) in all_modes(&config) {
            assert_equivalent(&dynamic, &index, &mode_config, &queries, &context);
        }
    }

    /// Snapshots preserve scans: save → load → identical outcomes, and the
    /// loaded structures verify against a fresh postings rebuild.
    #[test]
    fn snapshot_round_trip_preserves_scans(seed in 0u64..10_000) {
        let database = GraphDatabase::from_graphs(mixed_graphs(seed, 3));
        let bytes = Snapshot::from_database(&database).to_bytes();
        let (loaded, _) = Snapshot::from_bytes(&bytes).unwrap().into_database().unwrap();
        prop_assert!(loaded.verify_postings());
        prop_assert_eq!(loaded.len(), database.len());
        prop_assert_eq!(loaded.arena_len(), database.arena_len());

        let config = GbdaConfig::new(4, 0.75)
            .with_sample_pairs(120)
            .with_seed(seed)
            .with_record_posteriors(true);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let query = database.graph(0).clone();
        let original = QueryEngine::new(&database, &index, config.clone());
        let reloaded = QueryEngine::new(&loaded, &index, config);
        let a = original.search(&query);
        let b = reloaded.search(&query);
        prop_assert_eq!(a.matches, b.matches);
        prop_assert_eq!(a.posteriors.len(), a.stats.evaluated);
        prop_assert_eq!(a.posteriors.len(), b.posteriors.len());
        for (x, y) in a.posteriors.iter().zip(&b.posteriors) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Random single-byte corruption never panics the loader: it either
    /// trips a typed error (almost always the checksum) or — for header
    /// fields — a magic/version/framing error.
    #[test]
    fn corrupted_snapshots_error_instead_of_panicking(seed in 0u64..10_000) {
        let database = GraphDatabase::from_graphs(graphs_from_seed(seed, 6, 9));
        let bytes = Snapshot::from_database(&database).to_bytes();
        let mut rng = StdRng::seed_from_u64(seed);
        let position = rng.gen_range(0..bytes.len());
        let flip = 1u8 << rng.gen_range(0u32..8);
        let mut corrupted = bytes.clone();
        corrupted[position] ^= flip;
        match Snapshot::from_bytes(&corrupted) {
            Err(_) => {}
            // A flip inside the checksum-covered payload cannot decode; a
            // header-adjacent flip that still decodes must still build a
            // coherent database or error — never panic.
            Ok(snapshot) => {
                let _ = snapshot.into_database();
            }
        }
    }
}

/// The full production lifecycle: build → save → load → serve dynamically →
/// compact → save again → load again.
#[test]
fn snapshot_dynamic_compact_lifecycle() {
    let dir = std::env::temp_dir();
    let first_path = dir.join("gbda-lifecycle-base.snap");
    let second_path = dir.join("gbda-lifecycle-compacted.snap");

    let database = GraphDatabase::from_graphs(mixed_graphs(0xA11CE, 4));
    let config = GbdaConfig::new(4, 0.7).with_sample_pairs(200);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let query = database.graph(3).clone();
    let baseline = QueryEngine::new(&database, &index, config.clone()).search(&query);

    // Persist, reload, and serve the reloaded base dynamically.
    save_database(&database, &Vocabulary::new(), &first_path).unwrap();
    let (loaded, _) = load_database(&first_path).unwrap();
    let mut dynamic = DynamicDatabase::new(loaded);
    let reloaded_scan = DynamicEngine::new(&dynamic, &index, config.clone()).search(&query);
    let expected: Vec<u64> = baseline.matches.iter().map(|&i| i as u64).collect();
    assert_eq!(reloaded_scan.matches, expected);

    // Mutate, compact, persist the compacted state, reload it.
    let inserted = dynamic.insert(graphs_from_seed(7, 1, 11).pop().unwrap());
    dynamic.remove(0).unwrap();
    dynamic.remove(5).unwrap();
    let live_before = dynamic.live_ids();
    dynamic.compact();
    assert_eq!(dynamic.live_ids(), live_before);
    assert!(dynamic.contains(inserted));
    save_database(dynamic.base(), &Vocabulary::new(), &second_path).unwrap();
    let (compacted, _) = load_database(&second_path).unwrap();
    assert_eq!(compacted.len(), dynamic.len());
    assert!(compacted.verify_postings());

    // The reloaded compacted base scans like the dynamic view did.
    let dynamic_scan = DynamicEngine::new(&dynamic, &index, config.clone()).search(&query);
    let static_scan = QueryEngine::new(&compacted, &index, config).search(&query);
    let static_ids: Vec<u64> = static_scan
        .matches
        .iter()
        .map(|&i| live_before[i])
        .collect();
    assert_eq!(dynamic_scan.matches, static_ids);

    std::fs::remove_file(&first_path).ok();
    std::fs::remove_file(&second_path).ok();
}

/// Inserts may introduce branches the base catalog has never seen; the
/// grown catalog must serve both segments and survive compaction.
#[test]
fn inserts_grow_the_catalog_without_breaking_base_scans() {
    let base = GraphDatabase::from_graphs(graphs_from_seed(1, 8, 10));
    let config = GbdaConfig::new(3, 0.8)
        .with_sample_pairs(100)
        .with_record_posteriors(true);
    let index = OfflineIndex::build(&base, &config).unwrap();
    let base_catalog_len = base.catalog().len();
    let mut dynamic = DynamicDatabase::new(base);
    // A disjoint alphabet guarantees unseen branches.
    let mut rng = StdRng::seed_from_u64(77);
    let alien = GeneratorConfig::new(12, 2.5)
        .with_alphabets(LabelAlphabets::new(40, 9))
        .generate_many(3, &mut rng)
        .unwrap();
    for graph in alien.clone() {
        dynamic.insert(graph);
    }
    assert!(
        dynamic.catalog().len() > base_catalog_len,
        "alien labels must intern new branches"
    );
    // Scans over base + delta still agree with the fresh rebuild, with the
    // alien graphs as queries too.
    let mut queries = vec![dynamic.base().graph(0).clone()];
    queries.extend(alien);
    assert_equivalent(&dynamic, &index, &config, &queries, "grown catalog");
    dynamic.compact();
    assert_equivalent(&dynamic, &index, &config, &queries, "compacted alien");
}
