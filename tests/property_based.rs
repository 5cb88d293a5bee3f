//! Property-based tests over the core invariants, spanning crates.

use gbda::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;

/// Builds a reproducible random graph from a seed and size.
fn graph_from_seed(seed: u64, vertices: usize, degree: f64, labels: usize) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    GeneratorConfig::new(vertices, degree)
        .with_alphabets(LabelAlphabets::new(labels, labels.min(4)))
        .generate(&mut rng)
        .expect("generation succeeds for sane parameters")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GBD is symmetric and bounded by max(|V1|, |V2|).
    #[test]
    fn gbd_is_symmetric_and_bounded(seed_a in 0u64..500, seed_b in 500u64..1000,
                                    n_a in 2usize..14, n_b in 2usize..14) {
        let a = graph_from_seed(seed_a, n_a, 2.0, 5);
        let b = graph_from_seed(seed_b, n_b, 2.0, 5);
        let d_ab = graph_branch_distance(&a, &b);
        let d_ba = graph_branch_distance(&b, &a);
        prop_assert_eq!(d_ab, d_ba);
        prop_assert!(d_ab <= n_a.max(n_b));
        prop_assert_eq!(graph_branch_distance(&a, &a), 0);
    }

    /// The full bound chain on random small graphs:
    /// label LB ≤ GED, ⌈GBD/2⌉ ≤ GED ≤ greedy UB, and LSAP ≤ GED.
    #[test]
    fn bounds_sandwich_the_exact_ged(seed_a in 0u64..300, seed_b in 300u64..600,
                                     n_a in 2usize..7, n_b in 2usize..7) {
        let a = graph_from_seed(seed_a, n_a, 1.8, 4);
        let b = graph_from_seed(seed_b, n_b, 1.8, 4);
        let (exact, _) = exact_ged(&a, &b);
        prop_assert!(gbda::ged::label_lower_bound(&a, &b) <= exact);
        prop_assert!(gbda::ged::branch_lower_bound(&a, &b) <= exact);
        prop_assert!(gbda::ged::greedy_upper_bound(&a, &b) >= exact);
        prop_assert!(LsapGed.estimate_ged(&a, &b) <= exact as f64 + 1e-9);
    }

    /// GED is a metric on small graphs: symmetry and triangle inequality.
    #[test]
    fn exact_ged_is_symmetric_and_triangular(seed in 0u64..200, n in 2usize..6) {
        let a = graph_from_seed(seed, n, 1.6, 3);
        let b = graph_from_seed(seed + 1000, n, 1.6, 3);
        let c = graph_from_seed(seed + 2000, n, 1.6, 3);
        let ab = exact_ged(&a, &b).0;
        let ba = exact_ged(&b, &a).0;
        let bc = exact_ged(&b, &c).0;
        let ac = exact_ged(&a, &c).0;
        prop_assert_eq!(ab, ba);
        prop_assert!(ac <= ab + bc);
    }

    /// Branch multisets round-trip through the text format.
    #[test]
    fn text_io_round_trips_random_graphs(seed in 0u64..400, n in 1usize..20) {
        let g = graph_from_seed(seed, n, 2.2, 6);
        let vocabulary = Vocabulary::new();
        let text = gbda::graph::io::write_graph(&g, &vocabulary);
        let mut vocabulary2 = Vocabulary::new();
        let parsed = gbda::graph::io::parse_graph(&text, &mut vocabulary2).unwrap();
        prop_assert_eq!(parsed.vertex_count(), g.vertex_count());
        prop_assert_eq!(parsed.edge_count(), g.edge_count());
        // Re-serialising the parsed graph is stable.
        let text2 = gbda::graph::io::write_graph(&parsed, &vocabulary2);
        let mut vocabulary3 = Vocabulary::new();
        let reparsed = gbda::graph::io::parse_graph(&text2, &mut vocabulary3).unwrap();
        prop_assert_eq!(graph_branch_distance(&parsed, &reparsed), 0);
    }

    /// Λ1(τ, ·) is a probability distribution for random model parameters.
    #[test]
    fn lambda1_rows_are_distributions(v in 2usize..20, lv in 1usize..10, le in 1usize..6,
                                      tau in 0u64..5) {
        let model = gbda::prob::BranchEditModel::new(v, LabelAlphabets::new(lv, le));
        let total: f64 = (0..=2 * tau).map(|phi| gbda::prob::lambda1(&model, tau, phi)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "Λ1 row sums to {}", total);
    }

    /// Flat interned branch sets compute exactly the multiset GBD — both
    /// when the catalog interned both graphs (database side) and when one
    /// side is a read-only lookup with possible unknowns (query side).
    #[test]
    fn flat_branch_sets_match_multiset_gbd(seed_a in 0u64..400, seed_b in 400u64..800,
                                           n_a in 1usize..16, n_b in 1usize..16) {
        let a = graph_from_seed(seed_a, n_a, 2.2, 5);
        let b = graph_from_seed(seed_b, n_b, 2.2, 5);
        let ma = BranchMultiset::from_graph(&a);
        let mb = BranchMultiset::from_graph(&b);

        // Database side: both sets fully interned.
        let mut catalog = BranchCatalog::new();
        let fa = catalog.flatten(&ma);
        let fb = catalog.flatten(&mb);
        prop_assert_eq!(fa.gbd(&fb), ma.gbd(&mb));
        prop_assert_eq!(fb.gbd(&fa), mb.gbd(&ma));
        prop_assert_eq!(fa.intersection_size(&fb), ma.intersection_size(&mb));
        for w in [0.0, 0.3, 1.0] {
            prop_assert_eq!(fa.weighted_gbd(&fb, w), ma.weighted_gbd(&mb, w));
        }

        // Query side: only `a` is catalogued, `b` is looked up read-only.
        let mut db_catalog = BranchCatalog::new();
        let db_side = db_catalog.flatten(&ma);
        let query_side = db_catalog.flatten_lookup(&mb);
        prop_assert_eq!(query_side.gbd(&db_side), mb.gbd(&ma));
    }

    /// The engine's posterior memo is bit-identical to evaluating the
    /// uncached `posterior_ged_at_most` on the same priors.
    #[test]
    fn posterior_cache_is_bit_identical_to_uncached(seed in 0u64..100, tau_hat in 1u64..6,
                                                    size in 2usize..20, phi in 0u64..15) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let graphs = GeneratorConfig::new(10, 2.0)
            .with_alphabets(LabelAlphabets::new(5, 3))
            .generate_many(10, &mut rng)
            .unwrap();
        let database = GraphDatabase::from_graphs(graphs);
        let config = GbdaConfig::new(tau_hat, 0.8).with_sample_pairs(45);
        let index = OfflineIndex::build(&database, &config).unwrap();
        let cache = PosteriorCache::new(tau_hat);
        let lambda1 = index.lambda1_table(size);
        let ged_prior = index.ged_prior().column(size);
        let gbd_prior = index.gbd_prior().probability(phi as usize);
        let direct = gbda::prob::posterior_ged_at_most(
            tau_hat, phi, &lambda1, &ged_prior, gbd_prior,
        );
        // First call computes, second call reads the memo; both must carry
        // the exact bits of the direct evaluation.
        prop_assert_eq!(cache.posterior(&index, size, phi).to_bits(), direct.to_bits());
        prop_assert_eq!(cache.posterior(&index, size, phi).to_bits(), direct.to_bits());
    }

    /// Every filter-cascade bound is a true lower/upper bound on the exact
    /// observed branch distance, and the inverted-index count filter
    /// reproduces the merge's intersection exactly — for the plain GBD and
    /// the weighted V2 distance alike.
    #[test]
    fn filter_bounds_sandwich_the_exact_distance(seed in 0u64..120, q_seed in 1000u64..1120,
                                                 n_lo in 3usize..10, q_size in 3usize..18,
                                                 w_tenths in 0usize..11) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut graphs = Vec::new();
        for size in [n_lo, n_lo + 5, n_lo + 9] {
            let cfg = GeneratorConfig::new(size, 2.0)
                .with_alphabets(LabelAlphabets::new(5, 3));
            graphs.extend(cfg.generate_many(5, &mut rng).unwrap());
        }
        let database = GraphDatabase::from_graphs(graphs);
        let query = graph_from_seed(q_seed, q_size, 2.0, 5);
        let multiset = BranchMultiset::from_graph(&query);
        let flat = database.catalog().flatten_lookup(&multiset);
        let weight = (w_tenths > 0).then(|| w_tenths as f64 / 10.0);
        let cascade = FilterCascade::new(&database, &flat, weight);
        prop_assert!(cascade.bounds_usable());
        let acc = cascade.intersections(0..database.len());
        for (i, &acc_i) in acc.iter().enumerate() {
            let merged_inter = flat.as_view().intersection_size(database.flat(i));
            prop_assert_eq!(acc_i as usize, merged_inter, "count filter diverges on {}", i);
            let phi = cascade.phi_exact(i, acc_i);
            let expected = match weight {
                None => flat.as_view().gbd(database.flat(i)) as u64,
                Some(w) => flat.as_view().weighted_gbd(database.flat(i), w)
                    .round().max(0.0) as u64,
            };
            prop_assert_eq!(phi, expected, "exact ϕ diverges on {}", i);
            let (lb1, ub1) = cascade.size_bounds(database.size_of(i));
            prop_assert!(lb1 <= phi && phi <= ub1, "stage-1 bound violated on {}", i);
        }
    }

    /// The cascade-enabled engine is bit-identical to the seed-faithful
    /// `reference_search` across the standard, V1 and V2 modes, recording
    /// posteriors or not.
    #[test]
    fn cascade_search_matches_reference_search(seed in 0u64..40, variant_pick in 0usize..3,
                                               tau_hat in 2u64..5, record in 0usize..2) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut graphs = Vec::new();
        for size in [8usize, 12, 16] {
            let cfg = GeneratorConfig::new(size, 2.2)
                .with_alphabets(LabelAlphabets::new(6, 3));
            graphs.extend(cfg.generate_many(8, &mut rng).unwrap());
        }
        let queries: Vec<Graph> = vec![graphs[0].clone(), graphs[15].clone()];
        let database = GraphDatabase::from_graphs(graphs);
        let variant = match variant_pick {
            0 => GbdaVariant::Standard,
            1 => GbdaVariant::AverageExtendedSize { sample_graphs: 5 },
            _ => GbdaVariant::WeightedGbd { weight: 0.4 },
        };
        let config = GbdaConfig::new(tau_hat, 0.75)
            .with_sample_pairs(150)
            .with_variant(variant);
        prop_assert!(config.filter_cascade, "the cascade must default to on");
        let index = OfflineIndex::build(&database, &config).unwrap();
        let engine = QueryEngine::new(
            &database,
            &index,
            config.with_record_posteriors(record == 1),
        );
        for query in &queries {
            let cascade = engine.search(query);
            let reference = engine.reference_search(query);
            prop_assert_eq!(&cascade.matches, &reference.matches);
            prop_assert_eq!(cascade.stats.merged, 0);
            if record == 1 {
                prop_assert_eq!(cascade.posteriors.len(), cascade.stats.evaluated);
                prop_assert_eq!(cascade.posteriors.len(), reference.posteriors.len());
                for (x, y) in cascade.posteriors.iter().zip(&reference.posteriors) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "posterior bits diverge");
                }
            } else {
                prop_assert!(cascade.posteriors.is_empty());
            }
        }
    }

    /// The Hungarian solver never exceeds the greedy solution.
    #[test]
    fn hungarian_is_optimal_relative_to_greedy(seed in 0u64..500, n in 1usize..9) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..9.0)).collect())
            .collect();
        let (_, optimal) = gbda::assignment::hungarian(&cost);
        let (_, greedy) = gbda::assignment::greedy_assignment(&cost);
        prop_assert!(optimal <= greedy + 1e-9);
    }
}
