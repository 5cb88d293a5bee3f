//! Scalability of the online stage on large scale-free graphs (Syn-1 style).
//!
//! GBDA's selling point is the `O(nd + τ̂³)` online cost: the per-pair work is
//! one branch-multiset merge plus `O(τ̂)` table lookups, so query time grows
//! roughly linearly with the graph size while the LSAP baseline grows
//! cubically. This example sweeps the graph size (a laptop-scale version of
//! Figure 8) and prints the average per-query time of the GBDA query engine
//! and of the Greedy-Sort baseline (the cheapest competitor).
//!
//! ```bash
//! cargo run --release --example scalability
//! ```

use std::time::Instant;

use gbda::prelude::*;

fn main() {
    let sizes = [200usize, 400, 800, 1600];
    let tau_hat = 10u64;

    println!("graph size | GBDA (s/query) | greedysort (s/query)");
    for &n in &sizes {
        let config = SyntheticConfig {
            graphs_per_subset: 6,
            queries_per_subset: 2,
            ..SyntheticConfig::syn1(vec![n])
        };
        let synthetic = generate_synthetic(&config).expect("generation succeeds");
        let subset = &synthetic.subsets[0];
        let database =
            GraphDatabase::with_alphabets(subset.dataset.graphs.clone(), subset.dataset.alphabets);

        let gbda_config = GbdaConfig::new(tau_hat, 0.7).with_sample_pairs(30);
        let index = OfflineIndex::build(&database, &gbda_config).expect("offline stage builds");
        let gbda = QueryEngine::new(&database, &index, gbda_config);
        let greedy = EstimatorSearcher::new(&database, GreedyGed, tau_hat as f64);

        let time_per_query = |searcher: &dyn SimilaritySearcher| -> f64 {
            let started = Instant::now();
            for q in &subset.dataset.queries {
                let _ = searcher.search(q);
            }
            started.elapsed().as_secs_f64() / subset.dataset.queries.len() as f64
        };

        let gbda_time = time_per_query(&gbda);
        let greedy_time = time_per_query(&greedy);
        println!("{n:10} | {gbda_time:14.4} | {greedy_time:19.4}");
    }
    println!(
        "(GBDA should scale close to linearly; the assignment baseline degrades much faster.)"
    );
}
