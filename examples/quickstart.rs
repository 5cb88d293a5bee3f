//! Quickstart: index a small graph database and answer one similarity query.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use gbda::prelude::*;
use rand::SeedableRng;

fn main() {
    // 1. Build a small database of labeled graphs (a stand-in for loading a
    //    real collection through `gbda::graph::io`).
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let generator = GeneratorConfig::new(16, 2.2).with_alphabets(LabelAlphabets::new(8, 3));
    let graphs = generator
        .generate_many(60, &mut rng)
        .expect("generation succeeds");
    let query = graphs[10].clone();
    println!(
        "database: {} graphs, query: {} vertices / {} edges",
        graphs.len(),
        query.vertex_count(),
        query.edge_count()
    );

    // 2. Offline stage: pre-compute the GBD and GED priors.
    let database = GraphDatabase::from_graphs(graphs);
    let config = GbdaConfig::new(4, 0.8).with_sample_pairs(1000);
    let index = OfflineIndex::build(&database, &config).expect("offline stage builds");
    let stats = index.stats();
    println!(
        "offline stage: GBD prior {:.3}s over {} pairs, GED prior {:.3}s",
        stats.gbd_prior_seconds, stats.sampled_pairs, stats.ged_prior_seconds
    );

    // 3. Online stage: Algorithm 1, served by the query engine. Search
    //    returns ids only unless it is asked to record every posterior.
    let searcher = QueryEngine::new(&database, &index, config.with_record_posteriors(true));
    let outcome = searcher.search(&query);
    println!(
        "GBDA returned {} graphs with Pr[GED ≤ 4 | GBD] ≥ 0.8 in {:.4}s \
         ({} posterior evaluations, {} memo hits):",
        outcome.matches.len(),
        outcome.seconds,
        outcome.stats.cache_misses,
        outcome.stats.cache_hits
    );
    for &i in &outcome.matches {
        println!(
            "  graph #{i:3}  GBD = {:2}  posterior = {:.3}",
            graph_branch_distance(&query, database.graph(i)),
            outcome.posteriors[i]
        );
    }

    // 4. Cross-check the top hit with the exact (NP-hard) GED — feasible here
    //    because the graphs are small.
    if let Some(&best) = outcome.matches.first() {
        let (exact, _) = exact_ged(&query, database.graph(best));
        println!("exact GED to the first returned graph: {exact}");
    }
}
