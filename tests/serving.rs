//! Interleaving tests of the concurrent serving layer: under any randomly
//! generated interleaving of concurrent queries with `insert`/`remove`/
//! `compact`, every query answer must be **bit-consistent with some
//! published generation** — i.e. identical to what a fresh static
//! [`QueryEngine`] returns over that generation's live set — across all
//! three GBDA variants and all three query shapes (threshold, top-k,
//! streaming).
//!
//! The readers run on real threads racing the mutation stream; each reader
//! pins generations as they are published and records `(generation,
//! results)` pairs. Verification happens after the fact, once per distinct
//! observed epoch: rebuild that generation's live set as a static database,
//! run the same query through a fresh static engine sharing the same
//! offline index, and compare ids and posterior bits.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gbda::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;

fn sample_graphs(count: usize, seed: u64, size: usize) -> Vec<Graph> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    GeneratorConfig::new(size, 2.0)
        .with_alphabets(LabelAlphabets::new(4, 2))
        .generate_many(count, &mut rng)
        .unwrap()
}

/// One mutation of the generated interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Insert the next graph from the prepared pool.
    Insert,
    /// Remove `hint % next_id` (a no-op when already removed).
    Remove(u64),
    /// Fold the delta and tombstones.
    Compact,
}

/// Decodes one sampled word per op (the vendored proptest shim offers
/// range strategies, so the op mix is encoded arithmetically): insert-
/// leaning, with removes carrying their target hint in the high bits.
fn decode_ops(words: &[u64]) -> Vec<Op> {
    words
        .iter()
        .map(|&word| match word % 6 {
            0..=2 => Op::Insert,
            3 | 4 => Op::Remove(word / 6),
            _ => Op::Compact,
        })
        .collect()
}

fn variant_of(tag: u8) -> GbdaVariant {
    match tag % 3 {
        0 => GbdaVariant::Standard,
        1 => GbdaVariant::AverageExtendedSize { sample_graphs: 4 },
        _ => GbdaVariant::WeightedGbd { weight: 0.5 },
    }
}

/// Everything one reader observed for one pinned generation.
struct Observation {
    generation: Arc<Generation>,
    matches: Vec<u64>,
    posteriors: Vec<f64>,
    top_k: Vec<RankedHit<u64>>,
    streamed: Vec<u64>,
}

/// Pins the current generation and runs all three query shapes against it.
fn observe(reader: &SnapshotReader, query: &Graph) -> Observation {
    let generation = reader.pin();
    let outcome = reader.search_pinned(&generation, query);
    let top_k = reader.search_top_k_pinned(&generation, query, 5).hits;
    let mut streamed = Vec::new();
    reader.search_streaming_pinned(&generation, query, |id, _phi| streamed.push(id));
    Observation {
        generation,
        matches: outcome.matches,
        posteriors: outcome.posteriors,
        top_k,
        streamed,
    }
}

/// Verifies one observation against a fresh static engine over the
/// generation's live set (bit-consistency with *some* published state).
fn verify(observation: &Observation, reader: &SnapshotReader, query: &Graph, config: &GbdaConfig) {
    let generation = &observation.generation;
    let survivors: Vec<Graph> = generation.live_graphs().map(|(_, g)| g.clone()).collect();
    let ids = generation.live_ids();
    let fresh = GraphDatabase::with_alphabets(survivors, generation.alphabets());
    let static_engine = QueryEngine::new(&fresh, reader.index(), config.clone());
    let epoch = generation.epoch();

    let expected = static_engine.search(query);
    let expected_ids: Vec<u64> = expected.matches.iter().map(|&i| ids[i]).collect();
    assert_eq!(
        observation.matches, expected_ids,
        "threshold matches diverged from the static engine at epoch {epoch}"
    );
    assert_eq!(observation.streamed, observation.matches);
    assert_eq!(observation.posteriors.len(), expected.stats.evaluated);
    assert_eq!(expected.posteriors.len(), expected.stats.evaluated);
    for (a, b) in observation.posteriors.iter().zip(&expected.posteriors) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "posterior bits diverged at epoch {epoch}"
        );
    }

    let expected_top = static_engine.search_top_k(query, 5);
    assert_eq!(observation.top_k.len(), expected_top.hits.len());
    for (got, want) in observation.top_k.iter().zip(&expected_top.hits) {
        assert_eq!(got.id, ids[want.id], "top-k ids diverged at epoch {epoch}");
        assert_eq!(
            got.posterior.to_bits(),
            want.posterior.to_bits(),
            "top-k posterior bits diverged at epoch {epoch}"
        );
    }
}

/// Runs one generated interleaving: 2 reader threads race the mutation
/// stream, then every distinct observed generation is verified.
fn run_interleaving(variant_tag: u8, ops: &[Op]) {
    let base = sample_graphs(10, 0xA0 + variant_tag as u64, 8);
    let query = base[4].clone();
    let pool = sample_graphs(ops.len(), 0xB0 + variant_tag as u64, 8);
    let database = GraphDatabase::from_graphs(base);
    let config = GbdaConfig::new(2, 0.5)
        .with_sample_pairs(60)
        .with_variant(variant_of(variant_tag))
        .with_record_posteriors(true);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let engine = ConcurrentEngine::new(DynamicDatabase::new(database), index, config.clone());

    let done = AtomicBool::new(false);
    let observations = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        seen.push(observe(engine.reader(), &query));
                    }
                    // One final observation so the fully-mutated state is
                    // always covered even if the mutator outran us.
                    seen.push(observe(engine.reader(), &query));
                    seen
                })
            })
            .collect();

        let mut pool = pool.into_iter();
        for op in ops {
            match op {
                Op::Insert => {
                    engine.insert(pool.next().unwrap());
                }
                Op::Remove(hint) => {
                    // Bounded by the ids handed out so far; removing an
                    // already-tombstoned id is a legitimate no-op error.
                    let bound = engine.pin().epoch() + 10;
                    let _ = engine.remove(hint % bound.max(1));
                }
                Op::Compact => {
                    engine.compact();
                }
            }
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .flat_map(|reader| reader.join().unwrap())
            .collect::<Vec<_>>()
    });

    // Results are deterministic per generation; verify each epoch once but
    // require every observation of that epoch to agree bit-for-bit.
    let mut verified: HashSet<u64> = HashSet::new();
    let mut by_epoch: Vec<&Observation> = Vec::new();
    for observation in &observations {
        let epoch = observation.generation.epoch();
        if verified.insert(epoch) {
            verify(observation, engine.reader(), &query, &config);
            by_epoch.push(observation);
        } else {
            let first = by_epoch
                .iter()
                .find(|o| o.generation.epoch() == epoch)
                .unwrap();
            assert_eq!(first.matches, observation.matches);
            assert_eq!(first.streamed, observation.streamed);
        }
    }
    assert!(
        !verified.is_empty(),
        "at least one generation must have been observed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any interleaving of concurrent queries with insert/remove/compact,
    /// across all three variants, returns answers bit-consistent with some
    /// published generation.
    #[test]
    fn interleavings_are_snapshot_consistent(
        variant_tag in 0u8..3,
        words in proptest::collection::vec(0u64..1_000_000_000, 1..10),
    ) {
        run_interleaving(variant_tag, &decode_ops(&words));
    }
}

/// The deterministic exhaustive corner: every variant with a fixed
/// mutation stream that exercises insert, remove of base + delta graphs,
/// and explicit compaction.
#[test]
fn all_variants_survive_a_fixed_interleaving() {
    for variant_tag in 0..3u8 {
        let ops = [
            Op::Insert,
            Op::Insert,
            Op::Remove(2),
            Op::Insert,
            Op::Remove(10),
            Op::Compact,
            Op::Insert,
        ];
        run_interleaving(variant_tag, &ops);
    }
}
