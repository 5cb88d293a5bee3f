//! Crash-consistency tests for the durable dynamic layer, exercised
//! through the `gbda` facade against the deterministic [`FaultVfs`].
//!
//! The contract under test: after **any** crash, `DurableDatabase::open`
//! never panics, and the recovered live set equals the state after some
//! *prefix* of the mutation history that contains every mutation whose
//! acknowledgment was synced. On top of that, scans over the recovered
//! database are bit-identical — matches *and* posteriors — to a fresh
//! rebuild over the recovered live set, across Standard / V1 / V2.

use gbda::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn graphs_from_seed(seed: u64, count: usize, size: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    GeneratorConfig::new(size, 2.0)
        .with_alphabets(LabelAlphabets::new(4, 2))
        .generate_many(count, &mut rng)
        .expect("generation succeeds")
}

fn dir() -> PathBuf {
    PathBuf::from("db")
}

/// One scripted mutation.
#[derive(Debug, Clone)]
enum Op {
    Insert(Graph),
    Remove(u64),
    Compact,
}

/// The small scripted schedule of the every-byte matrix: inserts, removes
/// and a compaction, so the sweep crosses log appends, snapshot rotation
/// and the manifest swap.
fn scripted_schedule(seed: u64) -> Vec<Op> {
    let graphs = graphs_from_seed(seed ^ 0x5EED, 3, 6);
    vec![
        Op::Insert(graphs[0].clone()),
        Op::Remove(1),
        Op::Insert(graphs[1].clone()),
        Op::Compact,
        Op::Insert(graphs[2].clone()),
        Op::Remove(4),
    ]
}

type GraphPrint = (u64, Vec<Label>, Vec<(gbda::graph::EdgeKey, Label)>);

fn fingerprint(database: &DynamicDatabase) -> Vec<GraphPrint> {
    database
        .live_graphs()
        .map(|(id, graph)| {
            (
                id,
                graph.vertex_labels().to_vec(),
                graph.edges().collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Fingerprints after every prefix of `ops` applied to a plain in-memory
/// [`DynamicDatabase`] — the ground truth the recovered state must be a
/// member of. `states[k]` is the state after the first `k` mutations.
fn prefix_states(base: &GraphDatabase, ops: &[Op]) -> Vec<Vec<GraphPrint>> {
    let mut shadow = DynamicDatabase::new(base.clone());
    let mut states = vec![fingerprint(&shadow)];
    for op in ops {
        match op {
            Op::Insert(graph) => {
                shadow.insert(graph.clone());
            }
            Op::Remove(id) => shadow.remove(*id).expect("scripted removes hit live ids"),
            Op::Compact => {
                shadow.compact();
            }
        }
        states.push(fingerprint(&shadow));
    }
    states
}

/// Applies `ops` to a durable database, stopping at the first error (the
/// injected crash). Returns how many mutations were acknowledged.
fn apply_until_crash(db: &mut DurableDatabase<FaultVfs>, ops: &[Op]) -> usize {
    let mut acked = 0;
    for op in ops {
        let result = match op {
            Op::Insert(graph) => db.insert(graph.clone()).map(|_| ()),
            Op::Remove(id) => db.remove(*id),
            Op::Compact => db.compact().map(|_| ()),
        };
        if result.is_err() {
            break;
        }
        acked += 1;
    }
    acked
}

fn fresh_db(seed: u64) -> (FaultVfs, DurableDatabase<FaultVfs>, GraphDatabase) {
    let vfs = FaultVfs::new();
    let base = GraphDatabase::from_graphs(graphs_from_seed(seed, 4, 6));
    let db = DurableDatabase::create(
        vfs.clone(),
        dir(),
        base.clone(),
        DurabilityConfig::default(),
    )
    .expect("create succeeds fault-free");
    (vfs, db, base)
}

/// The three paper variants the scan-identity checks run under.
fn variant_modes(config: &GbdaConfig) -> Vec<(&'static str, GbdaConfig)> {
    vec![
        (
            "standard",
            config.clone().with_variant(GbdaVariant::Standard),
        ),
        (
            "v1",
            config
                .clone()
                .with_variant(GbdaVariant::AverageExtendedSize { sample_graphs: 4 }),
        ),
        (
            "v2",
            config
                .clone()
                .with_variant(GbdaVariant::WeightedGbd { weight: 0.4 }),
        ),
    ]
}

/// Asserts a recovered dynamic database scans bit-identically to a fresh
/// rebuild over its live set, for every variant.
fn assert_scans_match_rebuild(
    recovered: &DynamicDatabase,
    index: &OfflineIndex,
    config: &GbdaConfig,
    query: &Graph,
    context: &str,
) {
    let (ids, survivors): (Vec<u64>, Vec<Graph>) = recovered
        .live_graphs()
        .map(|(id, graph)| (id, graph.clone()))
        .unzip();
    let fresh = GraphDatabase::with_alphabets(survivors, recovered.alphabets());
    for (name, mode) in variant_modes(&config.clone().with_record_posteriors(true)) {
        let static_engine = QueryEngine::new(&fresh, index, mode.clone());
        let dynamic_engine = DynamicEngine::new(recovered, index, mode);
        let expected = static_engine.search(query);
        let got = dynamic_engine.search(query);
        let expected_ids: Vec<u64> = expected.matches.iter().map(|&i| ids[i]).collect();
        assert_eq!(got.matches, expected_ids, "{context}/{name}: matches");
        assert_eq!(
            got.posteriors.len(),
            got.stats.evaluated,
            "{context}/{name}"
        );
        assert_eq!(
            got.posteriors.len(),
            expected.posteriors.len(),
            "{context}/{name}"
        );
        for (i, (a, b)) in got.posteriors.iter().zip(&expected.posteriors).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}/{name}: posterior {i}");
        }
    }
}

/// The every-byte matrix: run the scripted schedule once fault-free to
/// measure the charged-byte budget, then crash at **every** byte offset,
/// power-cycle, reopen, and check the recovered state is a prefix that
/// keeps every synced acknowledgment. Scan bit-identity (Standard/V1/V2)
/// is asserted on a stride of crash points and at both ends.
#[test]
fn crash_at_every_byte_recovers_an_acknowledged_prefix() {
    let seed = 0x00D0_0DA5;
    let ops = scripted_schedule(seed);
    let (probe_vfs, mut probe, base) = fresh_db(seed);
    probe_vfs.arm(FaultSchedule::default());
    assert_eq!(apply_until_crash(&mut probe, &ops), ops.len());
    let budget = probe_vfs.bytes_charged();
    assert!(
        budget > 300,
        "schedule charged only {budget} bytes — the sweep would be vacuous"
    );
    let states = prefix_states(&base, &ops);
    assert_eq!(
        fingerprint(probe.database()),
        states[ops.len()],
        "shadow replay agrees with the durable run"
    );

    let config = GbdaConfig::new(3, 0.7)
        .with_sample_pairs(80)
        .with_seed(seed);
    let index = OfflineIndex::build(&base, &config).unwrap();
    let query = graphs_from_seed(seed ^ 0x9E, 1, 7).pop().unwrap();
    // Full scan identity is costly; spread ~12 checkpoints over the sweep.
    let scan_stride = (budget / 12).max(1);

    for crash_at in 0..=budget {
        let (vfs, mut db, _) = fresh_db(seed);
        vfs.arm(FaultSchedule::crash_after(crash_at));
        let acked = apply_until_crash(&mut db, &ops);
        drop(db);
        vfs.power_cycle();
        let recovered = DurableDatabase::open(vfs, dir(), DurabilityConfig::default())
            .unwrap_or_else(|e| panic!("crash at {crash_at}/{budget}: open failed: {e}"));
        let got = fingerprint(recovered.database());
        let matched = states
            .iter()
            .position(|state| *state == got)
            .unwrap_or_else(|| {
                panic!("crash at {crash_at}: recovered state is not any prefix state")
            });
        assert!(
            states[acked..].contains(&got),
            "crash at {crash_at}: prefix {matched} lost a synced ack (acked {acked})"
        );
        if crash_at % scan_stride == 0 || crash_at == budget {
            assert_scans_match_rebuild(
                recovered.database(),
                &index,
                &config,
                &query,
                &format!("crash at {crash_at}"),
            );
        }
    }
}

/// Flipping any single byte of the WAL or the manifest (after a real
/// workload) either recovers cleanly or fails with a typed error — never a
/// panic, and never a state that breaks the prefix contract.
#[test]
fn bit_flip_sweep_over_wal_and_manifest_never_panics() {
    let seed = 0x000F_11B5;
    let ops = scripted_schedule(seed);
    // Stop before the compaction so generation 1's WAL carries records.
    let ops = &ops[..3];
    let build = || {
        let (vfs, mut db, base) = fresh_db(seed);
        assert_eq!(apply_until_crash(&mut db, ops), ops.len());
        drop(db);
        (vfs, base)
    };
    let (vfs, base) = build();
    let states = prefix_states(&base, ops);
    let wal_path = dir().join("wal-00000001.log");
    let manifest_path = dir().join("MANIFEST");
    let wal_len = vfs.read(&wal_path).unwrap().len();
    let manifest_len = vfs.read(&manifest_path).unwrap().len();

    for (path, len) in [(&wal_path, wal_len), (&manifest_path, manifest_len)] {
        for offset in 0..len {
            let (vfs, _) = build();
            assert!(vfs.corrupt(path, offset, 0x08));
            vfs.power_cycle();
            match DurableDatabase::open(vfs, dir(), DurabilityConfig::default()) {
                Ok(recovered) => {
                    // A flip the decoder tolerates (e.g. inside the torn
                    // tail rules) must still land on a prefix state.
                    let got = fingerprint(recovered.database());
                    assert!(
                        states.contains(&got),
                        "flip {}@{offset}: recovered a non-prefix state",
                        path.display()
                    );
                }
                Err(
                    StoreError::CorruptAt { .. }
                    | StoreError::Corrupt(_)
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::BadMagic
                    | StoreError::UnsupportedVersion(_)
                    | StoreError::InvalidDatabase(_)
                    | StoreError::Io { .. },
                ) => {}
            }
        }
    }
}

/// A lying disk (syncs report success but persist nothing) can roll back
/// acknowledged mutations — but recovery still lands on a clean prefix.
#[test]
fn dropped_syncs_still_recover_a_consistent_prefix() {
    let seed = 0x000D_200D;
    let ops = scripted_schedule(seed);
    let (vfs, mut db, base) = fresh_db(seed);
    let states = prefix_states(&base, &ops);
    vfs.arm(FaultSchedule {
        drop_syncs: true,
        ..FaultSchedule::default()
    });
    assert_eq!(apply_until_crash(&mut db, &ops), ops.len());
    drop(db);
    vfs.power_cycle();
    let recovered = DurableDatabase::open(vfs, dir(), DurabilityConfig::default())
        .expect("recovery survives a lying disk");
    assert!(
        states.contains(&fingerprint(recovered.database())),
        "recovered state must still be a prefix"
    );
}

/// Generates a concrete random schedule (ops valid at the moment they run)
/// by scripting against a shadow database.
fn random_schedule(base: &GraphDatabase, seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shadow = DynamicDatabase::new(base.clone());
    let mut fresh = graphs_from_seed(seed ^ 0xF00D, ops, 6).into_iter();
    let mut schedule = Vec::new();
    for _ in 0..ops {
        let op = match rng.gen_range(0u32..6) {
            0..=2 => match fresh.next() {
                Some(graph) => Op::Insert(graph),
                None => Op::Compact,
            },
            3 | 4 => {
                let live = shadow.live_ids();
                if live.is_empty() {
                    Op::Compact
                } else {
                    Op::Remove(live[rng.gen_range(0..live.len())])
                }
            }
            _ => Op::Compact,
        };
        match &op {
            Op::Insert(graph) => {
                shadow.insert(graph.clone());
            }
            Op::Remove(id) => shadow.remove(*id).expect("picked from live ids"),
            Op::Compact => {
                shadow.compact();
            }
        }
        schedule.push(op);
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole property: a random mutation schedule, a crash at a
    /// random charged-byte offset, under both power-loss extremes
    /// (worst-case revert and persist-everything) and with/without torn
    /// garbage — recovery never fails, and the recovered state is a prefix
    /// of the history containing every synced acknowledgment.
    #[test]
    fn random_schedules_crash_anywhere_recover_a_prefix(
        seed in 0u64..10_000,
        ops in 3usize..9,
        budget_frac in 0.0f64..1.0,
        fault_mode in 0u32..4,
    ) {
        let persist_unsynced = fault_mode & 1 != 0;
        let torn_garbage = fault_mode & 2 != 0;
        let base = GraphDatabase::from_graphs(graphs_from_seed(seed, 4, 6));
        let schedule = random_schedule(&base, seed ^ 0x11, ops);
        let states = prefix_states(&base, &schedule);

        // Fault-free run measures the budget for this schedule.
        let probe = FaultVfs::new();
        let mut db = DurableDatabase::create(
            probe.clone(), dir(), base.clone(), DurabilityConfig::default(),
        ).unwrap();
        probe.arm(FaultSchedule::default());
        prop_assert_eq!(apply_until_crash(&mut db, &schedule), schedule.len());
        let budget = probe.bytes_charged();
        drop(db);

        let crash_at = (budget as f64 * budget_frac) as u64;
        let vfs = FaultVfs::new();
        let mut db = DurableDatabase::create(
            vfs.clone(), dir(), base, DurabilityConfig::default(),
        ).unwrap();
        vfs.arm(FaultSchedule {
            crash_after_bytes: Some(crash_at),
            torn_garbage,
            persist_unsynced,
            seed: seed ^ 0x7A47,
            ..FaultSchedule::default()
        });
        let acked = apply_until_crash(&mut db, &schedule);
        drop(db);
        vfs.power_cycle();
        let recovered = DurableDatabase::open(vfs, dir(), DurabilityConfig::default())
            .unwrap_or_else(|e| panic!("crash at {crash_at}/{budget}: open failed: {e}"));
        let got = fingerprint(recovered.database());
        prop_assert!(
            states[acked..].contains(&got),
            "crash at {crash_at}/{budget} (acked {acked}, persist={persist_unsynced}, garbage={torn_garbage}): recovered state is not an ack-preserving prefix"
        );
    }
}

/// The durability path reports into the workspace telemetry: WAL appends,
/// bytes and fsyncs move on acknowledged mutations, and recovery moves the
/// torn-truncation, replayed-record and snapshot-load counters across an
/// insert → crash → recover cycle. The registry is process-global and the
/// other tests in this binary mutate the same counters concurrently, so
/// every assertion is a `>=` on a snapshot delta — monotone counters can
/// only over-count, never under-count, what this test did itself.
#[test]
fn durability_counters_move_across_insert_crash_recover() {
    let registry = gbda::telemetry::global();
    let (vfs, mut db, _base) = fresh_db(0xCAFE);
    let before = registry.snapshot();
    let id = db
        .insert(graphs_from_seed(77, 1, 6).pop().expect("one graph"))
        .expect("insert is acknowledged");
    db.remove(id).expect("remove is acknowledged");
    let after_mutations = registry.snapshot();
    let mutation_delta = after_mutations.delta(&before);
    assert!(
        mutation_delta.counter("gbda_wal_appends_total") >= 2,
        "the insert and the remove each append a record"
    );
    assert!(mutation_delta.counter("gbda_wal_appended_bytes_total") > 0);
    assert!(
        mutation_delta.counter("gbda_wal_fsyncs_total") >= 2,
        "sync-on-ack is the default discipline"
    );
    drop(db);

    // A torn tail on the durable medium — garbage past the last synced
    // record — then a crash and a recovery.
    let wal_path = Manifest { generation: 1 }.wal_path(&dir());
    vfs.append(&wal_path, &[0x55; 7]).expect("append garbage");
    vfs.sync(&wal_path).expect("sync the garbage");
    vfs.power_cycle();
    let recovered =
        DurableDatabase::open(vfs, dir(), DurabilityConfig::default()).expect("recovery succeeds");
    assert_eq!(recovered.len(), 4, "insert + remove cancel over the base");
    let recovery_delta = registry.snapshot().delta(&after_mutations);
    assert!(
        recovery_delta.counter("gbda_wal_torn_truncations_total") >= 1,
        "the garbage tail was truncated in place"
    );
    assert!(
        recovery_delta.counter("gbda_recovery_replayed_records_total") >= 2,
        "the insert and the remove replay onto the snapshot"
    );
    assert!(recovery_delta.counter("gbda_snapshot_loads_total") >= 1);
    let replay = recovery_delta
        .histogram("gbda_recovery_replay_seconds")
        .expect("recovery is timed");
    assert!(replay.count >= 1);
}
