//! Machine-readable durability benchmark: times the write-ahead-log and
//! recovery path of the crash-safe dynamic layer on a real filesystem
//! (`StdVfs` in a temp directory) and writes `results/BENCH_recovery.json`
//! so the durability perf trajectory is tracked across PRs.
//!
//! The timed phases, per workload:
//!
//! * `append_us_total` / `appends_per_sec` / `wal_mb_per_sec` — logging the
//!   whole mutation stream (~80% inserts, ~20% removes) un-synced, plus one
//!   final sync: the batched-acknowledgment throughput ceiling;
//! * `synced_append_us` — median per-mutation cost with
//!   `DurabilityConfig::sync_acks` on (one `fsync` per acknowledgment) —
//!   the price of the "synced acks never lost" guarantee;
//! * `open_us` — `DurableDatabase::open`: load the base snapshot, truncate
//!   any torn tail, replay every logged mutation;
//! * `rebuild_us` — `GraphDatabase::from_graphs` over the same live set:
//!   what a process start would pay with no storage engine at all.
//!   `recovery_vs_rebuild` is `open_us / rebuild_us` — below 1 means
//!   recovering from disk beats recomputing.
//!
//! Usage: `bench_recovery [--mutations N] [--base N] [--repeats K]
//! [--out PATH] [--check]`. `--check` re-reads the written file and asserts
//! it parses, every workload's `replay_scan_match` flag is true (the
//! recovered database answered a scan bit-identically — matches *and*
//! posteriors — to a fresh rebuild over its live set), and every timing is
//! a positive finite number. CI runs this as a smoke step.

use std::process::ExitCode;
use std::time::Instant;

use gbd_bench::json::{self, JsonValue};
use gbd_bench::workloads::mixed_size_online_workload;
use gbd_store::{DurableDatabase, StdVfs};
use gbda_core::{
    DurabilityConfig, DynamicEngine, GbdaConfig, GraphDatabase, OfflineIndex, QueryEngine,
};

struct Options {
    mutations: usize,
    base: usize,
    repeats: usize,
    out: String,
    check: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        mutations: 10_000,
        base: 1_000,
        repeats: 3,
        out: "results/BENCH_recovery.json".to_owned(),
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mutations" => {
                let value = args.next().ok_or("--mutations needs a value")?;
                options.mutations = value.parse::<usize>().map_err(|e| e.to_string())?.max(10);
            }
            "--base" => {
                let value = args.next().ok_or("--base needs a value")?;
                options.base = value.parse::<usize>().map_err(|e| e.to_string())?.max(8);
            }
            "--repeats" => {
                let value = args.next().ok_or("--repeats needs a value")?;
                options.repeats = value.parse::<usize>().map_err(|e| e.to_string())?.max(1);
            }
            "--out" => options.out = args.next().ok_or("--out needs a value")?,
            "--check" => options.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Times one re-runnable phase: one warm-up, then `repeats` timed runs.
fn timed<T>(repeats: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    std::hint::black_box(run());
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let started = Instant::now();
        let value = run();
        samples.push(started.elapsed().as_secs_f64() * 1e6);
        last = Some(value);
    }
    (median_us(samples), last.expect("at least one repeat"))
}

fn bench_workload(mutations: usize, base_n: usize, repeats: usize) -> Result<JsonValue, String> {
    eprintln!("# workload: {base_n} base graphs, {mutations} logged mutations");
    let dir = std::env::temp_dir().join(format!("gbda-bench-recovery-{base_n}-{mutations}"));
    std::fs::remove_dir_all(&dir).ok();

    let (base_graphs, query) = mixed_size_online_workload(base_n);
    let base = GraphDatabase::from_graphs(base_graphs);
    let (delta_graphs, _) = mixed_size_online_workload(mutations.max(8));
    let mut fresh = delta_graphs.into_iter();

    // Phase 1: log the mutation stream un-synced + one final sync — the
    // batched-ack throughput ceiling of the WAL itself.
    let batched = DurabilityConfig::default().with_sync_acks(false);
    let mut db = DurableDatabase::create(StdVfs, &dir, base.clone(), batched)
        .map_err(|e| format!("create: {e}"))?;
    let mut live: Vec<u64> = (0..base_n as u64).collect();
    let append_started = Instant::now();
    for step in 0..mutations {
        if step % 5 == 4 && live.len() > 1 {
            let victim = live.swap_remove(step * 7 % live.len());
            db.remove(victim).map_err(|e| format!("remove: {e}"))?;
        } else {
            let graph = fresh.next().expect("enough fresh graphs");
            live.push(db.insert(graph).map_err(|e| format!("insert: {e}"))?);
        }
    }
    db.sync().map_err(|e| format!("final sync: {e}"))?;
    let append_us_total = append_started.elapsed().as_secs_f64() * 1e6;
    let wal_bytes = db.wal_bytes();
    let live_len = db.len();
    drop(db);

    // Phase 2: recovery — snapshot load + full log replay.
    let (open_us, recovered) = timed(repeats, || {
        DurableDatabase::open(StdVfs, &dir, DurabilityConfig::default()).expect("recovery succeeds")
    });
    if recovered.len() != live_len {
        return Err(format!(
            "recovered {} live graphs, expected {live_len}",
            recovered.len()
        ));
    }

    // Phase 3: the no-storage-engine alternative — rebuild from scratch.
    let survivors: Vec<_> = recovered
        .database()
        .live_graphs()
        .map(|(_, g)| g.clone())
        .collect();
    let ids: Vec<u64> = recovered.database().live_ids();
    let (rebuild_us, rebuilt) = timed(repeats, || {
        GraphDatabase::with_alphabets(
            std::hint::black_box(survivors.clone()),
            recovered.database().alphabets(),
        )
    });

    // Replay bit-identity: the recovered database must answer a scan
    // exactly like a fresh rebuild over the same live set (shared index).
    let config = GbdaConfig::new(4, 0.8)
        .with_sample_pairs(200)
        .with_record_posteriors(true);
    let index = OfflineIndex::build(&rebuilt, &config).expect("offline stage builds");
    let static_scan = QueryEngine::new(&rebuilt, &index, config.clone()).search(&query);
    let dynamic_scan = DynamicEngine::new(recovered.database(), &index, config).search(&query);
    let static_ids: Vec<u64> = static_scan.matches.iter().map(|&i| ids[i]).collect();
    let replay_scan_match = dynamic_scan.matches == static_ids
        && dynamic_scan.posteriors.len() == dynamic_scan.stats.evaluated
        && dynamic_scan.posteriors.len() == static_scan.posteriors.len()
        && dynamic_scan
            .posteriors
            .iter()
            .zip(&static_scan.posteriors)
            .all(|(a, b)| a.to_bits() == b.to_bits());

    // Phase 4: the per-ack sync price, sampled on the recovered handle
    // (opened with the default sync-on-ack discipline).
    let mut recovered = recovered;
    let sync_samples = 50.min(mutations);
    let mut samples = Vec::with_capacity(sync_samples);
    for _ in 0..sync_samples {
        let graph = fresh.next().expect("enough fresh graphs");
        let started = Instant::now();
        recovered
            .insert(graph)
            .map_err(|e| format!("synced insert: {e}"))?;
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let synced_append_us = median_us(samples);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();

    let appends_per_sec = mutations as f64 / (append_us_total / 1e6).max(1e-9);
    let wal_mb_per_sec = (wal_bytes as f64 / 1e6) / (append_us_total / 1e6).max(1e-9);
    let recovery_vs_rebuild = open_us / rebuild_us.max(1e-9);
    eprintln!(
        "  append {append_us_total:>12.1} µs total ({appends_per_sec:>9.0}/s, \
         {wal_mb_per_sec:.1} MB/s, wal {wal_bytes} B) | synced append {synced_append_us:>8.1} µs"
    );
    eprintln!(
        "  open {open_us:>12.1} µs | rebuild {rebuild_us:>12.1} µs | \
         recovery/rebuild {recovery_vs_rebuild:.3} | scan_match {replay_scan_match}"
    );

    let number = JsonValue::Number;
    Ok(JsonValue::Object(vec![
        ("base_len".into(), number(base_n as f64)),
        ("mutations".into(), number(mutations as f64)),
        ("live_len".into(), number(live_len as f64)),
        ("wal_bytes".into(), number(wal_bytes as f64)),
        ("repeats".into(), number(repeats as f64)),
        ("append_us_total".into(), number(append_us_total)),
        ("appends_per_sec".into(), number(appends_per_sec)),
        ("wal_mb_per_sec".into(), number(wal_mb_per_sec)),
        ("synced_append_us".into(), number(synced_append_us)),
        ("open_us".into(), number(open_us)),
        ("rebuild_us".into(), number(rebuild_us)),
        ("recovery_vs_rebuild".into(), number(recovery_vs_rebuild)),
        (
            "replay_scan_match".into(),
            JsonValue::Bool(replay_scan_match),
        ),
    ]))
}

/// The CI guard: the file parses, the recovered database scanned
/// bit-identically to a fresh rebuild, and every timing is a real number.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let document = json::parse(&text).map_err(|e| format!("{path} does not parse: {e}"))?;
    let workloads = document
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("missing workloads array")?;
    if workloads.is_empty() {
        return Err("no workloads recorded".into());
    }
    for workload in workloads {
        let n = workload
            .get("mutations")
            .and_then(JsonValue::as_usize)
            .ok_or("missing mutations")?;
        match workload.get("replay_scan_match") {
            Some(JsonValue::Bool(true)) => {}
            other => {
                return Err(format!(
                    "workload {n}: replay_scan_match is {other:?} — recovery diverged from rebuild"
                ))
            }
        }
        for field in [
            "append_us_total",
            "synced_append_us",
            "open_us",
            "rebuild_us",
            "recovery_vs_rebuild",
        ] {
            let value = workload
                .get(field)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("workload {n}: missing {field}"))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("workload {n}: {field} = {value} is not a timing"));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let workloads = match bench_workload(options.mutations, options.base, options.repeats) {
        Ok(entry) => vec![entry],
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let document = JsonValue::Object(vec![
        ("bench".into(), JsonValue::String("recovery".into())),
        (
            "snapshot_version".into(),
            JsonValue::Number(f64::from(gbd_store::format::VERSION)),
        ),
        ("workloads".into(), JsonValue::Array(workloads)),
    ]);
    if let Some(parent) = std::path::Path::new(&options.out).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: create {}: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&options.out, document.render()) {
        eprintln!("error: write {}: {e}", options.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", options.out);
    gbd_bench::write_telemetry_sidecar(&options.out);
    if options.check {
        match check(&options.out) {
            Ok(()) => eprintln!("check passed: recovery replays to a scan-bit-identical state"),
            Err(message) => {
                eprintln!("check FAILED: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
