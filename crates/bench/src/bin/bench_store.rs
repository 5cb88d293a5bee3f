//! Machine-readable storage-engine benchmark: times the snapshot and
//! dynamic-layer lifecycle on the synthetic mixed-size workload and writes
//! `results/BENCH_store.json` so the storage perf trajectory is tracked
//! across PRs.
//!
//! Per database size, the timed phases are:
//!
//! * `build_us` — `GraphDatabase::from_graphs` (the cost a process start
//!   pays without the storage engine);
//! * `save_us` — capturing and writing the snapshot file;
//! * `load_us` — `gbd_store::load_database`: read, decode, validate and
//!   rebuild the database *without* recomputing catalog/aggregates/postings.
//!   `load_speedup` is `build_us / load_us` — the headline number;
//! * `static_scan_us` vs `dynamic_scan_us` — one cascade query over the
//!   compacted equivalent database vs the same query over base + delta +
//!   tombstones (`scan_overhead` is their ratio: the price of serving
//!   un-compacted updates);
//! * `compact_us` — folding delta and tombstones into a fresh base.
//!
//! Usage: `bench_store [--graphs N[,N…]] [--repeats K] [--out PATH]
//! [--check]`. `--check` re-reads the written file and asserts: it parses,
//! every workload's loaded-database scan matched the in-memory scan
//! bit-for-bit, the loaded postings survived a full rebuild audit, and the
//! dynamic scan matched its fresh-rebuild reference — the CI guard that the
//! storage engine round-trips reality, not just bytes.

use std::process::ExitCode;
use std::time::Instant;

use gbd_bench::json::{self, JsonValue};
use gbd_bench::workloads::mixed_size_online_workload;
use gbd_graph::Vocabulary;
use gbd_store::{load_database, save_database};
use gbda_core::{
    DynamicDatabase, DynamicEngine, GbdaConfig, GraphDatabase, OfflineIndex, QueryEngine,
};

struct Options {
    graphs: Vec<usize>,
    repeats: usize,
    out: String,
    check: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        graphs: vec![1_000, 10_000],
        repeats: 5,
        out: "results/BENCH_store.json".to_owned(),
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--graphs" => {
                let value = args.next().ok_or("--graphs needs a value")?;
                options.graphs = value
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
                if options.graphs.iter().any(|&n| n < 8) {
                    return Err("--graphs values must be at least 8".into());
                }
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

/// Times one phase: one warm-up run, then `repeats` timed runs; the last
/// run's output is returned alongside the median.
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

fn outcomes_match(a: &[usize], pa: &[f64], b: &[usize], pb: &[f64]) -> bool {
    a == b && pa.len() == pb.len() && pa.iter().zip(pb).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn bench_workload(n: usize, repeats: usize) -> Result<JsonValue, String> {
    eprintln!("# workload: {n} graphs");
    let (graphs, query) = mixed_size_online_workload(n);
    let snapshot_path = std::env::temp_dir().join(format!("gbda-bench-store-{n}.snap"));

    // Phase 1: the cold build (what every process start pays today).
    let (build_us, database) = timed(repeats, || {
        GraphDatabase::from_graphs(std::hint::black_box(graphs.clone()))
    });

    // Phase 2: persist.
    let vocabulary = Vocabulary::new();
    let (save_us, _) = timed(repeats, || {
        save_database(&database, &vocabulary, &snapshot_path).expect("snapshot saves")
    });
    let snapshot_bytes = std::fs::metadata(&snapshot_path)
        .map_err(|e| format!("stat {}: {e}", snapshot_path.display()))?
        .len();

    // Phase 3: reload — the storage engine's raison d'être.
    let (load_us, loaded) = timed(repeats, || {
        load_database(&snapshot_path).expect("snapshot loads").0
    });
    let postings_verified = loaded.verify_postings();

    // The loaded database must answer scans identically to the built one.
    let config = GbdaConfig::new(5, 0.8)
        .with_sample_pairs(500)
        .with_record_posteriors(true);
    let index = OfflineIndex::build(&database, &config).expect("offline stage builds");
    let built_engine = QueryEngine::new(&database, &index, config.clone());
    let loaded_engine = QueryEngine::new(&loaded, &index, config.clone());
    let built_scan = built_engine.search(&query);
    let loaded_scan = loaded_engine.search(&query);
    let scan_match = built_scan.posteriors.len() == built_scan.stats.evaluated
        && outcomes_match(
            &built_scan.matches,
            &built_scan.posteriors,
            &loaded_scan.matches,
            &loaded_scan.posteriors,
        );

    // Phase 4: the dynamic layer. Insert ~5% fresh graphs, remove ~2%.
    let inserts = (n / 20).max(1);
    let removals = (n / 50).max(1);
    let (delta_graphs, _) = mixed_size_online_workload(inserts.max(8));
    let mut dynamic = DynamicDatabase::new(loaded);
    for graph in delta_graphs.into_iter().take(inserts) {
        dynamic.insert(graph);
    }
    for k in 0..removals {
        dynamic
            .remove((k * 7 % n) as u64)
            .expect("base ids are live");
    }
    let dynamic_engine = DynamicEngine::new(&dynamic, &index, config.clone());
    let (dynamic_scan_us, dynamic_scan) = timed(repeats, || dynamic_engine.search(&query));

    // Reference: the compacted equivalent database, scanned statically.
    let survivors: Vec<_> = dynamic.live_graphs().map(|(_, g)| g.clone()).collect();
    let ids = dynamic.live_ids();
    let compacted = GraphDatabase::with_alphabets(survivors, dynamic.alphabets());
    let compacted_engine = QueryEngine::new(&compacted, &index, config);
    let (static_scan_us, static_scan) = timed(repeats, || compacted_engine.search(&query));
    let static_ids: Vec<u64> = static_scan.matches.iter().map(|&i| ids[i]).collect();
    let dynamic_match = dynamic_scan.matches == static_ids
        && dynamic_scan.posteriors.len() == dynamic_scan.stats.evaluated
        && dynamic_scan
            .posteriors
            .iter()
            .zip(&static_scan.posteriors)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && dynamic_scan.posteriors.len() == static_scan.posteriors.len();

    // Phase 5: compaction cost. Compaction consumes the delta, so each run
    // needs its own copy — prepared outside the timed region (`timed` runs
    // one warm-up plus `repeats` measurements).
    let compact_repeats = repeats.min(3);
    let mut copies: Vec<DynamicDatabase> = (0..=compact_repeats).map(|_| dynamic.clone()).collect();
    let (compact_us, _) = timed(compact_repeats, || {
        let mut copy = copies.pop().expect("one copy per run");
        copy.compact();
        copy.base().len()
    });

    std::fs::remove_file(&snapshot_path).ok();

    let load_speedup = build_us / load_us.max(1e-9);
    let scan_overhead = dynamic_scan_us / static_scan_us.max(1e-9);
    eprintln!(
        "  build {build_us:>10.1} µs | save {save_us:>10.1} µs | load {load_us:>10.1} µs \
         ({load_speedup:.2}x faster than build) | snapshot {snapshot_bytes} B"
    );
    eprintln!(
        "  static scan {static_scan_us:>8.1} µs | dynamic scan {dynamic_scan_us:>8.1} µs \
         ({scan_overhead:.2}x) | compact {compact_us:>10.1} µs | scan_match {scan_match} \
         dynamic_match {dynamic_match}"
    );

    let number = |v: f64| JsonValue::Number(v);
    Ok(JsonValue::Object(vec![
        ("database_len".into(), number(database.len() as f64)),
        ("arena_runs".into(), number(database.arena_len() as f64)),
        ("snapshot_bytes".into(), number(snapshot_bytes as f64)),
        ("repeats".into(), number(repeats as f64)),
        ("build_us".into(), number(build_us)),
        ("save_us".into(), number(save_us)),
        ("load_us".into(), number(load_us)),
        ("load_speedup".into(), number(load_speedup)),
        (
            "postings_verified".into(),
            JsonValue::Bool(postings_verified),
        ),
        ("scan_match".into(), JsonValue::Bool(scan_match)),
        ("delta_inserted".into(), number(inserts as f64)),
        ("removed".into(), number(removals as f64)),
        ("static_scan_us".into(), number(static_scan_us)),
        ("dynamic_scan_us".into(), number(dynamic_scan_us)),
        ("scan_overhead".into(), number(scan_overhead)),
        ("dynamic_match".into(), JsonValue::Bool(dynamic_match)),
        ("compact_us".into(), number(compact_us)),
    ]))
}

/// The CI guard: the file parses and every workload's correctness flags are
/// true — the loaded database answered the scan bit-identically, its
/// postings survived the rebuild audit, and the dynamic scan matched its
/// fresh-rebuild reference.
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
            .get("database_len")
            .and_then(JsonValue::as_usize)
            .ok_or("missing database_len")?;
        for flag in ["scan_match", "postings_verified", "dynamic_match"] {
            match workload.get(flag) {
                Some(JsonValue::Bool(true)) => {}
                other => {
                    return Err(format!(
                        "workload {n}: {flag} is {other:?} — the storage engine diverged"
                    ))
                }
            }
        }
        for field in ["build_us", "save_us", "load_us", "compact_us"] {
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
    let mut workloads = Vec::with_capacity(options.graphs.len());
    for &n in &options.graphs {
        match bench_workload(n, options.repeats) {
            Ok(entry) => workloads.push(entry),
            Err(message) => {
                eprintln!("error: workload {n}: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    let document = JsonValue::Object(vec![
        ("bench".into(), JsonValue::String("store".into())),
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
            Ok(()) => {
                eprintln!("check passed: snapshot round-trip and dynamic scans are bit-identical")
            }
            Err(message) => {
                eprintln!("check FAILED: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
