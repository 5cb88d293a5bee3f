//! Machine-readable ranked-query benchmark: times top-k search across engine
//! modes on the synthetic mixed-size workload and writes
//! `results/BENCH_topk.json` so the perf trajectory is tracked across PRs.
//!
//! Modes per `(database size, k)`:
//!
//! * `full_scan_sort` — the definitional baseline: one recording cascade
//!   scan (a posterior for every graph), then sort by (posterior desc,
//!   index asc) and truncate to `k`;
//! * `topk_cascade` — `search_top_k` with the filter cascade on: the
//!   running k-th-best posterior tightens a per-extended-size ϕ cutoff that
//!   rejects graphs from their bounds alone;
//! * `topk_merge` — `search_top_k` with the cascade off: every graph pays a
//!   flat merge, only the bounded heap differs from the baseline.
//!
//! Every mode is asserted bit-identical to the baseline ranking **while
//! running** — a divergence aborts before any JSON is written. Usage:
//! `bench_topk [--graphs N[,N…]] [--k K[,K…]] [--repeats R] [--out PATH]
//! [--check]`. `--check` re-reads the written file, asserts it parses, that
//! every workload recorded `reference_equal = true`, and that every ranked
//! mode's stage counters partition the database — the CI guard against
//! silently broken rank pruning.

use std::process::ExitCode;
use std::time::Instant;

use gbd_bench::json::{self, JsonValue};
use gbd_bench::workloads::{mixed_size_online_workload, MIXED_SIZE_BUCKETS};
use gbda_core::{
    rank_by_posterior, GbdaConfig, GraphDatabase, OfflineIndex, QueryEngine, RankedHit, SearchStats,
};

struct Options {
    graphs: Vec<usize>,
    ks: Vec<usize>,
    repeats: usize,
    out: String,
    check: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        graphs: vec![1_000, 10_000],
        ks: vec![10],
        repeats: 9,
        out: "results/BENCH_topk.json".to_owned(),
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
            "--k" => {
                let value = args.next().ok_or("--k needs a value")?;
                options.ks = value
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
                if options.ks.contains(&0) {
                    return Err("--k values must be at least 1".into());
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

fn stats_json(s: &SearchStats) -> JsonValue {
    let number = |n: usize| JsonValue::Number(n as f64);
    JsonValue::Object(vec![
        ("evaluated".into(), number(s.evaluated)),
        ("rank_rejected".into(), number(s.rank_rejected)),
        ("postings_resolved".into(), number(s.postings_resolved)),
        ("merged".into(), number(s.merged)),
        ("heap_inserts".into(), number(s.heap_inserts)),
        ("cache_hits".into(), number(s.cache_hits)),
        ("cache_misses".into(), number(s.cache_misses)),
    ])
}

/// Times one mode: two warm-up runs, then `repeats` timed runs returning the
/// last run's `(hits, stats)`.
fn run_mode(
    repeats: usize,
    run: impl Fn() -> (Vec<RankedHit>, SearchStats),
) -> (f64, Vec<RankedHit>, SearchStats) {
    for _ in 0..2 {
        std::hint::black_box(run());
    }
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let started = Instant::now();
        let result = run();
        samples.push(started.elapsed().as_secs_f64() * 1e6);
        last = Some(result);
    }
    let (hits, stats) = last.expect("at least one repeat ran");
    (median_us(samples), hits, stats)
}

/// One timed mode: name plus the closure producing `(hits, stats)`.
type ModeRunner<'a> = (&'a str, Box<dyn Fn() -> (Vec<RankedHit>, SearchStats) + 'a>);

fn hits_equal(a: &[RankedHit], b: &[RankedHit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.posterior.to_bits() == y.posterior.to_bits())
}

fn bench_workload(n: usize, k: usize, repeats: usize) -> JsonValue {
    eprintln!("# workload: {n} graphs, k = {k}");
    let (graphs, query) = mixed_size_online_workload(n);
    let database = GraphDatabase::from_graphs(graphs);
    let config = GbdaConfig::new(5, 0.8).with_sample_pairs(500);
    let index = OfflineIndex::build(&database, &config).expect("offline stage builds");

    let recording = QueryEngine::new(
        &database,
        &index,
        config.clone().with_record_posteriors(true),
    );
    let cascade = QueryEngine::new(
        &database,
        &index,
        config.clone().with_record_posteriors(false),
    );
    let merge = QueryEngine::new(
        &database,
        &index,
        config
            .clone()
            .with_record_posteriors(false)
            .with_filter_cascade(false),
    );

    let runs: Vec<ModeRunner<'_>> = vec![
        (
            "full_scan_sort",
            Box::new(|| {
                let outcome = recording.search(&query);
                (rank_by_posterior(&outcome.posteriors, k), outcome.stats)
            }),
        ),
        (
            "topk_cascade",
            Box::new(|| {
                let outcome = cascade.search_top_k(&query, k);
                (outcome.hits, outcome.stats)
            }),
        ),
        (
            "topk_merge",
            Box::new(|| {
                let outcome = merge.search_top_k(&query, k);
                (outcome.hits, outcome.stats)
            }),
        ),
    ];

    let mut modes = Vec::new();
    let mut reference: Option<Vec<RankedHit>> = None;
    let mut reference_equal = true;
    for (name, run) in runs {
        let (median, hits, stats) = run_mode(repeats, run);
        eprintln!(
            "  {name:<16} median {median:>10.1} µs  (rank_rejected {}, resolved {}, merged {})",
            stats.rank_rejected, stats.postings_resolved, stats.merged,
        );
        match &reference {
            None => reference = Some(hits.clone()),
            Some(expected) => {
                if !hits_equal(&hits, expected) {
                    eprintln!("  mode {name} DIVERGES from full_scan_sort");
                    reference_equal = false;
                }
            }
        }
        modes.push(JsonValue::Object(vec![
            ("mode".into(), JsonValue::String(name.into())),
            ("median_us".into(), JsonValue::Number(median)),
            ("hits".into(), JsonValue::Number(hits.len() as f64)),
            ("stats".into(), stats_json(&stats)),
        ]));
    }
    assert!(
        reference_equal,
        "a ranked mode diverged from the sort-truncate reference"
    );

    JsonValue::Object(vec![
        (
            "database_len".into(),
            JsonValue::Number(database.len() as f64),
        ),
        ("k".into(), JsonValue::Number(k as f64)),
        (
            "bucket_sizes".into(),
            JsonValue::Array(
                MIXED_SIZE_BUCKETS
                    .iter()
                    .map(|&s| JsonValue::Number(s as f64))
                    .collect(),
            ),
        ),
        ("tau_hat".into(), JsonValue::Number(5.0)),
        ("repeats".into(), JsonValue::Number(repeats as f64)),
        ("reference_equal".into(), JsonValue::Bool(reference_equal)),
        ("modes".into(), JsonValue::Array(modes)),
    ])
}

/// The CI guard: the file parses, every workload proved its modes equal to
/// the sort-truncate reference, and every ranked mode's stage counters
/// partition the database.
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
        match workload.get("reference_equal") {
            Some(JsonValue::Bool(true)) => {}
            _ => return Err("workload did not prove top-k ≡ sort-truncate".into()),
        }
        let modes = workload
            .get("modes")
            .and_then(JsonValue::as_array)
            .ok_or("missing modes array")?;
        for mode in modes {
            let name = mode.get("mode").and_then(JsonValue::as_str).unwrap_or("?");
            if !name.starts_with("topk") {
                continue;
            }
            let stats = mode.get("stats").ok_or("missing stats")?;
            let field = |key: &str| {
                stats
                    .get(key)
                    .and_then(JsonValue::as_usize)
                    .ok_or(format!("mode {name}: missing stat {key}"))
            };
            let accounted =
                field("rank_rejected")? + field("postings_resolved")? + field("merged")?;
            if accounted != n {
                return Err(format!(
                    "mode {name}: rank_rejected + postings_resolved + merged ({accounted}) != \
                     database_len ({n}) — rank pruning is silently broken"
                ));
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
    let mut workloads = Vec::new();
    for &n in &options.graphs {
        for &k in &options.ks {
            workloads.push(bench_workload(n, k, options.repeats));
        }
    }
    let document = JsonValue::Object(vec![
        ("bench".into(), JsonValue::String("topk".into())),
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
                eprintln!("check passed: JSON parses, top-k ≡ sort-truncate, stages accounted for")
            }
            Err(message) => {
                eprintln!("check FAILED: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
