//! Machine-readable online-scan benchmark: times the synthetic mixed-size
//! workload across engine modes and writes `results/BENCH_online_syn.json`
//! so the perf trajectory is tracked across PRs.
//!
//! Modes per database size:
//!
//! * `seed_reference` — the seed-faithful sequential scan
//!   (`reference_search`): one multiset merge + one fresh posterior per
//!   graph;
//! * `merge_memoized` — the PR 2 engine: flat-run merges + posterior memo,
//!   filter cascade off, posteriors recorded;
//! * `cascade_recorded` — filter cascade on, posteriors recorded (the
//!   merge is replaced by the inverted-index count filter);
//! * `cascade_fast` — filter cascade on, posterior recording off (bound
//!   stages resolve whole size buckets before any ϕ is computed).
//!
//! Usage: `bench_online_syn [--graphs N[,N…]] [--repeats K] [--out PATH]
//! [--check]`. `--check` re-reads the written file, asserts it parses and
//! that every mode satisfies `skipped_merges + merged == database_len` —
//! the CI guard against silently disabled filtering.

use std::process::ExitCode;
use std::time::Instant;

use gbd_bench::json::{self, JsonValue};
use gbd_bench::workloads::{mixed_size_online_workload, MIXED_SIZE_BUCKETS};
use gbda_core::{GbdaConfig, GraphDatabase, OfflineIndex, QueryEngine, SearchOutcome};

/// One timed engine mode: name plus the closure that runs the scan.
type ModeRunner<'a> = (&'a str, Box<dyn Fn() -> SearchOutcome + 'a>);

struct Options {
    graphs: Vec<usize>,
    repeats: usize,
    out: String,
    check: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        graphs: vec![1_000, 10_000],
        repeats: 9,
        out: "results/BENCH_online_syn.json".to_owned(),
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

fn stats_json(outcome: &SearchOutcome) -> JsonValue {
    let s = &outcome.stats;
    let number = |n: usize| JsonValue::Number(n as f64);
    JsonValue::Object(vec![
        ("evaluated".into(), number(s.evaluated)),
        ("bound_rejected".into(), number(s.bound_rejected)),
        ("bound_accepted".into(), number(s.bound_accepted)),
        ("postings_resolved".into(), number(s.postings_resolved)),
        ("merged".into(), number(s.merged)),
        ("threshold_accepts".into(), number(s.threshold_accepts)),
        ("cache_hits".into(), number(s.cache_hits)),
        ("cache_misses".into(), number(s.cache_misses)),
    ])
}

/// Times one engine mode: warm-up runs (enough for the stage planner's
/// profile to reach steady state — it needs 8 observed queries before its
/// measured selectivities take over from the priors), then `repeats` timed
/// runs.
fn run_mode(
    name: &str,
    repeats: usize,
    run: impl Fn() -> SearchOutcome,
) -> (JsonValue, SearchOutcome) {
    for _ in 0..10 {
        std::hint::black_box(run());
    }
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let started = Instant::now();
        let outcome = run();
        samples.push(started.elapsed().as_secs_f64() * 1e6);
        last = Some(outcome);
    }
    let outcome = last.expect("at least one repeat ran");
    let entry = JsonValue::Object(vec![
        ("mode".into(), JsonValue::String(name.into())),
        ("median_us".into(), JsonValue::Number(median_us(samples))),
        (
            "matches".into(),
            JsonValue::Number(outcome.matches.len() as f64),
        ),
        ("stats".into(), stats_json(&outcome)),
    ]);
    (entry, outcome)
}

fn bench_workload(n: usize, repeats: usize) -> JsonValue {
    eprintln!("# workload: {n} graphs");
    let (graphs, query) = mixed_size_online_workload(n);
    let database = GraphDatabase::from_graphs(graphs);
    let config = GbdaConfig::new(5, 0.8)
        .with_sample_pairs(500)
        .with_record_posteriors(true);
    let index = OfflineIndex::build(&database, &config).expect("offline stage builds");

    let memoized = QueryEngine::new(&database, &index, config.clone().with_filter_cascade(false));
    let cascade = QueryEngine::new(&database, &index, config.clone());
    let fast = QueryEngine::new(
        &database,
        &index,
        config.clone().with_record_posteriors(false),
    );

    let mut modes = Vec::new();
    let mut match_sets: Vec<(String, Vec<usize>)> = Vec::new();
    let runs: Vec<ModeRunner<'_>> = vec![
        (
            "seed_reference",
            Box::new(|| memoized.reference_search(&query)),
        ),
        ("merge_memoized", Box::new(|| memoized.search(&query))),
        ("cascade_recorded", Box::new(|| cascade.search(&query))),
        ("cascade_fast", Box::new(|| fast.search(&query))),
    ];
    for (name, run) in runs {
        let (entry, outcome) = run_mode(name, repeats, run);
        eprintln!(
            "  {name:<18} median {:>10.1} µs  (matches {}, skipped {}, merged {})",
            entry.get("median_us").and_then(JsonValue::as_f64).unwrap(),
            outcome.matches.len(),
            outcome.stats.skipped_merges(),
            outcome.stats.merged,
        );
        modes.push(entry);
        match_sets.push((name.to_owned(), outcome.matches));
    }
    // All modes answer the same question; diverging matches would mean the
    // cascade changed a result.
    for (name, matches) in &match_sets[1..] {
        assert_eq!(
            matches, &match_sets[0].1,
            "mode {name} diverges from seed_reference"
        );
    }

    JsonValue::Object(vec![
        (
            "database_len".into(),
            JsonValue::Number(database.len() as f64),
        ),
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
        ("gamma".into(), JsonValue::Number(0.8)),
        ("repeats".into(), JsonValue::Number(repeats as f64)),
        ("modes".into(), JsonValue::Array(modes)),
    ])
}

/// The CI guard: the file parses and every mode's counters partition the
/// database (`skipped_merges + merged == database_len`).
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
        let modes = workload
            .get("modes")
            .and_then(JsonValue::as_array)
            .ok_or("missing modes array")?;
        for mode in modes {
            let name = mode.get("mode").and_then(JsonValue::as_str).unwrap_or("?");
            let stats = mode.get("stats").ok_or("missing stats")?;
            let field = |key: &str| {
                stats
                    .get(key)
                    .and_then(JsonValue::as_usize)
                    .ok_or(format!("mode {name}: missing stat {key}"))
            };
            let skipped =
                field("bound_rejected")? + field("bound_accepted")? + field("postings_resolved")?;
            let merged = field("merged")?;
            if skipped + merged != n {
                return Err(format!(
                    "mode {name}: skipped ({skipped}) + merged ({merged}) != database_len ({n}) — \
                     filtering is silently broken"
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
    let workloads: Vec<JsonValue> = options
        .graphs
        .iter()
        .map(|&n| bench_workload(n, options.repeats))
        .collect();
    let document = JsonValue::Object(vec![
        ("bench".into(), JsonValue::String("online_syn".into())),
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
            Ok(()) => eprintln!("check passed: JSON parses, every scan stage accounted for"),
            Err(message) => {
                eprintln!("check FAILED: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
