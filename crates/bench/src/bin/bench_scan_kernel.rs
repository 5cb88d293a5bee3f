//! Machine-readable postings-kernel micro-benchmark: writes
//! `results/BENCH_scan_kernel.json` so the count filter's intersection
//! kernel is tracked independently of the end-to-end online bench.
//!
//! Per database size, one section, `intersection`: the stage-2 postings
//! kernel over the whole segment, the pre-adaptive linear reference walk
//! (`FilterCascade::intersections_linear`) vs. the adaptive
//! chunked/galloping cursors (`FilterCascade::intersections`). The two
//! accumulators are asserted bit-identical on every run.
//!
//! Usage: `bench_scan_kernel [--graphs N[,N…]] [--repeats K] [--out PATH]
//! [--check]`. `--check` re-reads the written file and asserts every
//! recorded bit-identity flag is true — the CI guard against the adaptive
//! kernel silently changing results.

use std::process::ExitCode;
use std::time::Instant;

use gbd_bench::json::{self, JsonValue};
use gbd_bench::workloads::mixed_size_online_workload;
use gbd_graph::BranchMultiset;
use gbda_core::{FilterCascade, GraphDatabase};

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
        out: "results/BENCH_scan_kernel.json".to_owned(),
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

/// Times one closure: a few warm-ups, then `repeats` timed runs, median µs.
fn time_median<T>(repeats: usize, run: impl Fn() -> T) -> f64 {
    for _ in 0..3 {
        std::hint::black_box(run());
    }
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let started = Instant::now();
        std::hint::black_box(run());
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    median_us(samples)
}

fn bench_workload(n: usize, repeats: usize) -> JsonValue {
    eprintln!("# workload: {n} graphs");
    let (graphs, query) = mixed_size_online_workload(n);
    let database = GraphDatabase::from_graphs(graphs);
    let multiset = BranchMultiset::from_graph(&query);
    let flat = database.catalog().flatten_lookup(&multiset);
    let cascade = FilterCascade::new(&database, &flat, None);
    let linear = cascade.intersections_linear(0..database.len());
    let adaptive = cascade.intersections(0..database.len());
    let adaptive_matches_linear = linear == adaptive;
    assert!(
        adaptive_matches_linear,
        "adaptive postings kernel diverges from the linear reference walk"
    );
    let postings: usize = flat
        .runs()
        .iter()
        .map(|run| {
            if (run.id as usize) < database.catalog().len() {
                database.postings(run.id).len()
            } else {
                0
            }
        })
        .sum();
    let linear_us = time_median(repeats, || cascade.intersections_linear(0..database.len()));
    let adaptive_us = time_median(repeats, || cascade.intersections(0..database.len()));
    eprintln!(
        "  intersection       linear {linear_us:>10.1} µs   adaptive {adaptive_us:>10.1} µs   \
         ({postings} postings)"
    );

    JsonValue::Object(vec![
        (
            "database_len".into(),
            JsonValue::Number(database.len() as f64),
        ),
        ("repeats".into(), JsonValue::Number(repeats as f64)),
        (
            "intersection".into(),
            JsonValue::Object(vec![
                ("linear_us".into(), JsonValue::Number(linear_us)),
                ("adaptive_us".into(), JsonValue::Number(adaptive_us)),
                ("postings".into(), JsonValue::Number(postings as f64)),
                (
                    "adaptive_matches_linear".into(),
                    JsonValue::Bool(adaptive_matches_linear),
                ),
            ]),
        ),
    ])
}

/// The CI guard: the file parses and every workload recorded the adaptive
/// kernel as bit-identical to the linear walk.
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
        let identical = workload
            .get("intersection")
            .and_then(|s| s.get("adaptive_matches_linear"))
            .and_then(JsonValue::as_bool)
            .ok_or("missing intersection.adaptive_matches_linear")?;
        if !identical {
            return Err("intersection.adaptive_matches_linear is false — results diverged".into());
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
        ("bench".into(), JsonValue::String("scan_kernel".into())),
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
    if options.check {
        match check(&options.out) {
            Ok(()) => eprintln!("check passed: adaptive kernel bit-identical to the linear walk"),
            Err(message) => {
                eprintln!("check FAILED: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
