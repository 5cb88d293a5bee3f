//! Machine-readable scan-kernel benchmark: times and cross-checks the three
//! kernel instantiation families — threshold, top-k and dynamic — on the
//! synthetic mixed-size workload and writes `results/BENCH_kernel.json`.
//!
//! Every family is asserted **bit-identical to its reference while
//! running** — a divergence aborts before any JSON is written:
//!
//! * `threshold` — `QueryEngine::search` (StaticPhi × CollectAll) vs the
//!   seed-faithful `reference_search`, matches and recorded posterior bits;
//! * `topk` — `QueryEngine::search_top_k` (TighteningRank × TopKSink) vs
//!   the sort-truncate `top_k_reference`;
//! * `dynamic` — `DynamicEngine::search` over base + delta + tombstones vs
//!   `reference_search` on a fresh rebuild of the survivors.
//!
//! Usage: `bench_kernel [--graphs N[,N…]] [--k K] [--repeats R] [--out PATH]
//! [--check]`. `--check` re-reads the written file, asserts it parses, that
//! every family recorded `identical = true`, and that every mode's stage
//! counters partition the evaluated set
//! (`bound_rejected + bound_accepted + rank_rejected + postings_resolved +
//! merged == evaluated`) — the CI guard against a silently broken kernel.

use std::process::ExitCode;
use std::time::Instant;

use gbd_bench::json::{self, JsonValue};
use gbd_bench::workloads::mixed_size_online_workload;
use gbda_core::{
    DynamicDatabase, DynamicEngine, GbdaConfig, GraphDatabase, OfflineIndex, QueryEngine,
    SearchStats,
};

struct Options {
    graphs: Vec<usize>,
    k: usize,
    repeats: usize,
    out: String,
    check: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        graphs: vec![1_000],
        k: 10,
        repeats: 9,
        out: "results/BENCH_kernel.json".to_owned(),
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
                if options.graphs.iter().any(|&n| n < 64) {
                    return Err("--graphs values must be at least 64".into());
                }
            }
            "--k" => {
                let value = args.next().ok_or("--k needs a value")?;
                options.k = value.parse::<usize>().map_err(|e| e.to_string())?.max(1);
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
        ("bound_rejected".into(), number(s.bound_rejected)),
        ("bound_accepted".into(), number(s.bound_accepted)),
        ("rank_rejected".into(), number(s.rank_rejected)),
        ("postings_resolved".into(), number(s.postings_resolved)),
        ("merged".into(), number(s.merged)),
        ("cache_hits".into(), number(s.cache_hits)),
        ("cache_misses".into(), number(s.cache_misses)),
    ])
}

/// Times one closure: two warm-up runs, then `repeats` timed runs returning
/// the last run's stats alongside the median time.
fn run_mode(repeats: usize, run: impl Fn() -> SearchStats) -> (f64, SearchStats) {
    for _ in 0..2 {
        std::hint::black_box(run());
    }
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let started = Instant::now();
        let stats = run();
        samples.push(started.elapsed().as_secs_f64() * 1e6);
        last = Some(stats);
    }
    (median_us(samples), last.expect("at least one repeat ran"))
}

fn mode_json(name: &str, median: f64, stats: &SearchStats, identical: bool) -> JsonValue {
    eprintln!(
        "  {name:<18} median {median:>10.1} µs  identical={identical}  \
         (bound_rej {}, bound_acc {}, rank_rej {}, resolved {}, merged {})",
        stats.bound_rejected,
        stats.bound_accepted,
        stats.rank_rejected,
        stats.postings_resolved,
        stats.merged,
    );
    assert!(
        identical,
        "kernel family {name} diverged from its reference"
    );
    JsonValue::Object(vec![
        ("mode".into(), JsonValue::String(name.into())),
        ("median_us".into(), JsonValue::Number(median)),
        ("identical".into(), JsonValue::Bool(identical)),
        ("stats".into(), stats_json(stats)),
    ])
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn bench_workload(n: usize, k: usize, repeats: usize) -> JsonValue {
    eprintln!("# workload: {n} graphs, k = {k}");
    let (graphs, query) = mixed_size_online_workload(n);
    let database = GraphDatabase::from_graphs(graphs.clone());
    let config = GbdaConfig::new(5, 0.8).with_sample_pairs(500);
    let index = OfflineIndex::build(&database, &config).expect("offline stage builds");
    let fast_config = config.clone().with_record_posteriors(false);
    let recording_config = config.clone().with_record_posteriors(true);
    let engine = QueryEngine::new(&database, &index, fast_config.clone());
    let recording = QueryEngine::new(&database, &index, recording_config.clone());

    let mut modes = Vec::new();

    // Family 1 — threshold: StaticPhi × CollectAll vs reference_search.
    let reference = recording.reference_search(&query);
    let recorded = recording.search(&query);
    let threshold_identical = {
        let fast = engine.search(&query);
        fast.matches == reference.matches
            && recorded.matches == reference.matches
            && same_bits(&recorded.posteriors, &reference.posteriors)
    };
    let (median, stats) = run_mode(repeats, || engine.search(&query).stats);
    modes.push(mode_json("threshold", median, &stats, threshold_identical));

    // Family 2 — top-k: TighteningRank × TopKSink vs top_k_reference.
    let expected_top = engine.top_k_reference(&query, k);
    let ranked = engine.search_top_k(&query, k);
    let topk_identical = ranked.hits.len() == expected_top.len()
        && ranked
            .hits
            .iter()
            .zip(&expected_top)
            .all(|(a, b)| a.id == b.id && a.posterior.to_bits() == b.posterior.to_bits());
    let (median, stats) = run_mode(repeats, || engine.search_top_k(&query, k).stats);
    modes.push(mode_json("topk", median, &stats, topk_identical));

    // Family 3 — dynamic: base + delta + tombstones vs a fresh rebuild.
    let split = n - n / 8;
    let mut dynamic = DynamicDatabase::new(GraphDatabase::from_graphs(graphs[..split].to_vec()));
    for graph in graphs[split..].iter().cloned() {
        dynamic.insert(graph);
    }
    for id in (0..n as u64).step_by(17) {
        dynamic.remove(id).expect("live id removes");
    }
    let (live_ids, survivors): (Vec<u64>, Vec<_>) = dynamic
        .live_graphs()
        .map(|(id, graph)| (id, graph.clone()))
        .unzip();
    let fresh = GraphDatabase::with_alphabets(survivors, dynamic.alphabets());
    let fresh_engine = QueryEngine::new(&fresh, &index, config.clone());
    let dynamic_recording = DynamicEngine::new(&dynamic, &index, recording_config);
    let dynamic_engine = DynamicEngine::new(&dynamic, &index, fast_config.clone());
    let fresh_reference = fresh_engine.reference_search(&query);
    let dynamic_outcome = dynamic_recording.search(&query);
    let expected_ids: Vec<u64> = fresh_reference
        .matches
        .iter()
        .map(|&i| live_ids[i])
        .collect();
    let dynamic_identical = dynamic_outcome.matches == expected_ids
        && same_bits(&dynamic_outcome.posteriors, &fresh_reference.posteriors);
    let (median, stats) = run_mode(repeats, || dynamic_engine.search(&query).stats);
    modes.push(mode_json("dynamic", median, &stats, dynamic_identical));

    JsonValue::Object(vec![
        (
            "database_len".into(),
            JsonValue::Number(database.len() as f64),
        ),
        ("k".into(), JsonValue::Number(k as f64)),
        (
            "dynamic_live".into(),
            JsonValue::Number(live_ids.len() as f64),
        ),
        ("tau_hat".into(), JsonValue::Number(5.0)),
        ("repeats".into(), JsonValue::Number(repeats as f64)),
        ("modes".into(), JsonValue::Array(modes)),
    ])
}

/// The CI guard: the file parses, every kernel family proved itself
/// bit-identical to its reference, and every mode's stage counters partition
/// the evaluated set.
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
        let modes = workload
            .get("modes")
            .and_then(JsonValue::as_array)
            .ok_or("missing modes array")?;
        if modes.len() < 3 {
            return Err(format!("expected 3 kernel families, found {}", modes.len()));
        }
        for mode in modes {
            let name = mode.get("mode").and_then(JsonValue::as_str).unwrap_or("?");
            match mode.get("identical") {
                Some(JsonValue::Bool(true)) => {}
                _ => {
                    return Err(format!(
                        "family {name} did not prove kernel ≡ reference bit-identity"
                    ))
                }
            }
            let stats = mode.get("stats").ok_or("missing stats")?;
            let field = |key: &str| {
                stats
                    .get(key)
                    .and_then(JsonValue::as_usize)
                    .ok_or(format!("mode {name}: missing stat {key}"))
            };
            let accounted = field("bound_rejected")?
                + field("bound_accepted")?
                + field("rank_rejected")?
                + field("postings_resolved")?
                + field("merged")?;
            let evaluated = field("evaluated")?;
            if accounted != evaluated {
                return Err(format!(
                    "mode {name}: stage counters ({accounted}) do not partition the evaluated \
                     set ({evaluated}) — the kernel accounting is silently broken"
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
        workloads.push(bench_workload(n, options.k, options.repeats));
    }
    let document = JsonValue::Object(vec![
        ("bench".into(), JsonValue::String("kernel".into())),
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
            Ok(()) => eprintln!(
                "check passed: JSON parses, all three kernel families ≡ reference, stages \
                 partition"
            ),
            Err(message) => {
                eprintln!("check FAILED: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
