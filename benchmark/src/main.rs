//! The GBDA end-to-end benchmark.
//!
//! ```text
//! gbda-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--smoke] [--calibrate] [--rounds] [--results-dir DIR]
//! ```
//!
//! With `--workload` it runs that workload once and prints, as the last
//! line of standard output, one JSON object `{correct, attempted, failed,
//! metrics}` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1` (`--rounds` adds each metric's per-round values).
//! Without `--workload` it runs all four, traced, each in a process of its
//! own, and prints every metric by name with its unit. `--smoke` does the
//! same on 500-graph databases in seconds; `--calibrate` runs the untraced
//! set twice and compares the two. See `README.md`.

mod affinity;
mod client;
mod durable;
mod layers;
mod metrics;
mod serving;
mod stats;
mod trace;
mod workloads;

use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gbd_bench::json::JsonValue;
use gbd_graph::Graph;
use gbda_core::DynamicView;

use affinity::Placement;
use durable::{ScratchDir, StoreOutcome};
use metrics::{Report, END_TO_END, PER_LAYER};
use serving::{Deployment, Tally};
use stats::{spread, Measured};
use trace::Trace;
use workloads::{generate, Dataset, Plan, Workload};

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    calibrate: bool,
    rounds: bool,
    results_dir: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: 15.0,
        traced: false,
        smoke: false,
        calibrate: false,
        rounds: false,
        results_dir: PathBuf::from("benchmark/results"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                options.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                options.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => options.smoke = true,
            "--calibrate" => options.calibrate = true,
            "--rounds" => options.rounds = true,
            "--results-dir" => options.results_dir = PathBuf::from(value("--results-dir")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

/// What one run of one workload produced.
struct RunOutput {
    workload: Workload,
    report: Report,
    tally: Tally,
    notes: Vec<String>,
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn sample_counts(label: &str, rounds: &[Vec<f64>]) -> String {
    let counts: Vec<String> = rounds.iter().map(|r| r.len().to_string()).collect();
    format!("{label}: samples per round [{}]", counts.join(", "))
}

/// The set-up phase's timings over its repetitions.
#[derive(Default)]
struct Setups {
    total_s: Vec<f64>,
    generate_ms: Vec<f64>,
    build_ms: Vec<f64>,
    offline_ms: Vec<f64>,
}

impl Setups {
    fn record(&mut self, report: &mut Report) {
        report.set("setup_s", Measured::of_rounds(self.total_s.clone()));
        report.set(
            "datasets.generate_ms",
            Measured::of_rounds(self.generate_ms.clone()),
        );
        report.set(
            "core.database.build_ms",
            Measured::of_rounds(self.build_ms.clone()),
        );
        report.set(
            "core.offline.build_ms",
            Measured::of_rounds(self.offline_ms.clone()),
        );
    }
}

/// Records the median and the 99th percentile of a latency sample cut into
/// rounds, and notes the sample counts.
fn record_latency(
    report: &mut Report,
    (p50, p99): (&'static str, &'static str),
    label: &str,
    rounds: &[Vec<f64>],
    notes: &mut Vec<String>,
) {
    report.set(p50, Measured::percentile_of_rounds(rounds, 0.50));
    report.set(p99, Measured::percentile_of_rounds(rounds, 0.99));
    notes.push(sample_counts(label, rounds));
}

const SEARCH: (&str, &str) = ("search_p50_us", "search_p99_us");
const TOP_K: (&str, &str) = ("topk_p50_us", "topk_p99_us");
const WRITE: (&str, &str) = ("write_p50_us", "write_p99_us");

fn record_store(report: &mut Report, cycles: &StoreOutcome, notes: &mut Vec<String>) {
    report.set("open_ms", Measured::of_rounds(cycles.open_ms.clone()));
    report.set("compact_ms", Measured::of_rounds(cycles.compact_ms.clone()));
    report.set_once("stored_bytes_per_graph", cycles.stored_bytes_per_graph);
    notes.push(
        "store latencies are this sandbox's page cache and fsync, not a storage device's".into(),
    );
}

fn record_f1(
    report: &mut Report,
    answers: &[Vec<u64>],
    dataset: &Dataset,
    notes: &mut Vec<String>,
) {
    let (precision, recall, f1) = serving::f1(answers, &dataset.truth);
    report.set_once("f1", f1);
    notes.push(format!(
        "f1 {f1:.4} = precision {precision:.4}, recall {recall:.4} over {} queries",
        answers.len()
    ));
}

/// What one run is asked to do.
struct Job<'a> {
    workload: Workload,
    seed: u64,
    plan: Plan,
    traced: bool,
    results_dir: &'a Path,
    placement: Placement,
}

/// Runs one of the three HTTP workloads.
fn run_http(job: &Job<'_>) -> Result<RunOutput, String> {
    let Job {
        workload,
        seed,
        ref plan,
        placement,
        ..
    } = *job;
    let mut report = Report::default();
    let mut setups = Setups::default();
    let mut kept: Option<(Deployment, Dataset)> = None;
    for _ in 0..plan.setups {
        if let Some((previous, _)) = kept.take() {
            previous.shutdown();
        }
        let started = Instant::now();
        let mut dataset = generate(workload, seed, plan);
        setups
            .generate_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let graphs = std::mem::take(&mut dataset.graphs);
        let (deployment, times) = Deployment::boot(graphs, dataset.alphabets)?;
        setups.total_s.push(started.elapsed().as_secs_f64());
        setups.build_ms.push(times.build_ms);
        setups.offline_ms.push(times.offline_ms);
        kept = Some((deployment, dataset));
    }
    setups.record(&mut report);
    let (deployment, dataset) = kept.expect("at least one set-up ran");
    placement.move_to_background("gbda-compactor");
    let result = drive_http(job, &deployment, &dataset, report);
    deployment.shutdown();
    result
}

fn drive_http(
    job: &Job<'_>,
    deployment: &Deployment,
    dataset: &Dataset,
    mut report: Report,
) -> Result<RunOutput, String> {
    let Job {
        workload,
        ref plan,
        traced,
        results_dir,
        placement,
        ..
    } = *job;
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    // Keeps the initial base alive for the ledger and the side store.
    let first = deployment.state.engine().pin();
    let prepared = serving::gate(deployment, &dataset.queries)?;
    tally.attempted += 2 * dataset.queries.len() as u64;
    record_f1(&mut report, &prepared.answers, dataset, &mut notes);

    let rw = if workload == Workload::MixedRw {
        let rw = serving::mixed_rw(deployment, dataset, &prepared, plan, placement)?;
        record_latency(
            &mut report,
            SEARCH,
            "/search beside the writer",
            &rw.search,
            &mut notes,
        );
        record_latency(
            &mut report,
            TOP_K,
            "/search_top_k beside the writer",
            &rw.top_k,
            &mut notes,
        );
        record_latency(
            &mut report,
            WRITE,
            "/insert and /remove from their due time",
            &rw.write,
            &mut notes,
        );
        report.set("search_qps", Measured::of_rounds(rw.qps.clone()));
        notes.push(format!(
            "{} background compactions, {} generations published, writer at most {:.1} ms late, longest write wait {:.1} ms",
            rw.compactions, rw.epochs, rw.late_max_ms, rw.stall_max_ms
        ));
        tally.add(rw.tally);
        Some(rw)
    } else {
        let read = serving::read_rounds(deployment.addr, &prepared, plan)?;
        record_latency(
            &mut report,
            SEARCH,
            "/search on one connection",
            &read.search,
            &mut notes,
        );
        record_latency(
            &mut report,
            TOP_K,
            "/search_top_k on one connection",
            &read.top_k,
            &mut notes,
        );
        report.set("search_qps", Measured::of_rounds(read.qps.clone()));
        tally.add(read.tally);
        let write = serving::write_rounds(deployment.addr, dataset, plan, &mut tally)?;
        record_latency(
            &mut report,
            WRITE,
            "/insert and /remove, closed loop",
            &write,
            &mut notes,
        );
        None
    };

    // The side measurement: a few persistence cycles over this workload's
    // own graphs (see `durable`), so that every workload reports the store's
    // metrics; `mixed_rw` already has write latencies of its own.
    let store_dir = ScratchDir::create(results_dir, "store")?;
    let all = first.view_base().graphs();
    let base: Vec<Graph> = all
        .iter()
        .step_by(all.len() / plan.store_graphs)
        .take(plan.store_graphs)
        .cloned()
        .collect();
    let (store, index, _) = durable::create_store(store_dir.path(), base, dataset.alphabets)?;
    let (cycles, store) =
        durable::run_cycles(store_dir.path(), store, &index, dataset, plan, false)?;
    record_store(&mut report, &cycles, &mut notes);
    tally.add(cycles.tally);
    report.set_once("peak_rss_mb", peak_rss_mb()?);

    if traced {
        let mut trace = Trace::new();
        // First, so that the replay scans what the timed rounds scanned: a
        // compacted base without the write rounds' tombstoned delta.
        report.set_once("core.concurrent.compact_ms", {
            let started = Instant::now();
            deployment.state.engine().compact();
            started.elapsed().as_secs_f64() * 1e3
        });
        layers::replay_reads(
            deployment,
            &prepared,
            plan,
            &mut trace,
            &mut report,
            &mut tally,
        )?;
        // On a 500-graph smoke database `handle` is a few tens of
        // microseconds and rendering the answer is a tenth of it; the check
        // is for the full-size run.
        let gap = if plan.smoke {
            layers::reconcile(&trace, "http.search")
        } else {
            layers::check_reconciled(&trace, "http.search")?
        };
        notes.push(format!(
            "in-process layer spans differ from serve.api.handle by {:.2}% (median over /search requests)",
            gap * 100.0
        ));
        layers::connect_probe(deployment, dataset, &trace, &mut report)?;
        layers::engine_probes(deployment.state.engine(), &dataset.queries, &mut report);
        let requests: Vec<_> = prepared
            .search
            .iter()
            .map(|bytes| gbd_serve::http::read_request(&mut Cursor::new(bytes.as_slice())))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("replayed parse: {e:?}"))?;
        let mut next = 0usize;
        layers::telemetry_probes(
            || {
                std::hint::black_box(gbd_serve::handle(
                    &deployment.state,
                    &requests[next % requests.len()],
                ));
                next += 1;
            },
            &mut report,
        );
        let scratch = layers::scratch_engine(
            first.view_base().graphs().to_vec(),
            dataset.alphabets,
            dataset,
            &mut report,
        )?;
        layers::replay_writes(deployment, &scratch, dataset, &mut trace, &mut tally)?;
        layers::concurrency_counts(deployment, rw.as_ref(), &mut report)?;
        let wal_dir = ScratchDir::create(results_dir, "wal")?;
        layers::store_probes(
            store_dir.path(),
            wal_dir.path(),
            store,
            &cycles,
            dataset,
            &mut trace,
            &mut report,
        )?;
        let observed = trace
            .summary("http.search")
            .get("http.search")
            .map_or(0.0, |s| s.median_ns / 1e3);
        report.set_once(
            "trace.overhead_ratio",
            observed / report.value("search_p50_us").max(1e-9),
        );
        for root in [
            "http.search",
            "http.top_k",
            "http.insert",
            "http.remove",
            "store.insert",
            "store.open",
        ] {
            notes.push(layers::waterfall(&trace, root));
        }
        write_trace(&trace, workload, results_dir, &mut notes)?;
    }
    Ok(RunOutput {
        workload,
        report,
        tally,
        notes,
    })
}

fn write_trace(
    trace: &Trace,
    workload: Workload,
    results_dir: &Path,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let path = results_dir.join(format!("trace_{}.json", workload.name()));
    trace
        .write_json(workload.name(), &path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        trace.spans().len(),
        path.display()
    ));
    Ok(())
}

/// Runs the library-level `durable_store` workload.
fn run_store(job: &Job<'_>) -> Result<RunOutput, String> {
    let Job {
        workload,
        seed,
        ref plan,
        traced,
        results_dir,
        ..
    } = *job;
    let mut report = Report::default();
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    let mut setups = Setups::default();
    let mut kept = None;
    for _ in 0..plan.setups {
        drop(kept.take());
        let store_dir = ScratchDir::create(results_dir, "store")?;
        let started = Instant::now();
        let mut dataset = generate(workload, seed, plan);
        setups
            .generate_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let graphs = std::mem::take(&mut dataset.graphs);
        let (store, index, times) =
            durable::create_store(store_dir.path(), graphs, dataset.alphabets)?;
        setups.total_s.push(started.elapsed().as_secs_f64());
        setups.build_ms.push(times.build_ms);
        setups.offline_ms.push(times.offline_ms);
        kept = Some((store_dir, store, index, dataset));
    }
    setups.record(&mut report);
    let (store_dir, store, index, dataset) = kept.expect("at least one set-up ran");

    let answers = durable::gate(&store, &index, &dataset.queries)?;
    tally.attempted += 2 * dataset.queries.len() as u64;
    record_f1(&mut report, &answers, &dataset, &mut notes);
    tally.add(durable::power_cycle_check(&dataset)?);
    let initial = traced.then(|| durable::live_graphs(store.database()));

    let (cycles, store) =
        durable::run_cycles(store_dir.path(), store, &index, &dataset, plan, true)?;
    record_latency(
        &mut report,
        SEARCH,
        "ConcurrentDurable::search",
        &cycles.search,
        &mut notes,
    );
    record_latency(
        &mut report,
        TOP_K,
        "ConcurrentDurable::search_top_k",
        &cycles.top_k,
        &mut notes,
    );
    record_latency(
        &mut report,
        WRITE,
        "synced acknowledgements",
        &cycles.write,
        &mut notes,
    );
    report.set("search_qps", Measured::of_rounds(cycles.qps.clone()));
    record_store(&mut report, &cycles, &mut notes);
    tally.add(cycles.tally);
    report.set_once("peak_rss_mb", peak_rss_mb()?);

    if let Some(initial) = initial {
        let mut trace = Trace::new();
        let scratch = layers::scratch_engine(initial, dataset.alphabets, &dataset, &mut report)?;
        layers::engine_probes(&scratch, &dataset.queries, &mut report);
        let mut next = 0usize;
        layers::telemetry_probes(
            || {
                std::hint::black_box(
                    scratch.search(&dataset.queries[next % dataset.queries.len()]),
                );
                next += 1;
            },
            &mut report,
        );
        report.set_once("core.concurrent.compact_ms", {
            let started = Instant::now();
            scratch.compact();
            started.elapsed().as_secs_f64() * 1e3
        });
        let wal_dir = ScratchDir::create(results_dir, "wal")?;
        layers::store_probes(
            store_dir.path(),
            wal_dir.path(),
            store,
            &cycles,
            &dataset,
            &mut trace,
            &mut report,
        )?;
        // No request is replayed here; `open` is the call made both in the
        // timed cycles and under a span.
        let observed = trace
            .summary("store.open")
            .get("store.open")
            .map_or(0.0, |s| s.median_ns / 1e6);
        report.set_once(
            "trace.overhead_ratio",
            observed / report.value("open_ms").max(1e-9),
        );
        for root in ["store.insert", "store.open", "store.compact"] {
            notes.push(layers::waterfall(&trace, root));
        }
        write_trace(&trace, workload, results_dir, &mut notes)?;
    }
    Ok(RunOutput {
        workload,
        report,
        tally,
        notes,
    })
}

fn run(
    workload: Workload,
    options: &Options,
    traced: bool,
    placement: Placement,
) -> Result<RunOutput, String> {
    let job = Job {
        workload,
        seed: options.seed,
        plan: Plan::new(workload, options.seconds, options.smoke),
        traced,
        results_dir: &options.results_dir,
        placement,
    };
    eprintln!(
        "# {}: seed {}, {} graphs, {:.1} s measured, {} client thread(s){}; {}",
        workload.name(),
        options.seed,
        job.plan.graphs,
        options.seconds,
        serving::client_threads(),
        if traced { ", traced" } else { "" },
        placement.describe(),
    );
    let output = if workload.is_http() {
        run_http(&job)
    } else {
        run_store(&job)
    }?;
    let missing = output.report.missing_end_to_end();
    if !missing.is_empty() {
        return Err(format!("{}: no value for {missing:?}", workload.name()));
    }
    Ok(output)
}

/// Prints every metric of `output` by name with its unit.
fn print_table(output: &RunOutput, traced: bool) {
    println!("== {} — {}", output.workload.name(), output.workload.why());
    println!(
        "operations: {} attempted, {} failed",
        output.tally.attempted, output.tally.failed
    );
    for metric in END_TO_END {
        if let Some(measured) = output.report.get(metric.name) {
            let rounds: Vec<String> = measured.rounds.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<26} {:>14.4} {:<6} ({} is better; bound {:.0}%; rounds {}) {}",
                metric.name,
                measured.value,
                metric.unit,
                metric.better.name(),
                metric.bound * 100.0,
                rounds.join(" "),
                metric.meaning
            );
        }
    }
    if traced {
        for metric in PER_LAYER {
            let rounds = output
                .report
                .get(metric.name)
                .map_or_else(String::new, |m| {
                    if m.rounds.len() > 1 {
                        let rounds: Vec<String> =
                            m.rounds.iter().map(|v| format!("{v:.3}")).collect();
                        format!(" [{}]", rounds.join(" "))
                    } else {
                        String::new()
                    }
                });
            println!(
                "  {:<42} {:>16.3} {:<6}{rounds} ({} is better) -> {}",
                metric.name,
                output.report.value(metric.name),
                metric.unit,
                metric.better.name(),
                metric.moves
            );
        }
    }
    for note in output.notes.iter().filter(|note| !note.is_empty()) {
        println!("{note}");
    }
}

/// One line of compact JSON.
fn compact(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Object(members) => {
            out.push('{');
            for (k, (name, member)) in members.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{name}\": "));
                compact(member, out);
            }
            out.push('}');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                compact(item, out);
            }
            out.push(']');
        }
        JsonValue::Number(n) => out.push_str(&format!("{n}")),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::String(s) => out.push_str(&format!("{s:?}")),
        JsonValue::Null => out.push_str("null"),
    }
}

/// The contract's result line: the end-to-end metrics of an untraced run,
/// the per-layer metrics of a traced one. `with_rounds` (the calibration's
/// own children only) adds each metric's per-round values.
fn result_line(output: &RunOutput, traced: bool, with_rounds: bool) -> String {
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = names
        .into_iter()
        .map(|(name, unit)| {
            let mut members = vec![
                ("value".into(), JsonValue::Number(output.report.value(name))),
                ("unit".into(), JsonValue::String(unit.into())),
            ];
            if with_rounds {
                let rounds = output.report.get(name).map_or(&[][..], |m| &m.rounds);
                members.push((
                    "rounds".into(),
                    JsonValue::Array(rounds.iter().map(|&v| JsonValue::Number(v)).collect()),
                ));
            }
            (name.to_owned(), JsonValue::Object(members))
        })
        .collect();
    let document = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(output.tally.failed == 0)),
        (
            "attempted".into(),
            JsonValue::Number(output.tally.attempted as f64),
        ),
        (
            "failed".into(),
            JsonValue::Number(output.tally.failed as f64),
        ),
        ("metrics".into(), JsonValue::Object(metrics)),
    ]);
    let mut line = String::new();
    compact(&document, &mut line);
    line
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one workload in a process of its own — so that `peak_rss_mb` is that
/// workload's and the thread placement starts from the full CPU set — and
/// returns whether it exited cleanly, with its standard output when
/// `capture` is set (it is passed through otherwise).
fn run_in_child(
    workload: Workload,
    options: &Options,
    traced: bool,
    capture: bool,
) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--results-dir")
        .arg(&options.results_dir);
    if options.smoke {
        command.arg("--smoke");
    }
    if capture {
        command.arg("--rounds");
        let output = command
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        Ok((
            output.status.success(),
            String::from_utf8_lossy(&output.stdout).into_owned(),
        ))
    } else {
        let status = command.status().map_err(|e| format!("spawn: {e}"))?;
        Ok((status.success(), String::new()))
    }
}

/// The A/A calibration: the whole untraced set twice on one build. Prints,
/// per workload and end-to-end metric, the two medians, their relative
/// difference and the spread between rounds; writes `calibration.json`;
/// fails when two runs of the same code differ by more than a bound.
fn calibrate(options: &Options) -> Result<bool, String> {
    let mut passes: Vec<Vec<JsonValue>> = Vec::new();
    let mut within = true;
    for _ in 0..2 {
        let mut pass = Vec::new();
        for workload in Workload::ALL {
            let (clean, stdout) = run_in_child(workload, options, false, true)?;
            within &= clean;
            let line = stdout.lines().last().unwrap_or_default();
            pass.push(
                gbd_bench::json::parse(line)
                    .map_err(|e| format!("{}: no result line: {e}", workload.name()))?,
            );
        }
        passes.push(pass);
    }
    let mut rows = Vec::new();
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "rounds", "bound"
    );
    for (workload, (first, second)) in Workload::ALL
        .into_iter()
        .zip(passes[0].iter().zip(&passes[1]))
    {
        for metric in END_TO_END {
            let field = |document: &JsonValue| -> Result<(f64, Vec<f64>), String> {
                let entry = document
                    .get("metrics")
                    .and_then(|metrics| metrics.get(metric.name))
                    .ok_or(format!("{}: no {}", workload.name(), metric.name))?;
                let value = entry.get("value").and_then(JsonValue::as_f64);
                let rounds = entry.get("rounds").and_then(JsonValue::as_array);
                Ok((
                    value.ok_or("a metric without a value")?,
                    rounds
                        .unwrap_or_default()
                        .iter()
                        .filter_map(JsonValue::as_f64)
                        .collect(),
                ))
            };
            let ((a, a_rounds), (b, b_rounds)) = (field(first)?, field(second)?);
            let difference = (b - a).abs() / a.abs().max(1e-12);
            let rounds = spread(&a_rounds).max(spread(&b_rounds));
            let ok = difference <= metric.bound;
            within &= ok;
            println!(
                "{:<14} {:<24} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>6.0}%{}",
                workload.name(),
                metric.name,
                a,
                b,
                difference * 100.0,
                rounds * 100.0,
                metric.bound * 100.0,
                if ok { "" } else { "  <-- beyond its bound" }
            );
            rows.push(JsonValue::Object(vec![
                ("workload".into(), JsonValue::String(workload.name().into())),
                ("metric".into(), JsonValue::String(metric.name.into())),
                ("unit".into(), JsonValue::String(metric.unit.into())),
                ("first".into(), JsonValue::Number(a)),
                ("second".into(), JsonValue::Number(b)),
                ("relative_difference".into(), JsonValue::Number(difference)),
                ("round_spread".into(), JsonValue::Number(rounds)),
                ("bound".into(), JsonValue::Number(metric.bound)),
            ]));
        }
    }
    let document = JsonValue::Object(vec![
        ("seed".into(), JsonValue::Number(options.seed as f64)),
        ("seconds".into(), JsonValue::Number(options.seconds)),
        (
            "nproc".into(),
            JsonValue::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "git_sha".into(),
            JsonValue::String(command_output("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".into(),
            JsonValue::String(command_output("rustc", &["-V"])),
        ),
        (
            "profile".into(),
            JsonValue::String("release, lto = \"thin\", codegen-units = 1".into()),
        ),
        ("within_bounds".into(), JsonValue::Bool(within)),
        ("metrics".into(), JsonValue::Array(rows)),
    ]);
    let path = options.results_dir.join("calibration.json");
    std::fs::create_dir_all(&options.results_dir).map_err(|e| e.to_string())?;
    std::fs::write(&path, document.render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(within)
}

fn real_main() -> Result<bool, String> {
    let mut options = parse_args()?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: build with --release".into());
    }
    if options.smoke {
        options.seconds = options.seconds.min(1.5);
    }
    let Some(workload) = options.workload else {
        // Every workload in a process of its own.
        if options.calibrate {
            return calibrate(&options);
        }
        let mut clean = true;
        for workload in Workload::ALL {
            clean &= run_in_child(workload, &options, true, false)?.0;
        }
        return Ok(clean);
    };
    // Before any other thread exists, so that every thread inherits it.
    let placement = affinity::pin_foreground();
    let output = run(workload, &options, options.traced, placement)?;
    print_table(&output, options.traced);
    println!("{}", result_line(&output, options.traced, options.rounds));
    Ok(output.tally.failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: an operation failed or a metric left its bound");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_line_with_exactly_the_contracts_keys() {
        let mut report = Report::default();
        for (k, metric) in END_TO_END.iter().enumerate() {
            report.set_once(metric.name, 1.0 + k as f64 / 7.0);
        }
        let output = RunOutput {
            workload: Workload::HttpDense,
            report,
            tally: Tally {
                attempted: 10,
                failed: 0,
            },
            notes: Vec::new(),
        };
        let line = result_line(&output, false, false);
        assert!(!line.contains('\n'));
        let document = gbd_bench::json::parse(&line).unwrap();
        let JsonValue::Object(members) = &document else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let JsonValue::Object(metrics) = document.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = document.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(1.0));

        let traced = gbd_bench::json::parse(&result_line(&output, true, true)).unwrap();
        let JsonValue::Object(layers) = traced.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
    }

    #[test]
    fn medians_of_set_up_repetitions_are_reported() {
        let mut report = Report::default();
        Setups {
            total_s: vec![3.0, 1.0, 2.0],
            generate_ms: vec![1.0],
            build_ms: vec![2.0],
            offline_ms: vec![3.0],
        }
        .record(&mut report);
        assert_eq!(report.value("setup_s"), 2.0);
        assert_eq!(report.get("setup_s").unwrap().rounds.len(), 3);
    }
}
