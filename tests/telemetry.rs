//! Integration tests of the telemetry layer through the facade: exposition
//! validity (a small Prometheus parser round-trips `render_prometheus`,
//! `gbd_bench`'s JSON parser round-trips `render_json`), the level knob's
//! gating of the engine flush, and the trace ring's accounting.
//!
//! Only [`global_level_gating_and_engine_flush`] touches the process-global
//! registry and level — every other test works on a fresh local
//! [`MetricsRegistry`], so the tests stay independent under the default
//! parallel test runner.

use gbda::prelude::*;
use gbda::telemetry;
use proptest::prelude::*;
use rand::SeedableRng;

/// One parsed Prometheus sample: metric name, `le` label (if any), value.
#[derive(Debug)]
struct Sample {
    name: String,
    le: Option<String>,
    value: f64,
}

/// A deliberately small parser of the text exposition format: `# HELP` /
/// `# TYPE` comments plus `name[{le="bound"}] value` samples. Anything it
/// cannot parse is a test failure — that is the point.
fn parse_prometheus(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value separator in {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|e| format!("bad value in {line:?}: {e}"))?;
        let (name, le) = match series.split_once('{') {
            None => (series.to_owned(), None),
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("unterminated labels in {line:?}"))?;
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|rest| rest.strip_suffix('"'))
                    .ok_or_else(|| format!("unsupported labels in {line:?}"))?;
                (name.to_owned(), Some(le.to_owned()))
            }
        };
        samples.push(Sample { name, le, value });
    }
    Ok(samples)
}

fn series<'a>(samples: &'a [Sample], name: &str) -> Vec<&'a Sample> {
    samples.iter().filter(|s| s.name == name).collect()
}

#[test]
fn prometheus_rendering_round_trips_through_a_small_parser() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("test_ops_total", "Operations.");
    let gauge = registry.gauge("test_level", "A level.");
    let histogram = registry.histogram("test_seconds", "A latency.");
    counter.add(41);
    counter.inc();
    gauge.set(2.5);
    let values = [0.0, 1e-7, 3.3e-5, 0.5, 11.0];
    for value in values {
        histogram.record(value);
    }

    let text = registry.render_prometheus();
    assert!(text.contains("# TYPE test_ops_total counter"));
    assert!(text.contains("# TYPE test_level gauge"));
    assert!(text.contains("# TYPE test_seconds histogram"));
    assert!(text.contains("# HELP test_ops_total Operations."));
    let samples = parse_prometheus(&text).expect("every sample line parses");

    let counters = series(&samples, "test_ops_total");
    assert_eq!(counters.len(), 1);
    assert_eq!(counters[0].value, 42.0);
    assert_eq!(series(&samples, "test_level")[0].value, 2.5);

    let buckets = series(&samples, "test_seconds_bucket");
    assert_eq!(
        buckets.len(),
        telemetry::HISTOGRAM_BUCKETS,
        "one bucket per bound plus +Inf"
    );
    let mut previous = 0.0;
    let mut previous_bound = f64::NEG_INFINITY;
    for bucket in &buckets {
        let le = bucket.le.as_deref().expect("buckets carry le");
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().expect("finite bounds parse")
        };
        assert!(bound > previous_bound, "bounds ascend");
        assert!(bucket.value >= previous, "cumulative counts are monotone");
        previous = bucket.value;
        previous_bound = bound;
    }
    let count = series(&samples, "test_seconds_count")[0].value;
    assert_eq!(count, values.len() as f64);
    assert_eq!(buckets.last().unwrap().value, count, "+Inf equals _count");
    let sum = series(&samples, "test_seconds_sum")[0].value;
    let expected: f64 = values.iter().sum();
    assert!((sum - expected).abs() < 1e-6, "sum {sum} vs {expected}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `render_prometheus` round-trips arbitrary recorded data: the counter
    /// equals the sum of its increments, `_count` equals the number of
    /// recorded values, and the cumulative buckets are monotone and end at
    /// `_count` — for any mix of magnitudes across the bucket range.
    #[test]
    fn rendering_round_trips_arbitrary_recordings(
        increments in proptest::collection::vec(0u64..1000, 0..20),
        values in proptest::collection::vec(0.0f64..20.0, 0..24),
    ) {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("prop_ops_total", "Operations.");
        let histogram = registry.histogram("prop_seconds", "A latency.");
        for &n in &increments {
            counter.add(n);
        }
        for &value in &values {
            histogram.record(value);
        }
        let samples =
            parse_prometheus(&registry.render_prometheus()).expect("every sample line parses");
        let total: u64 = increments.iter().sum();
        prop_assert_eq!(series(&samples, "prop_ops_total")[0].value, total as f64);
        let buckets = series(&samples, "prop_seconds_bucket");
        prop_assert_eq!(buckets.len(), telemetry::HISTOGRAM_BUCKETS);
        let mut previous = 0.0;
        for bucket in &buckets {
            prop_assert!(bucket.value >= previous);
            previous = bucket.value;
        }
        let count = series(&samples, "prop_seconds_count")[0].value;
        prop_assert_eq!(count, values.len() as f64);
        prop_assert_eq!(buckets.last().unwrap().value, count);
    }
}

#[test]
fn trace_ring_accounts_for_every_event() {
    let ring = TraceBuffer::with_capacity(4);
    for value in 0..7u64 {
        ring.push(TraceEvent {
            name: "test.ring",
            kind: TraceKind::Event,
            key: "i",
            value,
            start_ns: telemetry::now_ns(),
            duration_ns: 0,
        });
    }
    assert_eq!(ring.recorded(), 7);
    assert_eq!(ring.len(), 4);
    assert_eq!(ring.dropped(), 3);
    let kept: Vec<u64> = ring.events().iter().map(|e| e.value).collect();
    assert_eq!(kept, vec![3, 4, 5, 6], "oldest events are overwritten");
}

/// Serializes the tests that manipulate the process-global telemetry level
/// or read the process-global gauges: the default runner is parallel, and
/// an `Off` window in one test must not swallow another's recordings.
static GLOBAL_TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The one test that touches process-global state (the level and the global
/// registry): `Off` suppresses the engine flush entirely, `Metrics` mirrors
/// the stage partition of [`SearchStats`] bit-exactly into counter deltas,
/// and the JSON rendering parses with the workspace's own JSON parser.
#[test]
fn global_level_gating_and_engine_flush() {
    let _guard = GLOBAL_TELEMETRY_LOCK.lock().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let graphs = GeneratorConfig::new(10, 2.0)
        .with_alphabets(LabelAlphabets::new(5, 3))
        .generate_many(40, &mut rng)
        .unwrap();
    let query = graphs[7].clone();
    let database = GraphDatabase::from_graphs(graphs);
    let config = GbdaConfig::new(3, 0.8).with_sample_pairs(120);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let engine = QueryEngine::new(&database, &index, config.clone());

    // Off: nothing reaches the registry.
    telemetry::set_level(TelemetryLevel::Off);
    let before = telemetry::global().snapshot();
    engine.search(&query);
    let delta = telemetry::global().snapshot().delta(&before);
    assert_eq!(delta.counter("gbda_queries_total"), 0, "Off must be silent");

    // Metrics (the default): one flush per search, partition bit-exact.
    telemetry::set_level(TelemetryLevel::Metrics);
    let before = telemetry::global().snapshot();
    let outcome = engine.search(&query);
    let delta = telemetry::global().snapshot().delta(&before);
    assert_eq!(delta.counter("gbda_queries_total"), 1);
    let stats = outcome.stats;
    assert_eq!(
        delta.counter("gbda_scan_evaluated_total"),
        stats.evaluated as u64
    );
    let partition = delta.counter("gbda_scan_bound_rejected_total")
        + delta.counter("gbda_scan_bound_accepted_total")
        + delta.counter("gbda_scan_rank_rejected_total")
        + delta.counter("gbda_scan_postings_resolved_total")
        + delta.counter("gbda_scan_merged_total");
    assert_eq!(partition, stats.evaluated as u64, "stage partition mirrors");
    assert_eq!(stats.stage_partition(), stats.evaluated);

    // MetricsAndTraces: spans land in the global ring.
    telemetry::set_level(TelemetryLevel::MetricsAndTraces);
    let traced_before = telemetry::traces().recorded();
    engine.search(&query);
    assert!(
        telemetry::traces().recorded() > traced_before,
        "armed spans must reach the trace ring"
    );

    // The JSON exposition parses with the workspace's own parser.
    let document = gbd_bench::json::parse(&telemetry::global().render_json())
        .expect("render_json output is valid JSON");
    let queries = document
        .get("counters")
        .and_then(|c| c.get("gbda_queries_total"))
        .and_then(gbd_bench::json::JsonValue::as_usize)
        .expect("the flushed counter is in the JSON rendering");
    assert!(queries >= 2);

    // Restore the default so no later global user sees a surprise level.
    telemetry::set_level(TelemetryLevel::Metrics);
}

/// Every search mode times both phases, so the phase histograms move in
/// step with `gbda_queries_total` — streaming searches included, which the
/// hand-written streaming drivers used to leave at 0.0 and therefore out of
/// `gbda_flatten_seconds` / `gbda_scan_seconds` altogether.
#[test]
fn streaming_searches_feed_the_phase_histograms() {
    let _guard = GLOBAL_TELEMETRY_LOCK.lock().unwrap();
    telemetry::set_level(TelemetryLevel::Metrics);
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let graphs = GeneratorConfig::new(10, 2.0)
        .with_alphabets(LabelAlphabets::new(5, 3))
        .generate_many(30, &mut rng)
        .unwrap();
    let query = graphs[4].clone();
    let database = GraphDatabase::from_graphs(graphs);
    let config = GbdaConfig::new(3, 0.8).with_sample_pairs(120);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let observations = |run: &dyn Fn() -> SearchStats| {
        let before = telemetry::global().snapshot();
        let stats = run();
        assert!(stats.flatten_seconds > 0.0 && stats.scan_seconds > 0.0);
        let delta = telemetry::global().snapshot().delta(&before);
        let count = |name: &str| delta.histogram(name).map_or(0, |h| h.count);
        (
            delta.counter("gbda_queries_total"),
            count("gbda_flatten_seconds"),
            count("gbda_scan_seconds"),
        )
    };

    let engine = QueryEngine::new(&database, &index, config.clone());
    let streamed = observations(&|| engine.search_streaming(&query, |_, _| {}));
    assert_eq!(streamed, (1, 1, 1), "static streaming search");
    assert_eq!(observations(&|| engine.search(&query).stats), (1, 1, 1));

    let mut dynamic = DynamicDatabase::new(database.clone());
    dynamic.insert(query.clone());
    let engine = DynamicEngine::new(&dynamic, &index, config);
    let streamed = observations(&|| engine.search_streaming(&query, |_, _| {}));
    assert_eq!(streamed, (1, 1, 1), "dynamic streaming search");
    assert_eq!(
        observations(&|| engine.search_top_k(&query, 3).stats),
        (1, 1, 1)
    );
}

/// The escalate-or-explicit-set contract of [`GbdaConfig::telemetry`]:
/// constructing a second engine with a *conflicting* (lower) level must not
/// silently reconfigure the process for the engines already running —
/// construction only ever raises the level; lowering takes an explicit
/// `set_level`.
#[test]
fn engine_construction_escalates_but_never_lowers_the_level() {
    let _guard = GLOBAL_TELEMETRY_LOCK.lock().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let graphs = GeneratorConfig::new(8, 2.0)
        .with_alphabets(LabelAlphabets::new(4, 2))
        .generate_many(12, &mut rng)
        .unwrap();
    let query = graphs[3].clone();
    let database = GraphDatabase::from_graphs(graphs);
    let config = GbdaConfig::new(2, 0.7).with_sample_pairs(80);
    let index = OfflineIndex::build(&database, &config).unwrap();

    telemetry::set_level(TelemetryLevel::Off);
    let metered = QueryEngine::new(
        &database,
        &index,
        config.clone().with_telemetry(TelemetryLevel::Metrics),
    );
    assert_eq!(
        telemetry::level(),
        TelemetryLevel::Metrics,
        "construction escalates the process level to what the engine requires"
    );

    // The conflicting engine: a lower requested level must leave the
    // process level — and the first engine's flushes — untouched.
    let quiet = QueryEngine::new(
        &database,
        &index,
        config.clone().with_telemetry(TelemetryLevel::Off),
    );
    assert_eq!(
        telemetry::level(),
        TelemetryLevel::Metrics,
        "a second engine with a lower level must not reconfigure the process"
    );
    let before = telemetry::global().snapshot();
    metered.search(&query);
    quiet.search(&query);
    let delta = telemetry::global().snapshot().delta(&before);
    assert_eq!(
        delta.counter("gbda_queries_total"),
        2,
        "both engines flush at the escalated process level"
    );

    // Escalation past the current level still works…
    let _traced = QueryEngine::new(
        &database,
        &index,
        config.with_telemetry(TelemetryLevel::MetricsAndTraces),
    );
    assert_eq!(telemetry::level(), TelemetryLevel::MetricsAndTraces);

    // …and lowering is exactly the explicit override, nothing else.
    telemetry::set_level(TelemetryLevel::Metrics);
    assert_eq!(telemetry::level(), TelemetryLevel::Metrics);
}

/// Gauge/state agreement across an injected failure: the dynamic-layer
/// gauges must describe the *actual* database after a failed mutation
/// (log-then-apply means a failed WAL append changes nothing), and a
/// recovery replay must neither count historical mutations as fresh ones
/// nor leave gauges describing a discarded database object.
#[test]
fn dynamic_gauges_agree_with_state_across_an_injected_failure() {
    let _guard = GLOBAL_TELEMETRY_LOCK.lock().unwrap();
    telemetry::set_level(TelemetryLevel::Metrics);
    let gauges = || {
        let snapshot = telemetry::global().snapshot();
        (
            snapshot.gauge("gbda_dynamic_delta_graphs"),
            snapshot.gauge("gbda_dynamic_tombstones"),
        )
    };
    let agree = |db: &DurableDatabase<FaultVfs>, when: &str| {
        let state = (
            db.database().delta().len() as f64,
            db.database().tombstone_count() as f64,
        );
        assert_eq!(gauges(), state, "gauges diverged from state {when}");
    };

    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let graphs = GeneratorConfig::new(8, 2.0)
        .with_alphabets(LabelAlphabets::new(4, 2))
        .generate_many(8, &mut rng)
        .unwrap();
    let base = GraphDatabase::from_graphs(graphs[..5].to_vec());
    let vfs = FaultVfs::new();
    let mut db =
        DurableDatabase::create(vfs.clone(), "gauge-db", base, DurabilityConfig::default())
            .unwrap();
    db.insert(graphs[5].clone()).unwrap();
    db.insert(graphs[6].clone()).unwrap();
    db.remove(1).unwrap();
    agree(&db, "after acknowledged mutations");

    // The injected failure: the WAL append crashes, the mutation is never
    // applied — and the gauges must not have moved.
    let before = telemetry::global().snapshot();
    vfs.arm(FaultSchedule::crash_after(0));
    assert!(db.insert(graphs[7].clone()).is_err());
    agree(&db, "after a failed (unapplied) insert");
    let delta = telemetry::global().snapshot().delta(&before);
    assert_eq!(
        delta.counter("gbda_dynamic_inserts_total"),
        0,
        "a failed insert must not be counted"
    );

    // Recovery: the quiet replay must not re-count the historical
    // mutations, and the resynced gauges describe the recovered database.
    drop(db);
    vfs.arm(FaultSchedule::default());
    vfs.power_cycle();
    let before = telemetry::global().snapshot();
    let recovered = DurableDatabase::open(vfs, "gauge-db", DurabilityConfig::default()).unwrap();
    let delta = telemetry::global().snapshot().delta(&before);
    assert_eq!(
        delta.counter("gbda_dynamic_inserts_total"),
        0,
        "replay must not count historical inserts as fresh ones"
    );
    assert_eq!(
        delta.counter("gbda_dynamic_removes_total"),
        0,
        "replay must not count historical removes as fresh ones"
    );
    agree(&recovered, "after recovery resynced the gauges");
    assert_eq!(recovered.database().delta().len(), 2);
    assert_eq!(recovered.database().tombstone_count(), 1);
}
