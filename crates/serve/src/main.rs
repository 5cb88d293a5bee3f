//! The `gbd-serve` binary: boots a synthetic (seeded) database behind the
//! snapshot-isolated serving layer and answers HTTP until `POST /shutdown`.
//!
//! ```text
//! gbd-serve [--addr HOST:PORT] [--threads N] [--database N] [--seed S]
//!           [--tau T] [--gamma G] [--compact-threshold N] [--smoke]
//! ```
//!
//! `--smoke` is the CI mode: bind an ephemeral port, issue a real HTTP
//! conversation against it (health, search, insert, re-search on the new
//! epoch, top-k, remove, metrics scrape in both formats, shutdown), verify
//! every step, and exit non-zero on the first mismatch. The process exits
//! through the same graceful drain-and-join path as production shutdown.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use gbd_bench::json::{self, JsonValue};
use gbd_graph::{GeneratorConfig, LabelAlphabets};
use gbd_serve::client::request;
use gbd_serve::{serve, ServeState, ServerConfig};
use gbda_core::{ConcurrentEngine, DynamicDatabase, GbdaConfig, GraphDatabase, OfflineIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Options {
    addr: String,
    threads: usize,
    database: usize,
    seed: u64,
    tau: u64,
    gamma: f64,
    compact_threshold: usize,
    smoke: bool,
}

/// Parses the command line after the program name.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:7878".into(),
        threads: 4,
        database: 2_000,
        seed: 42,
        tau: 3,
        gamma: 0.8,
        compact_threshold: 256,
        smoke: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => options.addr = value("--addr")?,
            "--threads" => {
                options.threads = value("--threads")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
                    .max(1)
            }
            "--database" => {
                options.database = value("--database")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
                    .max(8)
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--tau" => {
                options.tau = value("--tau")?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--gamma" => {
                let gamma: f64 = value("--gamma")?
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| format!("--gamma: {e}"))?;
                // Also rejects NaN, for which every comparison is false.
                if !(0.0..=1.0).contains(&gamma) {
                    return Err(format!(
                        "--gamma must be a probability in [0, 1], got {gamma}"
                    ));
                }
                options.gamma = gamma;
            }
            "--compact-threshold" => {
                options.compact_threshold = value("--compact-threshold")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
                    .max(1)
            }
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn build_state(options: &Options) -> Result<ServeState, String> {
    eprintln!(
        "# building a {}-graph synthetic database (seed {})",
        options.database, options.seed
    );
    let mut rng = StdRng::seed_from_u64(options.seed);
    let graphs = GeneratorConfig::new(10, 2.0)
        .with_alphabets(LabelAlphabets::new(5, 3))
        .generate_many(options.database, &mut rng)
        .map_err(|e| format!("generate: {e}"))?;
    let database = GraphDatabase::from_graphs(graphs);
    let config = GbdaConfig::new(options.tau, options.gamma).with_sample_pairs(200);
    let index = OfflineIndex::build(&database, &config).map_err(|e| format!("offline: {e}"))?;
    let engine = ConcurrentEngine::with_auto_compact(
        DynamicDatabase::new(database),
        index,
        config,
        options.compact_threshold,
    );
    Ok(ServeState::new(engine))
}

/// The CI conversation; every step asserts on the real HTTP responses.
fn smoke(addr: std::net::SocketAddr) -> Result<(), String> {
    let json_of = |body: &str| json::parse(body).map_err(|e| format!("bad JSON response: {e}"));
    let expect = |step: &str, status: u16, want: u16| {
        if status == want {
            Ok(())
        } else {
            Err(format!("{step}: status {status}, wanted {want}"))
        }
    };
    let get = |path: &str| request(addr, "GET", path, "").map_err(|e| format!("{path}: {e}"));
    let post = |path: &str, body: &str| {
        request(addr, "POST", path, body).map_err(|e| format!("{path}: {e}"))
    };

    let (status, body) = get("/healthz")?;
    expect("healthz", status, 200)?;
    let health = json_of(&body)?;
    let live = health
        .get("live_graphs")
        .and_then(JsonValue::as_usize)
        .ok_or("healthz lacks live_graphs")?;
    eprintln!("# healthz ok: {live} live graphs");

    let triangle = "{\"vertices\": [1, 2, 3], \"edges\": [[0, 1, 0], [1, 2, 1]]}";
    let graph = &format!("{{\"graph\": {triangle}}}");
    let (status, body) = post("/search", graph)?;
    expect("search", status, 200)?;
    let epoch_before = json_of(&body)?
        .get("epoch")
        .and_then(JsonValue::as_usize)
        .ok_or("search lacks epoch")?;

    let (status, body) = post("/insert", graph)?;
    expect("insert", status, 200)?;
    let inserted = json_of(&body)?;
    let id = inserted
        .get("id")
        .and_then(JsonValue::as_usize)
        .ok_or("insert lacks id")?;
    let epoch_after = inserted
        .get("epoch")
        .and_then(JsonValue::as_usize)
        .ok_or("insert lacks epoch")?;
    if epoch_after <= epoch_before {
        return Err(format!(
            "insert did not advance the epoch ({epoch_before} -> {epoch_after})"
        ));
    }

    let (status, body) = post("/search", graph)?;
    expect("re-search", status, 200)?;
    let document = json_of(&body)?;
    let matches = document
        .get("matches")
        .and_then(JsonValue::as_array)
        .ok_or("search lacks matches")?;
    if !matches.iter().any(|m| m.as_usize() == Some(id)) {
        return Err(format!("inserted graph {id} does not match itself"));
    }
    eprintln!("# insert + re-search ok: id {id}, epoch {epoch_after}");

    let ranked = format!("{{\"graph\": {triangle}, \"k\": 5}}");
    let (status, body) = post("/search_top_k", &ranked)?;
    expect("search_top_k", status, 200)?;
    let hits = json_of(&body)?
        .get("hits")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::len)
        .ok_or("search_top_k lacks hits")?;
    if hits == 0 || hits > 5 {
        return Err(format!("search_top_k returned {hits} hits, wanted 1..=5"));
    }

    let (status, _body) = post("/remove", &format!("{{\"id\": {id}}}"))?;
    expect("remove", status, 200)?;
    let (status, _body) = post("/remove", "{\"id\": 18446744073709551615}")?;
    expect("remove-unknown", status, 404)?;

    let (status, body) = get("/metrics")?;
    expect("metrics", status, 200)?;
    for metric in [
        "gbda_generations_published_total",
        "gbda_queries_total",
        "gbd_serve_requests_total",
    ] {
        if !body.contains(metric) {
            return Err(format!("metrics scrape lacks {metric}"));
        }
    }
    let (status, body) = get("/metrics.json")?;
    expect("metrics.json", status, 200)?;
    json_of(&body)?;
    eprintln!("# metrics scrape ok (text + json)");

    let (status, _body) = post("/shutdown", "")?;
    expect("shutdown", status, 200)?;
    Ok(())
}

fn main() -> ExitCode {
    let mut options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if options.smoke {
        options.addr = "127.0.0.1:0".into();
        options.database = options.database.min(256);
    }
    let state = match build_state(&options) {
        Ok(state) => Arc::new(state),
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServerConfig {
        addr: options.addr.clone(),
        threads: options.threads,
        ..ServerConfig::default()
    };
    let server = match serve(Arc::clone(&state), &config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("# serving on http://{}", server.addr());

    if options.smoke {
        let verdict = smoke(server.addr());
        // The smoke conversation ends with POST /shutdown; drain and join
        // regardless of the verdict so failures exit cleanly too.
        server.shutdown();
        return match verdict {
            Ok(()) => {
                eprintln!(
                    "smoke passed: HTTP round trip, epoch advance, metrics, graceful shutdown"
                );
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("smoke FAILED: {message}");
                ExitCode::FAILURE
            }
        };
    }

    while !state.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("# shutdown requested; draining");
    server.shutdown();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn gamma(value: &str) -> Result<f64, String> {
        parse_args(["--gamma".to_owned(), value.to_owned()]).map(|options| options.gamma)
    }

    #[test]
    fn gamma_must_be_a_probability() {
        for bad in ["NaN", "inf", "-0.1", "1.5"] {
            let error = gamma(bad).expect_err(bad);
            assert!(error.contains("--gamma"), "{bad}: {error}");
        }
        assert!(gamma("0.x").expect_err("not a number").contains("--gamma"));
        for good in ["0", "0.8", "1"] {
            assert_eq!(gamma(good), Ok(good.parse().unwrap()), "{good}");
        }
    }
}
