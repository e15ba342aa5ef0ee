//! `raysearch-router` — the consistent-hash router over `raysearchd`
//! backends.
//!
//! ```text
//! raysearch-router [--backends N | --join ADDR ...] [--addr HOST:PORT]
//!                  [--record PATH] [--port-file PATH] [--state-dir DIR]
//!                  [--workers N] [--queue N]
//! ```
//!
//! The router spawns `N` `raysearchd` child backends on ephemeral
//! ports (or joins already-running ones via `--join`), rendezvous-
//! routes every request across them, and serves the router's own
//! `/healthz` and aggregated `/stats`. `--record` captures forwarded
//! traffic to a line-delimited JSON tape that `replaygen` can verify
//! byte-for-byte later. Spawned backends exit when the router does,
//! however it ends.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use raysearch_service::backends::{raysearchd_bin, BackendFleet};
use raysearch_service::route::{spawn_health_thread, BackendSpec, RouterState};
use raysearch_service::server::{Server, ServerConfig};
use raysearch_service::tape::TapeRecorder;

const USAGE: &str = "\
usage: raysearch-router [options]

options:
  --backends N       spawn N raysearchd child backends (default 2)
  --join ADDR        route across an existing backend at ADDR instead of
                     spawning (repeatable)
  --addr HOST:PORT   router bind address (default 127.0.0.1:0)
  --record PATH      record forwarded traffic to a tape at PATH
  --port-file PATH   write the router's bound HOST:PORT to PATH
  --state-dir DIR    directory for backend port files
                     (default: a per-process temp directory)
  --workers N        router worker threads (default: max(4, cores))
  --queue N          bounded accept-queue depth (default 128)
  --slow-log-micros N  requests slower than N microseconds land in the
                     GET /debug/slow ring buffer (0 logs everything;
                     default 100000)
  --trace-sample N   keep ~1-in-N span traces for GET /debug/trace/{id}
                     (slow requests are always kept; 1 keeps every
                     trace; default 64)

--slow-log-micros and --trace-sample are forwarded to spawned backends
so the whole fleet shares one sampling policy (joined backends keep
their own configuration)

the raysearchd binary for spawned backends is found next to this
executable, or via the RAYSEARCHD_BIN environment variable

  --help             show this help";

#[derive(Debug, Default)]
struct Cli {
    backends: Option<usize>,
    join: Vec<String>,
    addr: Option<String>,
    record: Option<PathBuf>,
    port_file: Option<String>,
    state_dir: Option<PathBuf>,
    workers: Option<usize>,
    queue: Option<usize>,
    slow_log_micros: Option<u64>,
    trace_sample: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let parse_count = |flag: &str, v: String| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("{flag} expects an integer >= 1"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--backends" => {
                cli.backends = Some(parse_count("--backends", value_of("--backends")?)?);
            }
            "--join" => cli.join.push(value_of("--join")?),
            "--addr" => cli.addr = Some(value_of("--addr")?),
            "--record" => cli.record = Some(PathBuf::from(value_of("--record")?)),
            "--port-file" => cli.port_file = Some(value_of("--port-file")?),
            "--state-dir" => cli.state_dir = Some(PathBuf::from(value_of("--state-dir")?)),
            "--workers" => cli.workers = Some(parse_count("--workers", value_of("--workers")?)?),
            "--queue" => cli.queue = Some(parse_count("--queue", value_of("--queue")?)?),
            "--slow-log-micros" => {
                // 0 is meaningful here (log every request), so this
                // flag does not go through parse_count's >= 1 floor
                cli.slow_log_micros = Some(
                    value_of("--slow-log-micros")?
                        .parse::<u64>()
                        .map_err(|_| "--slow-log-micros expects an integer >= 0".to_owned())?,
                );
            }
            "--trace-sample" => {
                cli.trace_sample = Some(
                    value_of("--trace-sample")?
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| "--trace-sample expects an integer >= 1".to_owned())?,
                );
            }
            flag => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.backends.is_some() && !cli.join.is_empty() {
        return Err("--backends and --join are mutually exclusive".to_owned());
    }
    Ok(Some(cli))
}

fn serve(cli: &Cli) -> Result<(), String> {
    // the fleet handle must outlive the server: dropping it kills the
    // children
    let (_fleet, specs): (Option<BackendFleet>, Vec<BackendSpec>) = if cli.join.is_empty() {
        let n = cli.backends.unwrap_or(2);
        let dir = cli.state_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("raysearch-router-{}", std::process::id()))
        });
        // spawned backends inherit the fleet-wide observability knobs:
        // trace assembly only works if the backend sampled the same
        // requests the router did
        let mut extra = Vec::new();
        if let Some(micros) = cli.slow_log_micros {
            extra.push("--slow-log-micros".to_owned());
            extra.push(micros.to_string());
        }
        if let Some(sample) = cli.trace_sample {
            extra.push("--trace-sample".to_owned());
            extra.push(sample.to_string());
        }
        let fleet = BackendFleet::spawn_with_args(&raysearchd_bin()?, n, &dir, &extra)?;
        let addrs = fleet.wait_ready(Duration::from_secs(10))?;
        println!(
            "raysearch-router: spawned {n} backends ({})",
            addrs.join(", ")
        );
        let specs = fleet.specs();
        (Some(fleet), specs)
    } else {
        let specs = cli
            .join
            .iter()
            .enumerate()
            .map(|(i, addr)| BackendSpec::fixed(&format!("backend-{i}"), addr))
            .collect();
        (None, specs)
    };

    let recorder = match &cli.record {
        Some(path) => Some(
            TapeRecorder::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let state = Arc::new(RouterState::new(specs, recorder));
    if let Some(micros) = cli.slow_log_micros {
        state.telemetry().set_slow_threshold(micros);
    }
    if let Some(n) = cli.trace_sample {
        state.telemetry().set_trace_sample(n);
    }
    let healthy = state.check_backends_now();
    println!(
        "raysearch-router: {healthy}/{} backends healthy",
        state.backend_ids().len()
    );

    let mut cfg = ServerConfig {
        addr: cli.addr.clone().unwrap_or_else(|| "127.0.0.1:0".to_owned()),
        ..ServerConfig::default()
    };
    if let Some(workers) = cli.workers {
        cfg.workers = workers;
    }
    if let Some(queue) = cli.queue {
        cfg.queue_depth = queue;
    }
    let server = Server::bind_with(cfg.clone(), Arc::clone(&state))
        .map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "raysearch-router listening on {addr} ({} workers)",
        cfg.workers
    );
    if let Some(path) = &cli.port_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("write {path}: {e}"))?;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let _health = spawn_health_thread(Arc::clone(&state), Duration::from_millis(250), stop);
    server.spawn().join();
    Ok(())
}

fn main() {
    let parsed = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("raysearch-router: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = serve(&parsed) {
        eprintln!("raysearch-router: {msg}");
        std::process::exit(1);
    }
}
