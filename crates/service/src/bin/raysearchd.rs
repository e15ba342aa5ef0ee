//! `raysearchd` — the caching evaluation server for the `raysearch`
//! reproduction.
//!
//! ```text
//! raysearchd [--addr HOST:PORT] [--workers N] [--queue N]
//!            [--cache-capacity N] [--shards N] [--port-file PATH]
//! ```
//!
//! The server binds (an ephemeral port by default), prints the bound
//! address, optionally writes it to `--port-file` for scripts, and runs
//! until killed — or, when its stdin is a pipe, until that pipe closes,
//! which is how a router's child backends die with their router.

use raysearch_service::server::{Server, ServerConfig};

const USAGE: &str = "\
usage: raysearchd [options]

options:
  --addr HOST:PORT   bind address (default 127.0.0.1:0 = ephemeral port)
  --workers N        worker threads (default: max(4, cores))
  --queue N          bounded accept-queue depth (default 128)
  --cache-capacity N total memo-cache entries (default 4096)
  --shards N         memo-cache shards (default 16)
  --port-file PATH   write the bound HOST:PORT to PATH once listening
  --slow-log-micros N  requests slower than N microseconds land in the
                     GET /debug/slow ring buffer (0 logs everything;
                     default 100000)
  --trace-sample N   keep ~1-in-N span traces for GET /debug/trace/{id}
                     (slow requests are always kept; 1 keeps every
                     trace; default 64)
  --compute-workers N  compute threads draining the job queue,
                     separate from the HTTP workers (default 2)
  --job-queue N      bounded job-queue depth; a full queue sheds
                     submissions with 503 + Retry-After (default 64)
  --job-store N      job records retained before oldest-done eviction
                     (default 256)
  --job-cost-threshold N  minimum k*m*(f+2) instance work for an
                     /evaluate payload to be accepted as a job; cheaper
                     work gets a 400 pointing at the synchronous
                     endpoint (0 admits everything; default 65536)
  --job-node N       0-255 node tag baked into the high bits of every
                     job id, so a router can route polls back to the
                     minting backend (default 0)

the server runs until killed; when stdin is a pipe it also exits once
the pipe closes, so backends spawned by a router die with it

  --help             show this help";

#[derive(Debug, Default)]
struct Cli {
    addr: Option<String>,
    port_file: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    cache_capacity: Option<usize>,
    shards: Option<usize>,
    slow_log_micros: Option<u64>,
    trace_sample: Option<u64>,
    compute_workers: Option<usize>,
    job_queue: Option<usize>,
    job_store: Option<usize>,
    job_cost_threshold: Option<u64>,
    job_node: Option<u64>,
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
            "--addr" => cli.addr = Some(value_of("--addr")?),
            "--port-file" => cli.port_file = Some(value_of("--port-file")?),
            "--workers" => cli.workers = Some(parse_count("--workers", value_of("--workers")?)?),
            "--queue" => cli.queue = Some(parse_count("--queue", value_of("--queue")?)?),
            "--cache-capacity" => {
                cli.cache_capacity = Some(parse_count(
                    "--cache-capacity",
                    value_of("--cache-capacity")?,
                )?);
            }
            "--shards" => cli.shards = Some(parse_count("--shards", value_of("--shards")?)?),
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
            "--compute-workers" => {
                cli.compute_workers = Some(parse_count(
                    "--compute-workers",
                    value_of("--compute-workers")?,
                )?);
            }
            "--job-queue" => {
                cli.job_queue = Some(parse_count("--job-queue", value_of("--job-queue")?)?);
            }
            "--job-store" => {
                cli.job_store = Some(parse_count("--job-store", value_of("--job-store")?)?);
            }
            "--job-cost-threshold" => {
                // 0 is meaningful (admit any payload as a job)
                cli.job_cost_threshold = Some(
                    value_of("--job-cost-threshold")?
                        .parse::<u64>()
                        .map_err(|_| "--job-cost-threshold expects an integer >= 0".to_owned())?,
                );
            }
            "--job-node" => {
                cli.job_node = Some(
                    value_of("--job-node")?
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n <= 255)
                        .ok_or_else(|| "--job-node expects an integer in 0..=255".to_owned())?,
                );
            }
            flag => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(cli))
}

fn server_config(cli: &Cli) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    if let Some(addr) = &cli.addr {
        cfg.addr = addr.clone();
    }
    if let Some(workers) = cli.workers {
        cfg.workers = workers;
    }
    if let Some(queue) = cli.queue {
        cfg.queue_depth = queue;
    }
    if let Some(capacity) = cli.cache_capacity {
        cfg.cache_capacity = capacity;
    }
    if let Some(shards) = cli.shards {
        cfg.cache_shards = shards;
    }
    if let Some(n) = cli.compute_workers {
        cfg.compute_workers = n;
    }
    if let Some(n) = cli.job_queue {
        cfg.job_queue_depth = n;
    }
    if let Some(n) = cli.job_store {
        cfg.job_store_capacity = n;
    }
    if let Some(n) = cli.job_cost_threshold {
        cfg.job_cost_threshold = n;
    }
    if let Some(n) = cli.job_node {
        cfg.job_node = n;
    }
    cfg
}

fn serve(cli: &Cli) -> Result<(), String> {
    let cfg = server_config(cli);
    let server = Server::bind(cfg.clone()).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    if let Some(micros) = cli.slow_log_micros {
        server.state().telemetry().set_slow_threshold(micros);
    }
    if let Some(n) = cli.trace_sample {
        server.state().telemetry().set_trace_sample(n);
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    exit_when_stdin_pipe_closes();
    println!(
        "raysearchd listening on {addr} ({} workers, cache {} x {} shards)",
        cfg.workers, cfg.cache_capacity, cfg.cache_shards
    );
    if let Some(path) = &cli.port_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("write {path}: {e}"))?;
    }
    server.spawn().join();
    Ok(())
}

/// Exits the process once stdin reaches EOF, if stdin is a pipe. A
/// parent that holds the write end (`BackendFleet` does) takes this
/// server down with it however it dies, SIGKILL included, because the
/// kernel closes the pipe. A terminal or `/dev/null` stdin is left
/// alone, so a standalone server runs until killed.
#[cfg(unix)]
fn exit_when_stdin_pipe_closes() {
    use std::os::fd::AsFd;
    use std::os::unix::fs::FileTypeExt;

    let is_pipe = std::io::stdin()
        .as_fd()
        .try_clone_to_owned()
        .map(std::fs::File::from)
        .and_then(|stdin| stdin.metadata())
        .is_ok_and(|meta| meta.file_type().is_fifo());
    if is_pipe {
        std::thread::spawn(|| {
            let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
            std::process::exit(0);
        });
    }
}

#[cfg(not(unix))]
fn exit_when_stdin_pipe_closes() {}

fn main() {
    let parsed = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("raysearchd: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = serve(&parsed) {
        eprintln!("raysearchd: {msg}");
        std::process::exit(1);
    }
}
