//! `benchgen` — generates the committed perf-trajectory artifact
//! (`BENCH_10.json`): the E12 deep-horizon sweep timed cold and warm
//! against a shared compile memo, plus the serving layer's hot/cold
//! throughput with per-endpoint latency percentiles from the shared
//! telemetry histograms, all pinned against the PR 5 baseline. The
//! document also records the warm-sweep wall time against the BENCH_6
//! (pre-telemetry) warm median and against the BENCH_8 (pre-tracing)
//! warm median, so the cost of each observability layer — histograms,
//! then span traces — stays an explicit, tracked number, and a
//! `jobs_overhead` object pricing the async job envelope: the warm
//! median of a campaign served synchronously versus the same campaign
//! submitted via `POST /jobs` and long-polled to `done`.
//!
//! ```text
//! benchgen [--out PATH] [--max-k N] [--horizon X] [--iterations N]
//!          [--load-requests N] [--concurrency C] [--skip-load]
//! ```
//!
//! The defaults reproduce the committed artifact exactly as CI's
//! bench-smoke job expects, except that CI shrinks `--max-k` and
//! `--load-requests` to stay fast. The binary hard-fails if any sweep
//! row exceeds the closed form `Λ(q/k)`, if repeated runs are not
//! bit-identical, or if the warm phase sees zero compile-cache hits —
//! the same invariants the JSON records for downstream checks.

use std::sync::Arc;

use raysearch_bench::experiments::e12_large_fleet;
use raysearch_core::campaign::CampaignRun;
use raysearch_core::CompileMemo;
use raysearch_service::client::HttpClient;
use raysearch_service::load::{run_load, LoadConfig, LoadReport};
use raysearch_service::telemetry::stat;
use raysearch_service::{Server, ServerConfig};

/// The PR 5 measurement this artifact is pinned against: the full E12
/// sweep (`--max-k 4096`, horizon `1e12`, one thread) before the
/// compilation layer, measured on the same container class.
const BASELINE_PR: u32 = 5;
const BASELINE_E12_SWEEP_MICROS: u64 = 24_212_644;

/// The BENCH_6 warm-phase median (full sweep, shared memo, 1 thread)
/// from before the telemetry layer existed — the reference point for
/// the instrumentation-overhead figure in the artifact.
const BENCH_6_WARM_MEDIAN_MICROS: u64 = 221_641;

/// The BENCH_8 warm-phase median from before the span-trace layer
/// existed — the reference point for the tracing-overhead figure. The
/// committed artifact must stay within 1.05x of this number with
/// sampling at the default 1-in-64.
const BENCH_8_WARM_MEDIAN_MICROS: u64 = 228_127;

/// The default trace-sampling rate the serving tier runs with; recorded
/// in the artifact so the overhead figure names its sampling policy.
const TRACE_SAMPLE_ONE_IN: u64 = 64;

const USAGE: &str = "\
usage: benchgen [options]

options:
  --out PATH         output path (default BENCH_10.json)
  --max-k N          E12 fleet-size cap (default 4096 = the full sweep)
  --horizon X        E12 evaluation horizon (default 1e12)
  --iterations N     timed runs per phase (default 3)
  --load-requests N  hot-phase requests for the service bench (default 512)
  --concurrency C    concurrent load clients (default 4)
  --skip-load        skip the service hot/cold throughput phase
  --help             show this help";

#[derive(Debug)]
struct Cli {
    out: String,
    max_k: u32,
    horizon: f64,
    iterations: usize,
    load_requests: usize,
    concurrency: usize,
    skip_load: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            out: "BENCH_10.json".to_owned(),
            max_k: 4096,
            horizon: 1e12,
            iterations: 3,
            load_requests: 512,
            concurrency: 4,
            skip_load: false,
        }
    }
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
            "--out" => cli.out = value_of("--out")?,
            "--max-k" => {
                cli.max_k = value_of("--max-k")?
                    .parse::<u32>()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or("--max-k expects an integer >= 1")?;
            }
            "--horizon" => {
                cli.horizon = value_of("--horizon")?
                    .parse::<f64>()
                    .ok()
                    .filter(|h| h.is_finite() && *h > 1.0)
                    .ok_or("--horizon expects a finite number > 1")?;
            }
            "--iterations" => {
                cli.iterations = parse_count("--iterations", value_of("--iterations")?)?;
            }
            "--load-requests" => {
                cli.load_requests = parse_count("--load-requests", value_of("--load-requests")?)?;
            }
            "--concurrency" => {
                cli.concurrency = parse_count("--concurrency", value_of("--concurrency")?)?;
            }
            "--skip-load" => cli.skip_load = true,
            flag => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(cli))
}

#[derive(serde::Serialize)]
struct Config {
    max_k: u32,
    horizon: f64,
    iterations: usize,
    threads: usize,
    load_requests: usize,
    concurrency: usize,
}

#[derive(serde::Serialize)]
struct Baseline {
    pr: u32,
    description: &'static str,
    e12_sweep_micros: u64,
    threads: usize,
}

/// The compile/evaluate wall-time split of one campaign run, derived
/// from the run's [`raysearch_core::CompileStats`] delta.
#[derive(serde::Serialize)]
struct CompileSplit {
    hits: u64,
    misses: u64,
    entries: u64,
    compile_micros: u64,
    evaluate_micros: u64,
}

#[derive(serde::Serialize)]
struct PhaseStats {
    runs_micros: Vec<u64>,
    median_micros: u64,
    compile: CompileSplit,
}

#[derive(serde::Serialize)]
struct SweepBench {
    rows: usize,
    max_rel_err: f64,
    all_rows_below_closed_form: bool,
    cold: PhaseStats,
    warm: PhaseStats,
    speedup_vs_baseline: f64,
    warm_speedup_vs_cold: f64,
}

#[derive(serde::Serialize)]
struct ServiceBench {
    load: LoadReport,
    compile_hits: u64,
    compile_misses: u64,
    compile_entries: u64,
}

/// Warm-sweep wall time relative to the committed BENCH_6 warm median:
/// the cost of the telemetry layer on the hottest all-memoized path.
/// Only meaningful for full-size runs (`--max-k 4096`); smaller sweeps
/// record the ratio anyway but it compares different workloads.
#[derive(serde::Serialize)]
struct TelemetryOverhead {
    bench6_warm_median_micros: u64,
    warm_median_micros: u64,
    warm_ratio_vs_bench6: f64,
}

/// Warm-sweep wall time relative to the committed BENCH_8 warm median:
/// the cost of the span-trace layer (per-span tree capture plus the
/// deterministic sampling draw) on top of the histograms BENCH_8
/// already priced in. `sample_one_in` records the serving tier's
/// default sampling policy the figure is valid for.
#[derive(serde::Serialize)]
struct TracingOverhead {
    bench8_warm_median_micros: u64,
    warm_median_micros: u64,
    warm_ratio_vs_bench8: f64,
    sample_one_in: u64,
}

/// Warm-path cost of the async job envelope: the same deep campaign
/// served synchronously (`POST /campaign`, memo hit) versus submitted
/// as a job and long-polled to `done` (`POST /jobs` + `GET
/// /jobs/{id}?wait_micros=`). Both paths resolve through the identical
/// shared execute function, so the ratio prices exactly the queue trip,
/// the store round-trip, and the extra HTTP exchange — never a second
/// computation.
#[derive(serde::Serialize)]
struct JobsOverhead {
    sync_warm_median_micros: u64,
    jobs_warm_median_micros: u64,
    ratio: f64,
    iterations: usize,
}

#[derive(serde::Serialize)]
struct BenchDoc {
    schema_version: u32,
    bench_id: &'static str,
    paper: &'static str,
    generator: &'static str,
    config: Config,
    baseline: Baseline,
    e12_sweep: SweepBench,
    telemetry_overhead: TelemetryOverhead,
    tracing_overhead: TracingOverhead,
    jobs_overhead: JobsOverhead,
    service: Option<ServiceBench>,
}

/// Lower median of the run times (deterministic for even counts).
fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2]
}

fn run_sweep_once(
    cli: &Cli,
    memo: Arc<CompileMemo>,
) -> (CampaignRun<e12_large_fleet::Row>, CompileSplit) {
    let run = e12_large_fleet::campaign_with_memo(cli.max_k, cli.horizon, memo)
        .threads(Some(1))
        .run();
    let stats = run.compile.expect("campaign_with_memo attaches the memo");
    let split = CompileSplit {
        hits: stats.hits,
        misses: stats.misses,
        entries: stats.entries,
        compile_micros: stats.compile_micros,
        evaluate_micros: run.micros.saturating_sub(stats.compile_micros),
    };
    (run, split)
}

fn check_rows(runs: &[CampaignRun<e12_large_fleet::Row>]) -> Result<(usize, f64), String> {
    let reference = &runs[0];
    let mut max_rel_err = 0.0f64;
    for row in reference.rows() {
        if !(row.measured.is_finite() && row.measured <= row.closed_form * (1.0 + 1e-9)) {
            return Err(format!(
                "(k={}, f={}): measured {} exceeds Λ = {}",
                row.k, row.f, row.measured, row.closed_form
            ));
        }
        max_rel_err = max_rel_err.max(row.rel_err);
    }
    for run in &runs[1..] {
        for (a, b) in reference.rows().zip(run.rows()) {
            if a.measured.to_bits() != b.measured.to_bits() || a.breakpoints != b.breakpoints {
                return Err(format!(
                    "(k={}, f={}): repeated runs are not bit-identical",
                    a.k, a.f
                ));
            }
        }
    }
    Ok((reference.results.len(), max_rel_err))
}

fn bench_sweep(cli: &Cli) -> Result<SweepBench, String> {
    // the first cold run doubles as the warm phase's priming run: it
    // starts from the same empty memo as every other cold run, and
    // leaves `shared` fully populated
    let shared = Arc::new(CompileMemo::new());
    let mut runs = Vec::new();
    let mut cold_micros = Vec::new();
    let mut cold_split = None;
    for i in 0..cli.iterations {
        let memo = if i == 0 {
            Arc::clone(&shared)
        } else {
            Arc::new(CompileMemo::new())
        };
        let (run, split) = run_sweep_once(cli, memo);
        eprintln!(
            "benchgen: cold run {}/{}: {} µs ({} compiles)",
            i + 1,
            cli.iterations,
            run.micros,
            split.misses
        );
        cold_micros.push(run.micros);
        cold_split.get_or_insert(split);
        runs.push(run);
    }
    let mut warm_micros = Vec::new();
    let mut warm_split = None;
    for i in 0..cli.iterations {
        let (run, split) = run_sweep_once(cli, Arc::clone(&shared));
        eprintln!(
            "benchgen: warm run {}/{}: {} µs ({} hits)",
            i + 1,
            cli.iterations,
            run.micros,
            split.hits
        );
        if split.misses != 0 || split.hits == 0 {
            return Err(format!(
                "warm run {} was not fully memoized: {} hits, {} misses",
                i + 1,
                split.hits,
                split.misses
            ));
        }
        warm_micros.push(run.micros);
        warm_split.get_or_insert(split);
        runs.push(run);
    }
    let (rows, max_rel_err) = check_rows(&runs)?;
    let cold = PhaseStats {
        median_micros: median(&cold_micros),
        runs_micros: cold_micros,
        compile: cold_split.expect("at least one cold run"),
    };
    let warm = PhaseStats {
        median_micros: median(&warm_micros),
        runs_micros: warm_micros,
        compile: warm_split.expect("at least one warm run"),
    };
    let speedup_vs_baseline = BASELINE_E12_SWEEP_MICROS as f64 / cold.median_micros.max(1) as f64;
    let warm_speedup_vs_cold = cold.median_micros as f64 / warm.median_micros.max(1) as f64;
    Ok(SweepBench {
        rows,
        max_rel_err,
        all_rows_below_closed_form: true,
        cold,
        warm,
        speedup_vs_baseline,
        warm_speedup_vs_cold,
    })
}

/// Reads the compile-tier counters from a running server's `/stats`.
fn compile_counters(addr: &str) -> Result<(u64, u64, u64), String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let (status, body) = client
        .request("GET", "/stats", None)
        .map_err(|e| format!("GET /stats: {e}"))?;
    if status != 200 {
        return Err(format!("GET /stats returned {status}"));
    }
    let value: serde_json::Value =
        serde_json::from_str(&body).map_err(|e| format!("parse /stats: {e}"))?;
    let counter = |key: &str| stat(&value, key).ok_or_else(|| format!("/stats is missing {key}"));
    Ok((
        counter("compile_hits")?,
        counter("compile_misses")?,
        counter("compile_entries")?,
    ))
}

fn bench_service(cli: &Cli) -> Result<ServiceBench, String> {
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: defaults.workers.max(cli.concurrency + 2),
        ..defaults
    };
    let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    let addr = handle.addr().to_string();
    let load = run_load(
        &addr,
        LoadConfig {
            requests: cli.load_requests,
            concurrency: cli.concurrency,
        },
    );
    let counters = load.as_ref().ok().map(|_| compile_counters(&addr));
    handle.shutdown();
    let load = load?;
    if load.errors > 0 {
        return Err(format!("{} load request(s) failed", load.errors));
    }
    let (compile_hits, compile_misses, compile_entries) =
        counters.expect("load succeeded, so counters were fetched")?;
    eprintln!(
        "benchgen: service cold {:.1} req/s, hot {:.1} req/s, compile tier {compile_hits} hits / {compile_misses} misses",
        load.cold_rps, load.hot_rps
    );
    Ok(ServiceBench {
        load,
        compile_hits,
        compile_misses,
        compile_entries,
    })
}

/// Times the warm synchronous campaign against the same campaign via
/// the job tier on a fresh in-process server. One cold run primes the
/// memo; every timed run on either path is then a cache hit.
fn bench_jobs(cli: &Cli) -> Result<JobsOverhead, String> {
    const CAMPAIGN: &str = r#"{"id":"e2","max_k":12}"#;
    const ENVELOPE: &str = r#"{"endpoint":"campaign","client":"benchgen","id":"e2","max_k":12}"#;
    let iterations = cli.iterations.max(5);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    let addr = handle.addr().to_string();
    let outcome = (|| -> Result<JobsOverhead, String> {
        let mut client = HttpClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let request = |client: &mut HttpClient, method: &str, target: &str, body: Option<&str>| {
            let (status, reply) = client
                .request(method, target, body)
                .map_err(|e| format!("{method} {target}: {e}"))?;
            Ok::<(u16, String), String>((status, reply))
        };
        // prime: the one cold computation both warm paths will hit
        let (status, sync_reply) = request(&mut client, "POST", "/campaign", Some(CAMPAIGN))?;
        if status != 200 {
            return Err(format!("priming campaign returned {status}: {sync_reply}"));
        }
        let mut sync_micros = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let started = std::time::Instant::now();
            let (status, _) = request(&mut client, "POST", "/campaign", Some(CAMPAIGN))?;
            if status != 200 {
                return Err(format!("warm campaign returned {status}"));
            }
            sync_micros.push(started.elapsed().as_micros() as u64);
        }
        let mut jobs_micros = Vec::with_capacity(iterations);
        for round in 0..iterations {
            let started = std::time::Instant::now();
            let (status, reply) = request(&mut client, "POST", "/jobs", Some(ENVELOPE))?;
            if status != 202 {
                return Err(format!("job submit returned {status}: {reply}"));
            }
            let submitted: serde_json::Value =
                serde_json::from_str(&reply).map_err(|e| format!("parse submit: {e}"))?;
            let id = submitted
                .get("id")
                .and_then(serde_json::Value::as_str)
                .ok_or_else(|| format!("submit without id: {reply}"))?
                .to_owned();
            let target = format!("/jobs/{id}?wait_micros=2000000");
            let record = loop {
                let (status, reply) = request(&mut client, "GET", &target, None)?;
                if status != 200 {
                    return Err(format!("job poll returned {status}: {reply}"));
                }
                let record: serde_json::Value =
                    serde_json::from_str(&reply).map_err(|e| format!("parse poll: {e}"))?;
                match record.get("state").and_then(serde_json::Value::as_str) {
                    Some("done") => break record,
                    Some("queued" | "running") => {}
                    other => return Err(format!("job reached {other:?}: {reply}")),
                }
            };
            jobs_micros.push(started.elapsed().as_micros() as u64);
            if round == 0 {
                // the envelope must never change the bytes: compare the
                // job's payload against the synchronous answer once
                let sync: serde_json::Value =
                    serde_json::from_str(&sync_reply).map_err(|e| format!("parse sync: {e}"))?;
                let sync_payload = sync
                    .get("result")
                    .ok_or("sync campaign without result")?
                    .to_json_string();
                let job_payload = record
                    .get("result")
                    .ok_or("done job without result")?
                    .to_json_string();
                if sync_payload != job_payload {
                    return Err(format!(
                        "job payload diverges from the synchronous answer:\njob:  {job_payload}\nsync: {sync_payload}"
                    ));
                }
            }
        }
        let sync_warm_median_micros = median(&sync_micros);
        let jobs_warm_median_micros = median(&jobs_micros);
        Ok(JobsOverhead {
            sync_warm_median_micros,
            jobs_warm_median_micros,
            ratio: jobs_warm_median_micros as f64 / sync_warm_median_micros.max(1) as f64,
            iterations,
        })
    })();
    handle.shutdown();
    let overhead = outcome?;
    eprintln!(
        "benchgen: jobs overhead: sync warm {} µs, via jobs {} µs ({:.2}x)",
        overhead.sync_warm_median_micros, overhead.jobs_warm_median_micros, overhead.ratio
    );
    Ok(overhead)
}

fn generate(cli: &Cli) -> Result<(), String> {
    let e12_sweep = bench_sweep(cli)?;
    let jobs_overhead = bench_jobs(cli)?;
    let service = if cli.skip_load {
        None
    } else {
        Some(bench_service(cli)?)
    };
    let telemetry_overhead = TelemetryOverhead {
        bench6_warm_median_micros: BENCH_6_WARM_MEDIAN_MICROS,
        warm_median_micros: e12_sweep.warm.median_micros,
        warm_ratio_vs_bench6: e12_sweep.warm.median_micros as f64
            / BENCH_6_WARM_MEDIAN_MICROS as f64,
    };
    let tracing_overhead = TracingOverhead {
        bench8_warm_median_micros: BENCH_8_WARM_MEDIAN_MICROS,
        warm_median_micros: e12_sweep.warm.median_micros,
        warm_ratio_vs_bench8: e12_sweep.warm.median_micros as f64
            / BENCH_8_WARM_MEDIAN_MICROS as f64,
        sample_one_in: TRACE_SAMPLE_ONE_IN,
    };
    let doc = BenchDoc {
        schema_version: 1,
        bench_id: "BENCH_10",
        paper: "1707.05077",
        generator: "benchgen",
        config: Config {
            max_k: cli.max_k,
            horizon: cli.horizon,
            iterations: cli.iterations,
            threads: 1,
            load_requests: cli.load_requests,
            concurrency: cli.concurrency,
        },
        baseline: Baseline {
            pr: BASELINE_PR,
            description:
                "full E12 sweep (max-k 4096, horizon 1e12, 1 thread) before the compilation layer",
            e12_sweep_micros: BASELINE_E12_SWEEP_MICROS,
            threads: 1,
        },
        e12_sweep,
        telemetry_overhead,
        tracing_overhead,
        jobs_overhead,
        service,
    };
    let json = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&cli.out, format!("{json}\n")).map_err(|e| format!("write {}: {e}", cli.out))?;
    println!(
        "benchgen: wrote {} (cold median {} µs, {:.1}x vs PR {} baseline, warm {:.1}x vs cold, \
         warm {:.3}x vs BENCH_6, {:.3}x vs BENCH_8, jobs envelope {:.2}x)",
        cli.out,
        doc.e12_sweep.cold.median_micros,
        doc.e12_sweep.speedup_vs_baseline,
        BASELINE_PR,
        doc.e12_sweep.warm_speedup_vs_cold,
        doc.telemetry_overhead.warm_ratio_vs_bench6,
        doc.tracing_overhead.warm_ratio_vs_bench8,
        doc.jobs_overhead.ratio
    );
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
            eprintln!("benchgen: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = generate(&parsed) {
        eprintln!("benchgen: {msg}");
        std::process::exit(1);
    }
}
