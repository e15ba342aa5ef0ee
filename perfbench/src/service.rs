//! `sync-hot` and `jobs`: one router and two backends in this process
//! on ephemeral loopback ports, wired the way the `raysearch-router`
//! binary wires them, loaded by closed-loop clients over keep-alive
//! connections (each client sends its next request when the last one
//! has answered).
//!
//! Every request carries a client-chosen `x-raysearch-trace` id. In the
//! traced phase the router and each backend sit behind a
//! [`Traced`] handler, and the ids join the client's round trip, the
//! router's `handle` and the backend's `handle` of the same request.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use raysearch_bounds::a_rays;
use raysearch_service::client::HttpClient;
use raysearch_service::http::Request;
use raysearch_service::jobs::JobConfig;
use raysearch_service::route::{spawn_health_thread, FORWARD_TIMEOUT};
use raysearch_service::tape::digest_body;
use raysearch_service::{
    BackendSpec, CacheStats, RouterState, Server, ServerConfig, ServiceState, TRACE_HEADER,
};
use serde_json::Value;

use crate::gen::{job, Job, Op, SyncStream};
use crate::spans::{export, span_data, Sink, SpanRec, Trace, Traced};
use crate::stats::{mean, median, process_cpu_ns, thread_cpu_ns};
use crate::{
    check_pinned, per_layer_outcome, pinned, Layers, Options, Outcome, Timing, SETUP_REPEATS,
    TAIL_WINDOW,
};

/// The router binary's health-check interval.
const HEALTH_INTERVAL: Duration = Duration::from_millis(250);

/// Long-poll ceiling a client asks for on `GET /jobs/{id}`.
const WAIT_MICROS: u64 = 5_000_000;

/// In the traced phase, every this many operations a client times one
/// fresh connection to a backend — the call each forward makes.
const CONNECT_EVERY: u64 = 32;

/// Operations exported to the Chrome trace.
const EXPORT_OPS: usize = 300;

/// Jobs each set-up runs through the fleet before the clock starts.
const WARMUP_JOBS: u64 = 16;

/// The stream index of the first warm-up job.
const WARMUP_INDEX: u64 = 1 << 32;

/// Jobs at the head of the stream whose work is counted exactly: every
/// run at the recorded seed finishes them, whatever the run length.
const COUNTED_JOBS: u64 = 256;

/// One router and two backends.
struct Fleet {
    /// The router's address.
    addr: String,
    /// The backends' addresses, by node index.
    backend_addrs: Vec<String>,
    /// The router state (the health thread's and the handler's).
    router: Arc<RouterState>,
    /// The backend states, by node index.
    backends: Vec<Arc<ServiceState>>,
    stop: Arc<AtomicBool>,
    health: Option<JoinHandle<()>>,
    shutdowns: Vec<Box<dyn FnOnce() + Send + Sync>>,
}

impl Fleet {
    /// Binds two backends (job nodes 0 and 1) and a router over them,
    /// runs the first health pass and starts the 250 ms health thread.
    /// With a `sink`, the router and each backend sit behind a
    /// [`Traced`] handler.
    ///
    /// # Errors
    ///
    /// Returns a message if a server does not bind or a backend is not
    /// healthy after the first pass.
    fn start(sink: Option<&Arc<Sink>>) -> Result<Fleet, String> {
        let mut shutdowns: Vec<Box<dyn FnOnce() + Send + Sync>> = Vec::new();
        let (mut backends, mut backend_addrs) = (Vec::new(), Vec::new());
        for (node, layer) in ["backend-0", "backend-1"].into_iter().enumerate() {
            let cfg = ServerConfig {
                job_node: node as u64,
                ..ServerConfig::default()
            };
            let bind_err = |e: std::io::Error| format!("bind {layer}: {e}");
            match sink {
                None => {
                    let server = Server::bind(cfg).map_err(bind_err)?;
                    backends.push(server.state());
                    let handle = server.spawn();
                    backend_addrs.push(handle.addr().to_string());
                    shutdowns.push(Box::new(move || handle.shutdown()));
                }
                Some(sink) => {
                    // the state `Server::bind` would build from `cfg`
                    let state = Arc::new(ServiceState::with_jobs(
                        cfg.cache_capacity,
                        cfg.cache_shards,
                        JobConfig {
                            queue_depth: cfg.job_queue_depth,
                            store_capacity: cfg.job_store_capacity,
                            max_per_client: cfg.job_max_per_client,
                            cost_threshold: cfg.job_cost_threshold,
                            node: cfg.job_node,
                            workers: cfg.compute_workers,
                        },
                    ));
                    let traced = Arc::new(Traced::new(Arc::clone(&state), layer, Arc::clone(sink)));
                    let handle = Server::bind_with(cfg, traced).map_err(bind_err)?.spawn();
                    backends.push(state);
                    backend_addrs.push(handle.addr().to_string());
                    shutdowns.push(Box::new(move || handle.shutdown()));
                }
            }
        }
        let specs = backend_addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| BackendSpec::fixed(&format!("backend-{i}"), addr))
            .collect();
        let router = Arc::new(RouterState::new(specs, None));
        let healthy = router.check_backends_now();
        if healthy != backends.len() {
            for shutdown in shutdowns {
                shutdown();
            }
            return Err(format!("{healthy} of {} backends healthy", backends.len()));
        }
        let cfg = ServerConfig::default();
        let bind_err = |e: std::io::Error| format!("bind router: {e}");
        let addr = match sink {
            None => {
                let handle = Server::bind_with(cfg, Arc::clone(&router))
                    .map_err(bind_err)?
                    .spawn();
                let addr = handle.addr().to_string();
                shutdowns.insert(0, Box::new(move || handle.shutdown()));
                addr
            }
            Some(sink) => {
                let traced = Arc::new(Traced::new(Arc::clone(&router), "router", Arc::clone(sink)));
                let handle = Server::bind_with(cfg, traced).map_err(bind_err)?.spawn();
                let addr = handle.addr().to_string();
                shutdowns.insert(0, Box::new(move || handle.shutdown()));
                addr
            }
        };
        let stop = Arc::new(AtomicBool::new(false));
        let health = spawn_health_thread(Arc::clone(&router), HEALTH_INTERVAL, Arc::clone(&stop));
        Ok(Fleet {
            addr,
            backend_addrs,
            router,
            backends,
            stop,
            health: Some(health),
            shutdowns,
        })
    }

    /// Stops the health thread, then the router, then the backends, and
    /// waits for every thread to end.
    fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(health) = self.health.take() {
            health.join().expect("the health thread does not panic");
        }
        for shutdown in self.shutdowns.drain(..) {
            shutdown();
        }
    }

    /// The result-cache and compile-tier counters, summed over the
    /// backends.
    fn tiers(&self) -> (Tier, Tier) {
        let sum = |stats: fn(&ServiceState) -> CacheStats| {
            self.backends.iter().fold(Tier::default(), |t, b| {
                let s = stats(b);
                Tier {
                    hits: t.hits + s.hits,
                    misses: t.misses + s.misses,
                    evictions: t.evictions + s.evictions,
                }
            })
        };
        (
            sum(ServiceState::cache_stats),
            sum(ServiceState::compile_stats),
        )
    }

    /// The failure counters after a run: router failovers, sheds on
    /// every tier, job admission refusals and store evictions.
    fn failure_counts(&self) -> Layers {
        let router_shed = HttpClient::connect(&self.addr)
            .and_then(|mut c| c.request("GET", "/stats", None))
            .ok()
            .and_then(|(_, body)| serde_json::from_str(&body).ok())
            .and_then(|doc: Value| doc.get("shed_total").and_then(Value::as_u64))
            .unwrap_or(0);
        let shed: u64 = self.backends.iter().map(|b| b.shed_total()).sum();
        let jobs = |pick: &dyn Fn(&ServiceState) -> u64| -> f64 {
            self.backends.iter().map(|b| pick(b)).sum::<u64>() as f64
        };
        vec![
            ("router.failover", self.router.failover_total() as f64),
            ("server.shed", (shed + router_shed) as f64),
            ("jobs.rejected", jobs(&|b| b.jobs().snapshot().rejected)),
            ("jobs.evicted", jobs(&|b| b.jobs().snapshot().evicted)),
        ]
    }
}

/// Lookup counters of one cache tier.
#[derive(Debug, Clone, Copy, Default)]
struct Tier {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Tier {
    /// The counts since `before`.
    fn since(self, before: Tier) -> Tier {
        Tier {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }

    fn hit_ratio(self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// One HTTP exchange of a traced operation.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    trace: u64,
    start_ns: u64,
    end_ns: u64,
}

/// What one client saw.
struct ClientLog {
    /// The phase's clock.
    epoch: Instant,
    /// Each completed operation's `(start, end)` in nanoseconds since
    /// `epoch`.
    times: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
    cpu_ns: u64,
    problems: Vec<String>,
    /// Traced phase: per operation, its exchanges.
    ops: Vec<Vec<Exchange>>,
    /// Traced phase: timed fresh connections to a backend.
    connect_ns: Vec<f64>,
    /// `jobs`: one record per finished job.
    jobs: Vec<JobDone>,
}

impl ClientLog {
    fn new(epoch: Instant) -> ClientLog {
        ClientLog {
            epoch,
            times: Vec::new(),
            attempted: 0,
            failed: 0,
            cpu_ns: 0,
            problems: Vec::new(),
            ops: Vec::new(),
            connect_ns: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Nanoseconds since the phase began.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }
}

/// The trace id of exchange `j` of operation `i`.
fn trace_id(i: u64, j: u64) -> u64 {
    ((i + 1) << 8) | (j & 0xff)
}

/// Sends one request with its trace id, timing it against the sink's
/// clock in the traced phase.
fn exchange(
    http: &mut HttpClient,
    sink: Option<&Sink>,
    trace: u64,
    method: &str,
    target: &str,
    body: Option<&str>,
    log: &mut Vec<Exchange>,
) -> std::io::Result<(u16, String)> {
    let header = format!("{trace:016x}");
    let start_ns = sink.map_or(0, Sink::now_ns);
    let result = http
        .request_with_headers(method, target, body, &[(TRACE_HEADER, &header)])
        .map(|(status, _, text)| (status, text));
    if let Some(sink) = sink {
        log.push(Exchange {
            trace,
            start_ns,
            end_ns: sink.now_ns(),
        });
    }
    result
}

/// Everything a timed phase measured.
struct Phase {
    timing: Timing,
    logs: Vec<ClientLog>,
    cache: Tier,
    compile: Tier,
    failures: Vec<(&'static str, f64)>,
}

/// Runs `clients` closed-loop clients against `fleet` for `seconds`,
/// each calling `op(client, index, http, log)` for the next index of a
/// shared counter, and tears the fleet down.
fn load(
    opts: &Options,
    fleet: Fleet,
    sink: Option<&Sink>,
    op: &(dyn Fn(usize, u64, &mut HttpClient, &mut ClientLog) + Sync),
) -> Result<Phase, String> {
    let (cache0, compile0) = fleet.tiers();
    let next = AtomicU64::new(0);
    let cpu0 = process_cpu_ns();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(opts.seconds);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..opts.clients)
            .map(|c| {
                let (next, fleet) = (&next, &fleet);
                scope.spawn(move || {
                    let mut log = ClientLog::new(started);
                    let cpu = thread_cpu_ns();
                    let mut http = HttpClient::connect(&fleet.addr)
                        .map_err(|e| format!("connect {}: {e}", fleet.addr))?;
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        op(c, i, &mut http, &mut log);
                        if sink.is_some() && i % CONNECT_EVERY == 0 {
                            let addr = &fleet.backend_addrs[(i / CONNECT_EVERY) as usize % 2];
                            let t = Instant::now();
                            let conn = HttpClient::connect_with_timeout(addr, FORWARD_TIMEOUT);
                            log.connect_ns.push(t.elapsed().as_nanos() as f64);
                            drop(conn);
                        }
                    }
                    // close the keep-alive connection before the fleet
                    // stops, so no server worker waits out its timeout
                    drop(http);
                    log.cpu_ns = thread_cpu_ns() - cpu;
                    Ok(log)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load clients do not panic"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ns = process_cpu_ns() - cpu0;
    let (cache1, compile1) = fleet.tiers();
    let failures = fleet.failure_counts();
    fleet.stop();
    let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let client_cpu: u64 = logs.iter().map(|l| l.cpu_ns).sum();
    let mut timing = Timing {
        wall_s,
        cpu_ns: cpu_ns.saturating_sub(client_cpu) as f64,
        ..Timing::default()
    };
    for log in &logs {
        timing.push_client(&log.times, TAIL_WINDOW);
    }
    Ok(Phase {
        timing,
        logs,
        cache: cache1.since(cache0),
        compile: compile1.since(compile0),
        failures,
    })
}

/// Builds fleets, each followed by `prepare`, timing each set-up:
/// [`SETUP_REPEATS`] of them for the untraced phase, one for the traced
/// phase (which reports no set-up time). Returns the last fleet and the
/// set-up times.
fn set_up(
    sink: Option<&Arc<Sink>>,
    prepare: &dyn Fn(&Fleet) -> Result<(), String>,
) -> Result<(Fleet, Vec<f64>), String> {
    let repeats = if sink.is_some() { 1 } else { SETUP_REPEATS };
    let mut times = Vec::new();
    let mut fleet: Option<Fleet> = None;
    for _ in 0..repeats {
        if let Some(old) = fleet.take() {
            old.stop();
        }
        let started = Instant::now();
        let fresh = Fleet::start(sink)?;
        prepare(&fresh)?;
        times.push(started.elapsed().as_secs_f64());
        fleet = Some(fresh);
    }
    Ok((fleet.expect("at least one set-up"), times))
}

/// The in-process request for `op`, as the HTTP layer would parse it.
fn request_of(op: &Op) -> Request {
    let (path, query) = op.target.split_once('?').unwrap_or((&op.target, ""));
    Request {
        method: op.method.to_owned(),
        version: "HTTP/1.1".to_owned(),
        path: path.to_owned(),
        query: query
            .split('&')
            .filter(|p| !p.is_empty())
            .map(|p| {
                let (k, v) = p.split_once('=').unwrap_or((p, ""));
                (k.to_owned(), v.to_owned())
            })
            .collect(),
        headers: Vec::new(),
        body: op.body.as_bytes().to_vec(),
    }
}

/// Checks an `evaluate` payload's ratio against `A(m, k, f)`.
fn ratio_within_bound(payload: &Value) -> Result<(), String> {
    let uint = |key: &str| payload.get(key).and_then(Value::as_u64).map(|v| v as u32);
    let (Some(m), Some(k), Some(f)) = (uint("m"), uint("k"), uint("f")) else {
        return Err("evaluate payload without m, k, f".to_owned());
    };
    let ratio = payload
        .get("report")
        .and_then(|r| r.get("ratio"))
        .and_then(Value::as_f64)
        .ok_or("evaluate payload without a ratio")?;
    let bound = a_rays(m, k, f).map_err(|e| format!("a_rays({m}, {k}, {f}): {e}"))?;
    if ratio.is_finite() && ratio <= bound * (1.0 + 1e-9) {
        Ok(())
    } else {
        Err(format!(
            "evaluate (m={m}, k={k}, f={f}): ratio {ratio} above A = {bound}"
        ))
    }
}

/// The reference answer to `op` from a separate in-process state: its
/// digest, after checking it is a 200 and, for `evaluate`, that its
/// ratio respects the closed form.
fn reference_digest(state: &ServiceState, op: &Op) -> Result<String, String> {
    let response = state.handle(&request_of(op));
    if response.status != 200 {
        return Err(format!(
            "{} answered {}: {}",
            op.line(),
            response.status,
            response.body
        ));
    }
    if op.endpoint() == "evaluate" {
        let doc: Value = serde_json::from_str(&response.body).map_err(|e| e.to_string())?;
        ratio_within_bound(doc.get("result").unwrap_or(&Value::Null))?;
    }
    Ok(digest_body(&response.body))
}

/// Per-layer split of the traced operations' round trips: client wire
/// time, router self time, backend handle time, each a mean per op.
fn layer_split(logs: &[ClientLog], spans: &[SpanRec]) -> Layers {
    let mut by_trace: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in spans {
        let entry = by_trace.entry(s.trace).or_default();
        let dur = s.end_ns - s.start_ns;
        if s.layer == "router" {
            entry.0 += dur;
        } else {
            entry.1 += dur;
        }
    }
    let (mut wire, mut router, mut backend, mut ops) = (0.0, 0.0, 0.0, 0.0f64);
    for op in logs.iter().flat_map(|l| &l.ops) {
        let joined: Option<Vec<(f64, f64, f64)>> = op
            .iter()
            .map(|x| {
                let &(r, b) = by_trace.get(&x.trace)?;
                Some(((x.end_ns - x.start_ns) as f64, r as f64, b as f64))
            })
            .collect();
        let Some(parts) = joined else { continue };
        let total =
            (op.last().map_or(0, |x| x.end_ns) - op.first().map_or(0, |x| x.start_ns)) as f64;
        let (r, b): (f64, f64) = parts.iter().fold((0.0, 0.0), |a, p| (a.0 + p.1, a.1 + p.2));
        wire += total - r;
        router += r - b;
        backend += b;
        ops += 1.0;
    }
    let per_op = |x: f64| x / ops.max(1.0) / 1e3;
    let connects: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.connect_ns.iter().copied())
        .collect();
    vec![
        ("client.wire_us", per_op(wire)),
        ("router.self_us", per_op(router)),
        ("backend.handle_us", per_op(backend)),
        ("route.connect_us", mean(&connects) / 1e3),
    ]
}

/// Span trees of the first traced operations: the client's round trip,
/// the router's `handle` under it, the backend's `handle` under that.
fn op_traces(logs: &[ClientLog], spans: &[SpanRec]) -> Vec<Trace> {
    let mut by_trace: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut out = Vec::new();
    for op in logs.iter().flat_map(|l| &l.ops).take(EXPORT_OPS) {
        let (Some(first), Some(last)) = (op.first(), op.last()) else {
            continue;
        };
        let base = first.start_ns;
        let mut root = span_data("op", base, base, last.end_ns);
        for x in op {
            let mut request = span_data("request", base, x.start_ns, x.end_ns);
            let layers = by_trace.get(&x.trace).map_or(&[][..], Vec::as_slice);
            let mut router = None;
            let mut backends = Vec::new();
            for s in layers {
                let mut span =
                    span_data(&format!("{}.handle", s.layer), base, s.start_ns, s.end_ns);
                let service = if s.layer == "router" {
                    "raysearch-router"
                } else {
                    s.layer
                };
                span.attrs.push(("service".to_owned(), service.to_owned()));
                if s.layer == "router" {
                    router = Some(span);
                } else {
                    backends.push(span);
                }
            }
            match router {
                Some(mut r) => {
                    r.children = backends;
                    request.children.push(r);
                }
                None => request.children.extend(backends),
            }
            root.children.push(request);
        }
        out.push((
            format!("{:016x}", first.trace),
            "perfbench-client".to_owned(),
            root,
        ));
    }
    out
}

fn merge_client_logs(phase: &Phase, out: &mut Outcome) {
    for log in &phase.logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        for p in &log.problems {
            out.problem(p.clone());
        }
    }
}

/// One `sync-hot` phase: set up (fleet, first health pass, every
/// distinct request once), then the skewed stream of cached repeats.
fn sync_phase(
    opts: &Options,
    stream: &SyncStream,
    expected: &[String],
    sink: Option<&Arc<Sink>>,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let prime = |fleet: &Fleet| -> Result<(), String> {
        let mut http =
            HttpClient::connect(&fleet.addr).map_err(|e| format!("connect {}: {e}", fleet.addr))?;
        for (op, want) in stream.distinct().iter().zip(expected) {
            let body = (op.method == "POST").then_some(op.body.as_str());
            let (status, text) = http
                .request(op.method, &op.target, body)
                .map_err(|e| format!("prime {}: {e}", op.line()))?;
            if status != 200 || digest_body(&text) != *want {
                return Err(format!("prime {}: {status} {text}", op.line()));
            }
        }
        Ok(())
    };
    let (fleet, setups) = set_up(sink, &prime)?;
    let distinct = stream.distinct();
    let traced = sink.map(Arc::as_ref);
    let addr = fleet.addr.clone();
    let op = |_client: usize, i: u64, http: &mut HttpClient, log: &mut ClientLog| {
        let d = stream.index_of(i);
        let request = &distinct[d];
        let body = (request.method == "POST").then_some(request.body.as_str());
        let mut exchanges = Vec::new();
        let start = log.now_ns();
        let result = exchange(
            http,
            traced,
            trace_id(i, 0),
            request.method,
            &request.target,
            body,
            &mut exchanges,
        );
        let end = log.now_ns();
        log.times.push((start, end));
        log.attempted += 1;
        match result {
            Ok((200, text)) if digest_body(&text) == expected[d] => {}
            Ok((status, text)) => {
                log.fail(format!("{} answered {status}: {text:.200}", request.line()))
            }
            Err(e) => {
                log.fail(format!("{}: {e}", request.line()));
                if let Ok(fresh) = HttpClient::connect(&addr) {
                    *http = fresh;
                }
            }
        }
        if traced.is_some() {
            log.ops.push(exchanges);
        }
    };
    let mut phase = load(opts, fleet, traced, &op)?;
    phase.timing.setup_s = median(&setups);
    phase.timing.setups = setups.len();
    merge_client_logs(&phase, out);
    if phase.cache.misses != 0 {
        out.problem(format!(
            "sync-hot: {} result-cache misses in the timed phase",
            phase.cache.misses
        ));
    }
    Ok(phase)
}

/// Runs the `sync-hot` workload.
///
/// # Errors
///
/// Returns a message if the fleet cannot be set up.
pub fn run_sync_hot(opts: &Options) -> Result<Outcome, String> {
    let stream = SyncStream::new(opts.seed);
    let mut out = Outcome::default();
    // reference answers from a separate state, before any clock starts
    let reference = ServiceState::new(4096, 16);
    let expected = stream
        .distinct()
        .iter()
        .map(|op| reference_digest(&reference, op))
        .collect::<Result<Vec<_>, _>>()?;
    check_pinned(
        "sync-hot",
        "distinct_requests",
        expected.len() as f64,
        &mut out,
    );
    let timed = sync_phase(opts, &stream, &expected, None, &mut out)?;
    if !opts.trace {
        timed.timing.report(&mut out);
        out.notes.push(format!(
            "sync-hot: {} distinct requests, {} clients; result cache {} hits / {} misses",
            expected.len(),
            opts.clients,
            timed.cache.hits,
            timed.cache.misses
        ));
        return Ok(out);
    }
    let sink = Arc::new(Sink::new());
    let traced = sync_phase(opts, &stream, &expected, Some(&sink), &mut out)?;
    let spans = sink.drain();
    let mut layer = layer_split(&traced.logs, &spans);
    layer.extend(common_layers(&timed, &traced, spans.len(), &out));
    export_traces(opts, &traced.logs, &spans, &mut out)?;
    Ok(per_layer_outcome(out, &layer))
}

/// Layers every service workload reports: cache effectiveness, the
/// failure counters, the span count and the tracing overhead.
fn common_layers(timed: &Phase, traced: &Phase, spans: usize, out: &Outcome) -> Layers {
    let mut layer = vec![
        ("cache.hit_ratio", traced.cache.hit_ratio()),
        ("cache.evictions", traced.cache.evictions as f64),
        ("compile_tier.evictions", traced.compile.evictions as f64),
        (
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        ),
        ("trace.spans", spans as f64),
        (
            "trace.overhead_pct",
            (traced.timing.mean_us() - timed.timing.mean_us()) / timed.timing.mean_us() * 100.0,
        ),
    ];
    layer.extend(traced.failures.iter().copied());
    layer
}

fn export_traces(
    opts: &Options,
    logs: &[ClientLog],
    spans: &[SpanRec],
    out: &mut Outcome,
) -> Result<(), String> {
    let path = opts.trace_path();
    let traces = op_traces(logs, spans);
    export(&path, &traces)?;
    out.notes.push(format!(
        "trace: {} spans recorded, {} operations exported to {}",
        spans.len(),
        traces.len(),
        path.display()
    ));
    Ok(())
}

/// One finished job as its client saw it.
#[derive(Debug, Clone)]
struct JobDone {
    index: u64,
    job: Job,
    rtt_ns: f64,
    submit_ns: f64,
    queue_wait_us: f64,
    exec_us: f64,
    digest: String,
    /// `Σ num_breakpoints` (evaluate) or samples (montecarlo).
    work: u64,
    /// The result payload, kept for the ratio check of evaluate jobs.
    payload: Value,
}

/// Submits job `i` through the router and long-polls it to `done`.
fn run_job(
    seed: u64,
    i: u64,
    client: &str,
    http: &mut HttpClient,
    sink: Option<&Sink>,
    exchanges: &mut Vec<Exchange>,
) -> Result<JobDone, String> {
    let job = job(seed, i);
    let started = Instant::now();
    let (status, text) = exchange(
        http,
        sink,
        trace_id(i, 0),
        "POST",
        "/jobs",
        Some(&job.envelope(client)),
        exchanges,
    )
    .map_err(|e| format!("submit job {i}: {e}"))?;
    let submit_ns = started.elapsed().as_nanos() as f64;
    if status != 202 {
        return Err(format!("submit job {i} answered {status}: {text}"));
    }
    let submitted: Value =
        serde_json::from_str(&text).map_err(|e| format!("submit job {i}: {e}"))?;
    let id = submitted
        .get("id")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("submit job {i}: no id in {text}"))?;
    let target = format!("/jobs/{id}?wait_micros={WAIT_MICROS}");
    for poll in 1.. {
        let (status, text) = exchange(
            http,
            sink,
            trace_id(i, poll),
            "GET",
            &target,
            None,
            exchanges,
        )
        .map_err(|e| format!("poll job {i}: {e}"))?;
        if status != 200 {
            return Err(format!("poll job {i} answered {status}: {text}"));
        }
        let record: Value =
            serde_json::from_str(&text).map_err(|e| format!("poll job {i}: {e}"))?;
        match record.get("state").and_then(Value::as_str) {
            Some("done") => {}
            Some("queued" | "running") => continue,
            other => return Err(format!("job {i} reached {other:?}: {text:.300}")),
        }
        let rtt_ns = started.elapsed().as_nanos() as f64;
        let micros = |key: &str| record.get(key).and_then(Value::as_u64).unwrap_or(0);
        // the payload's bytes, exactly as stored: between the `result`
        // key and the next key in the record's sorted field order
        let raw = text
            .find(",\"result\":")
            .zip(text.rfind(",\"started_micros\":"))
            .map(|(a, b)| &text[a + ",\"result\":".len()..b])
            .ok_or_else(|| format!("job {i}: no result in {text:.300}"))?;
        let payload = record.get("result").cloned().unwrap_or(Value::Null);
        let report = payload.get("report");
        let work = match job.endpoint {
            "evaluate" => report.and_then(|r| r.get("num_breakpoints")),
            _ => report.and_then(|r| r.get("samples")),
        }
        .and_then(Value::as_u64)
        .unwrap_or(0);
        return Ok(JobDone {
            index: i,
            rtt_ns,
            submit_ns,
            queue_wait_us: micros("queue_wait_micros") as f64,
            exec_us: micros("finished_micros").saturating_sub(micros("started_micros")) as f64,
            digest: digest_body(&format!("{{\"cached\":false,\"result\":{raw}}}")),
            work,
            payload,
            job,
        });
    }
    unreachable!("the poll loop only ends by returning")
}

/// One `jobs` phase: set up (fleet, first health pass, a few warm-up
/// jobs), then closed-loop job round trips.
fn jobs_phase(
    opts: &Options,
    sink: Option<&Arc<Sink>>,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let warm_up = |fleet: &Fleet| -> Result<(), String> {
        let mut http =
            HttpClient::connect(&fleet.addr).map_err(|e| format!("connect {}: {e}", fleet.addr))?;
        // warm-up jobs take indices far past any timed job's, so they
        // never share a key with one
        for i in WARMUP_INDEX..WARMUP_INDEX + WARMUP_JOBS {
            run_job(opts.seed, i, "warmup", &mut http, None, &mut Vec::new())?;
        }
        Ok(())
    };
    let (fleet, setups) = set_up(sink, &warm_up)?;
    let traced = sink.map(Arc::as_ref);
    let addr = fleet.addr.clone();
    let labels: Vec<String> = (0..opts.clients).map(|c| format!("client-{c}")).collect();
    let op = |client: usize, i: u64, http: &mut HttpClient, log: &mut ClientLog| {
        let mut exchanges = Vec::new();
        log.attempted += 1;
        let start = log.now_ns();
        match run_job(opts.seed, i, &labels[client], http, traced, &mut exchanges) {
            Ok(done) => {
                log.times.push((start, log.now_ns()));
                log.jobs.push(done);
            }
            Err(e) => {
                log.fail(e);
                if let Ok(fresh) = HttpClient::connect(&addr) {
                    *http = fresh;
                }
            }
        }
        if traced.is_some() {
            log.ops.push(exchanges);
        }
    };
    let mut phase = load(opts, fleet, traced, &op)?;
    phase.timing.setup_s = median(&setups);
    phase.timing.setups = setups.len();
    merge_client_logs(&phase, out);
    if phase.cache.hits != 0 {
        out.problem(format!(
            "jobs: {} result-cache hits on fresh keys",
            phase.cache.hits
        ));
    }
    verify_jobs(&phase, out);
    Ok(phase)
}

/// Checks every job's result against the synchronous answer of a
/// separate in-process state (on two threads, after the clock stopped),
/// and every evaluate ratio against `A(m, k, f)`.
fn verify_jobs(phase: &Phase, out: &mut Outcome) {
    let done: Vec<&JobDone> = phase.logs.iter().flat_map(|l| &l.jobs).collect();
    let half = done.len().div_ceil(2);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = done
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    let reference = ServiceState::new(4096, 16);
                    let mut bad = Vec::new();
                    for d in chunk {
                        let want = reference_digest(&reference, &d.job.sync_op());
                        let checked = want.and_then(|want| {
                            if want != d.digest {
                                return Err(format!(
                                    "job {} result differs from its sync twin",
                                    d.index
                                ));
                            }
                            if d.job.endpoint == "evaluate" {
                                ratio_within_bound(&d.payload)?;
                            }
                            Ok(())
                        });
                        if let Err(e) = checked {
                            bad.push(e);
                        }
                    }
                    bad
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verifiers do not panic"))
            .collect()
    });
    out.failed += failures.len() as u64;
    for f in failures {
        out.problem(f);
    }
}

/// The exact work of the stream's first [`COUNTED_JOBS`] jobs:
/// breakpoints of the evaluate results and samples of the Monte-Carlo
/// runs.
fn counted_work(phase: &Phase, out: &mut Outcome) -> (f64, f64) {
    let prefix: Vec<&JobDone> = phase
        .logs
        .iter()
        .flat_map(|l| &l.jobs)
        .filter(|d| d.index < COUNTED_JOBS)
        .collect();
    if prefix.len() as u64 != COUNTED_JOBS {
        out.problem(format!(
            "jobs: only {} of the first {COUNTED_JOBS} jobs finished",
            prefix.len()
        ));
    }
    let sum = |endpoint: &str| {
        prefix
            .iter()
            .filter(|d| d.job.endpoint == endpoint)
            .map(|d| d.work)
            .sum::<u64>() as f64
    };
    (sum("evaluate"), sum("montecarlo"))
}

/// Runs the `jobs` workload.
///
/// # Errors
///
/// Returns a message if the fleet cannot be set up.
pub fn run_jobs(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let timed = jobs_phase(opts, None, &mut out)?;
    let (breakpoints, samples) = counted_work(&timed, &mut out);
    if pinned("jobs", "seed").as_ref().and_then(Value::as_u64) == Some(opts.seed) {
        check_pinned("jobs", "jobs.breakpoints", breakpoints, &mut out);
        check_pinned("jobs", "mc.samples", samples, &mut out);
    }
    if !opts.trace {
        timed.timing.report(&mut out);
        let done: Vec<&JobDone> = timed.logs.iter().flat_map(|l| &l.jobs).collect();
        out.notes.push(format!(
            "jobs: {} done by {} clients; first {COUNTED_JOBS} jobs: {breakpoints} breakpoints, {samples} samples",
            done.len(),
            opts.clients,
        ));
        return Ok(out);
    }
    let sink = Arc::new(Sink::new());
    let traced = jobs_phase(opts, Some(&sink), &mut out)?;
    let spans = sink.drain();
    let done: Vec<&JobDone> = traced.logs.iter().flat_map(|l| &l.jobs).collect();
    let n = done.len().max(1) as f64;
    let exec = |endpoint: &str| {
        done.iter()
            .filter(|d| d.job.endpoint == endpoint)
            .map(|d| d.exec_us)
            .sum::<f64>()
            / n
    };
    let envelope: f64 = done
        .iter()
        .map(|d| d.rtt_ns / 1e3 - d.exec_us - d.queue_wait_us)
        .sum::<f64>()
        / n;
    let mut layer = layer_split(&traced.logs, &spans);
    layer.extend([
        (
            "jobs.submit_us",
            mean(&done.iter().map(|d| d.submit_ns).collect::<Vec<_>>()) / 1e3,
        ),
        (
            "jobs.queue_wait_us",
            done.iter().map(|d| d.queue_wait_us).sum::<f64>() / n,
        ),
        ("jobs.exec_us.evaluate", exec("evaluate")),
        ("jobs.exec_us.montecarlo", exec("montecarlo")),
        ("jobs.envelope_us", envelope),
        ("jobs.breakpoints", breakpoints),
        ("mc.samples", samples),
    ]);
    layer.extend(common_layers(&timed, &traced, spans.len(), &out));
    export_traces(opts, &traced.logs, &spans, &mut out)?;
    Ok(per_layer_outcome(out, &layer))
}
