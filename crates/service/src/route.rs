//! The consistent-hash router: rendezvous (highest-random-weight)
//! sharding of requests across `raysearchd` backends, with health
//! checks, bounded retry-with-failover, and aggregated `/stats`.
//!
//! # Why rendezvous hashing
//!
//! Every evaluation endpoint is memoized, so throughput scales with the
//! *hit rate*, and the hit rate survives scale-out only if every
//! spelling of the same logical request lands on the same backend. The
//! router therefore scores each backend by the pinned FNV-1a hash of
//! `backend-id ++ 0x00 ++ routing-key` and forwards to the highest
//! score. The routing key is [`routing_key`]: the memo key the
//! backend's own `prepare` derives, with a `POST /jobs` envelope
//! unwrapped by the same function job admission uses, so a job and its
//! synchronous twin share a backend and the router holds no parser of
//! its own. Rendezvous hashing has the minimal-disruption property a
//! cache fleet wants: removing one of `N` backends remaps only the keys
//! that backend owned (~`1/N` of the population), and every surviving
//! key keeps its backend — no ring to rebalance, no token table to
//! persist. Because the hash is process-stable, the assignment is
//! reproducible across restarts and predictable offline by a replay
//! harness.
//!
//! # Failure model
//!
//! Requests are idempotent pure computations, so failover is safe:
//! transport errors (backend died, connection refused) retry down the
//! rendezvous ranking — each hop counted in `failover_total` — until a
//! backend answers or every backend has been tried (then `502`). A
//! backend's *HTTP* answer is never second-guessed: a `503` from an
//! overloaded backend passes through to the client, `Retry-After` and
//! all (counted as `shed_passthrough`), because retrying overload
//! elsewhere just spreads it. A background health thread probes
//! `/healthz` and re-reads port files, so a backend respawned on a new
//! ephemeral port is rediscovered without reconfiguration; unhealthy
//! backends are deprioritized but still tried as a last resort (they
//! may have just come back).
//!
//! # Connection reuse
//!
//! Each backend keeps at most one idle keep-alive connection, tagged
//! with the address it was opened to; forwards, health probes and
//! trace fetches all take it or connect fresh. It goes back to the
//! idle slot only when the response did not say `Connection: close`,
//! the address is unchanged, and no other exchange with that backend
//! is in flight — so the router never parks a connection on a backend
//! worker that one of its own requests is queued behind. A reused
//! connection that fails before any response byte (EOF, reset, broken
//! pipe) is retried once on a fresh connection to the same backend
//! (`stale_retries`): a live backend closes a connection unanswered
//! only after it sat idle past the backend's read timeout, so the
//! request was never read and the retry computes nothing twice. Every
//! other error, and any error on a fresh connection, is a transport
//! failure as above; a crashed backend refuses the fresh connect.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use raysearch_core::{stable_hash64_parts, SpanData, TraceRecorder};
use serde_json::{Map, Value};

use crate::api::{routing_key, SERVICE_METRICS};
use crate::client::{announces_close, FullResponse, HttpClient, SendError};
use crate::http::{Request, Response};
use crate::jobs::{job_node, parse_job_id};
use crate::server::Handler;
use crate::tape::{is_recordable, TapeEntry, TapeRecorder};
use crate::telemetry::{
    counter, flag, gauge, metrics_response, stat, trace_index_json, trace_json, write_families,
    write_stats, Metric, Span, SpanSet, Telemetry, TRACE_HEADER,
};

/// How long a health probe waits before declaring a backend unhealthy.
pub const HEALTH_TIMEOUT: Duration = Duration::from_millis(500);

/// How long a forwarded request may take end to end. Generous: exact
/// large-fleet evaluations legitimately run for seconds.
pub const FORWARD_TIMEOUT: Duration = Duration::from_secs(60);

/// Where a backend's address comes from.
#[derive(Debug, Clone)]
pub enum AddrSource {
    /// A fixed `HOST:PORT` address.
    Fixed(String),
    /// A file the backend writes its bound address into (`--port-file`).
    /// Re-read by every health pass, so a backend respawned on a new
    /// ephemeral port is rediscovered automatically.
    PortFile(PathBuf),
}

/// One backend as configured: a stable logical identity plus an address
/// source. The *identity* is what rendezvous hashing scores — it stays
/// fixed across respawns even when the port changes, so a restart does
/// not reshuffle the keyspace.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// The stable logical id (`"backend-0"`, …).
    pub id: String,
    /// Where to find it.
    pub source: AddrSource,
}

impl BackendSpec {
    /// A backend at a fixed address.
    #[must_use]
    pub fn fixed(id: &str, addr: &str) -> BackendSpec {
        BackendSpec {
            id: id.to_owned(),
            source: AddrSource::Fixed(addr.to_owned()),
        }
    }

    /// A backend discovered through a port file.
    #[must_use]
    pub fn port_file(id: &str, path: PathBuf) -> BackendSpec {
        BackendSpec {
            id: id.to_owned(),
            source: AddrSource::PortFile(path),
        }
    }
}

/// Ranks backend ids for `key` by rendezvous (HRW) score, best first.
///
/// Pure and process-stable: the ranking depends only on the id strings
/// and the key bytes, so any process — the router, a test, an offline
/// replay harness — computes the same assignment. Ties (a ~2⁻⁶⁴ event)
/// break toward the lexicographically smaller id to keep the order a
/// total function of the inputs.
#[must_use]
pub fn rendezvous_rank(ids: &[String], key: &str) -> Vec<usize> {
    let mut scored: Vec<(u64, &str, usize)> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            (
                stable_hash64_parts(&[id.as_bytes(), key.as_bytes()]),
                id.as_str(),
                i,
            )
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
    scored.into_iter().map(|(_, _, i)| i).collect()
}

/// The router's own metric registry, in `/stats` order; `/metrics`
/// renders it as `raysearch_router_` families.
static ROUTER_METRICS: [Metric<RouterState>; 11] = [
    counter(
        "requests_total",
        "Requests accepted by the router (including local endpoints).",
        |r| load(&r.requests),
    ),
    counter("routed_total", "Requests answered by some backend.", |r| {
        load(&r.routed_total)
    }),
    counter(
        "failover_total",
        "Failover hops after backend transport failures.",
        |r| load(&r.failover_total),
    ),
    counter(
        "shed_passthrough",
        "Backend 503 responses passed through to clients.",
        |r| load(&r.shed_passthrough),
    ),
    counter(
        "shed_total",
        "Connections shed by the router's own acceptor.",
        |r| load(&r.shed),
    ),
    counter(
        "no_backend_total",
        "Requests that exhausted every backend (502).",
        |r| load(&r.no_backend_total),
    ),
    gauge(
        "healthy_backends",
        "Backends currently marked healthy.",
        |r| Some(r.healthy_backends() as u64),
    ),
    gauge(
        "uptime_micros",
        "Microseconds since the router process started.",
        |r| Some(r.started.elapsed().as_micros() as u64),
    ),
    gauge(
        "uptime_seconds",
        "Seconds since the router process started.",
        |r| Some(r.started.elapsed().as_secs()),
    ),
    gauge(
        "traces_stored",
        "Completed span traces currently held in the trace ring.",
        |r| Some(r.telemetry.recorder().stored()),
    ),
    counter(
        "traces_dropped_total",
        "Completed traces evicted from the trace ring (oldest-first).",
        |r| Some(r.telemetry.recorder().dropped_total()),
    ),
];

/// What the router itself knows per backend, in the order of a `/stats`
/// `backends` entry; `/metrics` renders it as `raysearch_router_backend_`
/// families labeled `backend`.
static PER_BACKEND_METRICS: [Metric<Backend>; 6] = [
    flag(
        "healthy",
        "Backend health as seen by the health thread (1 healthy).",
        |b| Some(u64::from(b.healthy.load(Ordering::Relaxed))),
    ),
    counter(
        "routed",
        "Requests each backend answered (any HTTP status).",
        |b| load(&b.routed),
    ),
    counter("failed", "Transport failures observed per backend.", |b| {
        load(&b.failed)
    }),
    counter(
        "connects",
        "Connections the router opened per backend (retries included).",
        |b| load(&b.connects),
    ),
    counter(
        "stale_retries",
        "Pooled connections per backend found closed unanswered and retried fresh.",
        |b| load(&b.stale_retries),
    ),
    gauge(
        "stats_age_micros",
        "Age of each backend's cached /stats snapshot.",
        |b| {
            let snapshot = b.snapshot.lock();
            snapshot
                .as_ref()
                .map(|(_, at)| at.elapsed().as_micros() as u64)
        },
    ),
];

/// Backend `/stats` values the router's `/stats` also shows under their
/// historical names: `(backend path, name in a backends entry, name of
/// the sum over backends)`.
const STATS_ALIASES: [(&str, &str, &str); 8] = [
    ("cache.hits", "hits", "cache_hits"),
    ("cache.misses", "misses", "cache_misses"),
    ("shed_total", "shed", "backend_shed"),
    ("requests_total", "requests", "backend_requests"),
    ("jobs.queued", "jobs_queued", "jobs_queued"),
    ("jobs.running", "jobs_running", "jobs_running"),
    ("jobs.submitted", "jobs_submitted", "jobs_submitted"),
    ("jobs.completed", "jobs_completed", "jobs_completed"),
];

fn load(counter: &AtomicU64) -> Option<u64> {
    Some(counter.load(Ordering::Relaxed))
}

fn to_json(value: u64) -> Value {
    serde_json::to_value(value).expect("u64 serializes")
}

/// One backend at runtime: the spec plus live state and counters.
#[derive(Debug)]
struct Backend {
    id: String,
    source: AddrSource,
    /// The last known address (`None` until the port file appears).
    addr: Mutex<Option<String>>,
    healthy: AtomicBool,
    /// Requests this backend answered (any HTTP status).
    routed: AtomicU64,
    /// Transport failures observed talking to this backend.
    failed: AtomicU64,
    /// Connections opened to this backend, for any exchange.
    connects: AtomicU64,
    /// Reused connections that failed before any response byte and
    /// were retried on a fresh one.
    stale_retries: AtomicU64,
    /// The idle keep-alive connection and the exchanges in flight.
    pool: Mutex<Pool>,
    /// The backend's own `/stats` document as of the last successful
    /// health pass, and when that pass fetched it. Kept (stale) when the
    /// backend stops answering, so `/stats` and `/metrics` can still
    /// show the last known numbers with their age.
    snapshot: Mutex<Option<(Value, Instant)>>,
}

/// A backend's connection pool: the idle keep-alive connection, tagged
/// with the address it was opened to, and the exchanges in flight —
/// under one mutex, so the slot is filled only while nothing is in
/// flight (see "Connection reuse" in the module docs).
#[derive(Debug, Default)]
struct Pool {
    idle: Option<(String, HttpClient)>,
    in_flight: usize,
}

impl Backend {
    fn current_addr(&self) -> Option<String> {
        self.addr.lock().clone()
    }

    fn snapshot(&self) -> Option<Value> {
        self.snapshot
            .lock()
            .as_ref()
            .map(|(stats, _)| stats.clone())
    }

    /// Forwards `req` to this backend at `addr`: the body byte for
    /// byte, plus the trace id so the backend's telemetry joins the
    /// same trace.
    fn forward(
        &self,
        addr: &str,
        req: &Request,
        target: &str,
        trace: &str,
    ) -> std::io::Result<FullResponse> {
        self.exchange(
            addr,
            FORWARD_TIMEOUT,
            &req.method,
            target,
            &req.body,
            &[(TRACE_HEADER, trace)],
        )
    }

    /// Fetches and parses this backend's stored trace. `None` on any
    /// failure — no address, transport, non-200 (the backend did not
    /// sample this trace), or malformed JSON.
    fn fetch_trace(&self, trace: &str) -> Option<(String, SpanData)> {
        let addr = self.current_addr()?;
        let (status, _, body) = self
            .exchange(
                &addr,
                HEALTH_TIMEOUT,
                "GET",
                &format!("/debug/trace/{trace}"),
                b"",
                &[],
            )
            .ok()?;
        if status != 200 {
            return None;
        }
        let doc: Value = serde_json::from_str(&body).ok()?;
        let service = doc
            .get("service")
            .and_then(Value::as_str)
            .unwrap_or("raysearchd")
            .to_owned();
        let root = SpanData::from_json(doc.get("root")?).ok()?;
        Some((service, root))
    }

    /// One request/response exchange with this backend at `addr`, the
    /// only way the router talks to a backend: forwards, health probes
    /// and trace fetches all come through here. Takes the idle
    /// connection if it was opened to `addr` or connects fresh, reads
    /// under `timeout`, retries a stale reused connection once on a
    /// fresh one, and pools the connection afterwards only under the
    /// rules in "Connection reuse" in the module docs.
    fn exchange(
        &self,
        addr: &str,
        timeout: Duration,
        method: &str,
        target: &str,
        body: &[u8],
        headers: &[(&str, &str)],
    ) -> std::io::Result<FullResponse> {
        let idle = {
            let mut pool = self.pool.lock();
            pool.in_flight += 1;
            pool.idle.take().filter(|(tag, _)| tag == addr)
        };
        let fresh = || {
            let mut client = HttpClient::connect_with_timeout(addr, timeout)?;
            self.connects.fetch_add(1, Ordering::Relaxed);
            let response = client.send(method, target, body, headers)?;
            Ok((client, response))
        };
        let outcome = match idle {
            Some((_, mut client)) => match client
                .set_read_timeout(timeout)
                .map_err(SendError::Unanswered)
                .and_then(|()| client.send(method, target, body, headers))
            {
                Ok(response) => Ok((client, response)),
                Err(SendError::Failed(e)) => Err(e),
                Err(SendError::Unanswered(_)) => {
                    self.stale_retries.fetch_add(1, Ordering::Relaxed);
                    fresh()
                }
            },
            None => fresh(),
        };
        let keep = outcome
            .as_ref()
            .is_ok_and(|(_, (_, headers, _))| !announces_close(headers))
            && self.current_addr().as_deref() == Some(addr);
        let mut pool = self.pool.lock();
        pool.in_flight -= 1;
        outcome.map(|(client, response)| {
            if keep && pool.in_flight == 0 {
                pool.idle = Some((addr.to_owned(), client));
            }
            response
        })
    }
}

/// The router's shared state — the [`Handler`] behind `raysearch-router`.
#[derive(Debug)]
pub struct RouterState {
    backends: Vec<Backend>,
    started: Instant,
    /// Requests the router accepted (including `/healthz`, `/stats`).
    requests: AtomicU64,
    /// Requests answered by some backend.
    routed_total: AtomicU64,
    /// Failover hops: transport failures that moved a request down the
    /// rendezvous ranking.
    failover_total: AtomicU64,
    /// Backend `503`s passed through to clients.
    shed_passthrough: AtomicU64,
    /// Connections the router's own acceptor shed with a `503`.
    shed: AtomicU64,
    /// Requests that exhausted every backend (answered `502`).
    no_backend_total: AtomicU64,
    recorder: Option<TapeRecorder>,
    telemetry: Telemetry,
}

impl RouterState {
    /// Builds router state over `specs`, optionally recording forwarded
    /// traffic to a tape. All backends start unknown/unhealthy; call
    /// [`RouterState::check_backends_now`] (or run the health thread)
    /// before serving.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or contains duplicate ids — both are
    /// configuration errors worth failing fast on.
    #[must_use]
    pub fn new(specs: Vec<BackendSpec>, recorder: Option<TapeRecorder>) -> RouterState {
        assert!(!specs.is_empty(), "router needs at least one backend");
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), specs.len(), "backend ids must be unique");
        RouterState {
            backends: specs
                .into_iter()
                .map(|spec| Backend {
                    id: spec.id,
                    addr: Mutex::new(match &spec.source {
                        AddrSource::Fixed(addr) => Some(addr.clone()),
                        AddrSource::PortFile(_) => None,
                    }),
                    source: spec.source,
                    healthy: AtomicBool::new(false),
                    routed: AtomicU64::new(0),
                    failed: AtomicU64::new(0),
                    connects: AtomicU64::new(0),
                    stale_retries: AtomicU64::new(0),
                    pool: Mutex::default(),
                    snapshot: Mutex::new(None),
                })
                .collect(),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            routed_total: AtomicU64::new(0),
            failover_total: AtomicU64::new(0),
            shed_passthrough: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            no_backend_total: AtomicU64::new(0),
            recorder,
            telemetry: Telemetry::new(),
        }
    }

    /// The router's telemetry registry (trace minting, span histograms,
    /// slow log) — exposed so binaries can apply `--slow-log-micros`
    /// and tests can assert on recorded counts.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The configured backend ids, in configuration order — the
    /// population [`rendezvous_rank`] scores.
    #[must_use]
    pub fn backend_ids(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.id.clone()).collect()
    }

    /// Failover hops so far.
    #[must_use]
    pub fn failover_total(&self) -> u64 {
        self.failover_total.load(Ordering::Relaxed)
    }

    /// Backends currently marked healthy.
    #[must_use]
    pub fn healthy_backends(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.healthy.load(Ordering::Relaxed))
            .count()
    }

    /// Runs one synchronous health pass: refresh each backend's address
    /// from its source (re-reading port files, so respawned backends on
    /// new ports are picked up), probe its `/healthz` with
    /// [`HEALTH_TIMEOUT`], and fetch its `/stats` into the cached
    /// counter snapshot that the router's own `/stats` and `/metrics`
    /// serve from (so client-facing endpoints never poll backends
    /// synchronously). Probes go through the backend's connection pool
    /// like forwards do: a one-worker backend serving the router's idle
    /// connection could not accept a second one. Returns the number of
    /// healthy backends.
    pub fn check_backends_now(&self) -> usize {
        for backend in &self.backends {
            if let AddrSource::PortFile(path) = &backend.source {
                let read = std::fs::read_to_string(path)
                    .ok()
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty());
                *backend.addr.lock() = read;
            }
            let probed = backend.current_addr().and_then(|addr| {
                let get = |path: &str| {
                    backend
                        .exchange(&addr, HEALTH_TIMEOUT, "GET", path, b"", &[])
                        .ok()
                };
                let (status, _, _) = get("/healthz")?;
                if status != 200 {
                    return Some((false, None));
                }
                let snapshot = get("/stats")
                    .filter(|(status, _, _)| *status == 200)
                    .and_then(|(_, _, text)| serde_json::from_str(&text).ok())
                    .map(|doc: Value| (doc, Instant::now()));
                Some((true, snapshot))
            });
            let (healthy, snapshot) = probed.unwrap_or((false, None));
            backend.healthy.store(healthy, Ordering::Relaxed);
            if snapshot.is_some() {
                // a failed fetch keeps the previous (stale) snapshot:
                // last known numbers plus their age beat no numbers
                *backend.snapshot.lock() = snapshot;
            }
        }
        self.healthy_backends()
    }

    /// The router's own `/healthz`: `"ok"` when every backend is
    /// healthy, `"degraded"` when some are not, `"down"` when none are.
    fn healthz(&self) -> Response {
        let healthy = self.healthy_backends();
        let status = if healthy == self.backends.len() {
            "ok"
        } else if healthy > 0 {
            "degraded"
        } else {
            "down"
        };
        let mut doc = Map::new();
        doc.insert("status".to_owned(), Value::String(status.to_owned()));
        doc.insert(
            "service".to_owned(),
            Value::String("raysearch-router".to_owned()),
        );
        doc.insert(
            "backend_count".to_owned(),
            serde_json::to_value(self.backends.len() as u64).expect("u64 serializes"),
        );
        doc.insert(
            "healthy_backends".to_owned(),
            serde_json::to_value(healthy as u64).expect("u64 serializes"),
        );
        doc.insert(
            "backends".to_owned(),
            Value::Array(
                self.backends
                    .iter()
                    .map(|b| {
                        let mut bd = Map::new();
                        bd.insert("id".to_owned(), Value::String(b.id.clone()));
                        bd.insert(
                            "addr".to_owned(),
                            match b.current_addr() {
                                Some(addr) => Value::String(addr),
                                None => Value::Null,
                            },
                        );
                        bd.insert(
                            "healthy".to_owned(),
                            Value::Bool(b.healthy.load(Ordering::Relaxed)),
                        );
                        Value::Object(bd)
                    })
                    .collect(),
            ),
        );
        Response::ok(Value::Object(doc).to_json_string())
    }

    /// The router's `/stats` document, served from the health thread's
    /// cached snapshots (no backend is polled here): the
    /// [`ROUTER_METRICS`] rows, each [`STATS_ALIASES`] value summed over
    /// the backends, the oldest snapshot's `stats_age_micros`, and one
    /// `backends` entry per backend — its id, its [`PER_BACKEND_METRICS`]
    /// rows, its snapshot's aliased values and `reachable` ("a health
    /// pass has fetched this backend's stats at least once").
    fn stats_doc(&self) -> Value {
        let mut sums = [0u64; STATS_ALIASES.len()];
        let mut max_age = 0u64;
        let mut backends = Vec::new();
        for backend in &self.backends {
            let mut entry = Map::new();
            entry.insert("id".to_owned(), Value::String(backend.id.clone()));
            write_stats(&mut entry, &PER_BACKEND_METRICS, backend);
            let age = entry.get("stats_age_micros").and_then(Value::as_u64);
            max_age = max_age.max(age.unwrap_or(0));
            let snapshot = backend.snapshot();
            if let Some(stats) = &snapshot {
                for ((path, name, _), sum) in STATS_ALIASES.iter().zip(&mut sums) {
                    let value = stat(stats, path).unwrap_or(0);
                    *sum += value;
                    entry.insert((*name).to_owned(), to_json(value));
                }
            }
            entry.insert("reachable".to_owned(), Value::Bool(snapshot.is_some()));
            backends.push(Value::Object(entry));
        }
        let mut doc = Map::new();
        write_stats(&mut doc, &ROUTER_METRICS, self);
        for ((_, _, name), sum) in STATS_ALIASES.iter().zip(sums) {
            doc.insert((*name).to_owned(), to_json(sum));
        }
        doc.insert("stats_age_micros".to_owned(), to_json(max_age));
        doc.insert("backends".to_owned(), Value::Array(backends));
        Value::Object(doc)
    }

    /// The router's `GET /metrics`, rendered from its `/stats` document
    /// (so, like `/stats`, it polls no backend): [`ROUTER_METRICS`] as
    /// `raysearch_router_` families; per backend, labeled `backend`, its
    /// [`PER_BACKEND_METRICS`] rows and every [`SERVICE_METRICS`] row found in
    /// its cached `/stats`, both as `raysearch_router_backend_` families;
    /// then the span latency histograms.
    fn metrics(&self) -> Response {
        let doc = self.stats_doc();
        let snapshots: Vec<Option<Value>> = self.backends.iter().map(Backend::snapshot).collect();
        let entries = doc
            .get("backends")
            .and_then(Value::as_array)
            .unwrap_or_default();
        let (mut own, mut cached) = (Vec::new(), Vec::new());
        for ((backend, entry), snapshot) in self.backends.iter().zip(entries).zip(&snapshots) {
            let label = format!("backend=\"{}\"", backend.id);
            if let Some(stats) = snapshot {
                cached.push((label.clone(), stats));
            }
            own.push((label, entry));
        }
        let mut out = String::new();
        write_families(
            &mut out,
            "raysearch_router",
            &ROUTER_METRICS,
            &[(String::new(), &doc)],
        );
        write_families(
            &mut out,
            "raysearch_router_backend",
            &PER_BACKEND_METRICS,
            &own,
        );
        write_families(
            &mut out,
            "raysearch_router_backend",
            &SERVICE_METRICS,
            &cached,
        );
        self.telemetry
            .render_prometheus_histograms(&mut out, "raysearch_router");
        metrics_response(out)
    }

    /// Routes one request: rendezvous-rank the backends for its
    /// [`routing_key`], try them healthy-first in rank order, fail over
    /// on transport errors, give up with a `502` after every backend
    /// has failed once. Ranking time lands in the `route` span; time
    /// spent waiting on backends (across failover attempts) accumulates
    /// into `backend_wait`.
    fn route(&self, req: &Request, trace: &str, spans: &mut SpanSet) -> Response {
        let (target, healthy_first) = spans.time(Span::Route, || {
            let key = routing_key(req);
            let ids = self.backend_ids();
            let ranked = rendezvous_rank(&ids, &key);

            // healthy backends in rank order first; unhealthy ones
            // after, as a last resort (the health view may be stale in
            // both directions)
            let healthy_first: Vec<usize> = ranked
                .iter()
                .copied()
                .filter(|&i| self.backends[i].healthy.load(Ordering::Relaxed))
                .chain(
                    ranked
                        .iter()
                        .copied()
                        .filter(|&i| !self.backends[i].healthy.load(Ordering::Relaxed)),
                )
                .collect();
            (request_target(req), healthy_first)
        });

        let mut attempted = 0usize;
        for idx in healthy_first {
            let backend = &self.backends[idx];
            let Some(addr) = backend.current_addr() else {
                continue;
            };
            attempted += 1;
            // Each attempt is its own trace span: a successful forward
            // is `backend_wait`, a transport failure `failover` — but
            // both accumulate into the `backend_wait` histogram bucket,
            // so the histogram view keeps PR-8 semantics (total time
            // spent waiting on backends, across failover hops).
            let wait_start = spans.elapsed_micros();
            let forwarded = backend.forward(&addr, req, &target, trace);
            let wait_end = spans.elapsed_micros();
            let span_name = if forwarded.is_ok() {
                "backend_wait"
            } else {
                "failover"
            };
            spans.add_interval_as(
                Span::BackendWait,
                span_name,
                wait_start,
                wait_end,
                &[("backend", &backend.id)],
            );
            match forwarded {
                Ok(answer) => {
                    backend.routed.fetch_add(1, Ordering::Relaxed);
                    self.routed_total.fetch_add(1, Ordering::Relaxed);
                    let response = relayed(answer);
                    if response.status == 503 {
                        // the backend's overload answer stands (with its
                        // Retry-After hint); retrying elsewhere would
                        // just spread the overload
                        self.shed_passthrough.fetch_add(1, Ordering::Relaxed);
                    }
                    self.record(req, &target, &response);
                    return response;
                }
                Err(_) => {
                    // transport failure: this backend is gone right now
                    backend.failed.fetch_add(1, Ordering::Relaxed);
                    backend.healthy.store(false, Ordering::Relaxed);
                    self.failover_total.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.no_backend_total.fetch_add(1, Ordering::Relaxed);
        let response =
            Response::error(502, &format!("no backend answered ({attempted} attempted)"));
        self.record(req, &target, &response);
        response
    }

    /// Routes `GET`/`DELETE /jobs/{id}` by the backend affinity embedded
    /// in the id itself: the minting backend's logical index sits in the
    /// high bits ([`job_node`]), so polls and cancels reach the one
    /// process whose [`crate::jobs::JobQueue`] holds the record. No
    /// rendezvous, no failover — the record exists nowhere else, so
    /// retrying a transport error on another backend could only ever
    /// manufacture a misleading `404`.
    fn route_job_by_id(&self, req: &Request, trace: &str, spans: &mut SpanSet) -> Response {
        let target = request_target(req);
        let parsed = spans.time(Span::Route, || {
            req.path.strip_prefix("/jobs/").and_then(parse_job_id)
        });
        let Some(id) = parsed else {
            return Response::error(404, &format!("no such job {:?}", req.path));
        };
        let node = job_node(id) as usize;
        let Some(backend) = self.backends.get(node) else {
            return Response::error(
                404,
                &format!(
                    "job id names backend {node}, but only {} backends are configured",
                    self.backends.len()
                ),
            );
        };
        let Some(addr) = backend.current_addr() else {
            self.no_backend_total.fetch_add(1, Ordering::Relaxed);
            return Response::error(502, &format!("backend {} has no address yet", backend.id));
        };
        let wait_start = spans.elapsed_micros();
        let forwarded = backend.forward(&addr, req, &target, trace);
        let wait_end = spans.elapsed_micros();
        spans.add_interval_as(
            Span::BackendWait,
            if forwarded.is_ok() {
                "backend_wait"
            } else {
                "failover"
            },
            wait_start,
            wait_end,
            &[("backend", &backend.id)],
        );
        match forwarded {
            Ok(answer) => {
                backend.routed.fetch_add(1, Ordering::Relaxed);
                self.routed_total.fetch_add(1, Ordering::Relaxed);
                let response = relayed(answer);
                if response.status == 503 {
                    self.shed_passthrough.fetch_add(1, Ordering::Relaxed);
                }
                if req.method == "GET" && response.status == 200 {
                    // surface the backend-measured queue wait in the
                    // router's own `queue_wait` histogram column
                    if let Some(wait) = serde_json::from_str(&response.body)
                        .ok()
                        .as_ref()
                        .and_then(|doc| doc.get("queue_wait_micros"))
                        .and_then(Value::as_u64)
                    {
                        spans.add(Span::QueueWait, wait);
                    }
                }
                response
            }
            Err(_) => {
                // no failover hop: the record lives on this backend only
                backend.failed.fetch_add(1, Ordering::Relaxed);
                backend.healthy.store(false, Ordering::Relaxed);
                self.no_backend_total.fetch_add(1, Ordering::Relaxed);
                Response::error(502, &format!("backend {} did not answer", backend.id))
            }
        }
    }

    /// `GET /debug/trace/{id}`: the router's stored span tree for the
    /// trace, with each `backend_wait` span's backend-side tree fetched
    /// on demand from that backend's own `/debug/trace/{id}` and
    /// stitched underneath it. Assembly is best-effort: an unreachable
    /// backend or an unsampled backend-side trace leaves the router-side
    /// tree intact rather than failing the whole request.
    fn debug_trace(&self, path: &str) -> Response {
        let id = path.trim_start_matches("/debug/trace/");
        let key = TraceRecorder::key_for(id);
        let Some(mut trace) = self.telemetry.recorder().get(key) else {
            return Response::error(404, &format!("no stored trace {id:?}"));
        };
        let id = trace.trace.clone();
        self.stitch_backend_traces(&mut trace.root, &id);
        Response::ok(trace_json(&trace, "raysearch-router"))
    }

    /// Attaches, under every `backend_wait` child of `root`, the span
    /// tree the named backend stored for the same trace id. The backend
    /// tree is tagged with a `service` attr (so exports can place it in
    /// its own process track) and rebased onto the router's request
    /// clock at the moment the forward started — network time shows up
    /// as the gap between `backend_wait` and the backend's root span.
    fn stitch_backend_traces(&self, root: &mut SpanData, trace: &str) {
        for child in &mut root.children {
            if child.name != "backend_wait" {
                continue;
            }
            let Some(backend_id) = child
                .attrs
                .iter()
                .find(|(k, _)| k == "backend")
                .map(|(_, v)| v.clone())
            else {
                continue;
            };
            let Some(backend) = self.backends.iter().find(|b| b.id == backend_id) else {
                continue;
            };
            if let Some((service, mut sub)) = backend.fetch_trace(trace) {
                sub.attrs.push(("service".to_owned(), service));
                sub.rebase(child.start_micros);
                child.children.push(sub);
            }
        }
    }

    fn record(&self, req: &Request, target: &str, response: &Response) {
        let Some(recorder) = &self.recorder else {
            return;
        };
        if !is_recordable(&req.path) {
            return;
        }
        let body = String::from_utf8_lossy(&req.body);
        let entry = TapeEntry::observe(recorder.next_tick(), &req.method, target, &body, response);
        recorder.record(&entry);
    }
}

impl Handler for RouterState {
    fn handle(&self, req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let trace = self.telemetry.trace_for(req);
        let mut spans = SpanSet::start();
        let response = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/stats") => Response::ok(self.stats_doc().to_json_string()),
            ("GET", "/metrics") => self.metrics(),
            ("GET", "/debug/slow") => Response::ok(self.telemetry.slow_log_json()),
            ("GET", "/debug/trace") => Response::ok(trace_index_json(self.telemetry.recorder())),
            ("GET", path) if path.starts_with("/debug/trace/") => self.debug_trace(path),
            // poll/cancel follow the id's embedded backend affinity;
            // POST /jobs falls through to route(), whose routing_key
            // unwraps the envelope and keys on the payload it carries
            ("GET" | "DELETE", path) if path.starts_with("/jobs/") => {
                self.route_job_by_id(req, &trace, &mut spans)
            }
            _ => self.route(req, &trace, &mut spans),
        };
        let status = response.status;
        self.telemetry.observe(req, &trace, status, spans);
        // the echo is attached after recording: tape digests are
        // body-only, and the tape entry was captured inside route()
        response.with_header(TRACE_HEADER, trace)
    }

    fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A backend's answer as the router relays it: status, body and
/// headers verbatim, minus `connection` and `content-length` (the
/// router's own writer sets both) and the backend's trace echo (the
/// router attaches its own).
fn relayed((status, headers, body): FullResponse) -> Response {
    Response {
        status,
        body,
        headers: headers
            .into_iter()
            .filter(|(name, _)| {
                !matches!(
                    name.as_str(),
                    "connection" | "content-length" | TRACE_HEADER
                )
            })
            .collect(),
    }
}

/// Reconstructs the request target (`path?query`) for forwarding.
#[must_use]
pub fn request_target(req: &Request) -> String {
    let mut target = req.path.clone();
    for (i, (k, v)) in req.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(k);
        if !v.is_empty() {
            target.push('=');
            target.push_str(v);
        }
    }
    target
}

/// Spawns the background health thread: one
/// [`check_backends_now`](RouterState::check_backends_now) pass every
/// `interval` until `stop` is set.
pub fn spawn_health_thread(
    state: Arc<RouterState>,
    interval: Duration,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            state.check_backends_now();
            std::thread::sleep(interval);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn rank_is_a_permutation_and_deterministic() {
        let ids = ids(&["backend-0", "backend-1", "backend-2"]);
        for key in ["evaluate:m=2,k=3,f=1,h=10000", "lambda:eta=1.5", ""] {
            let rank = rendezvous_rank(&ids, key);
            let mut sorted = rank.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "key {key:?}");
            assert_eq!(rank, rendezvous_rank(&ids, key), "key {key:?}");
        }
    }

    #[test]
    fn rank_depends_only_on_id_strings_not_order() {
        let a = ids(&["backend-0", "backend-1", "backend-2"]);
        let b = ids(&["backend-2", "backend-0", "backend-1"]);
        for key in ["evaluate:m=2,k=3,f=1,h=10000", "closed_form:m=2,k=5,f=2"] {
            let top_a = rendezvous_rank(&a, key)[0];
            let top_b = rendezvous_rank(&b, key)[0];
            assert_eq!(a[top_a], b[top_b], "key {key:?}");
        }
    }

    #[test]
    fn request_target_reconstructs_the_query() {
        let req = Request {
            method: "GET".to_owned(),
            version: "HTTP/1.1".to_owned(),
            path: "/closed_form".to_owned(),
            query: vec![
                ("k".to_owned(), "3".to_owned()),
                ("f".to_owned(), "1".to_owned()),
                ("flag".to_owned(), String::new()),
            ],
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(request_target(&req), "/closed_form?k=3&f=1&flag");
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_backend_ids_are_rejected() {
        let _ = RouterState::new(
            vec![
                BackendSpec::fixed("b0", "127.0.0.1:1"),
                BackendSpec::fixed("b0", "127.0.0.1:2"),
            ],
            None,
        );
    }
}
