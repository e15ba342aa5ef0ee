//! Endpoint implementations and the shared service state.
//!
//! Every evaluation endpoint is a pure function of its canonicalized
//! parameters, so each one is memoized in the sharded LRU cache behind
//! the canonical key string its `prepare` formats (the same string
//! [`routing_key`] returns). Responses wrap the cached payload as
//! `{"cached": <bool>, "result": <payload>}` — the payload string is
//! byte-for-byte identical between the computing request and every
//! cache hit after it (deterministic JSON bodies), while the `cached`
//! flag reflects this particular request.
//!
//! | endpoint | method | parameters | payload |
//! |---|---|---|---|
//! | `/healthz` | GET | — | service identity (never cached) |
//! | `/stats` | GET | — | request + cache counters (never cached) |
//! | `/closed_form` | GET/POST | `m?`, `k`, `f` *or* `eta` | regime + `A(m,k,f)` / `Λ(η)` |
//! | `/evaluate` | POST | `m?`, `k`, `f`, `horizon?` | exact [`EvalReport`](raysearch_core::EvalReport) |
//! | `/verdict` | POST | `m?`, `k`, `f`, `horizon?`, `eps?` | [`TightnessReport`](raysearch_core::TightnessReport) |
//! | `/campaign` | POST | `id`, `max_k?`, `threads?` | schema-v1 report rows |
//! | `/montecarlo` | POST | `m?`, `k`, `f`, `horizon?`, `samples?`, `seed?`, `faults?`, `p?` | [`McReport`](raysearch_mc::McReport) + closed-form comparison |
//! | `/jobs` | POST | endpoint payload + `endpoint` tag, `client?` | `202 {id, state}` (async job, never cached) |
//! | `/jobs/{id}` | GET | `wait_micros?` (long-poll) | the job record; `result` bytes match the synchronous endpoint |
//! | `/jobs/{id}` | DELETE | — | cancels a still-queued job |
//!
//! Every memoizable endpoint parses into a `Prepared` computation
//! (key + validated compute closure) and resolves through one shared
//! execute path — the synchronous handlers inline, the job tier on a
//! compute worker, which runs the very `Prepared` its admission built —
//! so a job's `result` payload is byte-identical to the synchronous
//! response for the same parameters. The same `prepare` derives the
//! router's [`routing_key`], and one envelope unwrap (`unwrap_job`)
//! serves job admission and routing alike, so request canonicalisation
//! is decided once, here, for both tiers.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use raysearch_bounds::{lambda_big, RayInstance, Regime};
use raysearch_core::cache::{CacheStats, ShardedLru};
use raysearch_core::{
    evaluate_optimal_cached, verdict::verify_tightness_cached, CanonF64, CompileCache, CompileMemo,
    CompiledFleet, CoreError, FleetKey,
};
use raysearch_mc::{FaultSampler, McConfig, Scenario, TargetSampler};
use serde_json::{Map, Value};

use crate::http::{Request, Response};
use crate::jobs::{
    format_job_id, parse_job_id, CancelError, CostClass, JobConfig, JobQueue, JobRecord, JobSpec,
    SubmitError,
};
use crate::server::Handler;
use crate::telemetry::{
    counter, gauge, metrics_response, trace_index_json, trace_json, write_families, write_stats,
    Metric, Span, SpanSet, Telemetry, TRACE_HEADER,
};

/// Default evaluation horizon when a request omits `horizon`.
pub const DEFAULT_HORIZON: f64 = 1e4;
/// Default falsification margin when a `/verdict` request omits `eps`.
pub const DEFAULT_EPS: f64 = 1e-2;
/// Default `k`-axis ceiling for `/campaign` requests.
pub const DEFAULT_CAMPAIGN_MAX_K: u32 = 4;
/// Hard ceiling for `/campaign`'s `max_k` — a grid request is served
/// inline by a worker thread, so its size must stay bounded.
pub const MAX_CAMPAIGN_MAX_K: u32 = 12;
/// Serving ceiling for `k` on `/evaluate` and `/verdict`. Fleets
/// compile from a turn stream stopped at the horizon, which is finite
/// at any fleet size (linear tours overflow to an error from `k ≈ 139`
/// at deep horizons), so this is purely a bounded-work ceiling: compute grows
/// superlinearly in `k`, and one `k = 4096` deep-horizon request is
/// already seconds of worker time.
pub const MAX_INSTANCE_K: u32 = 4096;
/// Serving ceiling for `m` on `/evaluate` and `/verdict` — like
/// [`MAX_INSTANCE_K`] a bounded-work limit, not a numeric one, raised
/// from the overflow-era 128. It stays below the `k` ceiling because
/// per-request memory carries an `m × k` piece table.
pub const MAX_INSTANCE_M: u32 = 512;
/// Bounded-work envelope for one inline `/evaluate` / `/verdict`
/// request: the evaluator walks `k` tours of `O(m·(f+2))` excursions
/// each, so `k·m·(f+2)` is proportional to worker time. The cap admits
/// the heaviest supported large-fleet instance (`m = 2`, `k = 4096`,
/// `f = k−1` ≈ 34M units, seconds of compute) while rejecting shapes
/// that would tie up a fixed-pool worker for minutes.
pub const MAX_EVAL_WORK: u64 = 1 << 26;
/// Serving ceiling for `horizon` on `/evaluate` and `/verdict`.
pub const MAX_HORIZON: f64 = 1e15;
/// Default Monte-Carlo sample budget when a `/montecarlo` request omits
/// `samples`.
pub const DEFAULT_MC_SAMPLES: u64 = 20_000;
/// Serving ceiling for `/montecarlo`'s `samples` — one request is served
/// inline by a worker thread, so its budget must stay bounded.
pub const MAX_MC_SAMPLES: u64 = 200_000;
/// Bounded-work envelope for one `/montecarlo` request: each sample
/// costs one first-visit lookup per robot, so `samples·k` is
/// proportional to worker time. The cap preserves the historical
/// heaviest request (200k samples at the old `k = 128` ceiling is
/// 25.6M) while keeping the raised fleet ceiling honest — `k = 4096`
/// is served with proportionally smaller sample budgets.
pub const MAX_MC_WORK: u64 = 1 << 25;
/// Default master seed when a `/montecarlo` request omits `seed`.
pub const DEFAULT_MC_SEED: u64 = 1707;
/// Monte-Carlo samples per cell when `/campaign` runs E11: 12 cells run
/// inline on one worker thread, so the whole request stays within the
/// same bounded-work envelope as a single `/montecarlo` request.
pub const CAMPAIGN_MC_SAMPLES: u64 = 5_000;
/// Default per-robot fault probability for the `iid` and `byzantine`
/// fault models.
pub const DEFAULT_MC_P: f64 = 0.1;
/// Capacity of the compiled-fleet memo tier (entries, LRU). Artifacts
/// are keyed by fleet geometry (`FleetKey`), so one entry serves every
/// `/evaluate`, `/verdict` and `/montecarlo` request for the same
/// instance and horizon; trivial-regime instances that differ only in
/// `f` share one zone-partition entry. The entry count does not bound
/// bytes: the heaviest admitted request, `(m, k, f, horizon)` =
/// `(512, 4096, 30, 1e15)`, compiles 5,714,432 pieces and holds 306 MB
/// resident, or 385 MB by vector capacity, so 64 such entries would
/// hold 19.6–24.6 GB.
pub const COMPILE_CACHE_CAPACITY: usize = 64;
/// Shards of the compiled-fleet memo tier.
pub const COMPILE_CACHE_SHARDS: usize = 8;

/// The endpoints a job may target (`POST /jobs` with this `endpoint`
/// tag). `/closed_form` and `/verdict` stay synchronous-only: they are
/// microsecond-scale and gain nothing from queueing.
pub const JOB_ENDPOINTS: &[&str] = &["evaluate", "montecarlo", "campaign"];

/// Ceiling for `GET /jobs/{id}?wait_micros=` long-polls, so a poll can
/// never pin an HTTP worker much longer than the acceptor's own read
/// timeout.
pub const MAX_JOB_WAIT_MICROS: u64 = 5_000_000;

/// The endpoint names, the single source of truth for dispatch, the
/// 405-vs-404 distinction, and the `/healthz` advertisement.
pub const ENDPOINTS: &[&str] = &[
    "closed_form",
    "evaluate",
    "verdict",
    "campaign",
    "montecarlo",
    "jobs",
    "healthz",
    "stats",
    "metrics",
    "debug/slow",
    "debug/trace",
];

/// Derives the canonical routing key for one request — the string a
/// consistent-hash router rendezvous-scores backends against.
///
/// The key is the canonical string the backend itself would cache the
/// request under: the endpoint comes from the path (whatever the
/// method), a `POST /jobs` envelope is unwrapped by the same
/// `unwrap_job` the job tier admits it with, and the parameters go
/// through the endpoint's own `prepare`. So every spelling of the same
/// logical request — query string vs JSON body, `1e4` vs `10000`, a job
/// vs its synchronous twin — routes to the backend holding its memo
/// entry, by construction. Requests `prepare` rejects (unknown paths,
/// malformed or out-of-range parameters: the backend answers them with
/// an error, never from the cache) fall back to a raw
/// `raw:method:path?query:body` key: they still route
/// *deterministically* (a replayed tape reproduces shard placement
/// exactly), they just cannot share a shard with a well-formed spelling.
pub fn routing_key(req: &Request) -> String {
    let endpoint = req.path.strip_prefix('/').unwrap_or_default();
    let prepared = if endpoint == "jobs" {
        unwrap_job(req).and_then(|job| prepare(&job.endpoint, &job.params))
    } else {
        RequestParams::from(req).and_then(|params| prepare(endpoint, &params))
    };
    if let Ok(prepared) = prepared {
        return prepared.key;
    }
    let mut raw = format!("raw:{}:{}", req.method, req.path);
    for (i, (k, v)) in req.query.iter().enumerate() {
        raw.push(if i == 0 { '?' } else { '&' });
        raw.push_str(k);
        raw.push('=');
        raw.push_str(v);
    }
    raw.push(':');
    raw.push_str(&String::from_utf8_lossy(&req.body));
    raw
}

/// An endpoint failure: an HTTP status plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status to respond with.
    pub status: u16,
    /// The message for the `{"error": ...}` body.
    pub message: String,
}

impl ApiError {
    fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }
}

/// The backend's metric registry: every counter and gauge `raysearchd`
/// exports, in `/stats` order. Its `/stats` and `/metrics` (prefix
/// `raysearchd`) both render from this table, and the router re-exports
/// it per backend (prefix `raysearch_router_backend`).
pub static SERVICE_METRICS: [Metric<ServiceState>; 24] = [
    counter(
        "requests_total",
        "Requests dispatched by this backend.",
        |s| Some(s.requests_total()),
    ),
    counter(
        "shed_total",
        "Connections shed with a 503 by the acceptor.",
        |s| Some(s.shed_total()),
    ),
    gauge(
        "uptime_micros",
        "Microseconds since this backend started.",
        |s| Some(s.started.elapsed().as_micros() as u64),
    ),
    gauge(
        "uptime_seconds",
        "Seconds since this backend started.",
        |s| Some(s.started.elapsed().as_secs()),
    ),
    counter(
        "cache.hits",
        "Result-cache lookups answered from the cache.",
        |s| Some(s.cache_stats().hits),
    ),
    counter(
        "cache.misses",
        "Result-cache lookups that had to compute.",
        |s| Some(s.cache_stats().misses),
    ),
    counter(
        "cache.evictions",
        "Result-cache entries displaced to make room.",
        |s| Some(s.cache_stats().evictions),
    ),
    gauge(
        "cache.entries",
        "Result-cache entries currently resident.",
        |s| Some(s.cache_stats().entries as u64),
    ),
    gauge(
        "cache.capacity",
        "Result-cache capacity, summed over shards.",
        |s| Some(s.cache_stats().capacity as u64),
    ),
    gauge("cache.shards", "Result-cache shards.", |s| {
        Some(s.cache_stats().shards as u64)
    }),
    counter(
        "compile_hits",
        "Compile-tier lookups answered from the memo.",
        |s| Some(s.compile_stats().hits),
    ),
    counter(
        "compile_misses",
        "Compile-tier lookups that had to build a fleet.",
        |s| Some(s.compile_stats().misses),
    ),
    gauge(
        "compile_entries",
        "Compiled-fleet artifacts currently resident.",
        |s| Some(s.compile_stats().entries as u64),
    ),
    gauge("jobs.queued", "Jobs currently waiting in the queue.", |s| {
        Some(s.jobs.snapshot().queued)
    }),
    gauge(
        "jobs.running",
        "Jobs currently executing on a compute worker.",
        |s| Some(s.jobs.snapshot().running),
    ),
    gauge(
        "jobs.stored",
        "Job records currently resident in the store.",
        |s| Some(s.jobs.snapshot().stored),
    ),
    counter("jobs.submitted", "Jobs admitted by POST /jobs.", |s| {
        Some(s.jobs.snapshot().submitted)
    }),
    counter("jobs.completed", "Jobs that reached the done state.", |s| {
        Some(s.jobs.snapshot().completed)
    }),
    counter("jobs.failed", "Jobs that reached the failed state.", |s| {
        Some(s.jobs.snapshot().failed)
    }),
    counter(
        "jobs.cancelled",
        "Queued jobs cancelled before execution.",
        |s| Some(s.jobs.snapshot().cancelled),
    ),
    counter(
        "jobs.rejected",
        "Job submissions shed by admission control.",
        |s| Some(s.jobs.snapshot().rejected),
    ),
    counter(
        "jobs.evicted",
        "Terminal job records evicted from the bounded store.",
        |s| Some(s.jobs.snapshot().evicted),
    ),
    gauge(
        "traces_stored",
        "Completed span traces resident in the trace ring.",
        |s| Some(s.telemetry.recorder().stored()),
    ),
    counter(
        "traces_dropped_total",
        "Span traces evicted from the bounded trace ring.",
        |s| Some(s.telemetry.recorder().dropped_total()),
    ),
];

/// Shared state of one server instance: the result memo cache, the
/// compiled-fleet memo tier beneath it, and counters.
///
/// The two tiers cache different things: the result LRU holds finished
/// payload *strings* keyed by the full request identity (the canonical
/// key string `prepare` formats, including `f`, `eps`, seeds…), while
/// the compile tier holds shared [`CompiledFleet`] artifacts keyed by
/// geometry alone ([`FleetKey`]).
/// A result-cache miss that shares geometry with an earlier request —
/// same `(m, k, horizon)`, different `f` in the trivial regime, or a
/// `/verdict` after an `/evaluate` — still skips recompilation.
#[derive(Debug)]
pub struct ServiceState {
    cache: ShardedLru<String, String>,
    compile: CompileMemo,
    started: Instant,
    requests: AtomicU64,
    shed: AtomicU64,
    telemetry: Telemetry,
    jobs: JobQueue,
}

/// The compile tier as one request sees it: the shared [`CompileMemo`]
/// behind the core's [`CompileCache`] seam, so `_cached` entry points
/// can consume it directly, timing the request's own fleet builds
/// (never memo hits) into `compile_micros` for the compile span.
pub(crate) struct CompileTier<'a> {
    memo: &'a CompileMemo,
    compile_micros: &'a Cell<u64>,
}

impl CompileCache for CompileTier<'_> {
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        self.memo.get_or_compile(key, &mut || {
            let before = Instant::now();
            let built = build();
            let micros = before.elapsed().as_micros() as u64;
            self.compile_micros.set(self.compile_micros.get() + micros);
            built
        })
    }
}

impl ServiceState {
    /// Creates service state with a memo cache of `capacity` entries
    /// over `shards` shards (the compile tier is sized independently by
    /// [`COMPILE_CACHE_CAPACITY`] / [`COMPILE_CACHE_SHARDS`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::with_jobs(capacity, shards, JobConfig::default())
    }

    /// [`ServiceState::new`] with an explicit job-tier configuration
    /// (queue depth, store capacity, admission limits, cost threshold,
    /// node index, compute-worker count).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    pub fn with_jobs(capacity: usize, shards: usize, jobs: JobConfig) -> Self {
        ServiceState {
            cache: ShardedLru::new(capacity, shards),
            compile: CompileMemo::bounded(COMPILE_CACHE_CAPACITY, COMPILE_CACHE_SHARDS),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            telemetry: Telemetry::new(),
            jobs: JobQueue::new(jobs),
        }
    }

    /// The job subsystem (admission queue + record store) behind the
    /// `/jobs` endpoints, shared with the compute-worker pool.
    #[must_use]
    pub fn jobs(&self) -> &JobQueue {
        &self.jobs
    }

    /// The service's telemetry registry (trace minting, span
    /// histograms, slow log) — exposed so binaries can apply
    /// `--slow-log-micros` and tests can assert on recorded counts.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Snapshot of the result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot of the compiled-fleet memo tier's counters.
    pub fn compile_stats(&self) -> CacheStats {
        self.compile.cache_stats()
    }

    /// Total requests dispatched so far.
    pub fn requests_total(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Connections shed with a `503` by the acceptor so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Computes (or recalls) the deterministic payload for `key`.
    /// Returns the payload JSON string and whether it was a cache hit.
    /// The computation runs outside the shard lock, so other keys are
    /// served meanwhile; concurrent identical requests coalesce into
    /// one computation (the others wait for it and count a hit), and
    /// failed computations are never cached, so a transiently bad
    /// request cannot poison the entry for a later valid one.
    ///
    /// Spans are attributed as it goes: the lookup overhead (total minus
    /// compute) lands in `cache_lookup`, actual fleet builds land in
    /// `compile` (captured inside the [`CompileTier`] handed to
    /// `compute`), and the rest of the compute closure lands in
    /// `evaluate`. Cache hits record only `cache_lookup`.
    fn memoized_spanned(
        &self,
        spans: &mut SpanSet,
        key: String,
        compute: impl FnOnce(&CompileTier) -> Result<String, ApiError>,
    ) -> Result<(String, bool), ApiError> {
        let compute_micros = Cell::new(0u64);
        let compile_micros = Cell::new(0u64);
        let entered = spans.elapsed_micros();
        let result = self.cache.try_get_or_insert_with(key, || {
            let started = Instant::now();
            let tier = CompileTier {
                memo: &self.compile,
                compile_micros: &compile_micros,
            };
            let out = compute(&tier);
            compute_micros.set(started.elapsed().as_micros() as u64);
            out
        });
        let total = spans.elapsed_micros().saturating_sub(entered);
        let compute_t = compute_micros.get();
        let compile_t = compile_micros.get();
        let hit = if matches!(&result, Ok((_, true))) {
            "true"
        } else {
            "false"
        };
        // attribute the block as three consecutive intervals — lookup
        // overhead, then compile, then the rest of the compute — so the
        // trace tree shows disjoint, ordered children whose durations
        // sum to the measured block
        let lookup_end = entered + total.saturating_sub(compute_t);
        spans.add_interval(Span::CacheLookup, entered, lookup_end, &[("hit", hit)]);
        if compute_t > 0 {
            let compile_end = lookup_end + compile_t;
            spans.add_interval(Span::Compile, lookup_end, compile_end, &[]);
            spans.add_interval(
                Span::Evaluate,
                compile_end,
                compile_end + compute_t.saturating_sub(compile_t),
                &[],
            );
        }
        result
    }

    /// Dispatches one parsed request to its endpoint. Infallible at the
    /// HTTP layer: endpoint errors become JSON error responses. Every
    /// response echoes the request's `x-raysearch-trace` id (minted
    /// here when the client sent none), and the request's span set is
    /// recorded into the telemetry registry.
    pub fn handle(&self, req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let trace = self.telemetry.trace_for(req);
        let mut spans = SpanSet::start();
        let result = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Ok(self.healthz()),
            ("GET", "/stats") => Ok(Response::ok(self.stats_doc().to_json_string())),
            ("GET", "/metrics") => Ok(self.metrics()),
            ("GET", "/debug/slow") => Ok(Response::ok(self.telemetry.slow_log_json())),
            ("GET", "/debug/trace") => {
                Ok(Response::ok(trace_index_json(self.telemetry.recorder())))
            }
            ("GET", path) if path.starts_with("/debug/trace/") => Ok(self.debug_trace(path)),
            ("GET" | "POST", "/closed_form") => self.sync_endpoint("closed_form", req, &mut spans),
            ("POST", "/evaluate") => self.sync_endpoint("evaluate", req, &mut spans),
            ("POST", "/verdict") => self.sync_endpoint("verdict", req, &mut spans),
            ("POST", "/campaign") => self.sync_endpoint("campaign", req, &mut spans),
            ("POST", "/montecarlo") => self.sync_endpoint("montecarlo", req, &mut spans),
            ("POST", "/jobs") => self.submit_job(req, &mut spans),
            ("GET", path) if path.starts_with("/jobs/") => self.poll_job(req, path),
            ("DELETE", path) if path.starts_with("/jobs/") => self.cancel_job(path),
            (_, path)
                if path
                    .strip_prefix('/')
                    .is_some_and(|p| ENDPOINTS.contains(&p)) =>
            {
                Err(ApiError {
                    status: 405,
                    message: format!("method {} not allowed for {}", req.method, req.path),
                })
            }
            (_, path) => Err(ApiError {
                status: 404,
                message: format!("no such endpoint {path:?}"),
            }),
        };
        let response = match result {
            Ok(response) => response,
            Err(e) => Response::error(e.status, &e.message),
        };
        let status = response.status;
        self.telemetry.observe(req, &trace, status, spans);
        response.with_header(TRACE_HEADER, trace)
    }

    /// `GET /debug/trace/{id}`: the stored span tree for one trace id,
    /// or a 404 when the id was never sampled (or has been evicted from
    /// the bounded ring).
    fn debug_trace(&self, path: &str) -> Response {
        let id = path.strip_prefix("/debug/trace/").unwrap_or_default();
        let key = raysearch_core::TraceRecorder::key_for(id);
        match self.telemetry.recorder().get(key) {
            Some(trace) => Response::ok(trace_json(&trace, "raysearchd")),
            None => Response::error(404, &format!("no stored trace {id:?}")),
        }
    }

    fn healthz(&self) -> Response {
        let mut doc = Map::new();
        doc.insert("status".to_owned(), Value::String("ok".to_owned()));
        doc.insert("service".to_owned(), Value::String("raysearchd".to_owned()));
        doc.insert("paper".to_owned(), Value::String("1707.05077".to_owned()));
        doc.insert(
            "endpoints".to_owned(),
            Value::Array(
                ENDPOINTS
                    .iter()
                    .map(|e| Value::String((*e).to_owned()))
                    .collect(),
            ),
        );
        Response::ok(Value::Object(doc).to_json_string())
    }

    /// This backend's `/stats` document: every [`SERVICE_METRICS`] row.
    fn stats_doc(&self) -> Value {
        let mut doc = Map::new();
        write_stats(&mut doc, &SERVICE_METRICS, self);
        Value::Object(doc)
    }

    /// The service's `GET /metrics`: every [`SERVICE_METRICS`] row as a
    /// `raysearchd_` family, then the per-endpoint span latency
    /// histograms.
    fn metrics(&self) -> Response {
        let mut out = String::new();
        let doc = self.stats_doc();
        write_families(
            &mut out,
            "raysearchd",
            &SERVICE_METRICS,
            &[(String::new(), &doc)],
        );
        self.telemetry
            .render_prometheus_histograms(&mut out, "raysearchd");
        metrics_response(out)
    }

    /// One synchronous memoizable endpoint, end to end: parse and
    /// validate into a [`Prepared`] computation, resolve it through the
    /// shared execute path, wrap the payload. This replaced five
    /// near-identical inline match arms — the per-endpoint logic now
    /// lives entirely in the `prepare_*` fns, and the cache-wrap /
    /// error-mapping block exists exactly once.
    fn sync_endpoint(
        &self,
        endpoint: &str,
        req: &Request,
        spans: &mut SpanSet,
    ) -> Result<Response, ApiError> {
        let prepared = spans.time(Span::Parse, || {
            prepare(endpoint, &RequestParams::from(req)?)
        })?;
        let (payload, cached) = self.execute(spans, prepared)?;
        Ok(spans.time(Span::Serialize, || wrap(payload, cached)))
    }

    /// The single shared execute fn: resolves a [`Prepared`] computation
    /// through the memo cache with span attribution. Synchronous
    /// handlers and job compute workers both end here, which is what
    /// keeps a job's `result` payload byte-identical to the synchronous
    /// response and lets both routes share the memo/compile caches.
    fn execute(&self, spans: &mut SpanSet, prepared: Prepared) -> Result<(String, bool), ApiError> {
        self.memoized_spanned(spans, prepared.key, prepared.compute)
    }

    /// One compute worker: drains the job queue until `stop` is set,
    /// recording each job's queue wait, running the `Prepared`
    /// computation its admission built through the same `execute` as
    /// the synchronous endpoint, and recording the compute spans under
    /// the `/jobs` endpoint label. Panics inside a job are caught and
    /// parked as a `Failed` outcome so one poisoned payload cannot take
    /// a worker down.
    pub fn run_compute_worker(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            let Some((id, prepared, wait)) = self.jobs.next_job(Duration::from_millis(50)) else {
                continue;
            };
            self.telemetry.record_span("/jobs", Span::QueueWait, wait);
            let mut spans = SpanSet::start();
            let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.execute(&mut spans, prepared)
            })) {
                Ok(Ok(pair)) => Ok(pair),
                Ok(Err(e)) => Err((e.status, e.message)),
                Err(_) => Err((500, "job execution panicked".to_owned())),
            };
            for span in [Span::CacheLookup, Span::Compile, Span::Evaluate] {
                let micros = spans.get(span);
                if micros > 0 {
                    self.telemetry.record_span("/jobs", span, micros);
                }
            }
            self.jobs.finish(id, outcome);
        }
    }

    /// `POST /jobs`: validate and enqueue an asynchronous job. The body
    /// is the target endpoint's usual JSON payload plus an `endpoint`
    /// tag (and an optional `client` admission label). Accepted jobs
    /// answer `202 {"id", "state"}`; admission refusals shed with
    /// `503` + `Retry-After`, exactly like the acceptor.
    fn submit_job(&self, req: &Request, spans: &mut SpanSet) -> Result<Response, ApiError> {
        let spec = spans.time(Span::Parse, || self.parse_job_spec(req))?;
        match self.jobs.submit(spec) {
            Ok(id) => Ok(Response {
                status: 202,
                body: format!("{{\"id\":\"{}\",\"state\":\"queued\"}}", format_job_id(id)),
                headers: Vec::new(),
            }),
            Err(SubmitError::QueueFull) => Ok(Response::shed("job queue is full, try again")),
            Err(SubmitError::ClientLimit) => {
                Ok(Response::shed("per-client job limit reached, try again"))
            }
            Err(SubmitError::Closed) => Ok(Response::shed("job queue is shut down")),
        }
    }

    /// Parses and eagerly validates a job submission: the envelope must
    /// unwrap (see `unwrap_job`), the target's parameters must
    /// `prepare` (so a malformed payload 400s here instead of becoming
    /// a `Failed` record later), and an `evaluate` job must clear the
    /// configured cost threshold — cheap evaluations belong on the
    /// synchronous endpoint. The spec carries the prepared computation
    /// itself, which the compute worker runs as is.
    fn parse_job_spec(&self, req: &Request) -> Result<JobSpec, ApiError> {
        let job = unwrap_job(req)?;
        let prepared = prepare(&job.endpoint, &job.params)?;
        let threshold = self.jobs.config().cost_threshold;
        if prepared.cost < threshold {
            return Err(ApiError::bad_request(format!(
                "instance work k·m·(f+2) = {} is below the job cost threshold {threshold}; \
                 use the synchronous POST /evaluate instead",
                prepared.cost
            )));
        }
        Ok(JobSpec {
            class: CostClass::for_endpoint(&job.endpoint),
            endpoint: job.endpoint,
            client: job.client,
            prepared,
        })
    }

    /// `GET /jobs/{id}`: one record as JSON. With `?wait_micros=` the
    /// response long-polls — it is held back (up to
    /// [`MAX_JOB_WAIT_MICROS`]) until the job reaches a terminal state,
    /// so a client can follow submit with a single blocking poll
    /// instead of a busy loop.
    fn poll_job(&self, req: &Request, path: &str) -> Result<Response, ApiError> {
        let id = parse_job_path(path)?;
        let wait = match req.query_param("wait_micros") {
            None => 0,
            Some(raw) => raw.parse::<u64>().map_err(|_| {
                ApiError::bad_request(format!("wait_micros is not an integer: {raw:?}"))
            })?,
        };
        let record = if wait > 0 {
            self.jobs
                .wait(id, Duration::from_micros(wait.min(MAX_JOB_WAIT_MICROS)))
        } else {
            self.jobs.get(id)
        };
        match record {
            Some(record) => Ok(Response::ok(job_json(&record))),
            None => Err(ApiError {
                status: 404,
                message: format!("no such job {path:?}"),
            }),
        }
    }

    /// `DELETE /jobs/{id}`: cancels a still-queued job. Running and
    /// terminal jobs conflict (`409`) — a result is immutable once a
    /// worker has picked the job up.
    fn cancel_job(&self, path: &str) -> Result<Response, ApiError> {
        let id = parse_job_path(path)?;
        match self.jobs.cancel(id) {
            Ok(()) => Ok(Response::ok(format!(
                "{{\"id\":\"{}\",\"state\":\"cancelled\"}}",
                format_job_id(id)
            ))),
            Err(CancelError::NotFound) => Err(ApiError {
                status: 404,
                message: format!("no such job {path:?}"),
            }),
            Err(CancelError::NotCancellable(state)) => Err(ApiError {
                status: 409,
                message: format!(
                    "job is {}; only queued jobs can be cancelled",
                    state.label()
                ),
            }),
        }
    }
}

impl Handler for ServiceState {
    fn handle(&self, req: &Request) -> Response {
        ServiceState::handle(self, req)
    }

    fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    fn start_background(
        self: Arc<Self>,
        stop: Arc<AtomicBool>,
    ) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.jobs.config().workers.max(1))
            .map(|_| {
                let state = Arc::clone(&self);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || state.run_compute_worker(&stop))
            })
            .collect()
    }

    fn stop_background(&self) {
        self.jobs.close();
    }
}

/// Wraps a deterministic payload with the per-request `cached` flag.
fn wrap(payload: String, cached: bool) -> Response {
    Response::ok(format!("{{\"cached\":{cached},\"result\":{payload}}}"))
}

/// The boxed compute half of a [`Prepared`] computation. Captures only
/// owned, validated parameters — never the request — so it can run
/// later on a compute worker.
type ComputeFn = Box<dyn FnOnce(&CompileTier) -> Result<String, ApiError> + Send>;

/// A fully validated, ready-to-run computation: the memo key it caches
/// under, a `k·m·(f+2)`-style work estimate (used by the `/jobs` cost
/// threshold; endpoints that are always job-eligible report
/// `u64::MAX`, synchronous-only ones `0`), and the compute closure.
/// The `prepare_*` fns perform *all* parameter validation up front, so
/// executing a `Prepared` can only fail inside the computation itself;
/// a job's `Prepared` waits in the queue and runs on a compute worker.
///
/// The key is the canonical string the router also routes on, e.g.
/// `evaluate:m=2,k=600,f=599,h=1000000000000`. Integer fields print
/// exactly and float fields go through [`CanonF64`]'s shortest
/// round-trip `Display`, which is injective on the canonicalized
/// (NaN-free, `-0.0`-free) domain, so distinct computations never share
/// a key, while spellings of one instance (`1e4` vs `10000`) do.
pub(crate) struct Prepared {
    pub(crate) key: String,
    pub(crate) cost: u64,
    pub(crate) compute: ComputeFn,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("key", &self.key)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

/// Parses and validates one memoizable endpoint's parameters into a
/// [`Prepared`] computation — the single seam the synchronous handlers,
/// the job tier and the router's [`routing_key`] all go through.
fn prepare(endpoint: &str, params: &RequestParams) -> Result<Prepared, ApiError> {
    match endpoint {
        "closed_form" => prepare_closed_form(params),
        "evaluate" => prepare_evaluate(params),
        "verdict" => prepare_verdict(params),
        "campaign" => prepare_campaign(params),
        "montecarlo" => prepare_montecarlo(params),
        other => Err(ApiError::bad_request(format!("unknown endpoint {other:?}"))),
    }
}

fn prepare_closed_form(params: &RequestParams) -> Result<Prepared, ApiError> {
    if let Some(eta) = params.opt_f64("eta")? {
        return Ok(Prepared {
            key: format!("lambda:eta={}", canon(eta, "eta")?),
            cost: 0,
            compute: Box::new(move |_tier| {
                let lambda =
                    lambda_big(eta).map_err(|e| ApiError::bad_request(format!("lambda: {e}")))?;
                let mut doc = Map::new();
                doc.insert("eta".to_owned(), Value::Float(eta));
                doc.insert("lambda".to_owned(), Value::Float(lambda));
                Ok(Value::Object(doc).to_json_string())
            }),
        });
    }
    let (m, k, f) = params.instance()?;
    Ok(Prepared {
        key: format!("closed_form:m={m},k={k},f={f}"),
        cost: 0,
        compute: Box::new(move |_tier| {
            let instance = RayInstance::new(m, k, f)
                .map_err(|e| ApiError::bad_request(format!("instance: {e}")))?;
            let (regime, a) = match instance.regime() {
                Regime::Searchable { ratio } => ("searchable", Some(ratio)),
                Regime::Trivial => ("trivial", None),
                Regime::Impossible => ("impossible", None),
            };
            let mut doc = Map::new();
            doc.insert("m".to_owned(), Value::Int(i64::from(m)));
            doc.insert("k".to_owned(), Value::Int(i64::from(k)));
            doc.insert("f".to_owned(), Value::Int(i64::from(f)));
            doc.insert("q".to_owned(), Value::Int(i64::from(instance.q())));
            doc.insert("eta".to_owned(), Value::Float(instance.eta()));
            doc.insert("regime".to_owned(), Value::String(regime.to_owned()));
            doc.insert("a".to_owned(), a.map_or(Value::Null, Value::Float));
            Ok(Value::Object(doc).to_json_string())
        }),
    })
}

fn prepare_evaluate(params: &RequestParams) -> Result<Prepared, ApiError> {
    let (m, k, f) = params.instance()?;
    let horizon = params.opt_f64("horizon")?.unwrap_or(DEFAULT_HORIZON);
    let work = check_eval_limits(m, k, f, horizon)?;
    Ok(Prepared {
        key: format!(
            "evaluate:m={m},k={k},f={f},h={}",
            canon(horizon, "horizon")?
        ),
        cost: work,
        compute: Box::new(move |tier| {
            let report = evaluate_optimal_cached(tier, m, k, f, horizon)
                .map_err(|e| ApiError::bad_request(format!("evaluate: {e}")))?;
            let mut doc = Map::new();
            doc.insert("m".to_owned(), Value::Int(i64::from(m)));
            doc.insert("k".to_owned(), Value::Int(i64::from(k)));
            doc.insert("f".to_owned(), Value::Int(i64::from(f)));
            doc.insert("horizon".to_owned(), Value::Float(horizon));
            doc.insert(
                "report".to_owned(),
                serde_json::to_value(report).expect("EvalReport serializes"),
            );
            Ok(Value::Object(doc).to_json_string())
        }),
    })
}

fn prepare_verdict(params: &RequestParams) -> Result<Prepared, ApiError> {
    let (m, k, f) = params.instance()?;
    let horizon = params.opt_f64("horizon")?.unwrap_or(DEFAULT_HORIZON);
    let eps = params.opt_f64("eps")?.unwrap_or(DEFAULT_EPS);
    check_eval_limits(m, k, f, horizon)?;
    Ok(Prepared {
        key: format!(
            "verdict:m={m},k={k},f={f},h={},eps={}",
            canon(horizon, "horizon")?,
            canon(eps, "eps")?
        ),
        cost: 0,
        compute: Box::new(move |tier| {
            let report = verify_tightness_cached(tier, m, k, f, horizon, eps)
                .map_err(|e| ApiError::bad_request(format!("verdict: {e}")))?;
            Ok(serde_json::to_value(report)
                .expect("TightnessReport serializes")
                .to_json_string())
        }),
    })
}

fn prepare_campaign(params: &RequestParams) -> Result<Prepared, ApiError> {
    let id = params
        .opt_str("id")?
        .ok_or_else(|| ApiError::bad_request("missing parameter \"id\""))?;
    if !raysearch_bench::experiments::ALL.contains(&id.as_str()) {
        return Err(ApiError::bad_request(format!(
            "unknown experiment {id:?} (available: {})",
            raysearch_bench::experiments::ALL.join(", ")
        )));
    }
    let max_k = params
        .opt_u32("max_k")?
        .unwrap_or(DEFAULT_CAMPAIGN_MAX_K)
        .max(1);
    if max_k > MAX_CAMPAIGN_MAX_K {
        return Err(ApiError::bad_request(format!(
            "max_k {max_k} exceeds the serving ceiling {MAX_CAMPAIGN_MAX_K}"
        )));
    }
    // threads shapes only the schedule, never the rows (the campaign
    // engine is deterministic), so it is not part of the cache key
    let threads = params.opt_u32("threads")?.map(|t| t.max(1) as usize);
    Ok(Prepared {
        key: format!("campaign:id={id},max_k={max_k}"),
        cost: u64::MAX,
        compute: Box::new(move |_tier| {
            let cfg = raysearch_bench::experiments::Config {
                max_k,
                threads,
                // bounded like /montecarlo: E11 runs 12 Monte-Carlo
                // cells inline on one worker, so its per-cell budget is
                // pinned far below the suite default (and is a fixed
                // constant, keeping the payload a pure function of
                // (id, max_k))
                mc_samples: CAMPAIGN_MC_SAMPLES,
                ..raysearch_bench::experiments::Config::default()
            };
            let reports = raysearch_bench::experiments::run_experiment(&id, &cfg)
                .expect("id membership checked above");
            let campaigns: Vec<Value> = reports
                .iter()
                .map(|r| {
                    // schema-v1 rows, minus the timing/thread metadata so
                    // the body is a pure function of (id, max_k)
                    let mut doc = Map::new();
                    doc.insert("id".to_owned(), Value::String(r.id().to_owned()));
                    doc.insert("title".to_owned(), Value::String(r.title().to_owned()));
                    doc.insert("cells".to_owned(), Value::Int(r.rows().len() as i64));
                    doc.insert("rows".to_owned(), Value::Array(r.rows().to_vec()));
                    Value::Object(doc)
                })
                .collect();
            let mut doc = Map::new();
            doc.insert("schema_version".to_owned(), Value::Int(1));
            doc.insert("id".to_owned(), Value::String(id.clone()));
            doc.insert("max_k".to_owned(), Value::Int(i64::from(max_k)));
            doc.insert("campaigns".to_owned(), Value::Array(campaigns));
            Ok(Value::Object(doc).to_json_string())
        }),
    })
}

fn prepare_montecarlo(params: &RequestParams) -> Result<Prepared, ApiError> {
    let (m, k, f) = params.instance()?;
    let horizon = params.opt_f64("horizon")?.unwrap_or(DEFAULT_HORIZON);
    check_eval_limits(m, k, f, horizon)?;
    if k > raysearch_mc::MAX_FLEET {
        return Err(ApiError::bad_request(format!(
            "k {k} exceeds the Monte-Carlo fleet ceiling {}",
            raysearch_mc::MAX_FLEET
        )));
    }
    let samples = params.opt_u64("samples")?.unwrap_or(DEFAULT_MC_SAMPLES);
    if samples == 0 || samples > MAX_MC_SAMPLES {
        return Err(ApiError::bad_request(format!(
            "samples {samples} outside the serving range 1..={MAX_MC_SAMPLES}"
        )));
    }
    let work = samples.saturating_mul(u64::from(k));
    if work > MAX_MC_WORK {
        return Err(ApiError::bad_request(format!(
            "sampling work samples·k = {work} exceeds the serving envelope {MAX_MC_WORK}"
        )));
    }
    let seed = params.opt_u64("seed")?.unwrap_or(DEFAULT_MC_SEED);
    let model = params
        .opt_str("faults")?
        .unwrap_or_else(|| "uniform".to_owned());
    let p = params.opt_f64("p")?.unwrap_or(DEFAULT_MC_P);
    let faults = FaultSampler::from_name(&model, f, p).ok_or_else(|| {
        ApiError::bad_request(format!(
            "unknown fault model {model:?} (available: {})",
            FaultSampler::NAMES.join(", ")
        ))
    })?;
    // models without a probability normalize `p` out of the cache
    // key, so spelling variants share one entry
    let p_effective = faults.probability().unwrap_or(0.0);
    // validate *before* touching the cache, so malformed requests
    // never count as misses and can never be cached
    let scenario = Scenario::new(
        m,
        k,
        f,
        horizon,
        faults,
        TargetSampler::LogUniform {
            lo: 1.0,
            hi: horizon,
        },
    )
    .map_err(|e| ApiError::bad_request(format!("montecarlo: {e}")))?;
    Ok(Prepared {
        key: format!(
            "montecarlo:m={m},k={k},f={f},h={},samples={samples},seed={seed},faults={model},p={}",
            canon(horizon, "horizon")?,
            canon(p_effective, "p")?
        ),
        cost: u64::MAX,
        compute: Box::new(move |tier| {
            // one worker thread serves one request: the engine stays
            // sequential here (its result is thread-count invariant, so
            // this choice is invisible in the payload)
            let cfg = McConfig {
                seed,
                samples,
                threads: Some(1),
                ..McConfig::default()
            };
            let report = raysearch_mc::estimate_cached(&scenario, &cfg, tier)
                .map_err(|e| ApiError::bad_request(format!("montecarlo: {e}")))?;
            let mut doc = Map::new();
            doc.insert(
                "report".to_owned(),
                serde_json::to_value(&report).expect("McReport serializes"),
            );
            doc.insert(
                "comparison".to_owned(),
                serde_json::to_value(report.comparison()).expect("comparison serializes"),
            );
            Ok(Value::Object(doc).to_json_string())
        }),
    })
}

/// A `POST /jobs` envelope, unwrapped once for both tiers.
struct JobEnvelope<'a> {
    /// The job-eligible target endpoint.
    endpoint: String,
    /// The admission label (`"anon"` when absent).
    client: String,
    /// The target endpoint's parameters: the envelope's body and query,
    /// read exactly as the synchronous twin reads its own.
    params: RequestParams<'a>,
}

/// Unwraps a `POST /jobs` envelope: the one place either tier reads the
/// `endpoint` tag. The tag, the optional `client` label and the target
/// endpoint's own parameters all come from the body or the query, like
/// any parameter. The body is parsed once, for all of them.
fn unwrap_job(req: &Request) -> Result<JobEnvelope<'_>, ApiError> {
    let params = RequestParams::from(req)?;
    let endpoint = params
        .opt_str("endpoint")?
        .ok_or_else(|| ApiError::bad_request("missing parameter \"endpoint\""))?;
    if !JOB_ENDPOINTS.contains(&endpoint.as_str()) {
        return Err(ApiError::bad_request(format!(
            "endpoint {endpoint:?} is not job-eligible (available: {})",
            JOB_ENDPOINTS.join(", ")
        )));
    }
    let client = params
        .opt_str("client")?
        .unwrap_or_else(|| "anon".to_owned());
    Ok(JobEnvelope {
        endpoint,
        client,
        params,
    })
}

/// Extracts the job id from a `/jobs/{id}` path (404 on malformed ids
/// — they can never name a record).
fn parse_job_path(path: &str) -> Result<u64, ApiError> {
    path.strip_prefix("/jobs/")
        .and_then(parse_job_id)
        .ok_or_else(|| ApiError {
            status: 404,
            message: format!("no such job {path:?}"),
        })
}

/// Renders one job record as the `GET /jobs/{id}` body. Keys are
/// emitted in sorted order like every other endpoint; `cached` /
/// `result` appear once the job is done (with `result` bytes identical
/// to the synchronous endpoint's payload), `error` once it has failed,
/// and the tick fields as the lifecycle reaches them.
fn job_json(rec: &JobRecord) -> String {
    let mut fields: Vec<String> = Vec::new();
    if let Some(Ok((_, cached))) = &rec.result {
        fields.push(format!("\"cached\":{cached}"));
    }
    fields.push(format!("\"class\":\"{}\"", rec.class.label()));
    fields.push(format!("\"endpoint\":\"{}\"", rec.endpoint));
    if let Some(Err((status, message))) = &rec.result {
        fields.push(format!(
            "\"error\":{{\"message\":{},\"status\":{status}}}",
            Value::String(message.clone()).to_json_string()
        ));
    }
    if rec.finished_micros > 0 {
        fields.push(format!("\"finished_micros\":{}", rec.finished_micros));
    }
    fields.push(format!("\"id\":\"{}\"", format_job_id(rec.id)));
    if rec.started_micros > 0 {
        fields.push(format!("\"queue_wait_micros\":{}", rec.queue_wait_micros()));
    }
    if let Some(Ok((payload, _))) = &rec.result {
        fields.push(format!("\"result\":{payload}"));
    }
    if rec.started_micros > 0 {
        fields.push(format!("\"started_micros\":{}", rec.started_micros));
    }
    fields.push(format!("\"state\":\"{}\"", rec.state.label()));
    fields.push(format!("\"submitted_micros\":{}", rec.submitted_micros));
    format!("{{{}}}", fields.join(","))
}

/// Rejects instances an inline evaluation must not attempt: fleet
/// construction cost grows superlinearly in `k` and `m`, so these
/// ceilings (and the `k·m·(f+2)` work envelope) keep one well-formed
/// request from exhausting server memory or monopolizing a worker.
/// Returns the admitted work estimate — the number the `/jobs` cost
/// threshold gates `evaluate` submissions on.
fn check_eval_limits(m: u32, k: u32, f: u32, horizon: f64) -> Result<u64, ApiError> {
    if m > MAX_INSTANCE_M {
        return Err(ApiError::bad_request(format!(
            "m {m} exceeds the serving ceiling {MAX_INSTANCE_M}"
        )));
    }
    if k > MAX_INSTANCE_K {
        return Err(ApiError::bad_request(format!(
            "k {k} exceeds the serving ceiling {MAX_INSTANCE_K}"
        )));
    }
    let work = u64::from(k) * u64::from(m) * (u64::from(f) + 2);
    if work > MAX_EVAL_WORK {
        return Err(ApiError::bad_request(format!(
            "instance work k·m·(f+2) = {work} exceeds the serving envelope {MAX_EVAL_WORK}"
        )));
    }
    // NaN falls through here; canonicalization rejects it right after
    if horizon > MAX_HORIZON {
        return Err(ApiError::bad_request(format!(
            "horizon {horizon} exceeds the serving ceiling {MAX_HORIZON:e}"
        )));
    }
    Ok(work)
}

fn canon(value: f64, name: &str) -> Result<CanonF64, ApiError> {
    CanonF64::new(value).map_err(|e| ApiError::bad_request(format!("{name}: {e}")))
}

/// Uniform access to request parameters: a JSON object body (POST) or
/// query-string parameters (GET), with the body taking precedence.
struct RequestParams<'a> {
    body: Option<Value>,
    query: &'a [(String, String)],
}

impl<'a> RequestParams<'a> {
    fn from(req: &'a Request) -> Result<Self, ApiError> {
        let body = match req.body_utf8() {
            Some(text) if !text.trim().is_empty() => {
                let value = serde_json::from_str(text)
                    .map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))?;
                if !matches!(value, Value::Object(_)) {
                    return Err(ApiError::bad_request("request body must be a JSON object"));
                }
                Some(value)
            }
            Some(_) => None,
            None if req.body.is_empty() => None,
            None => return Err(ApiError::bad_request("request body is not UTF-8")),
        };
        Ok(RequestParams {
            body,
            query: &req.query,
        })
    }

    /// The `(m, k, f)` instance triple; `m` defaults to 2 (the line).
    fn instance(&self) -> Result<(u32, u32, u32), ApiError> {
        let m = self.opt_u32("m")?.unwrap_or(2);
        let k = self
            .opt_u32("k")?
            .ok_or_else(|| ApiError::bad_request("missing parameter \"k\""))?;
        let f = self
            .opt_u32("f")?
            .ok_or_else(|| ApiError::bad_request("missing parameter \"f\""))?;
        Ok((m, k, f))
    }

    fn raw(&self, name: &str) -> Option<Value> {
        let in_body = self.body.as_ref().and_then(|body| body.get(name));
        in_body.cloned().or_else(|| {
            let (_, value) = self.query.iter().find(|(n, _)| n == name)?;
            Some(Value::String(value.clone()))
        })
    }

    fn opt_u32(&self, name: &str) -> Result<Option<u32>, ApiError> {
        match self.raw(name) {
            None => Ok(None),
            Some(Value::Int(i)) => u32::try_from(i)
                .map(Some)
                .map_err(|_| ApiError::bad_request(format!("{name} out of range: {i}"))),
            Some(Value::UInt(u)) => u32::try_from(u)
                .map(Some)
                .map_err(|_| ApiError::bad_request(format!("{name} out of range: {u}"))),
            Some(Value::String(s)) => s
                .parse::<u32>()
                .map(Some)
                .map_err(|_| ApiError::bad_request(format!("{name} is not an integer: {s:?}"))),
            Some(other) => Err(ApiError::bad_request(format!(
                "{name} must be an integer, got {other:?}"
            ))),
        }
    }

    fn opt_u64(&self, name: &str) -> Result<Option<u64>, ApiError> {
        match self.raw(name) {
            None => Ok(None),
            Some(Value::Int(i)) => u64::try_from(i)
                .map(Some)
                .map_err(|_| ApiError::bad_request(format!("{name} out of range: {i}"))),
            Some(Value::UInt(u)) => Ok(Some(u)),
            Some(Value::String(s)) => s
                .parse::<u64>()
                .map(Some)
                .map_err(|_| ApiError::bad_request(format!("{name} is not an integer: {s:?}"))),
            Some(other) => Err(ApiError::bad_request(format!(
                "{name} must be an integer, got {other:?}"
            ))),
        }
    }

    fn opt_f64(&self, name: &str) -> Result<Option<f64>, ApiError> {
        match self.raw(name) {
            None => Ok(None),
            Some(Value::Float(x)) => Ok(Some(x)),
            Some(Value::Int(i)) => Ok(Some(i as f64)),
            Some(Value::UInt(u)) => Ok(Some(u as f64)),
            Some(Value::String(s)) => s
                .parse::<f64>()
                .map(Some)
                .map_err(|_| ApiError::bad_request(format!("{name} is not a number: {s:?}"))),
            Some(other) => Err(ApiError::bad_request(format!(
                "{name} must be a number, got {other:?}"
            ))),
        }
    }

    fn opt_str(&self, name: &str) -> Result<Option<String>, ApiError> {
        match self.raw(name) {
            None => Ok(None),
            Some(Value::String(s)) => Ok(Some(s)),
            Some(other) => Err(ApiError::bad_request(format!(
                "{name} must be a string, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Runs `f` on its own thread and returns its result, or `None` when
    /// it takes longer than 10 s.
    fn within_10s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10)).ok()
    }

    /// `compute`, keyed `slow:test`.
    fn slow(compute: ComputeFn) -> Prepared {
        Prepared {
            key: "slow:test".to_owned(),
            cost: 0,
            compute,
        }
    }

    #[test]
    fn a_computing_request_leaves_its_shard_serving() {
        // one result shard, so every key shares the slow key's shard
        let state = Arc::new(ServiceState::new(64, 1));
        let closed_form = || Request::new("GET", "/closed_form?k=3&f=1", "");
        assert_eq!(state.handle(&closed_form()).status, 200);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<String>();
        let first = {
            let state = Arc::clone(&state);
            let prepared = slow(Box::new(move |_| {
                started_tx.send(()).unwrap();
                Ok(release_rx.recv().unwrap())
            }));
            std::thread::spawn(move || state.execute(&mut SpanSet::start(), prepared))
        };
        started_rx.recv().unwrap();
        let reads = {
            let state = Arc::clone(&state);
            within_10s(move || {
                let cached = state.handle(&closed_form());
                let stats = state.handle(&Request::new("GET", "/stats", ""));
                let hit = cached.body.starts_with("{\"cached\":true,");
                (cached.status, hit, stats.status)
            })
        };
        assert_eq!(reads, Some((200, true, 200)));
        // a second request for the computing key waits, then hits
        let second = {
            let state = Arc::clone(&state);
            let prepared = slow(Box::new(|_| unreachable!("computed twice")));
            std::thread::spawn(move || state.execute(&mut SpanSet::start(), prepared))
        };
        release_tx.send("{\"slow\":true}".to_owned()).unwrap();
        let payload = "{\"slow\":true}".to_owned();
        assert_eq!(first.join().unwrap(), Ok((payload.clone(), false)));
        assert_eq!(second.join().unwrap(), Ok((payload, true)));
        let stats = state.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }
}
