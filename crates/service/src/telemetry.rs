//! The serving-tier observability layer: per-request span timing into a
//! per-endpoint histogram registry, trace-id minting and propagation, a
//! bounded slow-request log, hierarchical span traces, and the metric
//! registry both tiers render `GET /stats` and `GET /metrics` from.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost**: recording a request is a handful of
//!    `Instant::now()` calls plus relaxed atomic adds into
//!    [`LatencyHistogram`]s — no locks on the histogram path (the slow
//!    log's mutex is only taken when a request actually crosses the
//!    threshold, the trace ring's shard lock only when a trace is
//!    kept), no floats.
//! 2. **Determinism**: trace ids come from [`splitmix64`] over a plain
//!    counter, so a `--record` run mints the same id sequence every
//!    time and tapes stay reproducible (response headers never enter
//!    tape digests anyway — see `tape::digest_body`). Trace *sampling*
//!    draws from the same mixer over its own counter, so replaying a
//!    tape keeps the same number of traces at any thread count.
//! 3. **Fixed schema**: endpoints × spans is a small static matrix
//!    ([`ENDPOINT_LABELS`] × [`Span`]), allocated once, so the registry
//!    needs no interior growth and `/metrics` output is stable.
//! 4. **One measurement, two views**: [`SpanSet`] records each span
//!    once and feeds *both* the flat histograms and the hierarchical
//!    span tree stored in the [`TraceRecorder`], so `/metrics` and
//!    `/debug/trace/{id}` can never disagree about a duration.
//! 5. **One table, two views**: each counter or gauge is one [`Metric`]
//!    row in its tier's static table. `/stats` is built from the rows'
//!    readers, and `/metrics` looks every row up in that document by
//!    path under one naming rule ([`Metric::name`]), so a value is in
//!    both views or in neither. The router renders the backend table
//!    over each backend's `/stats` as cached by its health thread, so a
//!    row added there is re-exported with no router-side edit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use raysearch_core::telemetry::{splitmix64, HistogramSnapshot, LatencyHistogram};
use raysearch_core::trace::{CompletedTrace, SpanData, TraceBuilder, TraceRecorder};
use serde_json::{Map, Value};

use crate::http::{Request, Response};

/// The header trace ids ride in, router → backend → response.
pub const TRACE_HEADER: &str = "x-raysearch-trace";

/// Default slow-request threshold in microseconds (0 = log everything).
pub const DEFAULT_SLOW_THRESHOLD_MICROS: u64 = 100_000;

/// Capacity of the bounded slow-request ring buffer.
pub const SLOW_LOG_CAPACITY: usize = 32;

/// The fixed span schema every request records against.
///
/// Not every span fires on every endpoint — a router request has
/// `route`/`backend_wait` but no `compile`; a cached backend hit has
/// `cache_lookup` but no `evaluate`. Zero-duration spans that never
/// fired are simply not recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    /// End-to-end request handling (always recorded).
    Request = 0,
    /// Request-parameter parsing and validation.
    Parse = 1,
    /// Router-side backend ranking and selection.
    Route = 2,
    /// Time spent waiting on a proxied backend response.
    BackendWait = 3,
    /// Result-tier LRU lookup (everything in `memoized_spanned` outside
    /// the compute closure).
    CacheLookup = 4,
    /// Fleet compilation inside the compile tier.
    Compile = 5,
    /// The evaluation compute itself (compute closure minus compile).
    Evaluate = 6,
    /// Response body serialization.
    Serialize = 7,
    /// Time a job spent queued before a compute worker picked it up.
    QueueWait = 8,
}

/// Number of spans in the fixed schema.
pub const SPAN_COUNT: usize = 9;

/// All spans, in registry order.
pub const SPANS: [Span; SPAN_COUNT] = [
    Span::Request,
    Span::Parse,
    Span::Route,
    Span::BackendWait,
    Span::CacheLookup,
    Span::Compile,
    Span::Evaluate,
    Span::Serialize,
    Span::QueueWait,
];

impl Span {
    /// The snake_case label used in metric names and slow-log dumps.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Span::Request => "request",
            Span::Parse => "parse",
            Span::Route => "route",
            Span::BackendWait => "backend_wait",
            Span::CacheLookup => "cache_lookup",
            Span::Compile => "compile",
            Span::Evaluate => "evaluate",
            Span::Serialize => "serialize",
            Span::QueueWait => "queue_wait",
        }
    }
}

/// The fixed endpoint labels the registry shards over. Unknown paths
/// land in `other` so the matrix never grows.
pub const ENDPOINT_LABELS: [&str; 12] = [
    "closed_form",
    "evaluate",
    "verdict",
    "campaign",
    "montecarlo",
    "healthz",
    "stats",
    "metrics",
    "debug_slow",
    "debug_trace",
    "jobs",
    "other",
];

/// Maps a request path to its [`ENDPOINT_LABELS`] index.
#[must_use]
pub fn endpoint_index(path: &str) -> usize {
    match path {
        "/closed_form" => 0,
        "/evaluate" => 1,
        "/verdict" => 2,
        "/campaign" => 3,
        "/montecarlo" => 4,
        "/healthz" => 5,
        "/stats" => 6,
        "/metrics" => 7,
        "/debug/slow" => 8,
        p if p.starts_with("/debug/trace") => 9,
        p if p == "/jobs" || p.starts_with("/jobs/") => 10,
        _ => 11,
    }
}

/// One captured slow request, as dumped by `GET /debug/slow`.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The minted (or propagated) trace id, 16 hex digits.
    pub trace: String,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status.
    pub status: u16,
    /// Per-span durations in microseconds, indexed like [`SPANS`]
    /// (`0` where the span never fired).
    pub spans: [u64; SPAN_COUNT],
}

impl SlowEntry {
    fn to_json(&self) -> String {
        let mut spans = String::new();
        for (i, span) in SPANS.iter().enumerate() {
            if self.spans[i] > 0 {
                if !spans.is_empty() {
                    spans.push(',');
                }
                spans.push_str(&format!("\"{}\":{}", span.label(), self.spans[i]));
            }
        }
        let quote = |s: String| Value::String(s).to_json_string();
        format!(
            "{{\"trace\":{},\"trace_url\":{},\"method\":{},\"path\":{},\"status\":{},\"total_micros\":{},\"spans\":{{{}}}}}",
            quote(self.trace.clone()),
            quote(format!("/debug/trace/{}", self.trace)),
            quote(self.method.clone()),
            quote(self.path.clone()),
            self.status,
            self.spans[Span::Request as usize],
            spans
        )
    }
}

/// Per-request span accumulator: started once at request entry, fed by
/// [`SpanSet::time`] / [`SpanSet::add`], then handed to
/// [`Telemetry::observe`]. Lives on one worker thread's stack — plain
/// `u64`s plus the trace-tree capture, no atomics.
///
/// Every recorded duration lands in two places at once: the flat
/// per-span array (which feeds the endpoint histograms) and a
/// [`SpanData`] child of the request's trace tree. A span may record a
/// different *trace* name than its histogram bucket — the router's
/// failed forward attempts count as `backend_wait` time in the
/// histogram but appear as `failover` spans in the tree.
#[derive(Debug)]
pub struct SpanSet {
    trace: TraceBuilder,
    micros: [u64; SPAN_COUNT],
}

impl Default for SpanSet {
    fn default() -> Self {
        SpanSet::start()
    }
}

impl SpanSet {
    /// Starts the request clock.
    #[must_use]
    pub fn start() -> Self {
        SpanSet {
            trace: TraceBuilder::start(),
            micros: [0; SPAN_COUNT],
        }
    }

    /// Adds `micros` to `span` (spans may fire multiple times per
    /// request, e.g. `backend_wait` across failover attempts). The
    /// trace span is synthesized as ending now.
    pub fn add(&mut self, span: Span, micros: u64) {
        self.add_with_attrs(span, micros, &[]);
    }

    /// Like [`SpanSet::add`], with `key=value` attributes on the trace
    /// span (attributes never affect the histograms).
    pub fn add_with_attrs(&mut self, span: Span, micros: u64, attrs: &[(&str, &str)]) {
        self.micros[span as usize] += micros;
        // the trace span must report the same duration the histogram
        // recorded, so it ends now (or at `micros` if the clock has not
        // advanced that far yet) and extends `micros` backwards
        let end = self.trace.elapsed_micros().max(micros);
        self.record_trace(span.label(), end - micros, end, attrs);
    }

    /// Records `span` over an explicit `[start, end]` interval of the
    /// request clock (see [`SpanSet::elapsed_micros`]) — used when a
    /// measured block is attributed to several consecutive spans after
    /// the fact (cache lookup vs compile vs evaluate).
    pub fn add_interval(
        &mut self,
        span: Span,
        start_micros: u64,
        end_micros: u64,
        attrs: &[(&str, &str)],
    ) {
        self.add_interval_as(span, span.label(), start_micros, end_micros, attrs);
    }

    /// Like [`SpanSet::add_interval`] but names the trace span
    /// `trace_name` instead of `span`'s label — for call sites where the
    /// right name is only known after the measured block returns (a
    /// failed forward is a `failover` span, a successful one
    /// `backend_wait`, but both accumulate into the same histogram).
    pub fn add_interval_as(
        &mut self,
        span: Span,
        trace_name: &str,
        start_micros: u64,
        end_micros: u64,
        attrs: &[(&str, &str)],
    ) {
        self.micros[span as usize] += end_micros.saturating_sub(start_micros);
        self.record_trace(trace_name, start_micros, end_micros, attrs);
    }

    /// Microseconds since the request clock started.
    #[must_use]
    pub fn elapsed_micros(&self) -> u64 {
        self.trace.elapsed_micros()
    }

    /// Times `f` and attributes the elapsed microseconds to `span`.
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        self.time_as(span, span.label(), &[], f)
    }

    /// Times `f`, attributing the duration to `span`'s histogram but
    /// recording the trace span under `trace_name` with `attrs` — the
    /// failover variant.
    pub fn time_as<T>(
        &mut self,
        span: Span,
        trace_name: &str,
        attrs: &[(&str, &str)],
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.trace.elapsed_micros();
        let out = f();
        let end = self.trace.elapsed_micros();
        self.micros[span as usize] += end - start;
        self.record_trace(trace_name, start, end, attrs);
        out
    }

    fn record_trace(&mut self, name: &str, start: u64, end: u64, attrs: &[(&str, &str)]) {
        self.trace.record(SpanData {
            name: name.to_owned(),
            start_micros: start,
            end_micros: end,
            attrs: attrs
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            children: Vec::new(),
        });
    }

    /// Microseconds recorded so far for `span`.
    #[must_use]
    pub fn get(&self, span: Span) -> u64 {
        self.micros[span as usize]
    }

    /// Closes the request span (total wall time since `start`) and
    /// returns the completed per-span array plus the trace tree, whose
    /// root duration equals the array's `request` entry exactly.
    fn finish(mut self, root_attrs: Vec<(String, String)>) -> ([u64; SPAN_COUNT], SpanData) {
        let root = self.trace.finish(Span::Request.label(), root_attrs);
        self.micros[Span::Request as usize] = root.duration_micros();
        (self.micros, root)
    }
}

/// The per-process telemetry registry: endpoint × span histograms, the
/// trace-id counter, the slow-request ring buffer, and the completed
/// span-trace ring behind `GET /debug/trace/{id}`.
#[derive(Debug)]
pub struct Telemetry {
    /// `hists[endpoint * SPAN_COUNT + span]`.
    hists: Vec<LatencyHistogram>,
    trace_counter: AtomicU64,
    slow_threshold_micros: AtomicU64,
    slow: Mutex<VecDeque<SlowEntry>>,
    recorder: TraceRecorder,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh registry with the default slow threshold.
    #[must_use]
    pub fn new() -> Self {
        let cells = ENDPOINT_LABELS.len() * SPAN_COUNT;
        Telemetry {
            hists: (0..cells).map(|_| LatencyHistogram::new()).collect(),
            trace_counter: AtomicU64::new(0),
            slow_threshold_micros: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_MICROS),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
            recorder: TraceRecorder::new(),
        }
    }

    /// The completed-trace ring: lookups for `/debug/trace/{id}`, the
    /// `traces_stored` / `traces_dropped_total` gauges, and the
    /// sampling-rate knob.
    #[must_use]
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// Sets the trace sampling rate: non-slow requests keep one trace
    /// in `n` (`0` and `1` both mean every request).
    pub fn set_trace_sample(&self, n: u64) {
        self.recorder.set_sample_one_in(n);
    }

    /// Mints the next trace id: 16 lowercase hex digits, deterministic
    /// (SplitMix64 over a process-local counter).
    #[must_use]
    pub fn mint_trace(&self) -> String {
        let n = self.trace_counter.fetch_add(1, Ordering::Relaxed);
        format!("{:016x}", splitmix64(n))
    }

    /// The trace id for `req`: a propagated `x-raysearch-trace` header
    /// if the peer sent one, else freshly minted.
    #[must_use]
    pub fn trace_for(&self, req: &Request) -> String {
        match req.header(TRACE_HEADER) {
            Some(v) if !v.is_empty() => v.to_owned(),
            _ => self.mint_trace(),
        }
    }

    /// Sets the slow-log threshold (microseconds; 0 logs every request).
    pub fn set_slow_threshold(&self, micros: u64) {
        self.slow_threshold_micros.store(micros, Ordering::Relaxed);
    }

    /// The current slow-log threshold in microseconds.
    #[must_use]
    pub fn slow_threshold(&self) -> u64 {
        self.slow_threshold_micros.load(Ordering::Relaxed)
    }

    fn hist(&self, endpoint: usize, span: Span) -> &LatencyHistogram {
        &self.hists[endpoint * SPAN_COUNT + span as usize]
    }

    /// Records a finished request: closes the span set, feeds every
    /// fired span into the endpoint's histograms, offers the span tree
    /// to the trace ring (kept when sampled 1-in-N, or unconditionally
    /// when the total crossed the slow threshold), and captures a slow
    /// log entry if the total crossed the threshold.
    pub fn observe(&self, req: &Request, trace: &str, status: u16, spans: SpanSet) {
        let endpoint = endpoint_index(&req.path);
        let root_attrs = vec![
            ("method".to_owned(), req.method.clone()),
            ("path".to_owned(), req.path.clone()),
            ("status".to_owned(), status.to_string()),
            ("endpoint".to_owned(), ENDPOINT_LABELS[endpoint].to_owned()),
        ];
        let (micros, root) = spans.finish(root_attrs);
        for (i, &v) in micros.iter().enumerate() {
            // the request span always records; sub-spans only if fired
            if i == Span::Request as usize || v > 0 {
                self.hists[endpoint * SPAN_COUNT + i].record(v);
            }
        }
        let total = micros[Span::Request as usize];
        // the sampling draw happens for every request (not just fast
        // ones) so the decision sequence — and therefore the number of
        // kept traces over a replay — is independent of timing
        let sampled = self.recorder.sample_decision();
        if sampled || total >= self.slow_threshold() {
            self.recorder.store(CompletedTrace {
                key: TraceRecorder::key_for(trace),
                trace: trace.to_owned(),
                root,
            });
        }
        if total >= self.slow_threshold() {
            let entry = SlowEntry {
                trace: trace.to_owned(),
                method: req.method.clone(),
                path: req.path.clone(),
                status,
                spans: micros,
            };
            let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
            if slow.len() == SLOW_LOG_CAPACITY {
                slow.pop_front();
            }
            slow.push_back(entry);
        }
    }

    /// Records a single span duration outside the request lifecycle —
    /// how job compute workers, which have no [`Request`] in hand when
    /// a queued job finally starts, feed `queue_wait` and execution
    /// time into the `jobs` endpoint histograms.
    pub fn record_span(&self, path: &str, span: Span, micros: u64) {
        self.hist(endpoint_index(path), span).record(micros);
    }

    /// Total requests observed for the endpoint `path` maps to.
    #[must_use]
    pub fn request_count(&self, path: &str) -> u64 {
        self.hist(endpoint_index(path), Span::Request).count()
    }

    /// Snapshot of one endpoint × span histogram.
    #[must_use]
    pub fn snapshot(&self, endpoint: usize, span: Span) -> HistogramSnapshot {
        self.hist(endpoint, span).snapshot()
    }

    /// The `GET /debug/slow` response body: threshold, capacity, and
    /// the captured entries oldest-first.
    #[must_use]
    pub fn slow_log_json(&self) -> String {
        let slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        let entries: Vec<String> = slow.iter().map(SlowEntry::to_json).collect();
        format!(
            "{{\"threshold_micros\":{},\"capacity\":{},\"entries\":[{}]}}",
            self.slow_threshold(),
            SLOW_LOG_CAPACITY,
            entries.join(",")
        )
    }

    /// Renders the latency histograms in Prometheus text exposition
    /// format (metric `{prefix}_span_latency_micros`, labels `endpoint`
    /// and `span`). Endpoint × span cells that never fired are skipped.
    pub fn render_prometheus_histograms(&self, out: &mut String, prefix: &str) {
        let name = format!("{prefix}_span_latency_micros");
        out.push_str(&format!(
            "# HELP {name} Per-span request latency in microseconds.\n# TYPE {name} histogram\n"
        ));
        for (e, endpoint) in ENDPOINT_LABELS.iter().enumerate() {
            for span in SPANS {
                let snap = self.hist(e, span).snapshot();
                if snap.count == 0 {
                    continue;
                }
                let labels = format!("endpoint=\"{endpoint}\",span=\"{}\"", span.label());
                let mut cumulative = 0u64;
                for (b, &n) in snap.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    cumulative += n;
                    let le = raysearch_core::telemetry::bucket_upper_bound(b);
                    out.push_str(&format!(
                        "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}\n"
                    ));
                }
                out.push_str(&format!(
                    "{name}_bucket{{{labels},le=\"+Inf\"}} {cumulative}\n"
                ));
                out.push_str(&format!("{name}_sum{{{labels}}} {}\n", snap.sum));
                out.push_str(&format!("{name}_count{{{labels}}} {}\n", snap.count));
            }
        }
    }
}

/// How a registered value behaves, which picks its Prometheus `TYPE`
/// and whether its family name gains `_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Never decreases.
    Counter,
    /// A level that moves both ways.
    Gauge,
    /// A 0/1 gauge that `/stats` shows as a JSON boolean.
    Flag,
}

/// One row of a metric registry: a value of a `T` and where it shows in
/// `/stats` and `/metrics`. Each tier keeps its rows in one static
/// table, and both views render from that table: [`write_stats`] builds
/// the `/stats` document from the readers, and [`write_families`]
/// renders `/metrics` by looking every row's path up in that document.
pub struct Metric<T> {
    /// Where the value sits in `/stats`: object keys joined by `.`.
    pub path: &'static str,
    /// Counter, gauge or flag.
    pub kind: Kind,
    /// The Prometheus `HELP` text.
    pub help: &'static str,
    /// Reads the value; `None` leaves it out of both views.
    pub read: fn(&T) -> Option<u64>,
}

impl<T> Metric<T> {
    /// The Prometheus family name under `prefix`: the path with `.`
    /// replaced by `_`, plus `_total` for a counter whose path does not
    /// already end in it (`cache.hits` is `{prefix}_cache_hits_total`).
    #[must_use]
    pub fn name(&self, prefix: &str) -> String {
        let name = format!("{prefix}_{}", self.path.replace('.', "_"));
        if self.kind == Kind::Counter && !name.ends_with("_total") {
            name + "_total"
        } else {
            name
        }
    }
}

/// A [`Kind::Counter`] row.
pub const fn counter<T>(
    path: &'static str,
    help: &'static str,
    read: fn(&T) -> Option<u64>,
) -> Metric<T> {
    Metric {
        path,
        kind: Kind::Counter,
        help,
        read,
    }
}

/// A [`Kind::Gauge`] row.
pub const fn gauge<T>(
    path: &'static str,
    help: &'static str,
    read: fn(&T) -> Option<u64>,
) -> Metric<T> {
    Metric {
        path,
        kind: Kind::Gauge,
        help,
        read,
    }
}

/// A [`Kind::Flag`] row.
pub const fn flag<T>(
    path: &'static str,
    help: &'static str,
    read: fn(&T) -> Option<u64>,
) -> Metric<T> {
    Metric {
        path,
        kind: Kind::Flag,
        help,
        read,
    }
}

/// The number at the dotted `path` of a `/stats` document (a boolean
/// reads as 0 or 1), or `None` when no number is there.
#[must_use]
pub fn stat(doc: &Value, path: &str) -> Option<u64> {
    let leaf = path.split('.').try_fold(doc, |node, key| node.get(key))?;
    leaf.as_u64().or_else(|| leaf.as_bool().map(u64::from))
}

/// Adds every value `table` reads from `source` to `doc`, each at its
/// row's path (creating the nested objects a dotted path names).
pub fn write_stats<T>(doc: &mut Map, table: &[Metric<T>], source: &T) {
    for metric in table {
        if let Some(value) = (metric.read)(source) {
            let value = match metric.kind {
                Kind::Flag => Value::Bool(value != 0),
                Kind::Counter | Kind::Gauge => serde_json::to_value(value).expect("u64 serializes"),
            };
            insert_at(doc, metric.path, value);
        }
    }
}

fn insert_at(doc: &mut Map, path: &str, value: Value) {
    match path.split_once('.') {
        None => {
            doc.insert(path.to_owned(), value);
        }
        Some((key, rest)) => {
            let mut child = doc
                .get(key)
                .and_then(Value::as_object)
                .cloned()
                .unwrap_or_default();
            insert_at(&mut child, rest, value);
            doc.insert(key.to_owned(), Value::Object(child));
        }
    }
}

/// Appends one Prometheus family per row of `table` to `out`, named by
/// [`Metric::name`] under `prefix`: `HELP` and `TYPE`, then one sample
/// for each `(labels, doc)` whose `/stats`-shaped document holds the
/// row's path (`labels` empty or a comma-joined `k="v"` list).
pub fn write_families<T>(
    out: &mut String,
    prefix: &str,
    table: &[Metric<T>],
    docs: &[(String, &Value)],
) {
    for metric in table {
        let name = metric.name(prefix);
        let kind = if metric.kind == Kind::Counter {
            "counter"
        } else {
            "gauge"
        };
        out.push_str(&format!(
            "# HELP {name} {}\n# TYPE {name} {kind}\n",
            metric.help
        ));
        for (labels, doc) in docs {
            let Some(value) = stat(doc, metric.path) else {
                continue;
            };
            if labels.is_empty() {
                out.push_str(&format!("{name} {value}\n"));
            } else {
                out.push_str(&format!("{name}{{{labels}}} {value}\n"));
            }
        }
    }
}

/// Wraps a rendered exposition body into a `200` response with the
/// Prometheus text content type.
#[must_use]
pub fn metrics_response(body: String) -> Response {
    Response::ok(body).with_header("Content-Type", "text/plain; version=0.0.4")
}

/// Renders one stored trace as the `GET /debug/trace/{id}` body:
/// `{"trace":...,"service":...,"root":{span tree}}`. The `root` object
/// is exactly [`SpanData::to_json`], so trees survive a
/// fetch → parse → re-render round trip byte-identically.
#[must_use]
pub fn trace_json(trace: &CompletedTrace, service: &str) -> String {
    format!(
        "{{\"trace\":{},\"service\":{},\"root\":{}}}",
        serde_json::Value::String(trace.trace.clone()).to_json_string(),
        serde_json::Value::String(service.to_owned()).to_json_string(),
        trace.root.to_json()
    )
}

/// Renders the `GET /debug/trace` index: ring occupancy, sampling rate,
/// and the stored trace ids (each one hop from its full tree at
/// `/debug/trace/{id}`).
#[must_use]
pub fn trace_index_json(recorder: &TraceRecorder) -> String {
    let ids: Vec<String> = recorder
        .trace_ids()
        .into_iter()
        .map(|id| serde_json::Value::String(id).to_json_string())
        .collect();
    format!(
        "{{\"stored\":{},\"capacity\":{},\"dropped_total\":{},\"sample_one_in\":{},\"traces\":[{}]}}",
        recorder.stored(),
        recorder.capacity(),
        recorder.dropped_total(),
        recorder.sample_one_in(),
        ids.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str, headers: Vec<(String, String)>) -> Request {
        Request {
            method: "GET".to_owned(),
            version: "HTTP/1.1".to_owned(),
            path: path.to_owned(),
            query: Vec::new(),
            headers,
            body: Vec::new(),
        }
    }

    #[test]
    fn trace_ids_are_deterministic_and_well_formed() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        let first = a.mint_trace();
        assert_eq!(first.len(), 16);
        assert!(first.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(first, b.mint_trace(), "same counter, same id");
        assert_ne!(first, a.mint_trace(), "ids advance");
    }

    #[test]
    fn incoming_trace_headers_are_propagated_not_replaced() {
        let t = Telemetry::new();
        let req = get(
            "/evaluate",
            vec![(TRACE_HEADER.to_owned(), "00000000deadbeef".to_owned())],
        );
        assert_eq!(t.trace_for(&req), "00000000deadbeef");
        let req = get("/evaluate", Vec::new());
        assert_eq!(t.trace_for(&req).len(), 16);
    }

    #[test]
    fn observe_feeds_the_right_endpoint_histograms() {
        let t = Telemetry::new();
        let req = get("/evaluate", Vec::new());
        let mut spans = SpanSet::start();
        spans.add(Span::Evaluate, 500);
        t.observe(&req, "abc", 200, spans);
        assert_eq!(t.request_count("/evaluate"), 1);
        assert_eq!(t.request_count("/verdict"), 0);
        assert_eq!(
            t.snapshot(endpoint_index("/evaluate"), Span::Evaluate)
                .count,
            1
        );
        // unknown paths land in `other`
        let req = get("/nope", Vec::new());
        t.observe(&req, "abc", 404, SpanSet::start());
        assert_eq!(t.request_count("/nope"), 1);
        assert_eq!(t.request_count("/also-nope"), 1);
    }

    #[test]
    fn slow_log_is_bounded_and_threshold_gated() {
        let t = Telemetry::new();
        t.set_slow_threshold(0); // log everything
        for i in 0..(SLOW_LOG_CAPACITY + 5) {
            let req = get("/evaluate", Vec::new());
            t.observe(&req, &format!("{i:016x}"), 200, SpanSet::start());
        }
        let dump = t.slow_log_json();
        let doc: serde_json::Value = serde_json::from_str(&dump).unwrap();
        let entries = doc
            .get("entries")
            .and_then(serde_json::Value::as_array)
            .unwrap();
        assert_eq!(entries.len(), SLOW_LOG_CAPACITY, "ring buffer is bounded");
        // oldest entries were evicted: the first surviving trace is #5
        let first = entries[0].get("trace").unwrap();
        assert_eq!(first, &serde_json::Value::String(format!("{:016x}", 5)));

        let quiet = Telemetry::new();
        quiet.set_slow_threshold(u64::MAX);
        let req = get("/evaluate", Vec::new());
        quiet.observe(&req, "x", 200, SpanSet::start());
        let doc: serde_json::Value = serde_json::from_str(&quiet.slow_log_json()).unwrap();
        let entries = doc
            .get("entries")
            .and_then(serde_json::Value::as_array)
            .unwrap();
        assert!(entries.is_empty(), "fast requests are not logged");
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_skips_empty_cells() {
        let t = Telemetry::new();
        let req = get("/evaluate", Vec::new());
        let mut spans = SpanSet::start();
        spans.add(Span::Evaluate, 3); // bucket le=3
        t.observe(&req, "x", 200, spans);
        let mut spans = SpanSet::start();
        spans.add(Span::Evaluate, 10); // bucket le=15
        t.observe(&req, "x", 200, spans);

        let mut out = String::new();
        t.render_prometheus_histograms(&mut out, "raysearchd");
        assert!(out.contains("# TYPE raysearchd_span_latency_micros histogram\n"));
        assert!(out.contains(
            "raysearchd_span_latency_micros_bucket{endpoint=\"evaluate\",span=\"evaluate\",le=\"3\"} 1\n"
        ));
        assert!(out.contains(
            "raysearchd_span_latency_micros_bucket{endpoint=\"evaluate\",span=\"evaluate\",le=\"15\"} 2\n"
        ));
        assert!(out.contains(
            "raysearchd_span_latency_micros_bucket{endpoint=\"evaluate\",span=\"evaluate\",le=\"+Inf\"} 2\n"
        ));
        assert!(out.contains(
            "raysearchd_span_latency_micros_sum{endpoint=\"evaluate\",span=\"evaluate\"} 13\n"
        ));
        assert!(out.contains(
            "raysearchd_span_latency_micros_count{endpoint=\"evaluate\",span=\"evaluate\"} 2\n"
        ));
        assert!(
            !out.contains("endpoint=\"verdict\""),
            "cells that never fired are skipped"
        );
    }

    #[test]
    fn debug_trace_paths_have_their_own_endpoint_label() {
        assert_eq!(
            ENDPOINT_LABELS[endpoint_index("/debug/trace")],
            "debug_trace"
        );
        assert_eq!(
            ENDPOINT_LABELS[endpoint_index("/debug/trace/00000000deadbeef")],
            "debug_trace"
        );
        assert_eq!(ENDPOINT_LABELS[endpoint_index("/nope")], "other");
        assert_eq!(ENDPOINT_LABELS[endpoint_index("/debug/slow")], "debug_slow");
    }

    #[test]
    fn job_paths_share_the_jobs_endpoint_label() {
        assert_eq!(ENDPOINT_LABELS[endpoint_index("/jobs")], "jobs");
        assert_eq!(
            ENDPOINT_LABELS[endpoint_index("/jobs/00ff00ff00ff00ff")],
            "jobs"
        );
        assert_eq!(ENDPOINT_LABELS[endpoint_index("/jobsx")], "other");
    }

    #[test]
    fn record_span_feeds_the_jobs_histograms_directly() {
        let t = Telemetry::new();
        t.record_span("/jobs", Span::QueueWait, 250);
        let snap = t.snapshot(endpoint_index("/jobs"), Span::QueueWait);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 250);
    }

    #[test]
    fn observe_stores_a_trace_the_histograms_agree_with() {
        let t = Telemetry::new();
        t.set_trace_sample(1); // always keep
        let req = get("/evaluate", Vec::new());
        let mut spans = SpanSet::start();
        spans.add(Span::Evaluate, 500);
        spans.add_with_attrs(Span::CacheLookup, 40, &[("hit", "false")]);
        t.observe(&req, "00000000deadbeef", 200, spans);

        let key = TraceRecorder::key_for("00000000deadbeef");
        let trace = t.recorder().get(key).expect("trace stored");
        assert_eq!(trace.trace, "00000000deadbeef");
        let root = &trace.root;
        assert_eq!(root.name, "request");
        assert!(root
            .attrs
            .contains(&("path".to_owned(), "/evaluate".to_owned())));
        assert!(root
            .attrs
            .contains(&("status".to_owned(), "200".to_owned())));
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "evaluate");
        assert_eq!(root.children[0].duration_micros(), 500);
        assert_eq!(root.children[1].name, "cache_lookup");
        assert_eq!(
            root.children[1].attrs,
            vec![("hit".to_owned(), "false".to_owned())]
        );
        // the histogram and the tree measured the same span once
        let snap = t.snapshot(endpoint_index("/evaluate"), Span::Evaluate);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 500);
        // and the root covers the request-span total exactly
        let total = t.snapshot(endpoint_index("/evaluate"), Span::Request).sum;
        assert_eq!(root.duration_micros(), total);
    }

    #[test]
    fn trace_sampling_keeps_slow_requests_and_one_in_n_of_the_rest() {
        let t = Telemetry::new();
        t.set_slow_threshold(u64::MAX); // nothing is "slow"
        t.set_trace_sample(2);
        let requests = 64u64;
        for _ in 0..requests {
            let req = get("/evaluate", Vec::new());
            t.observe(&req, &t.mint_trace(), 200, SpanSet::start());
        }
        let expected = (0..requests)
            .filter(|&c| splitmix64(c).is_multiple_of(2))
            .count() as u64;
        assert_eq!(t.recorder().stored(), expected, "1-in-2 of {requests}");

        // threshold 0 makes every request slow, so everything is kept
        // regardless of the sampling rate
        let slow = Telemetry::new();
        slow.set_slow_threshold(0);
        slow.set_trace_sample(u64::MAX);
        for _ in 0..5 {
            let req = get("/evaluate", Vec::new());
            slow.observe(&req, &slow.mint_trace(), 200, SpanSet::start());
        }
        assert_eq!(slow.recorder().stored(), 5);
    }

    #[test]
    fn time_as_splits_histogram_bucket_from_trace_name() {
        let t = Telemetry::new();
        t.set_trace_sample(1);
        let req = get("/closed_form", Vec::new());
        let mut spans = SpanSet::start();
        spans.time_as(
            Span::BackendWait,
            "failover",
            &[("backend", "backend-1")],
            || {
                std::thread::sleep(std::time::Duration::from_micros(200));
            },
        );
        spans.time(Span::BackendWait, || ());
        let wait_micros = spans.get(Span::BackendWait);
        assert!(
            wait_micros >= 200,
            "both attempts accumulate: {wait_micros}"
        );
        t.observe(&req, "ff", 200, spans);

        let trace = t.recorder().get(0xff).expect("stored");
        let names: Vec<&str> = trace
            .root
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["failover", "backend_wait"]);
        assert_eq!(
            trace.root.children[0].attrs,
            vec![("backend".to_owned(), "backend-1".to_owned())]
        );
        // histogram-side both attempts land in backend_wait
        let snap = t.snapshot(endpoint_index("/closed_form"), Span::BackendWait);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, wait_micros);
    }

    #[test]
    fn slow_entries_link_to_their_trace() {
        let t = Telemetry::new();
        t.set_slow_threshold(0);
        let req = get("/evaluate", Vec::new());
        t.observe(&req, "00000000deadbeef", 200, SpanSet::start());
        let doc: serde_json::Value = serde_json::from_str(&t.slow_log_json()).unwrap();
        let entries = doc
            .get("entries")
            .and_then(serde_json::Value::as_array)
            .unwrap();
        assert_eq!(
            entries[0]
                .get("trace_url")
                .and_then(serde_json::Value::as_str),
            Some("/debug/trace/00000000deadbeef")
        );
    }

    #[test]
    fn slow_log_escapes_client_chosen_trace_ids_and_methods() {
        let t = Telemetry::new();
        t.set_slow_threshold(0);
        let mut req = get(
            "/evaluate",
            vec![(TRACE_HEADER.to_owned(), "ab\"c\\d".to_owned())],
        );
        req.method = "G\"ET".to_owned();
        t.observe(&req, &t.trace_for(&req), 405, SpanSet::start());
        let doc: serde_json::Value =
            serde_json::from_str(&t.slow_log_json()).expect("slow log is JSON");
        let entry = &doc
            .get("entries")
            .and_then(serde_json::Value::as_array)
            .unwrap()[0];
        let field = |name: &str| entry.get(name).and_then(serde_json::Value::as_str);
        assert_eq!(field("trace"), Some("ab\"c\\d"));
        assert_eq!(field("method"), Some("G\"ET"));
        assert_eq!(field("trace_url"), Some("/debug/trace/ab\"c\\d"));
    }

    #[test]
    fn trace_json_round_trips_through_the_wire_format() {
        let t = Telemetry::new();
        t.set_trace_sample(1);
        let req = get("/evaluate", Vec::new());
        let mut spans = SpanSet::start();
        spans.add(Span::Evaluate, 123);
        t.observe(&req, "ab", 200, spans);
        let stored = t.recorder().get(0xab).unwrap();
        let body = trace_json(&stored, "raysearchd");
        let doc: serde_json::Value = serde_json::from_str(&body).expect("trace JSON parses");
        assert_eq!(
            doc.get("service").and_then(serde_json::Value::as_str),
            Some("raysearchd")
        );
        let root = SpanData::from_json(doc.get("root").expect("root")).expect("schema");
        assert_eq!(root, stored.root);
        assert_eq!(root.to_json(), stored.root.to_json());
    }
}
