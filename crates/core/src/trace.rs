//! Hierarchical request tracing: span trees, a bounded completed-trace
//! ring, and Chrome trace-event export.
//!
//! The serving tier's histograms ([`crate::telemetry`]) answer "how slow
//! are requests *in aggregate*"; this module answers "where did *this*
//! request spend its time". Both views are fed from the same measured
//! spans, so they can never disagree.
//!
//! * [`SpanData`] — one node of a span tree: name, start/end offsets in
//!   microseconds relative to the trace root, `key=value` attributes and
//!   child spans. Renders to JSON with a fixed field order and parses
//!   back byte-identically ([`SpanData::to_json`] / [`SpanData::from_json`]).
//! * [`TraceBuilder`] / [`ScopedSpan`] — per-request span capture. The
//!   builder lives on the request's stack (one per in-flight request, so
//!   worker threads never contend while recording); the RAII guard stamps
//!   start/end offsets around a scope.
//! * [`TraceRecorder`] — the shared sink: a lock-sharded bounded ring of
//!   completed traces keyed by the 64-bit trace id, plus the
//!   deterministic SplitMix64 1-in-N sampling counter. Slow requests
//!   (over the serving tier's `--slow-log-micros` threshold) are always
//!   kept; everything else is kept 1-in-N.
//! * [`chrome_trace_json`] — converts assembled traces to Chrome
//!   trace-event JSON (catapult format), loadable in Perfetto or
//!   `chrome://tracing`.
//!
//! Everything here is deterministic: sampling draws come from an atomic
//! counter through [`splitmix64`], never from wall-clock entropy, so a
//! replay issues the same number of kept traces no matter the thread
//! count.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use serde_json::Value;

use crate::canon::stable_hash64;
use crate::telemetry::splitmix64;

/// Default total capacity of a [`TraceRecorder`] ring (across shards).
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Default number of lock shards in a [`TraceRecorder`].
pub const DEFAULT_TRACE_SHARDS: usize = 8;

/// Default sampling rate: keep one trace in N when the request is not
/// slow enough to be kept unconditionally.
pub const DEFAULT_SAMPLE_ONE_IN: u64 = 64;

/// One node of a span tree: a named interval `[start_micros, end_micros]`
/// relative to the trace root, with attributes and child spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanData {
    /// Span name (`request`, `parse`, `backend_wait`, ...).
    pub name: String,
    /// Start offset in microseconds from the trace root's start.
    pub start_micros: u64,
    /// End offset in microseconds from the trace root's start.
    pub end_micros: u64,
    /// `key=value` attributes, rendered in insertion order.
    pub attrs: Vec<(String, String)>,
    /// Child spans, in recording order.
    pub children: Vec<SpanData>,
}

impl SpanData {
    /// A leaf span with no attributes or children.
    #[must_use]
    pub fn leaf(name: &str, start_micros: u64, end_micros: u64) -> SpanData {
        SpanData {
            name: name.to_owned(),
            start_micros,
            end_micros,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Duration of this span in microseconds.
    #[must_use]
    pub fn duration_micros(&self) -> u64 {
        self.end_micros.saturating_sub(self.start_micros)
    }

    /// Sum of the durations of the *leaf* spans of this tree (a span
    /// with children contributes its children, not itself). For disjoint
    /// sibling intervals this can never exceed the root duration — the
    /// invariant `router_telemetry`'s
    /// `one_routed_request_is_slow_logged_and_assembled_across_both_tiers`
    /// asserts on an assembled cross-tier trace.
    #[must_use]
    pub fn leaf_duration_sum(&self) -> u64 {
        if self.children.is_empty() {
            return self.duration_micros();
        }
        self.children.iter().map(SpanData::leaf_duration_sum).sum()
    }

    /// Shifts this span and all descendants `offset` microseconds later
    /// — used when stitching a backend's tree (whose offsets are
    /// relative to the backend's own request start) under the router's
    /// `backend_wait` span.
    pub fn rebase(&mut self, offset: u64) {
        self.start_micros += offset;
        self.end_micros += offset;
        for child in &mut self.children {
            child.rebase(offset);
        }
    }

    /// Renders the tree as compact JSON with a fixed field order
    /// (`name`, `start_micros`, `end_micros`, `attrs`, `children`).
    /// [`SpanData::from_json`] followed by `to_json` reproduces the
    /// exact bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        write_json_string(out, &self.name);
        out.push_str(",\"start_micros\":");
        out.push_str(&self.start_micros.to_string());
        out.push_str(",\"end_micros\":");
        out.push_str(&self.end_micros.to_string());
        out.push_str(",\"attrs\":{");
        for (i, (key, value)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(out, key);
            out.push(':');
            write_json_string(out, value);
        }
        out.push_str("},\"children\":[");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.write_json(out);
        }
        out.push_str("]}");
    }

    /// Parses a tree previously rendered by [`SpanData::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on schema mismatch.
    pub fn from_json(value: &Value) -> Result<SpanData, String> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or("span is missing a string \"name\"")?
            .to_owned();
        let micros = |field: &str| {
            value
                .get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("span {name:?} is missing integer {field:?}"))
        };
        let start_micros = micros("start_micros")?;
        let end_micros = micros("end_micros")?;
        let mut attrs = Vec::new();
        match value.get("attrs") {
            Some(Value::Object(map)) => {
                for (key, attr) in map.iter() {
                    let attr = attr
                        .as_str()
                        .ok_or_else(|| format!("span {name:?} attr {key:?} is not a string"))?;
                    attrs.push((key.clone(), attr.to_owned()));
                }
            }
            _ => return Err(format!("span {name:?} is missing object \"attrs\"")),
        }
        let mut children = Vec::new();
        match value.get("children") {
            Some(Value::Array(items)) => {
                for item in items {
                    children.push(SpanData::from_json(item)?);
                }
            }
            _ => return Err(format!("span {name:?} is missing array \"children\"")),
        }
        Ok(SpanData {
            name,
            start_micros,
            end_micros,
            attrs,
            children,
        })
    }
}

/// JSON string escaping matching the vendored parser's expectations:
/// quotes, backslashes and control characters are escaped, everything
/// else is copied through verbatim.
fn write_json_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finished trace: the 64-bit ring key, the trace id as it appeared
/// on the wire (usually 16 hex digits), and the root span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTrace {
    /// Ring key — see [`TraceRecorder::key_for`].
    pub key: u64,
    /// The wire trace id (`x-raysearch-trace` value).
    pub trace: String,
    /// Root span (`request`), children in recording order.
    pub root: SpanData,
}

/// Per-request span capture. One builder lives on each in-flight
/// request's stack; spans are recorded with offsets relative to the
/// builder's start instant. Nothing is shared until the finished tree
/// is offered to the [`TraceRecorder`].
#[derive(Debug)]
pub struct TraceBuilder {
    started: Instant,
    spans: Vec<SpanData>,
}

impl TraceBuilder {
    /// Starts the trace clock.
    #[must_use]
    pub fn start() -> TraceBuilder {
        TraceBuilder {
            started: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds elapsed since [`TraceBuilder::start`], saturating
    /// at `u64::MAX`.
    #[must_use]
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records a completed span with explicit offsets.
    pub fn record(&mut self, span: SpanData) {
        self.spans.push(span);
    }

    /// Opens a scoped span; the returned guard records `name` with the
    /// enclosing offsets when dropped.
    pub fn scoped(&mut self, name: &'static str) -> ScopedSpan<'_> {
        let start_micros = self.elapsed_micros();
        ScopedSpan {
            builder: self,
            name,
            start_micros,
            attrs: Vec::new(),
        }
    }

    /// Closes the trace: returns the root span covering `[0, now]` with
    /// every recorded span as a direct child, in recording order.
    #[must_use]
    pub fn finish(self, root_name: &str, attrs: Vec<(String, String)>) -> SpanData {
        let end_micros = self.elapsed_micros();
        SpanData {
            name: root_name.to_owned(),
            start_micros: 0,
            end_micros,
            attrs,
            children: self.spans,
        }
    }
}

/// RAII guard for one span: stamps the end offset and records itself
/// into the owning [`TraceBuilder`] on drop.
#[derive(Debug)]
pub struct ScopedSpan<'a> {
    builder: &'a mut TraceBuilder,
    name: &'static str,
    start_micros: u64,
    attrs: Vec<(String, String)>,
}

impl ScopedSpan<'_> {
    /// Attaches a `key=value` attribute to the span.
    pub fn attr(&mut self, key: &str, value: &str) {
        self.attrs.push((key.to_owned(), value.to_owned()));
    }
}

impl Drop for ScopedSpan<'_> {
    fn drop(&mut self) {
        let end_micros = self.builder.elapsed_micros();
        let span = SpanData {
            name: self.name.to_owned(),
            start_micros: self.start_micros,
            end_micros,
            attrs: std::mem::take(&mut self.attrs),
            children: Vec::new(),
        };
        self.builder.record(span);
    }
}

/// The shared trace sink: a lock-sharded bounded ring of completed
/// traces keyed by the 64-bit trace id, plus the deterministic sampling
/// counter.
///
/// Sharding: a trace lands in shard `key % shards`, so concurrent
/// worker threads storing different traces rarely contend on the same
/// lock. Each shard holds `capacity / shards` traces and evicts
/// oldest-first; evictions are counted in
/// [`TraceRecorder::dropped_total`].
///
/// Sampling: [`TraceRecorder::sample_decision`] draws from an atomic
/// counter through [`splitmix64`] — draw `c` keeps the trace iff
/// `splitmix64(c) % n == 0`. The decision *sequence* is fixed, so the
/// number of kept traces over `R` requests is identical at any thread
/// count (which request gets which draw may differ). The serving tier
/// keeps slow requests unconditionally and consults the sampler for the
/// rest.
#[derive(Debug)]
pub struct TraceRecorder {
    shards: Vec<Mutex<VecDeque<CompletedTrace>>>,
    shard_capacity: usize,
    sample_one_in: AtomicU64,
    sample_counter: AtomicU64,
    dropped: AtomicU64,
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// A recorder with the default capacity, shard count and sampling
    /// rate ([`DEFAULT_TRACE_CAPACITY`], [`DEFAULT_TRACE_SHARDS`],
    /// [`DEFAULT_SAMPLE_ONE_IN`]).
    #[must_use]
    pub fn new() -> TraceRecorder {
        TraceRecorder::with_capacity(DEFAULT_TRACE_CAPACITY, DEFAULT_TRACE_SHARDS)
    }

    /// A recorder holding at most `capacity` traces across `shards`
    /// lock shards.
    ///
    /// # Panics
    ///
    /// Panics unless `shards > 0` and `capacity` is a positive multiple
    /// of `shards` (so the global bound is exact).
    #[must_use]
    pub fn with_capacity(capacity: usize, shards: usize) -> TraceRecorder {
        assert!(shards > 0, "trace recorder needs at least one shard");
        assert!(
            capacity >= shards && capacity.is_multiple_of(shards),
            "trace capacity {capacity} must be a positive multiple of {shards} shards"
        );
        TraceRecorder {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            shard_capacity: capacity / shards,
            sample_one_in: AtomicU64::new(DEFAULT_SAMPLE_ONE_IN),
            sample_counter: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Total capacity across shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// The ring key for a wire trace id: 16-or-fewer hex digits parse
    /// as the id itself (the minted format), anything else falls back
    /// to the pinned [`stable_hash64`] so arbitrary client-supplied ids
    /// still key consistently across tiers.
    #[must_use]
    pub fn key_for(trace: &str) -> u64 {
        if !trace.is_empty() && trace.len() <= 16 {
            if let Ok(key) = u64::from_str_radix(trace, 16) {
                return key;
            }
        }
        stable_hash64(trace.as_bytes())
    }

    /// Sets the sampling rate: keep one non-slow trace in `n`. Values
    /// `0` and `1` both mean "keep every trace".
    pub fn set_sample_one_in(&self, n: u64) {
        self.sample_one_in.store(n, Ordering::SeqCst);
    }

    /// Current sampling rate.
    #[must_use]
    pub fn sample_one_in(&self) -> u64 {
        self.sample_one_in.load(Ordering::SeqCst)
    }

    /// Draws the next deterministic sampling decision. With rate
    /// `n <= 1` every draw keeps (and the counter does not advance).
    #[must_use]
    pub fn sample_decision(&self) -> bool {
        let n = self.sample_one_in.load(Ordering::SeqCst);
        if n <= 1 {
            return true;
        }
        let draw = self.sample_counter.fetch_add(1, Ordering::SeqCst);
        splitmix64(draw).is_multiple_of(n)
    }

    /// Stores a completed trace, evicting the oldest trace in its
    /// shard if the shard is full.
    pub fn store(&self, trace: CompletedTrace) {
        let shard = &self.shards[self.shard_index(trace.key)];
        let mut ring = shard.lock();
        if ring.len() >= self.shard_capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
        ring.push_back(trace);
    }

    /// Looks up the most recently stored trace under `key`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<CompletedTrace> {
        let ring = self.shards[self.shard_index(key)].lock();
        ring.iter().rev().find(|t| t.key == key).cloned()
    }

    /// Wire ids of every stored trace, newest-first within each shard.
    #[must_use]
    pub fn trace_ids(&self) -> Vec<String> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            let ring = shard.lock();
            ids.extend(ring.iter().rev().map(|t| t.trace.clone()));
        }
        ids
    }

    /// Number of traces currently stored.
    #[must_use]
    pub fn stored(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().len() as u64).sum()
    }

    /// Total traces evicted from the ring since startup.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    fn shard_index(&self, key: u64) -> usize {
        usize::try_from(key % self.shards.len() as u64).expect("shard index fits usize")
    }
}

/// Converts assembled traces to a Chrome trace-event (catapult) JSON
/// document, loadable in Perfetto or `chrome://tracing`.
///
/// Each input is `(trace_id, service, root_span)`. Every span becomes a
/// complete (`"ph":"X"`) event; each trace gets its own `tid` lane and
/// each distinct service its own `pid` (spans carrying a `service`
/// attribute — stitched subtrees — switch `pid` for their subtree).
/// Process-name metadata events label the `pid`s. Every event carries
/// `ph`, `ts`, `pid`, `tid` and `name`.
#[must_use]
pub fn chrome_trace_json<'a>(
    traces: impl IntoIterator<Item = (&'a str, &'a str, &'a SpanData)>,
) -> String {
    let mut services: Vec<String> = Vec::new();
    let mut events: Vec<String> = Vec::new();
    for (index, (trace, service, root)) in traces.into_iter().enumerate() {
        let tid = index as u64 + 1;
        let pid = service_pid(&mut services, service);
        push_chrome_span(root, Some(trace), pid, tid, &mut services, &mut events);
    }
    for (index, service) in services.iter().enumerate() {
        let mut event = String::new();
        event.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":");
        event.push_str(&(index as u64 + 1).to_string());
        event.push_str(",\"tid\":0,\"args\":{\"name\":");
        write_json_string(&mut event, service);
        event.push_str("}}");
        events.push(event);
    }
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&events.join(","));
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn service_pid(services: &mut Vec<String>, service: &str) -> u64 {
    if let Some(found) = services.iter().position(|s| s == service) {
        return found as u64 + 1;
    }
    services.push(service.to_owned());
    services.len() as u64
}

fn push_chrome_span(
    span: &SpanData,
    trace: Option<&str>,
    pid: u64,
    tid: u64,
    services: &mut Vec<String>,
    events: &mut Vec<String>,
) {
    // a stitched subtree carries a `service` attr and moves to that pid
    let pid = span
        .attrs
        .iter()
        .find(|(k, _)| k == "service")
        .map_or(pid, |(_, s)| service_pid(services, s));
    let mut event = String::new();
    event.push_str("{\"name\":");
    write_json_string(&mut event, &span.name);
    event.push_str(",\"cat\":\"span\",\"ph\":\"X\",\"ts\":");
    event.push_str(&span.start_micros.to_string());
    event.push_str(",\"dur\":");
    event.push_str(&span.duration_micros().to_string());
    event.push_str(",\"pid\":");
    event.push_str(&pid.to_string());
    event.push_str(",\"tid\":");
    event.push_str(&tid.to_string());
    event.push_str(",\"args\":{");
    let mut first = true;
    if let Some(trace) = trace {
        event.push_str("\"trace\":");
        write_json_string(&mut event, trace);
        first = false;
    }
    for (key, value) in &span.attrs {
        if !first {
            event.push(',');
        }
        write_json_string(&mut event, key);
        event.push(':');
        write_json_string(&mut event, value);
        first = false;
    }
    event.push_str("}}");
    events.push(event);
    for child in &span.children {
        push_chrome_span(child, None, pid, tid, services, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    #[test]
    fn scoped_guards_record_ordered_disjoint_spans() {
        let mut builder = TraceBuilder::start();
        {
            let mut parse = builder.scoped("parse");
            parse.attr("bytes", "12");
        }
        {
            let _evaluate = builder.scoped("evaluate");
        }
        let root = builder.finish("request", attrs(&[("path", "/evaluate")]));
        assert_eq!(root.name, "request");
        assert_eq!(root.start_micros, 0);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "parse");
        assert_eq!(root.children[0].attrs, attrs(&[("bytes", "12")]));
        assert_eq!(root.children[1].name, "evaluate");
        // children are disjoint and inside the root
        assert!(root.children[0].end_micros <= root.children[1].start_micros);
        assert!(root.children[1].end_micros <= root.end_micros);
        assert!(root.leaf_duration_sum() <= root.duration_micros());
    }

    #[test]
    fn span_json_round_trips_byte_identically() {
        let mut root = SpanData::leaf("request", 0, 420);
        root.attrs = attrs(&[("path", "/evaluate?k=3"), ("status", "200")]);
        let mut wait = SpanData::leaf("backend_wait", 10, 400);
        wait.attrs = attrs(&[("backend", "backend-0")]);
        wait.children.push(SpanData::leaf("compile", 20, 100));
        root.children.push(SpanData::leaf("parse", 1, 9));
        root.children.push(wait);
        let text = root.to_json();
        let value = serde_json::from_str(&text).expect("span JSON parses");
        let parsed = SpanData::from_json(&value).expect("span schema");
        assert_eq!(parsed, root);
        assert_eq!(parsed.to_json(), text, "render → parse → render is stable");
    }

    #[test]
    fn span_json_escapes_and_rejects_bad_schemas() {
        let mut span = SpanData::leaf("weird \"name\"\n", 0, 1);
        span.attrs = attrs(&[("k\\e\ty", "v")]);
        let text = span.to_json();
        let value = serde_json::from_str(&text).expect("escaped JSON parses");
        assert_eq!(SpanData::from_json(&value).expect("round trip"), span);

        for bad in [
            "{\"start_micros\":0}",
            "{\"name\":\"x\",\"start_micros\":-1,\"end_micros\":0,\"attrs\":{},\"children\":[]}",
            "{\"name\":\"x\",\"start_micros\":0,\"end_micros\":1,\"attrs\":{},\"children\":{}}",
            "{\"name\":\"x\",\"start_micros\":0,\"end_micros\":1,\"attrs\":{\"a\":1},\"children\":[]}",
        ] {
            let value = serde_json::from_str(bad).expect("valid JSON");
            assert!(SpanData::from_json(&value).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn rebase_shifts_the_whole_subtree() {
        let mut root = SpanData::leaf("request", 0, 100);
        root.children.push(SpanData::leaf("evaluate", 5, 95));
        root.rebase(1000);
        assert_eq!(root.start_micros, 1000);
        assert_eq!(root.end_micros, 1100);
        assert_eq!(root.children[0].start_micros, 1005);
        assert_eq!(root.duration_micros(), 100);
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest_first() {
        let recorder = TraceRecorder::with_capacity(4, 1);
        for i in 0..10u64 {
            recorder.store(CompletedTrace {
                key: i,
                trace: format!("{i:016x}"),
                root: SpanData::leaf("request", 0, i),
            });
        }
        assert_eq!(recorder.stored(), 4);
        assert_eq!(recorder.dropped_total(), 6);
        // the oldest six are gone, the newest four remain
        for i in 0..6 {
            assert!(recorder.get(i).is_none(), "trace {i} should be evicted");
        }
        for i in 6..10 {
            assert_eq!(recorder.get(i).map(|t| t.key), Some(i));
        }
        // newest-first listing
        assert_eq!(
            recorder.trace_ids(),
            (6..10u64)
                .rev()
                .map(|i| format!("{i:016x}"))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn repeated_keys_return_the_newest_trace() {
        let recorder = TraceRecorder::with_capacity(4, 2);
        for end in [10, 20] {
            recorder.store(CompletedTrace {
                key: 7,
                trace: "0000000000000007".to_owned(),
                root: SpanData::leaf("request", 0, end),
            });
        }
        assert_eq!(recorder.get(7).map(|t| t.root.end_micros), Some(20));
    }

    #[test]
    fn sampling_is_deterministic_and_counter_driven() {
        let recorder = TraceRecorder::new();
        recorder.set_sample_one_in(4);
        let drawn: Vec<bool> = (0..256).map(|_| recorder.sample_decision()).collect();
        let expected: Vec<bool> = (0..256u64)
            .map(|c| splitmix64(c).is_multiple_of(4))
            .collect();
        assert_eq!(drawn, expected);
        let kept = drawn.iter().filter(|&&k| k).count();
        assert!(kept > 0 && kept < 256, "1-in-4 keeps some but not all");

        // rate <= 1 keeps everything and leaves the counter untouched
        let always = TraceRecorder::new();
        always.set_sample_one_in(1);
        assert!((0..64).all(|_| always.sample_decision()));
        always.set_sample_one_in(0);
        assert!((0..64).all(|_| always.sample_decision()));
    }

    #[test]
    fn keys_parse_hex_and_hash_everything_else() {
        assert_eq!(TraceRecorder::key_for("00000000deadbeef"), 0xdead_beef);
        assert_eq!(TraceRecorder::key_for("ff"), 0xff);
        let odd = TraceRecorder::key_for("not-hex-at-all");
        assert_eq!(odd, stable_hash64(b"not-hex-at-all"));
        assert_eq!(
            TraceRecorder::key_for(""),
            stable_hash64(b""),
            "empty ids hash rather than parse"
        );
    }

    #[test]
    fn chrome_export_emits_complete_events_per_span() {
        let mut root = SpanData::leaf("request", 0, 100);
        let mut wait = SpanData::leaf("backend_wait", 10, 90);
        let mut backend_root = SpanData::leaf("request", 12, 88);
        backend_root.attrs = attrs(&[("service", "raysearchd")]);
        wait.children.push(backend_root);
        root.children.push(wait);

        let doc = chrome_trace_json([("00000000deadbeef", "raysearch_router", &root)]);
        let value: Value = serde_json::from_str(&doc).expect("catapult JSON parses");
        let events = value
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // 3 spans + 2 process_name metadata events
        assert_eq!(events.len(), 5);
        for event in events {
            for field in ["ph", "ts", "pid", "tid", "name"] {
                assert!(
                    event.get(field).is_some(),
                    "event missing {field}: {event:?}"
                );
            }
        }
        let span_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(span_events.len(), 3);
        // the stitched backend subtree lands in its own pid
        let pids: Vec<u64> = span_events
            .iter()
            .filter_map(|e| e.get("pid").and_then(Value::as_u64))
            .collect();
        assert_eq!(pids, vec![1, 1, 2]);
        // the root event carries the trace id
        assert_eq!(
            span_events[0]
                .get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Value::as_str),
            Some("00000000deadbeef")
        );
    }
}
