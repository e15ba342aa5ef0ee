//! The traced run's instrumentation, all of it outside the program: a
//! [`Handler`] wrapper that times each call into the router or a
//! backend, a [`CompileCache`] wrapper that times each fleet build, an
//! in-memory span sink, and the export of finished span trees through
//! the program's own Chrome trace exporter.

use std::cell::Cell;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use raysearch_core::compiled::{CompileCache, CompiledFleet, FleetKey};
use raysearch_core::trace::chrome_trace_json;
use raysearch_core::{CoreError, SpanData};
use raysearch_service::http::{Request, Response};
use raysearch_service::{Handler, TRACE_HEADER};

/// One recorded interval: which layer, which request, when.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// The layer (`router`, `backend-0`, ...).
    pub layer: &'static str,
    /// The request's trace id, as the client sent it.
    pub trace: u64,
    /// Start, in nanoseconds since the sink's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the sink's epoch.
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Sink {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Sink {
    /// An empty sink whose clock starts now.
    #[must_use]
    pub fn new() -> Sink {
        Sink {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the sink's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Keeps one span.
    pub fn record(&self, span: SpanRec) {
        self.spans.lock().expect("no span writer panics").push(span);
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn drain(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("no span writer panics"))
    }
}

impl Default for Sink {
    fn default() -> Self {
        Sink::new()
    }
}

/// The trace id a load client put on a request.
#[must_use]
fn trace_of(req: &Request) -> Option<u64> {
    u64::from_str_radix(req.header(TRACE_HEADER)?, 16).ok()
}

/// A [`Handler`] that records the time spent inside the wrapped
/// handler's `handle` for every request carrying a trace id, and
/// delegates everything else unchanged.
#[derive(Debug)]
pub struct Traced<H> {
    inner: Arc<H>,
    layer: &'static str,
    sink: Arc<Sink>,
}

impl<H> Traced<H> {
    /// Wraps `inner`, recording spans named `layer` into `sink`.
    pub fn new(inner: Arc<H>, layer: &'static str, sink: Arc<Sink>) -> Traced<H> {
        Traced { inner, layer, sink }
    }
}

impl<H: Handler> Handler for Traced<H> {
    fn handle(&self, req: &Request) -> Response {
        let start_ns = self.sink.now_ns();
        let response = self.inner.handle(req);
        let end_ns = self.sink.now_ns();
        if let Some(trace) = trace_of(req) {
            self.sink.record(SpanRec {
                layer: self.layer,
                trace,
                start_ns,
                end_ns,
            });
        }
        response
    }

    fn note_shed(&self) {
        self.inner.note_shed();
    }

    fn start_background(self: Arc<Self>, stop: Arc<AtomicBool>) -> Vec<JoinHandle<()>> {
        Arc::clone(&self.inner).start_background(stop)
    }

    fn stop_background(&self) {
        self.inner.stop_background();
    }
}

/// A [`CompileCache`] that times every `build` the wrapped cache runs
/// and counts the pieces of every artifact it hands out.
#[derive(Debug)]
pub struct TimedCache<'a, C> {
    inner: &'a C,
    /// Nanoseconds spent inside `build` so far.
    pub build_ns: Cell<u64>,
    /// `Σ num_pieces()` over the artifacts returned so far.
    pub pieces: Cell<u64>,
}

impl<'a, C: CompileCache> TimedCache<'a, C> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a C) -> TimedCache<'a, C> {
        TimedCache {
            inner,
            build_ns: Cell::new(0),
            pieces: Cell::new(0),
        }
    }
}

impl<C: CompileCache> CompileCache for TimedCache<'_, C> {
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        let mut timed = || {
            let started = Instant::now();
            let built = build();
            self.build_ns
                .set(self.build_ns.get() + started.elapsed().as_nanos() as u64);
            built
        };
        let fleet = self.inner.get_or_compile(key, &mut timed)?;
        self.pieces
            .set(self.pieces.get() + fleet.num_pieces() as u64);
        Ok(fleet)
    }
}

/// One exported trace: its id, the service of its root, the root span.
pub type Trace = (String, String, SpanData);

/// A span in microseconds relative to `base_ns`.
#[must_use]
pub fn span_data(name: &str, base_ns: u64, start_ns: u64, end_ns: u64) -> SpanData {
    let micros = |ns: u64| ns.saturating_sub(base_ns) / 1000;
    SpanData::leaf(name, micros(start_ns), micros(end_ns))
}

/// Writes `traces` (trace id, service, root) as one Chrome trace-event
/// document at `path`, creating its directory.
///
/// # Errors
///
/// Returns the I/O failure as text.
pub fn export(path: &std::path::Path, traces: &[Trace]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let json = chrome_trace_json(
        traces
            .iter()
            .map(|(id, service, root)| (id.as_str(), service.as_str(), root)),
    );
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}
