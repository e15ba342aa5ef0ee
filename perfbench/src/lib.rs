//! The raysearch benchmark: three fixed workloads run against the
//! shipped crates through their public entry points, timed end to end
//! from outside, with a separate traced run that times each layer
//! through wrappers around two public seams (`CompileCache` and
//! `Handler`).
//!
//! * `e12-sweep` — the full E12 large-fleet sweep in process, cold and
//!   warm alternately ([`e12`]).
//! * `sync-hot` — cached synchronous requests through router → backend
//!   ([`service`]).
//! * `jobs` — asynchronous job round trips through router → backend
//!   ([`service`]).
//!
//! One run prints every metric by name with its unit and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

use serde_json::Value;

pub mod e12;
pub mod gen;
pub mod service;
pub mod spans;
pub mod stats;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["e12-sweep", "sync-hot", "jobs"];

/// Counts and digests pinned for the recorded seed (`pinned.json`'s
/// `seed`): the exact work the workloads do, and the first traced run's
/// layer baselines.
pub const PINNED_JSON: &str = include_str!("../pinned.json");

/// The pinned value `pinned.json[section][key]`, if recorded.
#[must_use]
pub fn pinned(section: &str, key: &str) -> Option<Value> {
    let doc: Value = serde_json::from_str(PINNED_JSON).expect("pinned.json is valid JSON");
    doc.get(section)?.get(key).cloned()
}

/// Compares an exact count with its value in `pinned.json`, when one
/// is recorded there.
pub fn check_pinned(section: &str, name: &str, got: f64, out: &mut Outcome) {
    if let Some(want) = pinned(section, name).as_ref().and_then(Value::as_f64) {
        if got != want {
            out.problem(format!("{section}: {name} = {got}, pinned {want}"));
        }
    }
}

/// Set-ups timed before the untraced phase; their median is reported
/// as `setup_s`.
pub(crate) const SETUP_REPEATS: usize = 9;

/// Where traced runs write their Chrome traces: `out/` beside this
/// package's manifest, in the tree the benchmark was built from.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seeds the generated inputs (unused by `e12-sweep`).
    pub seed: u64,
    /// Length of the timed phase (and of the traced phase).
    pub seconds: f64,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Closed-loop load connections (service workloads). One: with two,
    /// every vCPU of a 2-vCPU machine is busy, and host CPU steal turns
    /// into multi-millisecond stalls that dominate the tail.
    pub clients: usize,
}

impl Options {
    /// The settings `BENCHMARK.json` runs with.
    #[must_use]
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload: workload.to_owned(),
            seed,
            seconds,
            trace,
            clients: 1,
        }
    }

    /// Where the traced run writes its Chrome trace.
    #[must_use]
    pub fn trace_path(&self) -> std::path::PathBuf {
        std::path::Path::new(TRACE_DIR)
            .join(format!("{}-seed{}.trace.json", self.workload, self.seed))
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase(s).
    pub attempted: u64,
    /// Operations that failed: non-2xx, transport error or a failed
    /// output check.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts and context for the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a failed output check.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every output check passed and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The final stdout line.
    #[must_use]
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                if i == 0 { "" } else { "," },
                m.name,
                value,
                m.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message when the workload cannot run at all (unknown name,
/// a server that does not bind); output-check failures are reported in
/// the [`Outcome`] instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "e12-sweep" => e12::run(opts),
        "sync-hot" => service::run_sync_hot(opts),
        "jobs" => service::run_jobs(opts),
        other => Err(format!(
            "unknown workload {other:?} (available: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The per-layer metrics every traced run reports, with their units, in
/// report order. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compiled.build_ms", "ms"),
    ("compiled.pieces", "count"),
    ("compiled.misses", "count"),
    ("compiled.hits", "count"),
    ("eval.cold_ms", "ms"),
    ("eval.warm_ms", "ms"),
    ("eval.breakpoints", "count"),
    ("sweep.cold_ms", "ms"),
    ("sweep.warm_ms", "ms"),
    ("client.wire_us", "us"),
    ("router.self_us", "us"),
    ("route.connect_us", "us"),
    ("backend.handle_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("compile_tier.evictions", "count"),
    ("jobs.submit_us", "us"),
    ("jobs.queue_wait_us", "us"),
    ("jobs.exec_us.evaluate", "us"),
    ("jobs.exec_us.montecarlo", "us"),
    ("jobs.envelope_us", "us"),
    ("jobs.breakpoints", "count"),
    ("mc.samples", "count"),
    ("router.failover", "count"),
    ("server.shed", "count"),
    ("jobs.rejected", "count"),
    ("jobs.evicted", "count"),
    ("failed_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer figures by metric name.
pub type Layers = Vec<(&'static str, f64)>;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("cpu_us_per_op", "us"),
];

/// Orders `layer` (name → value) by [`PER_LAYER`], filling 0 for layers
/// the workload does not exercise.
#[must_use]
pub fn per_layer_outcome(mut base: Outcome, layer: &[(&str, f64)]) -> Outcome {
    base.metrics.clear();
    for (name, unit) in PER_LAYER {
        let value = layer
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        base.metric(name, value, unit);
    }
    base
}

/// Operations per window of a service workload: the 99th percentile of
/// a window has at least ten operations beyond it.
pub const TAIL_WINDOW: usize = 1000;

/// The end-to-end summary of one timed phase.
///
/// Operations are cut into windows of consecutive operations of one
/// client, and each order statistic is the median over the windows of
/// the window's own: a burst of host CPU steal then moves a few windows
/// instead of the whole figure.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Set-ups timed.
    pub setups: usize,
    /// Per-operation latencies in nanoseconds.
    pub latencies_ns: Vec<f64>,
    /// Each window's median latency, in nanoseconds.
    pub window_p50s_ns: Vec<f64>,
    /// Each window's 99th-percentile latency, in nanoseconds.
    pub window_p99s_ns: Vec<f64>,
    /// Per client, the median over its windows of operations completed
    /// per second of wall time.
    pub client_rates: Vec<f64>,
    /// Wall time of the timed phase in seconds.
    pub wall_s: f64,
    /// CPU time spent by the program (not the load generator) in the
    /// timed phase, in nanoseconds.
    pub cpu_ns: f64,
}

impl Timing {
    /// Adds one client's operations — `(start, end)` in nanoseconds on
    /// one clock, in the order it sent them — cut into equal windows of
    /// at least `window` operations (one window when there are fewer).
    /// A window's rate is its operations over the wall time from its
    /// first start to its last end, so the client's own time between
    /// operations counts.
    pub fn push_client(&mut self, ops: &[(u64, u64)], window: usize) {
        let latencies: Vec<f64> = ops.iter().map(|&(s, e)| (e - s) as f64).collect();
        let size = (ops.len() / (ops.len() / window.max(1)).max(1)).max(1);
        let mut rates = Vec::new();
        for (chunk, times) in latencies.chunks_exact(size).zip(ops.chunks_exact(size)) {
            self.window_p50s_ns.push(stats::median(chunk));
            self.window_p99s_ns.push(stats::quantile(chunk, 0.99));
            let wall_ns = times[times.len() - 1].1 - times[0].0;
            rates.push(times.len() as f64 / (wall_ns.max(1) as f64 / 1e9));
        }
        self.client_rates.push(stats::median(&rates));
        self.latencies_ns.extend(latencies);
    }

    /// Mean operation latency in microseconds.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        stats::mean(&self.latencies_ns) / 1e3
    }

    /// Appends the [`END_TO_END`] metrics and their sample counts.
    pub fn report(&self, out: &mut Outcome) {
        let ops = self.latencies_ns.len();
        let n = ops.max(1) as f64;
        out.metric("setup_s", self.setup_s, "s");
        out.metric("ops_per_s", self.client_rates.iter().sum(), "1/s");
        out.metric("p50_us", stats::median(&self.window_p50s_ns) / 1e3, "us");
        out.metric("p99_us", stats::median(&self.window_p99s_ns) / 1e3, "us");
        out.metric("cpu_us_per_op", self.cpu_ns / n / 1e3, "us");
        out.notes.push(format!(
            "{ops} ops in {:.2} s by {} client(s); setup_s: median of {} set-ups; ops_per_s, \
             p50_us, p99_us: medians over {} windows of {} ops; cpu_us_per_op: whole phase; \
             whole phase: {:.1} ops/s, p50 {:.1} us, p99 {:.1} us",
            self.wall_s,
            self.client_rates.len(),
            self.setups,
            self.window_p99s_ns.len(),
            ops / self.window_p99s_ns.len().max(1),
            ops as f64 / self.wall_s.max(1e-9),
            stats::median(&self.latencies_ns) / 1e3,
            stats::quantile(&self.latencies_ns, 0.99) / 1e3
        ));
    }
}
