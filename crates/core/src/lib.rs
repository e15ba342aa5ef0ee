//! Public facade of the `raysearch` workspace: problem specifications,
//! exact competitive-ratio evaluation, tightness verdicts and parallel
//! parameter sweeps.
//!
//! This crate glues the substrates together into the API a user of the
//! reproduction actually touches:
//!
//! * [`problem`] — `LineProblem` / `RayProblem`: instance parameters plus
//!   an evaluation horizon;
//! * [`eval`] — the exact evaluator: computes
//!   `sup_x τ(x)/|x|` for a compiled fleet *symbolically* over
//!   breakpoints (no sampling), against the worst-case crash adversary;
//! * [`verdict`] — ties theory to measurement: the closed-form `Λ(q/k)`,
//!   the measured ratio of the optimal strategy, and the covering
//!   falsification just below the bound;
//! * [`compiled`] — the compilation layer: the arena-backed
//!   [`CompiledFleet`], the one first-visit representation every
//!   consumer reads, keyed by fleet geometry ([`FleetKey`]) in a sharded
//!   memo ([`CompileMemo`]) so evaluations, verdicts, Monte-Carlo runs
//!   and campaign cells sharing geometry compile once;
//! * [`canon`] — canonical `f64` cache keys ([`CanonF64`]: no `NaN`, no
//!   `-0.0`) so a memoizing serving layer can key on instance parameters,
//!   plus the pinned cross-process hash ([`stable_hash64`]) consistent-hash
//!   routers and replay harnesses agree on;
//! * [`sweep`] — a small work-stealing parallel runner (std scoped
//!   threads) used by the benchmark harness for parameter sweeps;
//! * [`campaign`] — the campaign engine: declarative parameter grids
//!   ([`campaign::ParamGrid`]), a sharded deterministic-order runner
//!   ([`campaign::Campaign`]) and text/JSON reports
//!   ([`campaign::Report`]) — the machinery behind the E1–E10
//!   experiment suite in `raysearch-bench`;
//! * [`telemetry`] — the measurement core shared by the serving tier and
//!   the replay harness: lock-free power-of-two latency histograms
//!   ([`LatencyHistogram`]), mergeable plain-data snapshots with
//!   integer-only percentile reads ([`HistogramSnapshot`]), and the
//!   [`splitmix64`] mixer trace ids are minted from;
//! * [`trace`] — hierarchical request tracing: per-request span trees
//!   ([`SpanData`]) recorded through a [`TraceBuilder`],
//!   a lock-sharded bounded ring of completed traces keyed by the 64-bit
//!   trace id ([`TraceRecorder`], deterministic SplitMix64 1-in-N
//!   sampling), and Chrome trace-event export
//!   ([`trace::chrome_trace_json`]).
//!
//! # Example: Theorem 1 tightness for (k, f) = (3, 1)
//!
//! ```
//! use raysearch_core::verdict::verify_tightness;
//!
//! let report = verify_tightness(2, 3, 1, 1e4, 1e-3)?;
//! // the measured ratio of the optimal strategy matches Λ(ρ)...
//! assert!((report.measured_upper - report.theory).abs() < 1e-2);
//! // ...and coverage provably fails just below it
//! assert!(report.falsified_below);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod campaign;
pub mod canon;
pub mod compiled;
pub mod eval;
pub mod problem;
pub mod sweep;
pub mod telemetry;
pub mod trace;
pub mod verdict;

pub use campaign::{Campaign, CampaignRun, Cell, ParamGrid, ParamValue, Report};
pub use canon::{stable_hash64, stable_hash64_parts, CanonF64, StableHasher};
pub use compiled::{
    optimal_fleet, CompileCache, CompileMemo, CompileStats, CompiledFleet, FirstVisitPiece,
    FleetBuilder, FleetKey, NoCache,
};
pub use error::CoreError;
pub use eval::{evaluate_optimal, evaluate_optimal_cached, EvalReport, RayEvaluator, WorstTarget};
pub use problem::{LineProblem, RayProblem};
pub use sweep::{par_map, par_map_threads};
pub use telemetry::{splitmix64, HistogramSnapshot, LatencyHistogram};
pub use trace::{CompletedTrace, SpanData, TraceBuilder, TraceRecorder};
pub use verdict::{verify_tightness, verify_tightness_cached, TightnessReport};
