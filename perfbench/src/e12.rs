//! `e12-sweep`: the full E12 large-fleet sweep (24 cells, m = 2,
//! k ∈ {128 … 4096}, horizon 1e12) in process on one thread, on a fresh
//! `CompileMemo` (cold) and again on the memo it just filled (warm),
//! alternately. An operation is one cell: one exact evaluation. A
//! window for the order statistics is one cold-then-warm pair of
//! sweeps, so every window holds the same cells; pooled over a run, the
//! median would fall in the gap between two cells' times and jump
//! between them from run to run.
//!
//! The timed phase runs the sweep through
//! `e12_large_fleet::campaign_with_memo`, the entry point `tablegen`
//! and `benchgen` use, and takes the compile/evaluate split from the
//! campaign's own compile-memo report. The traced phase walks the same
//! cells through `evaluate_optimal_cached` with a timing wrapper around
//! the memo, because the campaign takes a concrete `Arc<CompileMemo>`;
//! the wrapper counts the artifacts' pieces and times the builds for
//! the exported spans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use raysearch_bench::experiments::e12_large_fleet::{campaign_with_memo, Row};
use raysearch_core::{evaluate_optimal_cached, stable_hash64, CompileMemo, CompileStats, SpanData};
use serde_json::Value;

use crate::spans::{export, TimedCache, Trace};
use crate::stats::{mean, median, process_cpu_ns};
use crate::{
    check_pinned, per_layer_outcome, pinned, Layers, Options, Outcome, Timing, SETUP_REPEATS,
};

/// The sweep's evaluation horizon.
pub const HORIZON: f64 = 1e12;

/// The full sweep's largest fleet.
const MAX_K: u32 = 4096;

/// A digest of every bit of every row, in row order.
#[must_use]
pub fn row_digest(rows: &[Row]) -> String {
    let mut bytes = Vec::with_capacity(rows.len() * 72);
    for r in rows {
        for v in [r.m, r.k, r.f] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for v in [r.eta, r.horizon, r.measured, r.closed_form, r.rel_err] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&r.breakpoints.to_le_bytes());
    }
    format!("{:016x}", stable_hash64(&bytes))
}

/// One timed sweep.
struct Sweep {
    rows: Vec<Row>,
    /// Each cell's `(start, end)` in nanoseconds since the phase began:
    /// the cells run back to back on one thread, so each starts where
    /// the one before ended.
    cells: Vec<(u64, u64)>,
    /// Wall time of the whole sweep, measured around the campaign.
    wall_ms: f64,
    /// The campaign's own total, in microseconds.
    micros: u64,
    /// The campaign's compile-memo activity.
    compile: CompileStats,
}

fn sweep(memo: Arc<CompileMemo>, epoch: Instant) -> Sweep {
    let started = epoch.elapsed().as_nanos() as u64;
    let run = campaign_with_memo(MAX_K, HORIZON, memo)
        .threads(Some(1))
        .run();
    let wall_ms = (epoch.elapsed().as_nanos() as u64 - started) as f64 / 1e6;
    let mut at = started;
    let cells = run
        .results
        .iter()
        .map(|c| {
            let cell = (at, at + c.micros * 1000);
            at = cell.1;
            cell
        })
        .collect();
    Sweep {
        rows: run.rows().copied().collect(),
        cells,
        wall_ms,
        micros: run.micros,
        compile: run.compile.expect("campaign_with_memo attaches its memo"),
    }
}

/// The output checks of one sweep: every row finite and at most
/// `Λ(q/k)·(1 + 1e-9)`; a warm sweep bit-identical to its cold twin;
/// the row digest and the breakpoint total equal to the pinned ones.
/// Returns whether all passed.
fn check(rows: &[Row], cold: Option<&[Row]>, out: &mut Outcome) -> bool {
    let problems = out.problems.len();
    for r in rows {
        if !(r.measured.is_finite() && r.measured <= r.closed_form * (1.0 + 1e-9)) {
            out.problem(format!(
                "e12 (k={}, f={}): measured {} above Λ = {}",
                r.k, r.f, r.measured, r.closed_form
            ));
        }
    }
    let digest = row_digest(rows);
    if cold.is_some_and(|cold| digest != row_digest(cold)) {
        out.problem("e12: warm rows are not bit-identical to cold".to_owned());
    }
    if let Some(want) = pinned("e12", "row_digest").as_ref().and_then(Value::as_str) {
        if digest != want {
            out.problem(format!("e12: row digest {digest}, pinned {want}"));
        }
    }
    let breakpoints: u64 = rows.iter().map(|r| r.breakpoints).sum();
    check_pinned("e12", "eval.breakpoints", breakpoints as f64, out);
    out.problems.len() == problems
}

/// What the timed phase keeps of each sweep besides its cells' times.
struct SweepStats {
    wall_ms: f64,
    micros: u64,
    compile: CompileStats,
}

impl From<&Sweep> for SweepStats {
    fn from(s: &Sweep) -> SweepStats {
        SweepStats {
            wall_ms: s.wall_ms,
            micros: s.micros,
            compile: s.compile,
        }
    }
}

/// Alternates cold and warm sweeps until `seconds` have passed (always
/// finishing the pair), checking every sweep. Returns the timing and
/// the cold and warm sweeps' figures.
fn timed_phase(opts: &Options, out: &mut Outcome) -> (Timing, Vec<SweepStats>, Vec<SweepStats>) {
    let mut timing = Timing::default();
    let (mut colds, mut warms) = (Vec::new(), Vec::new());
    let mut cells = Vec::new();
    let cpu0 = process_cpu_ns();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(opts.seconds);
    loop {
        let memo = Arc::new(CompileMemo::new());
        let cold = sweep(Arc::clone(&memo), started);
        let warm = sweep(memo, started);
        let ops = (cold.rows.len() + warm.rows.len()) as u64;
        out.attempted += ops;
        let ok = check(&cold.rows, None, out) & check(&warm.rows, Some(&cold.rows), out);
        if !ok {
            out.failed += ops;
        }
        colds.push(SweepStats::from(&cold));
        warms.push(SweepStats::from(&warm));
        cells.extend(cold.cells);
        cells.extend(warm.cells);
        if Instant::now() >= deadline {
            break;
        }
    }
    timing.wall_s = started.elapsed().as_secs_f64();
    timing.cpu_ns = (process_cpu_ns() - cpu0) as f64;
    let pair = cells.len() / colds.len();
    timing.push_client(&cells, pair);
    (timing, colds, warms)
}

/// The value `pick` gives every sweep, with a problem recorded when two
/// sweeps differ: the counts are exact.
fn repeated(
    name: &str,
    sweeps: &[SweepStats],
    pick: fn(&CompileStats) -> u64,
    out: &mut Outcome,
) -> f64 {
    let values: Vec<u64> = sweeps.iter().map(|s| pick(&s.compile)).collect();
    if values.windows(2).any(|w| w[0] != w[1]) {
        out.problem(format!("e12: {name} varies between sweeps: {values:?}"));
    }
    let value = values.first().copied().unwrap_or(0) as f64;
    check_pinned("e12", name, value, out);
    value
}

/// The traced phase: the reference rows' cells through
/// `evaluate_optimal_cached` with a [`TimedCache`] around a fresh memo,
/// cold then warm, until `seconds` have passed. Returns `Σ num_pieces()`
/// of a sweep's artifacts, the first pair's span trees and the mean
/// traced pair time in milliseconds.
fn traced_phase(
    opts: &Options,
    reference: &[Row],
    out: &mut Outcome,
) -> Result<(f64, Vec<Trace>, f64), String> {
    let mut traces = Vec::new();
    let (mut pieces, mut pair_ms) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    loop {
        let memo = CompileMemo::new();
        let started = Instant::now();
        let mut ok = true;
        for phase in ["cold", "warm"] {
            let cache = TimedCache::new(&memo);
            for r in reference {
                let build_before = cache.build_ns.get();
                let cell_start = started.elapsed().as_micros() as u64;
                let report = evaluate_optimal_cached(&cache, 2, r.k, r.f, HORIZON)
                    .map_err(|e| format!("e12 (k={}, f={}): {e}", r.k, r.f))?;
                let cell_end = started.elapsed().as_micros() as u64;
                ok &= report.ratio.to_bits() == r.measured.to_bits()
                    && report.num_breakpoints as u64 == r.breakpoints;
                if traces.len() < 2 * reference.len() {
                    let build_us = (cache.build_ns.get() - build_before) / 1000;
                    let mut root = SpanData::leaf("evaluate_optimal_cached", cell_start, cell_end);
                    root.attrs = vec![
                        ("k".to_owned(), r.k.to_string()),
                        ("f".to_owned(), r.f.to_string()),
                    ];
                    if build_us > 0 {
                        root.children.push(SpanData::leaf(
                            "compiled.build",
                            cell_start,
                            cell_start + build_us,
                        ));
                    }
                    traces.push((
                        format!("{phase}-k{}-f{}", r.k, r.f),
                        "perfbench-e12".to_owned(),
                        root,
                    ));
                }
            }
            pieces.push(cache.pieces.get());
        }
        pair_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let ops = 2 * reference.len() as u64;
        out.attempted += ops;
        if !ok {
            out.problem("e12: a traced sweep differs from the timed rows".to_owned());
            out.failed += ops;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if pieces.windows(2).any(|w| w[0] != w[1]) {
        out.problem(format!(
            "e12: compiled.pieces varies between sweeps: {pieces:?}"
        ));
    }
    let pieces = pieces.first().copied().unwrap_or(0) as f64;
    check_pinned("e12", "compiled.pieces", pieces, out);
    Ok((pieces, traces, mean(&pair_ms)))
}

/// Runs the `e12-sweep` workload.
///
/// # Errors
///
/// Returns a message if an evaluation errors or the trace cannot be
/// written.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // set-up: cold sweeps on throwaway memos, so allocator growth and
    // page faults land before the clock starts; the last one's rows are
    // the traced phase's reference
    let mut setups = Vec::new();
    let mut reference = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let warmup = sweep(Arc::new(CompileMemo::new()), started);
        setups.push(started.elapsed().as_secs_f64());
        check(&warmup.rows, None, &mut out);
        reference = warmup.rows;
    }
    out.notes
        .push(format!("row digest {}", row_digest(&reference)));
    let (mut timing, colds, warms) = timed_phase(opts, &mut out);
    timing.setup_s = median(&setups);
    timing.setups = setups.len();
    let wall_ms = |sweeps: &[SweepStats]| sweeps.iter().map(|s| s.wall_ms).collect::<Vec<_>>();
    if !opts.trace {
        timing.report(&mut out);
        out.notes.push(format!(
            "sweeps: cold median {:.2} ms, warm median {:.2} ms ({} pairs)",
            median(&wall_ms(&colds)),
            median(&wall_ms(&warms)),
            colds.len()
        ));
        return Ok(out);
    }
    // the compile/evaluate split as the campaign reports it
    let ms = |sweeps: &[SweepStats], part: fn(&SweepStats) -> u64| {
        mean(
            &sweeps
                .iter()
                .map(|s| part(s) as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let evaluate = |s: &SweepStats| s.micros.saturating_sub(s.compile.compile_micros);
    let mut layer: Layers = vec![
        (
            "compiled.build_ms",
            ms(&colds, |s| s.compile.compile_micros),
        ),
        (
            "compiled.misses",
            repeated("compiled.misses", &colds, |c| c.misses, &mut out),
        ),
        (
            "compiled.hits",
            repeated("compiled.hits", &warms, |c| c.hits, &mut out),
        ),
        ("eval.cold_ms", ms(&colds, evaluate)),
        ("eval.warm_ms", ms(&warms, evaluate)),
        (
            "eval.breakpoints",
            reference.iter().map(|r| r.breakpoints).sum::<u64>() as f64,
        ),
        ("sweep.cold_ms", median(&wall_ms(&colds))),
        ("sweep.warm_ms", median(&wall_ms(&warms))),
    ];
    let (pieces, traces, traced_pair_ms) = traced_phase(opts, &reference, &mut out)?;
    let untraced_pair_ms = mean(&wall_ms(&colds)) + mean(&wall_ms(&warms));
    layer.push(("compiled.pieces", pieces));
    layer.push(("trace.spans", traces.len() as f64));
    layer.push((
        "trace.overhead_pct",
        (traced_pair_ms - untraced_pair_ms) / untraced_pair_ms * 100.0,
    ));
    let path = opts.trace_path();
    export(&path, &traces)?;
    out.notes.push(format!(
        "trace: {} spans in {}",
        traces.len(),
        path.display()
    ));
    layer.push((
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    ));
    Ok(per_layer_outcome(out, &layer))
}
