//! E12 — the asymptotic large-fleet regime `k ∈ {128, …, 4096}`.
//!
//! The paper's bound `Λ(η)` is an asymptotic statement: the gap between
//! the exact evaluator and the closed form is governed by `η = q/k`,
//! and the near-majority-faulty instances studied by the related work
//! (Bonato et al. 2020; Czyzowicz et al.) live at large `k` with
//! `f ≈ k/2` on the line. Linear tours cannot reach this regime — their
//! turn points overflow `f64` from `k ≈ 139` — so E12 is the workload
//! the streamed fleet compiler opens: for
//! each fleet size it sweeps `f` across the searchable band
//! (`η` from just above 1 to the classic 2) and pins the measured exact
//! ratio against `Λ(η)` at a deep horizon.
//!
//! Every row must be finite with `measured ≤ closed_form` and relative
//! error at the `10^-6` scale; the umbrella package's `e12_large_fleet`
//! test asserts exactly that over the full sweep.

use std::sync::Arc;

use raysearch_bounds::{a_rays, RayInstance, Regime};
use raysearch_core::campaign::{Campaign, ParamGrid};
use raysearch_core::{evaluate_optimal_cached, CompileMemo};

/// The fleet sizes of the sweep: doublings from the last size the old
/// linear pipeline served (128) to the engine ceiling (4096).
pub const FLEET_SIZES: &[u32] = &[128, 256, 512, 1024, 2048, 4096];

/// The `η = q/k` targets swept per fleet size, realized as the faulty
/// counts `f = η·k/2 − 1` (exact integers for the power-of-two fleet
/// sizes; the first entry is `f = k/2`, i.e. `η = (k+2)/k`, the closest
/// searchable approach to `η → 1⁺`).
pub fn faulty_counts(k: u32) -> [u32; 4] {
    [k / 2, 5 * k / 8 - 1, 3 * k / 4 - 1, k - 1]
}

/// One row of the E12 table.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Row {
    /// Number of rays (the line: 2).
    pub m: u32,
    /// Number of robots.
    pub k: u32,
    /// Number of crash-faulty robots.
    pub f: u32,
    /// `η = q/k = 2(f+1)/k`.
    pub eta: f64,
    /// The evaluation horizon.
    pub horizon: f64,
    /// Measured sup of `τ(x)/x` of the optimal fleet (exact evaluator
    /// over the streamed fleet).
    pub measured: f64,
    /// Closed form `Λ(η) = A(2, k, f)` (Theorem 6).
    pub closed_form: f64,
    /// `|measured − closed_form| / closed_form`.
    pub rel_err: f64,
    /// Boundary candidates the evaluator examined.
    pub breakpoints: u64,
}

/// Builds the E12 campaign: [`FLEET_SIZES`] capped at
/// `max(max_k, 128)` × the [`faulty_counts`] sweep, evaluated at
/// `horizon`.
///
/// The cap keeps default suite runs (`tablegen` with a small `--max-k`)
/// at the cheap `k = 128` slice while `--max-k 4096` unlocks the full
/// sweep — the `k` axis never drops below 128, because smaller fleets
/// are E1/E4 territory.
pub fn campaign(max_k: u32, horizon: f64) -> Campaign<Row> {
    campaign_with_memo(max_k, horizon, Arc::new(CompileMemo::new()))
}

/// [`campaign`] with a caller-supplied compile memo, so repeated runs
/// (benchmark iterations, the serving layer) reuse compiled fleets
/// across campaigns and the run's report carries the compile/evaluate
/// time split.
pub fn campaign_with_memo(max_k: u32, horizon: f64, memo: Arc<CompileMemo>) -> Campaign<Row> {
    let cap = max_k.max(FLEET_SIZES[0]);
    let cells: Vec<(u32, u32)> = FLEET_SIZES
        .iter()
        .filter(|&&k| k <= cap)
        .flat_map(|&k| faulty_counts(k).into_iter().map(move |f| (k, f)))
        .collect();
    let grid = ParamGrid::new().axis_zip(
        &["k", "f"],
        cells.iter().map(|&(k, f)| vec![k.into(), f.into()]),
    );
    let cell_memo = Arc::clone(&memo);
    Campaign::new(
        "e12",
        "Large fleets: exact ratio vs Λ(q/k) across the formerly-overflowing range",
        grid,
        move |cell| {
            let (k, f) = (cell.get_u32("k"), cell.get_u32("f"));
            let instance = RayInstance::new(2, k, f).expect("validated");
            debug_assert!(matches!(instance.regime(), Regime::Searchable { .. }));
            let closed_form = a_rays(2, k, f).expect("E12 sweeps only the searchable band");
            let report = evaluate_optimal_cached(&cell_memo, 2, k, f, horizon)
                .expect("the streamed fleet is finite at any fleet size");
            Row {
                m: 2,
                k,
                f,
                eta: instance.eta(),
                horizon,
                measured: report.ratio,
                closed_form,
                rel_err: (report.ratio - closed_form).abs() / closed_form,
                breakpoints: report.num_breakpoints as u64,
            }
        },
    )
    .with_compile_memo(memo)
}

/// Runs E12 up to fleet size `max(max_k, 128)` at `horizon`.
///
/// # Panics
///
/// Panics if any substrate rejects in-regime parameters (a bug).
pub fn run(max_k: u32, horizon: f64) -> Vec<Row> {
    campaign(max_k, horizon).run().into_rows()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulty_counts_stay_in_the_searchable_band() {
        for &k in FLEET_SIZES {
            for f in faulty_counts(k) {
                let inst = RayInstance::new(2, k, f).expect("valid instance");
                assert!(
                    matches!(inst.regime(), Regime::Searchable { .. }),
                    "(k={k}, f={f}) not searchable"
                );
            }
            // the sweep spans η from just above 1 to exactly 2
            let etas: Vec<f64> = faulty_counts(k)
                .into_iter()
                .map(|f| f64::from(2 * (f + 1)) / f64::from(k))
                .collect();
            assert!(etas.windows(2).all(|w| w[0] < w[1]));
            assert!(etas[0] > 1.0 && (etas[3] - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rows_track_the_closed_form() {
        // the cheap slice: k = 128 at a moderate horizon
        let rows = run(1, 1e6);
        assert_eq!(rows.len(), 4, "cap below 128 still yields the k=128 slice");
        for r in &rows {
            assert_eq!(r.k, 128);
            assert!(r.measured.is_finite(), "(k={}, f={}) overflowed", r.k, r.f);
            assert!(
                r.measured <= r.closed_form * (1.0 + 1e-9),
                "measured {} exceeds Λ {}",
                r.measured,
                r.closed_form
            );
            assert!(
                r.rel_err < 1e-6,
                "(k={}, f={}): rel_err {}",
                r.k,
                r.f,
                r.rel_err
            );
            assert!(r.breakpoints > 0);
        }
        // η sweeps upward ⇒ Λ(η) strictly increases along the f axis
        assert!(rows.windows(2).all(|w| w[0].closed_form < w[1].closed_form));
    }

    #[test]
    fn cap_unlocks_larger_fleets() {
        let infos = campaign(256, 1e6);
        assert_eq!(infos.grid().cells().len(), 8, "128 and 256 slices");
        let report = campaign(128, 1e5).threads(Some(2)).run().report();
        assert_eq!(report.id(), "e12");
        assert_eq!(report.rows().len(), 4);
        let text = report.render_text();
        assert!(text.contains("closed_form") && text.contains("rel_err"));
    }

    #[test]
    fn shared_memo_makes_the_second_run_all_hits_with_identical_rows() {
        let memo = Arc::new(CompileMemo::new());
        let cold = campaign_with_memo(128, 1e5, Arc::clone(&memo))
            .threads(Some(2))
            .run();
        let cold_stats = cold.compile.expect("memo attached");
        assert_eq!(cold_stats.hits, 0, "first run compiles everything");
        assert_eq!(cold_stats.misses, 4, "one distinct α per (k, f) cell");
        let warm = campaign_with_memo(128, 1e5, Arc::clone(&memo))
            .threads(Some(2))
            .run();
        let warm_stats = warm.compile.expect("memo attached");
        assert_eq!(warm_stats.misses, 0, "second run compiles nothing");
        assert_eq!(warm_stats.hits, 4);
        for (a, b) in cold.rows().zip(warm.rows()) {
            assert_eq!(a.measured.to_bits(), b.measured.to_bits());
            assert_eq!(a.breakpoints, b.breakpoints);
        }
        // the default entry point is bit-identical to the memoized one
        for (a, b) in run(1, 1e5).iter().zip(cold.rows()) {
            assert_eq!(a.measured.to_bits(), b.measured.to_bits());
        }
    }
}
