//! E10 — the boundary behaviour of the master ratio.
//!
//! Two series (two campaigns, since the rows differ):
//!
//! * **`ρ → 1⁺`** — the paper notes the ratio is `1` *at* `s = 0` but the
//!   formula tends to `3` as `s → 0⁺`: a genuine discontinuity between
//!   the trivial and searchable regimes. The series walks `q/k → 1`.
//! * **`ρ = 2` cow-path base sweep** — at the classic boundary the
//!   formula specializes to `1 + 2b²/(b−1)` over the doubling base `b`,
//!   minimized at `b = 2` with value 9; measured on real trajectories.

use raysearch_bounds::c_orc;
#[cfg(test)]
use raysearch_bounds::lambda_big;
use raysearch_core::campaign::{Campaign, ParamGrid};
use raysearch_core::{CompiledFleet, RayEvaluator};
use raysearch_sim::LineItinerary;
use raysearch_strategies::{DoublingCowPath, LineStrategy};

/// One point of the `ρ → 1⁺` series.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RhoRow {
    /// Robots `k` (with `q = k + 1`, the closest searchable point).
    pub k: u32,
    /// `η = (k+1)/k`.
    pub eta: f64,
    /// `Λ(η)` — tends to 3, never 1.
    pub ratio: f64,
}

/// One point of the cow-path base sweep.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BaseRow {
    /// The geometric base `b`.
    pub base: f64,
    /// The closed form `1 + 2b²/(b−1)`.
    pub formula: f64,
    /// Measured on a compiled trajectory.
    pub measured: f64,
}

/// Builds the `ρ → 1⁺` campaign for `k = 1, 2, 4, …, 2^doublings`.
pub fn rho_campaign(doublings: u32) -> Campaign<RhoRow> {
    let grid = ParamGrid::new().axis_u32("k", (0..=doublings).map(|i| 1u32 << i));
    Campaign::new(
        "e10_rho",
        "boundaries: rho -> 1+ discontinuity (Lambda tends to 3, never 1)",
        grid,
        |cell| {
            let k = cell.get_u32("k");
            RhoRow {
                k,
                eta: f64::from(k + 1) / f64::from(k),
                ratio: c_orc(k, k + 1).expect("q > k"),
            }
        },
    )
}

/// Builds the cow-path base-sweep campaign.
pub fn base_campaign(bases: &[f64], horizon: f64) -> Campaign<BaseRow> {
    let grid = ParamGrid::new().axis_f64("base", bases.iter().copied());
    Campaign::new(
        "e10_base",
        "boundaries: rho = 2 cow path, ratio vs doubling base",
        grid,
        move |cell| {
            let base = cell.get_f64("base");
            let cow = DoublingCowPath::new(base).expect("base > 1");
            let fleet = cow
                .fleet_itineraries(horizon * 10.0)
                .expect("valid horizon");
            let tours = fleet.iter().map(LineItinerary::to_two_ray_tour);
            let fleet = CompiledFleet::from_tours(2, horizon * 10.0, tours).expect("two-ray tours");
            let measured = RayEvaluator::new(2, 0, 1.0, horizon)
                .expect("valid range")
                .evaluate(&fleet)
                .expect("single robot, f = 0")
                .ratio;
            BaseRow {
                base,
                formula: cow.theoretical_ratio(),
                measured,
            }
        },
    )
}

/// Runs the `ρ → 1⁺` series for `k = 1, 2, 4, …, 2^doublings`.
///
/// # Panics
///
/// Panics if bound computation rejects `q = k+1 > k` (a bug).
pub fn run_rho(doublings: u32) -> Vec<RhoRow> {
    rho_campaign(doublings).run().into_rows()
}

/// Runs the cow-path base sweep.
///
/// # Panics
///
/// Panics if a base `≤ 1` is passed.
pub fn run_bases(bases: &[f64], horizon: f64) -> Vec<BaseRow> {
    base_campaign(bases, horizon).run().into_rows()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_series_descends_to_three_not_one() {
        let rows = run_rho(10);
        for w in rows.windows(2) {
            assert!(w[1].ratio < w[0].ratio, "not descending");
        }
        let last = rows.last().unwrap();
        assert!(last.ratio > 3.0, "crossed the limit 3");
        assert!(last.ratio < 3.1, "not yet near 3 at k = {}", last.k);
        // the discontinuity: at s = 0 exactly, the regime says 1
        let trivial = raysearch_bounds::LineInstance::new(4, 1).unwrap();
        assert_eq!(trivial.regime().ratio(), Some(1.0));
        // lambda_big(1) = 3 is the one-sided limit
        assert!((lambda_big(1.0).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn base_sweep_minimizes_at_two() {
        let rows = run_bases(&[1.5, 1.8, 2.0, 2.2, 3.0], 1e4);
        let at_two = rows.iter().find(|r| r.base == 2.0).unwrap();
        for r in &rows {
            assert!(
                (r.formula - r.measured).abs() < 1e-2 * r.formula,
                "formula vs measured at base {}",
                r.base
            );
            assert!(r.formula >= at_two.formula - 1e-12);
        }
        assert!((at_two.formula - 9.0).abs() < 1e-12);
    }
}
