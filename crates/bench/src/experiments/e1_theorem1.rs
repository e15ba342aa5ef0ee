//! E1 — Theorem 1: `A(k, f)` on the line, three independent ways.
//!
//! For every searchable `(k, f)` the table shows the closed form of
//! Eq. (1), an independent numeric minimization of the strategy family's
//! ratio `2·α^q/(α^k−1) + 1`, the *measured* worst-case ratio of the
//! optimal strategy on the exact evaluator, and the replicated-doubling
//! baseline (always 9). Matching columns are the tightness of Theorem 1.

use raysearch_bounds::{cyclic_ratio, numeric::golden_section_min, LineInstance, Regime};
use raysearch_core::campaign::{Campaign, ParamGrid};
use raysearch_core::{CompiledFleet, RayEvaluator};
use raysearch_sim::LineItinerary;
use raysearch_strategies::{CyclicExponential, LineStrategy};

/// One row of the E1 table.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Row {
    /// Number of robots.
    pub k: u32,
    /// Number of crash-faulty robots.
    pub f: u32,
    /// `ρ = 2(f+1)/k`.
    pub rho: f64,
    /// Closed form `A(k,f)` (Eq. (1)).
    pub closed_form: f64,
    /// Numeric minimum of `2·α^q/(α^k−1)+1` over `α` (golden section).
    pub numeric_min: f64,
    /// Measured sup of `τ(x)/|x|` of the optimal strategy.
    pub measured: f64,
    /// Replicated-doubling baseline ratio (9 for every `f < k`).
    pub baseline: f64,
}

/// Builds the E1 campaign over all searchable `(k, f)` with `k ≤ max_k`.
pub fn campaign(max_k: u32, horizon: f64) -> Campaign<Row> {
    let grid = ParamGrid::new()
        .axis_u32("k", 1..=max_k)
        .axis_u32("f", 0..max_k.max(1))
        .filter(|c| c.get_u32("f") < c.get_u32("k"))
        .filter(|c| {
            LineInstance::new(c.get_u32("k"), c.get_u32("f"))
                .map(|i| matches!(i.regime(), Regime::Searchable { .. }))
                .unwrap_or(false)
        });
    Campaign::new(
        "e1",
        "Theorem 1: A(k,f) closed form vs numeric vs measured",
        grid,
        move |cell| {
            let (k, f) = (cell.get_u32("k"), cell.get_u32("f"));
            let instance = LineInstance::new(k, f).expect("validated");
            let Regime::Searchable { ratio: closed_form } = instance.regime() else {
                unreachable!("grid filter admits only searchable cells");
            };
            let q = instance.q();
            let (_, numeric_min) = golden_section_min(
                |a| cyclic_ratio(a, q, k).unwrap_or(f64::INFINITY),
                1.0 + 1e-9,
                32.0,
                1e-10,
            )
            .expect("valid interval");
            let strategy = CyclicExponential::optimal(2, k, f)
                .expect("searchable regime")
                .to_line()
                .expect("m = 2");
            let fleet = strategy
                .fleet_itineraries(horizon * 10.0)
                .expect("valid horizon");
            let tours = fleet.iter().map(LineItinerary::to_two_ray_tour);
            let fleet = CompiledFleet::from_tours(2, horizon * 10.0, tours).expect("two-ray tours");
            let measured = RayEvaluator::new(2, f, 1.0, horizon)
                .expect("valid range")
                .evaluate(&fleet)
                .expect("fleet large enough")
                .ratio;
            Row {
                k,
                f,
                rho: instance.rho(),
                closed_form,
                numeric_min,
                measured,
                baseline: 9.0,
            }
        },
    )
}

/// Runs E1 over all searchable `(k, f)` with `k ≤ max_k`.
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
    fn columns_agree() {
        let rows = run(5, 2e3);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                (r.closed_form - r.numeric_min).abs() < 1e-6,
                "closed vs numeric at (k={}, f={})",
                r.k,
                r.f
            );
            assert!(
                (r.closed_form - r.measured).abs() < 1e-2 * r.closed_form,
                "closed vs measured at (k={}, f={})",
                r.k,
                r.f
            );
            // the optimum never loses to the baseline
            assert!(r.closed_form <= r.baseline + 1e-9);
        }
        // the (1,0) row is the classic cow path
        let cow = rows.iter().find(|r| (r.k, r.f) == (1, 0)).unwrap();
        assert!((cow.closed_form - 9.0).abs() < 1e-12);
    }

    #[test]
    fn report_renders_every_row() {
        let report = campaign(4, 1e3).threads(Some(2)).run().report();
        assert_eq!(report.id(), "e1");
        assert!(!report.rows().is_empty());
        let text = report.render_text();
        assert!(text.contains("closed_form") && text.contains("numeric_min"));
    }
}
