//! E4 — Theorem 6: `A(m, k, f)` on `m` rays.
//!
//! The grid includes the `f = 0` rows that resolve the parallel `m`-ray
//! search question of Baeza-Yates–Culberson–Rawlins, Kao–Ma–Sipser–Yin and
//! Bernstein–Finkelstein–Zilberstein, and the `m = 2` rows that reduce to
//! Theorem 1. Each value is cross-checked by the exact evaluator on the
//! appendix strategy.

use raysearch_bounds::{a_line, RayInstance, Regime};
use raysearch_core::campaign::{Campaign, ParamGrid};
use raysearch_core::{CompiledFleet, RayEvaluator};
use raysearch_strategies::{CyclicExponential, RayStrategy};

/// One row of the E4 grid.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Row {
    /// Number of rays.
    pub m: u32,
    /// Number of robots.
    pub k: u32,
    /// Number of crash-faulty robots.
    pub f: u32,
    /// `q = m(f+1)`.
    pub q: u32,
    /// `η = q/k`.
    pub eta: f64,
    /// Closed form `A(m,k,f)` (Eq. (9)).
    pub closed_form: f64,
    /// Measured ratio of the appendix strategy.
    pub measured: f64,
    /// For `m = 2`: the Theorem 1 value (must coincide).
    pub line_value: Option<f64>,
}

/// Builds the E4 campaign over searchable instances with `m ≤ max_m`,
/// `k ≤ max_k`, `f ≤ 2`.
pub fn campaign(max_m: u32, max_k: u32, horizon: f64) -> Campaign<Row> {
    let grid = ParamGrid::new()
        .axis_u32("m", 2..=max_m)
        .axis_u32("k", 1..=max_k)
        .axis_u32("f", 0..=2)
        .filter(|c| c.get_u32("f") < c.get_u32("k"))
        .filter(|c| {
            RayInstance::new(c.get_u32("m"), c.get_u32("k"), c.get_u32("f"))
                .map(|i| matches!(i.regime(), Regime::Searchable { .. }))
                .unwrap_or(false)
        });
    Campaign::new(
        "e4",
        "Theorem 6: A(m,k,f) grid (f = 0 rows answer the open question)",
        grid,
        move |cell| {
            let (m, k, f) = (cell.get_u32("m"), cell.get_u32("k"), cell.get_u32("f"));
            let instance = RayInstance::new(m, k, f).expect("validated");
            let Regime::Searchable { ratio: closed_form } = instance.regime() else {
                unreachable!("grid filter admits only searchable cells");
            };
            let strategy = CyclicExponential::optimal(m, k, f).expect("searchable");
            let fleet = strategy.fleet_tours(horizon * 10.0).expect("valid horizon");
            let fleet = CompiledFleet::from_tours(m as usize, horizon * 10.0, &fleet)
                .expect("tours match the star");
            let measured = RayEvaluator::new(m as usize, f, 1.0, horizon)
                .expect("valid range")
                .evaluate(&fleet)
                .expect("fleet large enough")
                .ratio;
            Row {
                m,
                k,
                f,
                q: instance.q(),
                eta: instance.eta(),
                closed_form,
                measured,
                line_value: (m == 2).then(|| a_line(k, f).expect("same regime")),
            }
        },
    )
}

/// Runs E4 over searchable instances with `m ≤ max_m`, `k ≤ max_k`,
/// `f ≤ 2`.
///
/// # Panics
///
/// Panics if a substrate rejects validated parameters (a bug).
pub fn run(max_m: u32, max_k: u32, horizon: f64) -> Vec<Row> {
    campaign(max_m, max_k, horizon).run().into_rows()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_tight_and_consistent() {
        let rows = run(4, 5, 2e3);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                (r.closed_form - r.measured).abs() < 2e-2 * r.closed_form,
                "(m={}, k={}, f={}): closed {} vs measured {}",
                r.m,
                r.k,
                r.f,
                r.closed_form,
                r.measured
            );
            if let Some(line) = r.line_value {
                assert!((line - r.closed_form).abs() < 1e-12);
            }
        }
        // the classic single-robot m-ray constants appear on the f = 0 rows
        let c3 = rows
            .iter()
            .find(|r| (r.m, r.k, r.f) == (3, 1, 0))
            .expect("3-ray single robot row");
        assert!((c3.closed_form - 14.5).abs() < 1e-9);
    }
}
