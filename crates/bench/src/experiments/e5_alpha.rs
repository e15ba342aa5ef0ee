//! E5 — the α-ablation of the appendix strategy (figure: ratio vs base).
//!
//! The cyclic exponential strategy's worst-case ratio is
//! `2·α^q/(α^k−1) + 1`; the appendix minimizes it at
//! `α* = (q/(q−k))^(1/k)`. This experiment sweeps `α` around `α*` and
//! reports both the formula and the *measured* ratio — their agreement
//! validates the formula, and the minimum's location validates the
//! calculus.

use raysearch_bounds::{cyclic_ratio, optimal_alpha, RayInstance};
use raysearch_core::campaign::{Campaign, ParamGrid, ParamValue};
use raysearch_core::{CompiledFleet, RayEvaluator};
use raysearch_strategies::{CyclicExponential, RayStrategy};

/// One point of the ratio-vs-α series.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Row {
    /// Number of rays.
    pub m: u32,
    /// Number of robots.
    pub k: u32,
    /// Number of crash-faulty robots.
    pub f: u32,
    /// The geometric base being evaluated.
    pub alpha: f64,
    /// Whether this is the optimal base `α*`.
    pub is_optimal: bool,
    /// The appendix formula `2·α^q/(α^k−1)+1`.
    pub formula: f64,
    /// The measured worst-case ratio of the strategy at this base.
    pub measured: f64,
}

/// Builds the E5 campaign: for each `(m, k, f)` instance, `steps` bases
/// on each side of `α*` (geometric spacing relative to `α* − 1`).
pub fn campaign(instances: &[(u32, u32, u32)], steps: i32, horizon: f64) -> Campaign<Row> {
    let grid = ParamGrid::new()
        .axis_zip(
            &["m", "k", "f"],
            instances
                .iter()
                .map(|&(m, k, f)| vec![m.into(), k.into(), f.into()])
                .collect::<Vec<Vec<ParamValue>>>(),
        )
        .axis_i64("j", (-steps..=steps).map(i64::from));
    Campaign::new(
        "e5",
        "alpha ablation: ratio vs geometric base, minimum at alpha*",
        grid,
        move |cell| {
            let (m, k, f) = (cell.get_u32("m"), cell.get_u32("k"), cell.get_u32("f"));
            let j = i32::try_from(cell.get_i64("j")).expect("small step index");
            let instance = RayInstance::new(m, k, f).expect("validated");
            let q = instance.q();
            let astar = optimal_alpha(q, k).expect("searchable");
            // scale relative to (alpha* - 1) so every base stays > 1
            let alpha = 1.0 + (astar - 1.0) * 1.25f64.powi(j);
            let strategy = CyclicExponential::with_alpha(m, k, f, alpha).expect("alpha > 1");
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
                alpha,
                is_optimal: j == 0,
                formula: cyclic_ratio(alpha, q, k).expect("alpha > 1"),
                measured,
            }
        },
    )
}

/// Sweeps `α` around `α*` for one instance; `steps` points on each side.
///
/// # Panics
///
/// Panics on out-of-regime parameters (callers pass searchable
/// instances).
pub fn run(m: u32, k: u32, f: u32, steps: i32, horizon: f64) -> Vec<Row> {
    campaign(&[(m, k, f)], steps, horizon).run().into_rows()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_sits_at_alpha_star() {
        let rows = run(2, 3, 1, 3, 2e3);
        let opt = rows.iter().find(|r| r.is_optimal).unwrap();
        for r in &rows {
            assert!(
                r.measured >= opt.measured - 1e-9,
                "alpha {} beats alpha* ({} < {})",
                r.alpha,
                r.measured,
                opt.measured
            );
            assert!(
                (r.measured - r.formula).abs() < 2e-2 * r.formula,
                "formula and measurement disagree at alpha {}",
                r.alpha
            );
        }
        let theory = raysearch_bounds::a_line(3, 1).unwrap();
        assert!((opt.measured - theory).abs() < 1e-2 * theory);
    }

    #[test]
    fn multi_instance_campaign_keeps_instance_order() {
        let instances = [(2u32, 1u32, 0u32), (2, 3, 1)];
        let rows = campaign(&instances, 1, 1e3).run().into_rows();
        assert_eq!(rows.len(), 2 * 3);
        // first instance's sweep precedes the second's
        assert_eq!((rows[0].m, rows[0].k, rows[0].f), (2, 1, 0));
        assert_eq!((rows[3].m, rows[3].k, rows[3].f), (2, 3, 1));
        // one optimal point per instance
        assert_eq!(rows.iter().filter(|r| r.is_optimal).count(), 2);
    }
}
