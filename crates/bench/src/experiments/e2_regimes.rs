//! E2 — the regime map of Theorem 1 (and its rays analogue).
//!
//! The paper's case analysis after Theorem 1: `k = f` is hopeless,
//! `k ≥ 2(f+1)` costs nothing, and in between the formula rules. This
//! experiment renders the full `(k, f)` map, checked by running the
//! saturation baseline in the trivial regime.

use raysearch_bounds::{LineInstance, Regime};
use raysearch_core::campaign::{Campaign, ParamGrid};
use raysearch_core::{CompiledFleet, RayEvaluator};
use raysearch_sim::LineItinerary;
use raysearch_strategies::{baselines::TwoWaySaturation, LineStrategy};

/// One cell of the regime map.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Row {
    /// Number of robots.
    pub k: u32,
    /// Number of crash-faulty robots.
    pub f: u32,
    /// The paper's `s = 2(f+1) − k`.
    pub s: i64,
    /// Regime name: `impossible`, `trivial` or `searchable`.
    pub regime: String,
    /// The optimal ratio, when search is possible.
    pub ratio: Option<f64>,
    /// Measured ratio of the witness strategy in the trivial regime
    /// (`TwoWaySaturation`, must be exactly 1).
    pub trivial_witness: Option<f64>,
}

/// Builds the E2 campaign over the full grid `k ≤ max_k`, `f ≤ k`.
pub fn campaign(max_k: u32) -> Campaign<Row> {
    let grid = ParamGrid::new()
        .axis_u32("k", 1..=max_k)
        .axis_u32("f", 0..=max_k)
        .filter(|c| c.get_u32("f") <= c.get_u32("k"));
    Campaign::new(
        "e2",
        "regime map (impossible / trivial / searchable)",
        grid,
        |cell| {
            let (k, f) = (cell.get_u32("k"), cell.get_u32("f"));
            let instance = LineInstance::new(k, f).expect("validated");
            let regime = instance.regime();
            let trivial_witness = match regime {
                Regime::Trivial => {
                    let s = TwoWaySaturation::new(k, f).expect("trivial regime");
                    let fleet = s.fleet_itineraries(500.0).expect("valid horizon");
                    let tours = fleet.iter().map(LineItinerary::to_two_ray_tour);
                    let fleet = CompiledFleet::from_tours(2, 500.0, tours).expect("two-ray tours");
                    Some(
                        RayEvaluator::new(2, f, 1.0, 400.0)
                            .expect("valid range")
                            .evaluate(&fleet)
                            .expect("enough robots")
                            .ratio,
                    )
                }
                _ => None,
            };
            Row {
                k,
                f,
                s: instance.s(),
                regime: match regime {
                    Regime::Impossible => "impossible".to_owned(),
                    Regime::Trivial => "trivial".to_owned(),
                    Regime::Searchable { .. } => "searchable".to_owned(),
                },
                ratio: regime.ratio(),
                trivial_witness,
            }
        },
    )
}

/// Runs E2 over the full grid `k ≤ max_k`, `f ≤ k`.
///
/// # Panics
///
/// Panics if a substrate rejects validated parameters (a bug).
pub fn run(max_k: u32) -> Vec<Row> {
    campaign(max_k).run().into_rows()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regime_boundaries_are_exact() {
        let rows = run(8);
        for r in &rows {
            match r.regime.as_str() {
                "impossible" => assert_eq!(r.k, r.f),
                "trivial" => {
                    assert!(r.s <= 0);
                    assert_eq!(r.ratio, Some(1.0));
                    let w = r.trivial_witness.expect("witness run");
                    assert!((w - 1.0).abs() < 1e-12, "witness ratio {w}");
                }
                "searchable" => {
                    assert!(r.s >= 1 && r.f < r.k);
                    assert!(r.ratio.unwrap() > 1.0);
                }
                other => panic!("unknown regime {other}"),
            }
        }
        // all three regimes occur
        for want in ["impossible", "trivial", "searchable"] {
            assert!(rows.iter().any(|r| r.regime == want));
        }
    }
}
