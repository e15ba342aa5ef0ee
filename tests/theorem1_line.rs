//! Integration tests for Theorem 1: the line with crash faults.
//!
//! Spans `bounds` (closed forms), `strategies` (the optimal construction),
//! `core` (exact evaluation), `faults` (adversary semantics) and `cover`
//! (lower-bound falsification).

use raysearch::bounds::{a_line, lambda_to_mu, LineInstance, Regime};
use raysearch::core::{CompiledFleet, EvalReport, RayEvaluator};
use raysearch::cover::settings::{merge_fleet_intervals, OrcSetting};
use raysearch::cover::CoverageProfile;
use raysearch::sim::LineItinerary;
use raysearch::strategies::{CyclicExponential, LineStrategy, RayStrategy};

/// Evaluates a line fleet as two-ray tours (ray 0 the positive side)
/// against `f` crash faults over targets `1 ≤ |x| ≤ hi`.
fn evaluate_line(
    fleet: &[LineItinerary],
    f: u32,
    hi: f64,
) -> Result<EvalReport, raysearch::core::CoreError> {
    let tours = fleet.iter().map(LineItinerary::to_two_ray_tour);
    RayEvaluator::new(2, f, 1.0, hi)?.evaluate(&CompiledFleet::from_tours(2, hi, tours)?)
}

/// Every searchable (k, f) with k <= 8: the optimal strategy measures at
/// A(k, f) on the exact evaluator (within finite-horizon slack) and never
/// above it.
#[test]
fn theorem1_upper_bound_measured_for_all_small_instances() {
    for k in 1u32..=8 {
        for f in 0..k {
            let instance = LineInstance::new(k, f).unwrap();
            let Regime::Searchable { ratio: theory } = instance.regime() else {
                continue;
            };
            let strategy = CyclicExponential::optimal(2, k, f)
                .unwrap()
                .to_line()
                .unwrap();
            let fleet = strategy.fleet_itineraries(1e6).unwrap();
            let report = evaluate_line(&fleet, f, 1e4).unwrap();
            assert!(report.is_covered(), "(k={k}, f={f}) uncovered");
            assert!(
                report.ratio <= theory + 1e-9,
                "(k={k}, f={f}): measured {} above theory {theory}",
                report.ratio
            );
            assert!(
                (report.ratio - theory).abs() < 5e-3 * theory,
                "(k={k}, f={f}): measured {} far from theory {theory}",
                report.ratio
            );
        }
    }
}

/// The lower bound, falsification form: for every searchable (k, f) the
/// optimal strategy's induced 2(f+1)-fold ORC covering fails at
/// lambda = 0.98·A(k,f).
#[test]
fn theorem1_lower_bound_falsification_for_all_small_instances() {
    for k in 1u32..=8 {
        for f in 0..k {
            let instance = LineInstance::new(k, f).unwrap();
            let Regime::Searchable { ratio: theory } = instance.regime() else {
                continue;
            };
            let strategy = CyclicExponential::optimal(2, k, f).unwrap();
            let fleet = strategy.fleet_tours(4e4).unwrap();
            let mu = lambda_to_mu(0.98 * theory).unwrap();
            let per_robot: Vec<_> = fleet
                .iter()
                .map(|t| {
                    OrcSetting::covered_intervals(&OrcSetting::turns_from_tour(t), mu).unwrap()
                })
                .collect();
            let merged = merge_fleet_intervals(per_robot);
            let profile = CoverageProfile::build(&merged, 1.0, 1e4).unwrap();
            assert!(
                profile.first_undercovered(instance.q() as usize).is_some(),
                "(k={k}, f={f}): covering did not fail below the bound"
            );
        }
    }
}

/// The two printed forms of Eq. (1) agree, and the regime boundaries are
/// where the paper says: s <= 0 trivial, k = f impossible.
#[test]
fn theorem1_regime_boundaries() {
    // ratio-1 witness: two-way saturation measured at exactly 1
    use raysearch::strategies::baselines::TwoWaySaturation;
    let s = TwoWaySaturation::new(4, 1).unwrap();
    let fleet = s.fleet_itineraries(1e3).unwrap();
    let r = evaluate_line(&fleet, 1, 500.0).unwrap();
    assert!((r.ratio - 1.0).abs() < 1e-12);

    // impossibility: with k = f every fleet fails — no strategy can get
    // f+1 = k+1 distinct visits out of k robots; encode via the evaluator
    let strategy = CyclicExponential::optimal(2, 3, 1)
        .unwrap()
        .to_line()
        .unwrap();
    let fleet = strategy.fleet_itineraries(1e3).unwrap();
    // f = 3 with k = 3 robots: evaluator refuses (needs > f robots)
    assert!(evaluate_line(&fleet, 3, 100.0).is_err());
}

/// The line problem and its two-ray formulation agree end to end: the
/// same strategy evaluated as a line fleet and as a two-ray tour fleet
/// yields the same ratio.
#[test]
fn line_and_two_ray_views_agree() {
    for (k, f) in [(1u32, 0u32), (3, 1), (5, 2)] {
        let strategy = CyclicExponential::optimal(2, k, f).unwrap();
        let tours = strategy.fleet_tours(1e5).unwrap();
        let line = strategy.to_line().unwrap();
        let itineraries = line.fleet_itineraries(1e5).unwrap();

        let ray_ratio = RayEvaluator::new(2, f, 1.0, 1e4)
            .unwrap()
            .evaluate(&CompiledFleet::from_tours(2, 1e5, &tours).unwrap())
            .unwrap()
            .ratio;
        let line_ratio = evaluate_line(&itineraries, f, 1e4).unwrap().ratio;
        assert!(
            (ray_ratio - line_ratio).abs() < 1e-9,
            "(k={k}, f={f}): ray {ray_ratio} vs line {line_ratio}"
        );
    }
}

/// B(3,1): the paper's quoted improvement, end to end through the public
/// API.
#[test]
fn byzantine_improvement_value() {
    let v = a_line(3, 1).unwrap();
    assert!((v - (8.0 / 3.0 * 4f64.powf(1.0 / 3.0) + 1.0)).abs() < 1e-12);
    assert!(v > 5.23 && v < 5.24);
}
