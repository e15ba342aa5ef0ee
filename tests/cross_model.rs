//! Cross-model consistency: the symbolic evaluator (piecewise breakpoint
//! analysis in `raysearch-core`) against the discrete-event ground truth
//! (`raysearch-sim` engine + `raysearch-faults` adversary), hammered with
//! random strategies and random targets.

use proptest::prelude::*;
use raysearch::core::{CompiledFleet, RayEvaluator};
use raysearch::faults::CrashAdversary;
use raysearch::sim::{
    LineItinerary, LinePoint, LineTrajectory, RayId, RayPoint, RayTrajectory, VisitEngine,
};
use raysearch::strategies::{CyclicExponential, LineStrategy, RandomGeometric, RayStrategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random geometric ray fleets: the symbolic per-point detection time
    /// equals the engine's (f+1)-st distinct-visit time at random targets.
    #[test]
    fn ray_detection_times_agree(
        seed in 0u64..1000,
        f in 0u32..2,
        ray in 0usize..3,
        x_scale in 1.0f64..400.0,
    ) {
        let (m, k) = (3u32, f + 2); // k > f always
        let strategy = RandomGeometric::new(m, k, f, seed, (1.2, 2.8)).unwrap();
        let tours = strategy.fleet_tours(2e3).unwrap();
        let fleet = CompiledFleet::from_tours(m as usize, 2e3, &tours).unwrap();
        let evaluator = RayEvaluator::new(m as usize, f, 1.0, 1e3).unwrap();

        let engine = VisitEngine::new(
            tours.iter().map(RayTrajectory::compile).collect::<Vec<_>>(),
        )
        .unwrap();
        let adversary = CrashAdversary::new(f as usize);

        let x = x_scale;
        let symbolic = evaluator.detection_time(&fleet, ray, x).unwrap();
        let point = RayPoint::new(RayId::new(ray, m as usize).unwrap(), x).unwrap();
        let truth = adversary
            .detection_time(&engine.schedule(point))
            .map(|t| t.as_f64());
        match (symbolic, truth) {
            (Some(a), Some(b)) => prop_assert!(
                (a - b).abs() < 1e-9 * b.max(1.0),
                "x={x} ray={ray}: symbolic {a} vs engine {b}"
            ),
            (a, b) => prop_assert!(
                a.is_none() && b.is_none(),
                "coverage disagreement at x={x} ray={ray}: {a:?} vs {b:?}"
            ),
        }
    }

    /// Optimal line fleets: same agreement on the line, both sides.
    #[test]
    fn line_detection_times_agree(
        kf in 0usize..4,
        sign in prop::bool::ANY,
        x_scale in 1.0f64..900.0,
    ) {
        let (k, f) = [(1u32, 0u32), (3, 1), (5, 2), (7, 3)][kf];
        let strategy = CyclicExponential::optimal(2, k, f).unwrap().to_line().unwrap();
        let fleet = strategy.fleet_itineraries(5e3).unwrap();
        let compiled = CompiledFleet::from_tours(
            2,
            5e3,
            fleet.iter().map(LineItinerary::to_two_ray_tour),
        )
        .unwrap();
        let evaluator = RayEvaluator::new(2, f, 1.0, 2e3).unwrap();
        let engine = VisitEngine::new(
            fleet.iter().map(LineTrajectory::compile).collect::<Vec<_>>(),
        )
        .unwrap();
        let adversary = CrashAdversary::new(f as usize);

        // ray 0 is the positive side
        let x = if sign { x_scale } else { -x_scale };
        let symbolic = evaluator
            .detection_time(&compiled, usize::from(!sign), x_scale)
            .unwrap();
        let truth = adversary
            .detection_time(&engine.schedule(LinePoint::new(x).unwrap()))
            .map(|t| t.as_f64());
        match (symbolic, truth) {
            (Some(a), Some(b)) => prop_assert!(
                (a - b).abs() < 1e-9 * b.max(1.0),
                "x={x}: symbolic {a} vs engine {b}"
            ),
            (a, b) => prop_assert!(a.is_none() && b.is_none(), "{a:?} vs {b:?}"),
        }
    }

    /// The evaluator's reported supremum is an upper bound for the ratio
    /// at every concrete target (spot-checked against the engine).
    #[test]
    fn reported_sup_dominates_pointwise_ratios(
        seed in 0u64..200,
        x_scale in 1.0f64..90.0,
        ray in 0usize..2,
    ) {
        let (m, k, f) = (2u32, 2u32, 0u32);
        let strategy = RandomGeometric::new(m, k, f, seed, (1.3, 2.2)).unwrap();
        let tours = strategy.fleet_tours(2e3).unwrap();
        let fleet = CompiledFleet::from_tours(m as usize, 2e3, &tours).unwrap();
        let evaluator = RayEvaluator::new(m as usize, f, 1.0, 100.0).unwrap();
        let report = evaluator.evaluate(&fleet).unwrap();
        prop_assume!(report.is_covered());
        let x = x_scale;
        if let Some(t) = evaluator.detection_time(&fleet, ray, x).unwrap() {
            prop_assert!(
                t / x <= report.ratio * (1.0 + 1e-12),
                "point ratio {} above reported sup {}",
                t / x,
                report.ratio
            );
        }
    }
}
