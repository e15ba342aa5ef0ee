//! The per-sample detection rule, read straight off the fleet's shared
//! [`CompiledFleet`]: a target counts as found once `needed` robots
//! that are not silenced have first visited it.

use raysearch_core::CompiledFleet;

use crate::FaultDraw;

/// The time at which the `draw.needed`-th robot not silenced by
/// `draw.silent` first visits `(ray, x)`, or `None` if fewer of them
/// ever reach it. `times` is caller-owned scratch, reused across
/// samples.
///
/// With no robot silenced and `needed = f + 1` this is the crash
/// adversary's order statistic, i.e. the exact evaluator's detection
/// time.
#[inline]
pub(crate) fn detection_time(
    fleet: &CompiledFleet,
    draw: &FaultDraw,
    ray: usize,
    x: f64,
    times: &mut Vec<f64>,
) -> Option<f64> {
    times.clear();
    for robot in 0..fleet.num_robots() {
        if !draw.silent.is_silent(robot) {
            if let Some(t) = fleet.first_visit(robot, ray, x) {
                times.push(t);
            }
        }
    }
    if times.len() < draw.needed {
        return None;
    }
    times.sort_by(f64::total_cmp);
    Some(times[draw.needed - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use raysearch_core::{optimal_fleet, NoCache, RayEvaluator};
    use raysearch_strategies::{CyclicExponential, RayStrategy};

    use crate::SilentMask;

    /// Every robot reports; `needed` of them must arrive.
    fn all_report(needed: usize) -> FaultDraw {
        FaultDraw {
            silent: SilentMask::EMPTY,
            needed,
        }
    }

    fn fleet() -> CompiledFleet {
        let tours = CyclicExponential::optimal(3, 4, 1)
            .unwrap()
            .fleet_tours(500.0)
            .unwrap();
        CompiledFleet::from_tours(3, 500.0, &tours).unwrap()
    }

    #[test]
    fn matches_the_exact_evaluator_bit_for_bit() {
        let fleet = fleet();
        let evaluator = RayEvaluator::new(3, 1, 1.0, 400.0).unwrap();
        let mut times = Vec::new();
        for ray in 0..3 {
            for &x in &[1.0, 1.5, 7.3, 41.0, 333.0] {
                let ours = detection_time(&fleet, &all_report(2), ray, x, &mut times);
                let truth = evaluator.detection_time(&fleet, ray, x).unwrap();
                assert!(truth.is_some(), "ray {ray}, x {x}");
                assert_eq!(
                    ours.map(f64::to_bits),
                    truth.map(f64::to_bits),
                    "ray {ray}, x {x}"
                );
            }
        }
    }

    #[test]
    fn unreached_targets_are_none() {
        let fleet = fleet();
        let mut times = Vec::new();
        for ray in 0..fleet.num_rays() {
            for robot in 0..fleet.num_robots() {
                assert_eq!(fleet.first_visit(robot, ray, 1e12), None);
            }
            assert_eq!(
                detection_time(&fleet, &all_report(1), ray, 1e12, &mut times),
                None
            );
        }
    }

    #[test]
    fn log_fleet_table_answers_bit_for_bit_like_the_linear_one() {
        let strat = CyclicExponential::optimal(3, 4, 1).unwrap();
        let linear =
            CompiledFleet::from_tours(3, 125.0, strat.fleet_tours(500.0).unwrap()).unwrap();
        let streamed = optimal_fleet(&NoCache, 3, 4, 1, 125.0).unwrap();
        assert_eq!(streamed.num_robots(), 4);
        assert_eq!(streamed.num_rays(), 3);
        let mut times = Vec::new();
        for ray in 0..3 {
            for &x in &[1.0, 1.5, 7.3, 41.0, 124.9] {
                for robot in 0..4 {
                    assert_eq!(
                        linear.first_visit(robot, ray, x).map(f64::to_bits),
                        streamed.first_visit(robot, ray, x).map(f64::to_bits),
                        "robot {robot}, ray {ray}, x {x}"
                    );
                }
                // any single robot silenced, the other two of f + 1 = 2
                // confirmations still needed
                for silenced in 0..4 {
                    let mut draw = all_report(2);
                    draw.silent.set(silenced);
                    assert_eq!(
                        detection_time(&linear, &draw, ray, x, &mut times).map(f64::to_bits),
                        detection_time(&streamed, &draw, ray, x, &mut times).map(f64::to_bits),
                        "robot {silenced} silent, ray {ray}, x {x}"
                    );
                }
            }
            assert_eq!(
                linear.boundaries_on_ray(ray, 1.0, 125.0),
                streamed.boundaries_on_ray(ray, 1.0, 125.0)
            );
        }
    }

    #[test]
    fn log_fleet_table_handles_formerly_overflowing_fleets() {
        // k = 149 on the line: the linear fleet does not exist
        let strat = CyclicExponential::optimal(2, 149, 74).unwrap();
        assert!(strat.fleet_tours(4e12).is_err());
        let fleet = optimal_fleet(&NoCache, 2, 149, 74, 1e12).unwrap();
        assert_eq!(fleet.num_robots(), 149);
        // every in-range target is eventually confirmed by f + 1 robots
        let mut times = Vec::new();
        for ray in 0..2 {
            for &x in &[1.0, 1e3, 1e9, 1e12] {
                let t = detection_time(&fleet, &all_report(75), ray, x, &mut times);
                assert!(
                    t.is_some_and(f64::is_finite),
                    "ray {ray}, x = {x} undetected"
                );
            }
        }
    }

    #[test]
    fn compiled_artifact_table_is_bit_identical_to_the_streamed_one() {
        // the artifact every sample reads, streamed from each robot's
        // turns under the evaluator's key, against full linear tours
        // compiled at the same cap
        let shared = optimal_fleet(&NoCache, 3, 4, 1, 125.0).unwrap();
        let tours = CyclicExponential::optimal(3, 4, 1)
            .unwrap()
            .fleet_tours(500.0)
            .unwrap();
        let linear = CompiledFleet::from_tours(3, 125.0, &tours).unwrap();
        assert_eq!(*shared, linear, "piece-for-piece identical");
    }
}
