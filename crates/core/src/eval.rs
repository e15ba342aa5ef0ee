//! Exact competitive-ratio evaluation against the crash adversary.
//!
//! For a fleet given by turning-point plans, each robot's first-visit time
//! to a target at distance `x` on a fixed ray is piecewise of the form
//! `c + x`: between two consecutive "new territory" turning points the
//! covering leg is fixed and `c` is twice the total turning mass before
//! that leg. The adversarial detection time is the `(f+1)`-st order
//! statistic of the robots' first-visit times, and since every piece has
//! slope 1, the ratio `τ(x)/x = (c+x)/x` is *decreasing* on every piece —
//! so the supremum over targets is approached in the right-limit at piece
//! boundaries. The evaluator therefore computes the exact supremum by
//! enumerating boundaries; nothing is sampled.
//!
//! The pieces come from one place, a [`CompiledFleet`]; the line is the
//! two-ray case. Every ordering the evaluation needs depends only on
//! the fleet's geometry, and `f` enters only at the order-statistic
//! selection. So the artifact carries each ray's *sweep plan*, built
//! once at compile time: the ray's distinct constants in order, each
//! robot's first-piece rank, and the pieces' finite right ends in order
//! of position, each naming the constant that leaves and the one that
//! enters (or that the robot's plan ends there). An evaluation is one
//! linear pass over each ray's plan with a count per constant rank and a
//! cursor that only moves up the ranks; it orders nothing itself.
//!
//! This is the measurement side of the paper: running it on the
//! [`CyclicExponential`](raysearch_strategies::CyclicExponential)
//! strategy reproduces `Λ(q/k)` to floating-point accuracy (experiments
//! E1/E4/E5).

use crate::compiled::{optimal_fleet, CompileCache, CompiledFleet, NoCache, SweepPlan, PLAN_ENDS};
use crate::CoreError;

/// The target realizing (in the limit) the worst-case ratio.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorstTarget {
    /// Ray index; for the line, `0` is the positive and `1` the negative
    /// side.
    pub ray: usize,
    /// The boundary whose right-neighbourhood attains the supremum:
    /// the adversary hides the target just past this distance.
    pub x: f64,
    /// The limiting detection time `c + x` for targets approaching `x`
    /// from above.
    pub detection_limit: f64,
}

/// The outcome of an exact evaluation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EvalReport {
    /// The exact supremum of `τ(x)/x` over the evaluation range — the
    /// fleet's competitive ratio against the crash adversary. Infinite if
    /// some target is never confirmed.
    pub ratio: f64,
    /// The target (limit) achieving the supremum, when finite.
    pub worst: Option<WorstTarget>,
    /// A witness target confirmed by fewer than `f+1` robots, if any
    /// (then `ratio` is infinite).
    pub uncovered: Option<WorstTarget>,
    /// Number of boundary candidates examined.
    pub num_breakpoints: usize,
}

impl EvalReport {
    /// Whether every target in range is confirmed in finite time.
    pub fn is_covered(&self) -> bool {
        self.uncovered.is_none()
    }
}

/// Evaluates the *optimal* strategy for the instance `(m, k, f)` exactly
/// over targets in `[1, horizon]`: builds the fleet that attains
/// `A(m, k, f)` ([`optimal_fleet`]) and measures its worst-case ratio
/// against the crash adversary.
///
/// In the searchable regime `f < k < m(f+1)` the fleet is the cyclic
/// exponential strategy, compiled from its turn stream, which the
/// compiler stops at the horizon — the padding turns that saturate past
/// `f64::MAX` are never read, so fleets of thousands of robots at deep
/// horizons evaluate to finite ratios (linear tours overflow to an error
/// from `k ≈ 139`). In the trivial regime
/// `k ≥ m(f+1)` the fleet is the saturating
/// [`ZonePartition`](raysearch_strategies::ZonePartition) (ratio exactly
/// 1, matching [`Regime::Trivial`](raysearch_bounds::Regime)).
///
/// This is the public one-shot entry point the serving layer memoizes:
/// the whole computation is a pure function of `(m, k, f, horizon)`, so
/// repeated calls are bit-identical and safe to cache.
///
/// # Example
///
/// ```
/// use raysearch_core::eval::evaluate_optimal;
///
/// let report = evaluate_optimal(2, 1, 0, 1e4)?; // the classic cow path
/// assert!((report.ratio - 9.0).abs() < 1e-3);
///
/// // a formerly-overflowing large fleet: finite, at the closed form
/// let large = evaluate_optimal(2, 139, 69, 1e6)?;
/// let theory = raysearch_bounds::a_rays(2, 139, 69)?;
/// assert!((large.ratio - theory).abs() / theory < 1e-6);
///
/// // the trivial regime evaluates to ratio 1 instead of erroring
/// assert!((evaluate_optimal(2, 4, 1, 1e3)?.ratio - 1.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns [`CoreError::HorizonOverflow`] for a horizon that is not
/// finite or exceeds `f64::MAX / 8` (fleets are padded to four times
/// the horizon and the trivial-regime baseline walks out to twice the
/// pad, so larger values would silently become `inf` before any range
/// check), and [`CoreError::InvalidInput`]-style errors for impossible
/// `(m, k, f)`, a horizon outside `(1, ∞)`, or a horizon so deep that
/// a first-visit constant within range overflows `f64` (possible only
/// within a factor `α^(k·m)` of `f64::MAX`).
pub fn evaluate_optimal(m: u32, k: u32, f: u32, horizon: f64) -> Result<EvalReport, CoreError> {
    evaluate_optimal_cached(&NoCache, m, k, f, horizon)
}

/// [`evaluate_optimal`] with an explicit compile cache: the fleet's
/// compiled artifact is fetched through `cache` under the key
/// [`optimal_fleet`] chooses, so work on one geometry — the same
/// instance asked for again, a verdict or Monte-Carlo run at the same
/// horizon, trivial-regime cells that differ only in `f` — compiles
/// once. Searchable cells that differ in `f` do not share an artifact:
/// the optimal `α` depends on `f`.
///
/// The report is bit-identical to [`evaluate_optimal`]'s for every
/// `(m, k, f, horizon)` regardless of the cache's hit pattern: the
/// artifact holds exactly the pieces a fresh compilation produces.
///
/// # Errors
///
/// As [`evaluate_optimal`]; build errors propagate uncached.
pub fn evaluate_optimal_cached<C: CompileCache>(
    cache: &C,
    m: u32,
    k: u32,
    f: u32,
    horizon: f64,
) -> Result<EvalReport, CoreError> {
    // validate *before* the zone fleet's padding multiplications can
    // turn a finite horizon into inf
    if !(horizon.is_finite() && horizon <= f64::MAX / 8.0) {
        return Err(CoreError::HorizonOverflow { horizon });
    }
    let fleet = optimal_fleet(cache, m, k, f, horizon)?;
    RayEvaluator::new(m as usize, f, 1.0, horizon)?.evaluate(&fleet)
}

pub(crate) fn check_range(lo: f64, hi: f64) -> Result<(), CoreError> {
    if !(lo.is_finite() && hi.is_finite() && 1.0 <= lo && lo < hi) {
        return Err(CoreError::invalid(format!(
            "evaluation range must satisfy 1 <= lo < hi, got [{lo}, {hi}]"
        )));
    }
    Ok(())
}

/// Mutable state threaded through the per-ray sup computations: the
/// running worst target, the first uncovered witness, and the breakpoint
/// count.
#[derive(Debug, Default)]
struct SupAccum {
    best: Option<WorstTarget>,
    uncovered: Option<WorstTarget>,
    examined: usize,
}

impl SupAccum {
    /// Finalizes the accumulated state into an [`EvalReport`].
    fn into_report(self) -> EvalReport {
        EvalReport {
            ratio: match (&self.uncovered, &self.best) {
                (Some(_), _) => f64::INFINITY,
                (None, Some(w)) => w.detection_limit / w.x,
                (None, None) => f64::INFINITY,
            },
            worst: self.best,
            uncovered: self.uncovered,
            num_breakpoints: self.examined,
        }
    }
}

/// The sup over one ray: one left-to-right pass over the ray's
/// [`SweepPlan`].
///
/// The candidate targets are `lo` and every distinct right end in
/// `(lo, hi)`. Each is probed at the midpoint of the segment it opens,
/// where no boundary lies, so every robot's constant is uniform on the
/// segment. A count per constant rank holds the multiset of constants
/// covering the probe: it starts with every robot's first piece, and
/// each right end passed moves one count from the leaving rank to the
/// entering one. The covering count is the number of robots whose plan
/// reaches the probe. No transition lowers a rank (see [`SweepPlan`]),
/// so the number of covering constants below any rank never grows and
/// the `(f+1)`-st smallest only moves up: a cursor finds it by stepping
/// forward, and a whole ray costs `O(constants + transitions)`.
/// Constants are ranked in `total_cmp` order, one rank per bit pattern,
/// so the selected value is exactly the per-robot order statistic.
fn sweep_ray(plan: &SweepPlan, needed: usize, lo: f64, hi: f64, ray: usize, acc: &mut SupAccum) {
    let ends = &plan.transitions;
    let mut counts = vec![0u32; plan.constants.len()];
    for &rank in &plan.first {
        counts[rank as usize] += 1;
    }
    // the cursor: the candidate rank, and how many covering constants
    // rank below it (always fewer than `needed`)
    let (mut pos, mut below) = (0, 0);
    let mut active = plan.first.len();
    let mut applied = 0;
    let mut next_end = ends.partition_point(|t| t.at <= lo);
    let mut b = lo;
    loop {
        acc.examined += 1;
        let next = ends.get(next_end).map(|t| t.at).filter(|&at| at < hi);
        let probe = 0.5 * (b + next.unwrap_or(hi));
        // probes strictly increase, so the transition pointer only
        // advances; transitions at one position apply in any order,
        // because count moves commute
        while let Some(t) = ends.get(applied).filter(|t| t.at < probe) {
            let leave = t.leave as usize;
            counts[leave] -= 1;
            below -= usize::from(leave < pos);
            if t.enter == PLAN_ENDS {
                active -= 1;
            } else {
                let enter = t.enter as usize;
                counts[enter] += 1;
                below += usize::from(enter < pos);
            }
            applied += 1;
        }
        if active < needed {
            acc.uncovered.get_or_insert(WorstTarget {
                ray,
                x: probe,
                detection_limit: f64::INFINITY,
            });
        } else {
            // the (f+1)-st smallest covering constant: the first rank
            // whose prefix count reaches `needed`
            while below + (counts[pos] as usize) < needed {
                below += counts[pos] as usize;
                pos += 1;
            }
            let c = plan.constants[pos];
            let candidate = WorstTarget {
                ray,
                x: b,
                detection_limit: c + b,
            };
            let ratio = candidate.detection_limit / candidate.x;
            if acc.best.is_none_or(|w| ratio > w.detection_limit / w.x) {
                acc.best = Some(candidate);
            }
        }
        let Some(at) = next else { break };
        b = at;
        while ends.get(next_end).is_some_and(|t| t.at <= b) {
            next_end += 1;
        }
    }
}

/// Exact evaluator for `m`-ray fleets; the line is `m = 2`, with ray `0`
/// the positive side.
///
/// # Example
///
/// ```
/// use raysearch_core::{CompiledFleet, RayEvaluator};
/// use raysearch_strategies::{CyclicExponential, RayStrategy};
///
/// let strat = CyclicExponential::optimal(3, 1, 0)?;
/// let fleet = CompiledFleet::from_tours(3, 1e5, &strat.fleet_tours(1e5)?)?;
/// let report = RayEvaluator::new(3, 0, 1.0, 1e4)?.evaluate(&fleet)?;
/// // single robot on 3 rays: the classic 14.5
/// assert!((report.ratio - 14.5).abs() < 1e-3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayEvaluator {
    m: usize,
    f: u32,
    lo: f64,
    hi: f64,
}

impl RayEvaluator {
    /// Creates an evaluator for `m` rays and `f` crash faults over targets
    /// at distance `lo ≤ x ≤ hi`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] unless `m ≥ 1` and
    /// `1 ≤ lo < hi`.
    pub fn new(m: usize, f: u32, lo: f64, hi: f64) -> Result<Self, CoreError> {
        if m == 0 {
            return Err(CoreError::invalid("need at least one ray"));
        }
        check_range(lo, hi)?;
        Ok(RayEvaluator { m, f, lo, hi })
    }

    /// Checks that `fleet` is compiled for this evaluator's rays.
    fn check_rays(&self, fleet: &CompiledFleet) -> Result<(), CoreError> {
        if fleet.num_rays() != self.m {
            return Err(CoreError::invalid(format!(
                "fleet is compiled for {} rays, evaluator expects {}",
                fleet.num_rays(),
                self.m
            )));
        }
        Ok(())
    }

    /// Evaluates the exact worst-case ratio of a compiled fleet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the fleet has fewer than
    /// `f+1` robots, is compiled for the wrong number of rays, or its
    /// compilation cap falls short of the evaluation range (its pieces
    /// could silently miss coverage past the cap).
    ///
    /// # Example
    ///
    /// ```
    /// use raysearch_core::compiled::{optimal_fleet, NoCache};
    /// use raysearch_core::RayEvaluator;
    ///
    /// // k = 199 on the line: the linear fleet overflows, the streamed
    /// // turns compile and evaluate to the closed form
    /// let fleet = optimal_fleet(&NoCache, 2, 199, 99, 1e5)?;
    /// let report = RayEvaluator::new(2, 99, 1.0, 1e5)?.evaluate(&fleet)?;
    /// let theory = raysearch_bounds::a_rays(2, 199, 99)?;
    /// assert!((report.ratio - theory).abs() / theory < 1e-6);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn evaluate(&self, fleet: &CompiledFleet) -> Result<EvalReport, CoreError> {
        if fleet.num_robots() <= self.f as usize {
            return Err(CoreError::invalid(format!(
                "need more than f = {} robots, got {}",
                self.f,
                fleet.num_robots()
            )));
        }
        self.check_rays(fleet)?;
        if fleet.cap() < self.hi {
            return Err(CoreError::invalid(format!(
                "fleet is compiled for targets up to {:e}, evaluator range ends at {:e}",
                fleet.cap(),
                self.hi
            )));
        }
        let needed = self.f as usize + 1;
        let mut acc = SupAccum::default();
        for ray in 0..self.m {
            sweep_ray(fleet.plan(ray), needed, self.lo, self.hi, ray, &mut acc);
        }
        Ok(acc.into_report())
    }

    /// Exact adversarial detection time of a target at distance `x` on
    /// `ray`: the `(f+1)`-st smallest first-visit time over the fleet,
    /// or `None` if fewer than `f+1` robots ever reach it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the fleet is compiled for
    /// the wrong number of rays, `ray` is out of range, or `x` lies
    /// outside `[1, cap]`.
    pub fn detection_time(
        &self,
        fleet: &CompiledFleet,
        ray: usize,
        x: f64,
    ) -> Result<Option<f64>, CoreError> {
        self.check_rays(fleet)?;
        if ray >= self.m {
            return Err(CoreError::invalid(format!(
                "ray {ray} out of range for m = {}",
                self.m
            )));
        }
        if !(x >= 1.0 && x <= fleet.cap()) {
            return Err(CoreError::invalid(format!(
                "target must satisfy 1 <= x <= {:e}, got {x}",
                fleet.cap()
            )));
        }
        let mut times: Vec<f64> = (0..fleet.num_robots())
            .filter_map(|robot| fleet.first_visit(robot, ray, x))
            .collect();
        let needed = self.f as usize + 1;
        if times.len() < needed {
            return Ok(None);
        }
        Ok(Some(
            *times.select_nth_unstable_by(needed - 1, f64::total_cmp).1,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{CompileMemo, FleetBuilder};
    use raysearch_sim::{LineItinerary, RobotId, TourItinerary};
    use raysearch_strategies::{
        CyclicExponential, DoublingCowPath, LineStrategy, RandomGeometric, RayStrategy,
        ReplicatedDoubling, ZonePartition,
    };

    /// A line fleet as two-ray tours, ray 0 the positive side.
    fn line_fleet(fleet: &[LineItinerary], cap: f64) -> CompiledFleet {
        CompiledFleet::from_tours(2, cap, fleet.iter().map(LineItinerary::to_two_ray_tour)).unwrap()
    }

    fn tour_fleet(m: u32, fleet: &[TourItinerary], cap: f64) -> CompiledFleet {
        CompiledFleet::from_tours(m as usize, cap, fleet).unwrap()
    }

    #[test]
    fn cow_path_evaluates_to_nine() {
        let fleet = DoublingCowPath::classic().fleet_itineraries(1e6).unwrap();
        let r = RayEvaluator::new(2, 0, 1.0, 1e5)
            .unwrap()
            .evaluate(&line_fleet(&fleet, 1e6))
            .unwrap();
        assert!(r.is_covered());
        // the finite-horizon sup is 9 - 2/b at the largest breakpoint b;
        // it approaches 9 from below as the horizon grows
        assert!(r.ratio <= 9.0 + 1e-12);
        assert!((r.ratio - 9.0).abs() < 1e-4, "ratio {} != 9", r.ratio);
    }

    #[test]
    fn cow_path_other_bases_are_worse() {
        for base in [1.5, 3.0] {
            let cow = DoublingCowPath::new(base).unwrap();
            let fleet = cow.fleet_itineraries(1e6).unwrap();
            let r = RayEvaluator::new(2, 0, 1.0, 1e5)
                .unwrap()
                .evaluate(&line_fleet(&fleet, 1e6))
                .unwrap();
            assert!(
                (r.ratio - cow.theoretical_ratio()).abs() < 1e-3,
                "base {base}: measured {} vs theory {}",
                r.ratio,
                cow.theoretical_ratio()
            );
        }
    }

    #[test]
    fn optimal_line_strategy_matches_theorem1() {
        for (k, f) in [(1u32, 0u32), (3, 1), (5, 2), (5, 3), (7, 3)] {
            let strat = CyclicExponential::optimal(2, k, f)
                .unwrap()
                .to_line()
                .unwrap();
            let fleet = strat.fleet_itineraries(1e6).unwrap();
            let r = RayEvaluator::new(2, f, 1.0, 1e4)
                .unwrap()
                .evaluate(&line_fleet(&fleet, 1e6))
                .unwrap();
            let theory = raysearch_bounds::a_line(k, f).unwrap();
            assert!(
                r.is_covered(),
                "(k={k}, f={f}) uncovered: {:?}",
                r.uncovered
            );
            assert!(r.ratio <= theory + 1e-9, "(k={k}, f={f}) exceeds theory");
            assert!(
                (r.ratio - theory).abs() < 1e-3,
                "(k={k}, f={f}): measured {} vs theory {theory}",
                r.ratio
            );
        }
    }

    #[test]
    fn optimal_ray_strategy_matches_theorem6() {
        for (m, k, f) in [
            (3u32, 1u32, 0u32),
            (3, 2, 0),
            (4, 3, 0),
            (3, 5, 1),
            (5, 4, 0),
        ] {
            let strat = CyclicExponential::optimal(m, k, f).unwrap();
            let fleet = strat.fleet_tours(1e6).unwrap();
            let r = RayEvaluator::new(m as usize, f, 1.0, 1e4)
                .unwrap()
                .evaluate(&tour_fleet(m, &fleet, 1e6))
                .unwrap();
            let theory = raysearch_bounds::a_rays(m, k, f).unwrap();
            assert!(r.is_covered(), "(m={m},k={k},f={f}) uncovered");
            assert!(
                r.ratio <= theory + 1e-9,
                "(m={m},k={k},f={f}) exceeds theory"
            );
            assert!(
                (r.ratio - theory).abs() < 1e-3,
                "(m={m},k={k},f={f}): measured {} vs theory {theory}",
                r.ratio
            );
        }
    }

    #[test]
    fn replicated_doubling_is_nine_for_any_f() {
        let s = ReplicatedDoubling::new(4).unwrap();
        let fleet = line_fleet(&s.fleet_itineraries(1e6).unwrap(), 1e6);
        for f in 0..4u32 {
            let r = RayEvaluator::new(2, f, 1.0, 1e4)
                .unwrap()
                .evaluate(&fleet)
                .unwrap();
            assert!((r.ratio - 9.0).abs() < 1e-3, "f={f}: {}", r.ratio);
        }
    }

    #[test]
    fn zone_partition_saturated_is_ratio_one() {
        let z = ZonePartition::new(2, 4, 1).unwrap();
        let fleet = tour_fleet(2, &z.fleet_tours(1e4).unwrap(), 1e4);
        let r = RayEvaluator::new(2, 1, 1.0, 1e3)
            .unwrap()
            .evaluate(&fleet)
            .unwrap();
        assert!(r.is_covered());
        assert!((r.ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zone_partition_undersized_is_uncovered() {
        let z = ZonePartition::new(3, 4, 1).unwrap();
        let fleet = tour_fleet(3, &z.fleet_tours(1e4).unwrap(), 1e4);
        let r = RayEvaluator::new(3, 1, 1.0, 1e3)
            .unwrap()
            .evaluate(&fleet)
            .unwrap();
        assert!(!r.is_covered());
        assert!(r.ratio.is_infinite());
        // rays 1 and 2 each have a single robot; the first
        // undercovered ray found is ray 1
        assert_ne!(r.uncovered.unwrap().ray, 0);
    }

    #[test]
    fn detection_time_matches_visit_engine_ground_truth() {
        use raysearch_faults::CrashAdversary;
        use raysearch_sim::{LinePoint, LineTrajectory, VisitEngine};

        let strat = CyclicExponential::optimal(2, 3, 1)
            .unwrap()
            .to_line()
            .unwrap();
        let fleet = strat.fleet_itineraries(1e4).unwrap();
        let compiled = line_fleet(&fleet, 1e4);
        let evaluator = RayEvaluator::new(2, 1, 1.0, 1e3).unwrap();
        let engine = VisitEngine::new(
            fleet
                .iter()
                .map(LineTrajectory::compile)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let adv = CrashAdversary::new(1);
        for &x in &[1.0f64, -2.5, 7.3, -41.0, 333.0] {
            let ray = usize::from(x < 0.0);
            let fast = evaluator.detection_time(&compiled, ray, x.abs()).unwrap();
            let truth = adv
                .detection_time(&engine.schedule(LinePoint::new(x).unwrap()))
                .map(|t| t.as_f64());
            match (fast, truth) {
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() < 1e-9, "x={x}: {a} vs {b}");
                }
                (a, b) => panic!("x={x}: symbolic {a:?} vs engine {b:?}"),
            }
        }
    }

    #[test]
    fn evaluator_validation() {
        assert!(RayEvaluator::new(2, 0, 0.5, 10.0).is_err());
        assert!(RayEvaluator::new(2, 0, 10.0, 10.0).is_err());
        assert!(RayEvaluator::new(0, 0, 1.0, 10.0).is_err());
        let e = RayEvaluator::new(2, 2, 1.0, 10.0).unwrap();
        // fleet smaller than f+1
        let fleet = line_fleet(
            &DoublingCowPath::classic().fleet_itineraries(100.0).unwrap(),
            100.0,
        );
        assert!(e.evaluate(&fleet).is_err());
        // ... but its detection times are merely absent
        assert_eq!(e.detection_time(&fleet, 0, 2.0).unwrap(), None);
        // targets outside [1, cap] and rays outside the star
        assert!(e.detection_time(&fleet, 0, 0.5).is_err());
        assert!(e.detection_time(&fleet, 0, 200.0).is_err());
        assert!(e.detection_time(&fleet, 0, f64::NAN).is_err());
        assert!(e.detection_time(&fleet, 2, 2.0).is_err());
    }

    #[test]
    fn ray_evaluator_rejects_mismatched_tours() {
        let strat = CyclicExponential::optimal(3, 2, 0).unwrap();
        let fleet = tour_fleet(3, &strat.fleet_tours(100.0).unwrap(), 100.0);
        let e = RayEvaluator::new(4, 0, 1.0, 10.0).unwrap();
        assert!(e.evaluate(&fleet).is_err());
        assert!(e.detection_time(&fleet, 0, 2.0).is_err());
    }

    /// Instances for the route tests; the last, k = 149, lies past the
    /// k ≈ 139 wall beyond which no linear fleet exists.
    const ROUTE_CASES: [(u32, u32, u32); 6] = [
        (2, 1, 0),
        (2, 3, 1),
        (2, 5, 2),
        (3, 5, 1),
        (5, 4, 0),
        (2, 149, 74),
    ];

    /// The optimal `(m, k, f)` fleet's artifact by every route that
    /// exists at `horizon`: [`optimal_fleet`]'s streamed turns first,
    /// then (unless linear tours overflow) linear tours and, on the
    /// line, line itineraries read as two-ray tours.
    fn artifact_routes(m: u32, k: u32, f: u32, horizon: f64) -> Vec<(&'static str, CompiledFleet)> {
        let strat = CyclicExponential::optimal(m, k, f).unwrap();
        let streamed = optimal_fleet(&NoCache, m, k, f, horizon).unwrap();
        let mut fleets = vec![("optimal_fleet", (*streamed).clone())];
        match strat.fleet_tours(4.0 * horizon) {
            Ok(tours) => {
                fleets.push(("push_tour", tour_fleet(m, &tours, horizon)));
                if m == 2 {
                    let line = strat.to_line().unwrap();
                    let line = line.fleet_itineraries(4.0 * horizon).unwrap();
                    fleets.push(("line", line_fleet(&line, horizon)));
                }
            }
            Err(_) => assert!(k > 139, "({m},{k},{f}): linear tours overflowed"),
        }
        fleets
    }

    fn assert_same_report(at: &str, r: &EvalReport, reference: &EvalReport) {
        assert_eq!(r.ratio.to_bits(), reference.ratio.to_bits(), "{at}");
        assert_eq!(r.num_breakpoints, reference.num_breakpoints, "{at}");
        assert_eq!(r.worst, reference.worst, "{at}");
        assert_eq!(r.uncovered, reference.uncovered, "{at}");
    }

    /// Linear tours and line itineraries read as two-ray tours compile
    /// to the same pieces as the streamed turns, and evaluate
    /// bit-identically to them.
    #[test]
    fn evaluate_log_is_bit_identical_to_evaluate() {
        let horizon = 1e4;
        for (m, k, f) in ROUTE_CASES {
            let fleets = artifact_routes(m, k, f, horizon);
            let evaluator = RayEvaluator::new(m as usize, f, 1.0, horizon).unwrap();
            let reference = evaluator.evaluate(&fleets[0].1).unwrap();
            for (route, fleet) in &fleets[1..] {
                let at = format!("({m},{k},{f}) {route}");
                assert_eq!(fleet, &fleets[0].1, "{at}: pieces differ");
                assert_same_report(&at, &evaluator.evaluate(fleet).unwrap(), &reference);
            }
        }
    }

    /// The memoized optimal fleet, cold and warm, evaluates
    /// bit-identically to the fleet of every route, including at
    /// k = 149 where only the streamed one exists.
    #[test]
    fn evaluate_compiled_is_bit_identical_to_evaluate_log() {
        let horizon = 1e4;
        let memo = CompileMemo::new();
        for (m, k, f) in ROUTE_CASES {
            let fleets = artifact_routes(m, k, f, horizon);
            let evaluator = RayEvaluator::new(m as usize, f, 1.0, horizon).unwrap();
            for pass in ["cold", "warm"] {
                let r = evaluate_optimal_cached(&memo, m, k, f, horizon).unwrap();
                for (route, fleet) in &fleets {
                    let at = format!("({m},{k},{f}) {pass} against {route}");
                    assert_same_report(&at, &r, &evaluator.evaluate(fleet).unwrap());
                }
            }
        }
    }

    #[test]
    fn evaluate_compiled_validates() {
        let strat = CyclicExponential::optimal(3, 2, 0).unwrap();
        let mut builder = FleetBuilder::new(3, 100.0).unwrap();
        for r in 0..2usize {
            builder
                .push_tour(&strat.tour(RobotId(r), 100.0).unwrap())
                .unwrap();
        }
        let fleet = builder.finish();
        // wrong ray count
        assert!(RayEvaluator::new(4, 0, 1.0, 10.0)
            .unwrap()
            .evaluate(&fleet)
            .is_err());
        // fleet smaller than f+1
        assert!(RayEvaluator::new(3, 2, 1.0, 10.0)
            .unwrap()
            .evaluate(&fleet)
            .is_err());
        // cap short of the evaluation range
        assert!(RayEvaluator::new(3, 0, 1.0, 200.0)
            .unwrap()
            .evaluate(&fleet)
            .is_err());
        // in range: fine
        assert!(RayEvaluator::new(3, 0, 1.0, 100.0)
            .unwrap()
            .evaluate(&fleet)
            .is_ok());
    }

    #[test]
    fn evaluate_optimal_cached_is_bit_identical_across_hits_and_regimes() {
        let memo = CompileMemo::new();
        // searchable and trivial instances, each evaluated twice: the
        // second pass is all cache hits and must not move a single bit
        for (m, k, f) in [(2u32, 5u32, 2u32), (3, 5, 1), (2, 4, 1), (2, 512, 1)] {
            let fresh = evaluate_optimal(m, k, f, 1e4).unwrap();
            let cold = evaluate_optimal_cached(&memo, m, k, f, 1e4).unwrap();
            let warm = evaluate_optimal_cached(&memo, m, k, f, 1e4).unwrap();
            for r in [&cold, &warm] {
                assert_eq!(fresh.ratio.to_bits(), r.ratio.to_bits(), "({m},{k},{f})");
                assert_eq!(fresh.num_breakpoints, r.num_breakpoints);
                assert_eq!(fresh.worst, r.worst);
                assert_eq!(fresh.uncovered, r.uncovered);
            }
        }
        let stats = memo.stats();
        assert_eq!(stats.misses, 4, "one compile per distinct geometry");
        assert_eq!(stats.hits, 4, "one hit per repeated evaluation");
    }

    #[test]
    fn trivial_regime_cells_share_one_zone_artifact_across_f() {
        let memo = CompileMemo::new();
        // (2, 512, f) is trivial for every f ≥ 1 shown here, and the
        // zone fleet is f-free: one compile serves all three
        for f in [1u32, 3, 7] {
            let r = evaluate_optimal_cached(&memo, 2, 512, f, 1e4).unwrap();
            assert!((r.ratio - 1.0).abs() < 1e-12, "f={f}: ratio {}", r.ratio);
        }
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    #[test]
    fn evaluate_optimal_covers_the_formerly_overflowing_range() {
        // q = k + 1 fleets past the old k ≈ 139 linear-overflow wall
        for (k, f) in [(139u32, 69u32), (199, 99)] {
            let r = evaluate_optimal(2, k, f, 1e8).unwrap();
            let theory = raysearch_bounds::a_rays(2, k, f).unwrap();
            assert!(r.is_covered(), "(2,{k},{f}) uncovered");
            assert!(r.ratio.is_finite(), "(2,{k},{f}) ratio not finite");
            assert!(
                (r.ratio - theory).abs() / theory < 1e-6,
                "(2,{k},{f}): measured {} vs theory {theory}",
                r.ratio
            );
        }
    }

    #[test]
    fn evaluate_optimal_trivial_regime_is_ratio_one() {
        for (m, k, f) in [(2u32, 4u32, 1u32), (2, 512, 1), (3, 7, 1)] {
            let r = evaluate_optimal(m, k, f, 1e4).unwrap();
            assert!(r.is_covered(), "({m},{k},{f}) uncovered");
            assert!(
                (r.ratio - 1.0).abs() < 1e-12,
                "({m},{k},{f}): ratio {} != 1",
                r.ratio
            );
        }
        // impossible stays an error
        assert!(evaluate_optimal(2, 3, 3, 1e4).is_err());
    }

    #[test]
    fn evaluate_optimal_rejects_unpaddable_horizons() {
        for h in [f64::MAX / 2.0, f64::INFINITY, f64::NAN] {
            match evaluate_optimal(2, 3, 1, h) {
                Err(CoreError::HorizonOverflow { horizon }) => {
                    assert_eq!(horizon.to_bits(), h.to_bits())
                }
                other => panic!("horizon {h}: expected HorizonOverflow, got {other:?}"),
            }
        }
        // the largest paddable horizon passes the overflow gate (and
        // fails later only on evaluator-range grounds, if at all)
        assert!(!matches!(
            evaluate_optimal(2, 1, 0, 1e4),
            Err(CoreError::HorizonOverflow { .. })
        ));
    }

    /// The brute-force reference evaluator: it collects each ray's
    /// boundaries from the pieces, and at every probe scans each robot's
    /// pieces for the one covering it, sorts those constants and takes
    /// the `(f+1)`-st. It shares nothing with the plan sweep but the
    /// probe arithmetic and the report's tie rule.
    fn brute_force(fleet: &CompiledFleet, f: u32, lo: f64, hi: f64) -> EvalReport {
        let needed = f as usize + 1;
        let (mut worst, mut uncovered) = (None::<WorstTarget>, None);
        let mut num_breakpoints = 0;
        for ray in 0..fleet.num_rays() {
            let robots = || (0..fleet.num_robots()).map(|robot| fleet.pieces(robot, ray));
            let mut bs: Vec<f64> = robots()
                .flatten()
                .flat_map(|p| [p.lo, p.hi])
                .filter(|&b| b > lo && b < hi)
                .chain([lo])
                .collect();
            bs.sort_by(f64::total_cmp);
            bs.dedup();
            for (i, &b) in bs.iter().enumerate() {
                num_breakpoints += 1;
                let probe = 0.5 * (b + bs.get(i + 1).copied().unwrap_or(hi));
                let mut covering: Vec<f64> = robots()
                    .filter_map(|pieces| pieces.iter().find(|p| p.lo < probe && probe <= p.hi))
                    .map(|p| p.c)
                    .collect();
                if covering.len() < needed {
                    uncovered.get_or_insert(WorstTarget {
                        ray,
                        x: probe,
                        detection_limit: f64::INFINITY,
                    });
                    continue;
                }
                covering.sort_by(f64::total_cmp);
                let w = WorstTarget {
                    ray,
                    x: b,
                    detection_limit: covering[needed - 1] + b,
                };
                if worst.is_none_or(|v| w.detection_limit / w.x > v.detection_limit / v.x) {
                    worst = Some(w);
                }
            }
        }
        EvalReport {
            ratio: match (uncovered, worst) {
                (None, Some(w)) => w.detection_limit / w.x,
                _ => f64::INFINITY,
            },
            worst,
            uncovered,
            num_breakpoints,
        }
    }

    /// One robot per ray count whose last excursion is so long that its
    /// piece straddles past linear `f64`: `hi = ∞`, and it never leaves.
    fn straddling_fleet(m: usize, cap: f64) -> CompiledFleet {
        let mut builder = FleetBuilder::new(m, cap).unwrap();
        for robot in 0..m {
            let mut turns: Vec<(usize, f64)> = (0..m)
                .map(|ray| (ray, 3.0 + (robot * m + ray) as f64))
                .collect();
            // every ray but the robot's own is walked past the cap, then
            // its own ray gets the straddling leg: a turn saturated to ∞,
            // as the turn stream yields past f64::MAX
            let far = (0..m).filter(|&ray| ray != robot);
            turns.extend(far.map(|ray| (ray, 2.0 * cap + ray as f64)));
            turns.push((robot, f64::INFINITY));
            builder.push_robot(m, turns.into_iter()).unwrap();
        }
        builder.finish()
    }

    /// The plan sweep matches the brute-force reference bit for bit in
    /// ratio, worst target, uncovered witness and breakpoint count.
    #[test]
    fn evaluate_matches_a_brute_force_scan_bit_for_bit() {
        let cyclic = |m: u32, k: u32, f: u32, horizon: f64, cap: f64| {
            let s = CyclicExponential::optimal(m, k, f).unwrap();
            tour_fleet(m, &s.fleet_tours(horizon).unwrap(), cap)
        };
        // plans that end inside the range: one robot's tour stops early
        // while the rest cover, and a whole fleet generated short
        let s = CyclicExponential::optimal(2, 5, 2).unwrap();
        let mut tours = s.fleet_tours(4e4).unwrap();
        tours[0] = TourItinerary::new(2, tours[0].excursions()[..6].to_vec()).unwrap();
        let one_short = tour_fleet(2, &tours, 1e4);
        assert!(one_short.pieces(0, 0).last().unwrap().hi < 1e3);
        let all_short = cyclic(3, 5, 1, 300.0, 1e4);
        // duplicate right ends and constants across robots
        let replicated = line_fleet(
            &ReplicatedDoubling::new(4)
                .unwrap()
                .fleet_itineraries(1e4)
                .unwrap(),
            1e4,
        );
        let cow = line_fleet(
            &DoublingCowPath::classic().fleet_itineraries(1e4).unwrap(),
            1e4,
        );
        let line = cyclic(2, 3, 1, 4e4, 1e4);
        // a range whose ends sit exactly on right ends of the fleet
        let (on_lo, on_hi) = (line.pieces(0, 0)[2].hi, line.pieces(1, 1)[4].hi);
        assert!(1.0 < on_lo && on_lo < on_hi);
        let mut cases: Vec<(String, CompiledFleet, Vec<u32>, f64, f64)> = vec![
            (
                "one plan ends early".into(),
                one_short,
                vec![0, 2, 3, 4],
                1.0,
                1e4,
            ),
            (
                "all plans end early".into(),
                all_short,
                vec![0, 1],
                1.0,
                1e4,
            ),
            (
                "replicated".into(),
                replicated.clone(),
                vec![0, 1, 2, 3],
                1.0,
                1e4,
            ),
            (
                "replicated, lo > 1".into(),
                replicated,
                vec![0, 3],
                3.0,
                5e3,
            ),
            (
                "cow, on boundaries".into(),
                cow.clone(),
                vec![0],
                4.0,
                1024.0,
            ),
            ("cow, lo on a boundary".into(), cow, vec![0], 16.0, 1e3),
            (
                "line, on boundaries".into(),
                line,
                vec![0, 1, 2],
                on_lo,
                on_hi,
            ),
            (
                "m = 3".into(),
                cyclic(3, 5, 1, 4e4, 1e4),
                vec![0, 1, 2],
                1.0,
                1e4,
            ),
            (
                "m = 4".into(),
                cyclic(4, 3, 0, 4e4, 1e4),
                vec![0, 1, 2],
                2.5,
                1e4,
            ),
            (
                "m = 4, k = 7".into(),
                cyclic(4, 7, 1, 4e4, 1e4),
                vec![1, 6],
                1.0,
                1e4,
            ),
            (
                "zone, undersized".into(),
                {
                    let z = ZonePartition::new(3, 4, 1).unwrap();
                    tour_fleet(3, &z.fleet_tours(1e4).unwrap(), 1e4)
                },
                vec![0, 1],
                1.0,
                1e3,
            ),
            (
                "straddling".into(),
                straddling_fleet(3, 1e3),
                vec![0, 1, 2],
                1.0,
                1e3,
            ),
            (
                "empty ray".into(),
                {
                    let ray0 = raysearch_sim::RayId::new(0, 2).unwrap();
                    let walk =
                        [3.0, 4e4].map(|turn| raysearch_sim::Excursion::new(ray0, turn).unwrap());
                    tour_fleet(2, &[TourItinerary::new(2, walk.to_vec()).unwrap()], 1e4)
                },
                vec![0],
                1.0,
                1e4,
            ),
        ];
        assert_eq!(cases[11].1.pieces(2, 2).last().unwrap().hi, f64::INFINITY);
        for (m, seed) in [(2u32, 1u64), (2, 7), (3, 3), (3, 11), (4, 5)] {
            let s = RandomGeometric::new(m, 5, 1, seed, (1.2, 2.8)).unwrap();
            let fleet = tour_fleet(m, &s.fleet_tours(3e3).unwrap(), 1e4);
            cases.push((
                format!("random m = {m}, seed {seed}"),
                fleet,
                vec![0, 1, 4],
                1.0,
                1e4,
            ));
        }
        for (label, fleet, fs, lo, hi) in &cases {
            for &f in fs {
                let at = format!("{label}, f = {f}, [{lo}, {hi}]");
                let evaluator = RayEvaluator::new(fleet.num_rays(), f, *lo, *hi).unwrap();
                let report = evaluator.evaluate(fleet).unwrap();
                assert_same_report(&at, &report, &brute_force(fleet, f, *lo, *hi));
            }
        }
        // the table reaches what it is for
        let reports: Vec<EvalReport> = cases
            .iter()
            .flat_map(|(_, fleet, fs, lo, hi)| {
                fs.iter()
                    .map(|&f| brute_force(fleet, f, *lo, *hi))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(reports.iter().any(|r| r.uncovered.is_some()));
        assert!(reports.iter().any(|r| r.ratio.is_finite()));
    }

    /// A seeded random fleet: `m ∈ 1..=4` rays, `k ∈ 2..=9` robots, each
    /// excursion on a random ray with a log-uniform turn from a grid of
    /// 45 values in `[1, 2048]`. Many excursions fall short of the
    /// robot's reach and open no piece, and the grid makes robots share
    /// right ends, so several swap constants at one position.
    fn random_fleet(seed: u64) -> (CompiledFleet, usize) {
        use raysearch_sim::{Excursion, RayId};
        let mut counter = seed << 32;
        let mut draw = |n: usize| {
            counter += 1;
            (crate::splitmix64(counter) % n as u64) as usize
        };
        let (m, k) = (1 + draw(4), 2 + draw(8));
        let mut excursions = 0;
        let mut tours = Vec::new();
        for _ in 0..k {
            let mut tour = Vec::new();
            for _ in 0..4 + draw(12 * m) {
                let ray = RayId::new(draw(m), m).unwrap();
                tour.push(Excursion::new(ray, (draw(45) as f64 / 4.0).exp2()).unwrap());
            }
            excursions += tour.len();
            tours.push(TourItinerary::new(m, tour).unwrap());
        }
        (tour_fleet(m as u32, &tours, 1e3), excursions)
    }

    /// The rank cursor against the brute-force reference on random
    /// fleets, for every `f` and over ranges whose ends sit on right
    /// ends: bit for bit in ratio, worst target, uncovered witness and
    /// breakpoint count.
    #[test]
    fn random_tours_match_a_brute_force_scan_bit_for_bit() {
        let (mut covered, mut uncovered, mut tied, mut idle) = (0, 0, 0, 0);
        for seed in 0..120 {
            let (fleet, excursions) = random_fleet(seed);
            idle += excursions - fleet.num_pieces();
            let ends = fleet.boundaries_on_ray(0, 1.0, 1e3);
            let mut ranges = vec![(1.0, 1e3)];
            if ends.len() >= 4 {
                let (a, b) = (ends[ends.len() / 4], ends[3 * ends.len() / 4]);
                ranges.extend([(a, b), (a, 1e3), (1.0, b)]);
            }
            for ray in 0..fleet.num_rays() {
                let swaps = &fleet.plan(ray).transitions;
                tied += swaps.windows(2).filter(|w| w[0].at == w[1].at).count();
            }
            for f in 0..fleet.num_robots() as u32 {
                for &(lo, hi) in &ranges {
                    let at = format!("seed {seed}, f = {f}, [{lo}, {hi}]");
                    let evaluator = RayEvaluator::new(fleet.num_rays(), f, lo, hi).unwrap();
                    let report = evaluator.evaluate(&fleet).unwrap();
                    assert_same_report(&at, &report, &brute_force(&fleet, f, lo, hi));
                    if report.is_covered() {
                        covered += 1;
                    } else {
                        uncovered += 1;
                    }
                }
            }
        }
        // the fleets reach what they are for
        assert!(covered > 500 && uncovered > 500, "{covered} / {uncovered}");
        assert!(tied > 200 && idle > 2000, "{tied} ties, {idle} idle");
    }

    #[test]
    fn worst_target_is_just_past_a_turning_point() {
        let fleet = DoublingCowPath::classic().fleet_itineraries(1e6).unwrap();
        let r = RayEvaluator::new(2, 0, 1.0, 1e5)
            .unwrap()
            .evaluate(&line_fleet(&fleet, 1e6))
            .unwrap();
        let w = r.worst.unwrap();
        // the worst target hides just past a power of two
        let log = w.x.log2();
        assert!(
            (log - log.round()).abs() < 1e-9,
            "worst x = {} not a power of 2",
            w.x
        );
    }
}
