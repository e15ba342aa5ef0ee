//! The cyclic exponential strategy (paper appendix; PODC'16 / IJCAI'03).
//!
//! Robot `r` (1-based in the paper) tours the `m` rays cyclically. Its
//! `n`-th excursion (for `n = 1−2m, 2−2m, …`) explores ray `n mod m` up to
//! distance `α^(k·n + m·r)`. Consecutive turning points grow by `α^k`, and
//! the `k` robots interleave as `k` geometric subsequences offset by
//! `α^m`, so every point is visited by `f+1` distinct robots within a
//! bounded factor of its distance.
//!
//! At the optimal base `α* = (q/(q−k))^(1/k)`, `q = m(f+1)`, the worst-case
//! ratio equals `Λ(q/k)` — the exact value the lower bound of Theorems 1
//! and 6 forbids improving. Away from `α*`, the ratio is
//! `2·α^q/(α^k−1) + 1`; experiment E5 sweeps `α` to exhibit the minimum.

use raysearch_bounds::{optimal_alpha, RayInstance, Regime};
use raysearch_sim::{Direction, Excursion, LineItinerary, RayId, RobotId, TourItinerary};

use crate::{LineStrategy, RayStrategy, StrategyError};

/// The cyclic exponential strategy for `k` robots on `m` rays with `f`
/// crash faults.
///
/// See the [module docs](self) for the construction. Use
/// [`CyclicExponential::optimal`] for the tight base, or
/// [`CyclicExponential::with_alpha`] to sweep ablations.
///
/// # Example
///
/// ```
/// use raysearch_strategies::{CyclicExponential, RayStrategy};
///
/// let strat = CyclicExponential::optimal(3, 2, 0)?;
/// assert_eq!(strat.num_rays(), 3);
/// assert_eq!(strat.num_robots(), 2);
/// // q = 3, k = 2: alpha* = (3/1)^(1/2) = sqrt(3)
/// assert!((strat.alpha() - 3f64.sqrt()).abs() < 1e-12);
/// # Ok::<(), raysearch_strategies::StrategyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CyclicExponential {
    m: u32,
    k: u32,
    f: u32,
    alpha: f64,
}

impl CyclicExponential {
    /// Creates the strategy with an explicit geometric base `alpha > 1`.
    ///
    /// # Errors
    ///
    /// Returns [`StrategyError::InvalidParameters`] unless
    /// `f < k < m(f+1)` (the searchable regime) and `alpha > 1`.
    pub fn with_alpha(m: u32, k: u32, f: u32, alpha: f64) -> Result<Self, StrategyError> {
        let inst = RayInstance::new(m, k, f)?;
        match inst.regime() {
            Regime::Searchable { .. } => {}
            other => {
                return Err(StrategyError::invalid(format!(
                    "cyclic exponential strategy needs the searchable regime \
                     f < k < m(f+1); {inst} is {other:?}"
                )))
            }
        }
        if !(alpha.is_finite() && alpha > 1.0) {
            return Err(StrategyError::invalid(format!(
                "geometric base must satisfy alpha > 1, got {alpha}"
            )));
        }
        Ok(CyclicExponential { m, k, f, alpha })
    }

    /// Creates the strategy at the optimal base
    /// `α* = (q/(q−k))^(1/k)`.
    ///
    /// # Errors
    ///
    /// Returns [`StrategyError::InvalidParameters`] outside the searchable
    /// regime.
    pub fn optimal(m: u32, k: u32, f: u32) -> Result<Self, StrategyError> {
        let inst = RayInstance::new(m, k, f)?;
        let alpha = optimal_alpha(inst.q(), k)?;
        Self::with_alpha(m, k, f, alpha)
    }

    /// The geometric base `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The number of faulty robots tolerated.
    #[inline]
    pub fn num_faults(&self) -> u32 {
        self.f
    }

    /// The covering multiplicity `q = m(f+1)`.
    #[inline]
    pub fn q(&self) -> u32 {
        self.m * (self.f + 1)
    }

    /// The per-excursion growth factor `α^k`.
    #[inline]
    pub fn growth_per_excursion(&self) -> f64 {
        self.alpha.powi(self.k as i32)
    }

    /// One robot's excursions as `(ray, turn)` pairs, streamed, valid
    /// for targets up to `horizon`: the one generator of this fleet's
    /// turn points, behind [`RayStrategy::tour`], the fleet compiler
    /// (`raysearch_core::compiled::optimal_fleet`) and the tightness
    /// verdict.
    ///
    /// Robot `r` (0-based) starts at the paper's first excursion,
    /// `n = 1 − 2m`; excursion `n` explores ray `n mod m` and turns at
    /// `exp((k·n + m·(r+1)) · ln α)`, with `ln α` computed once. The
    /// integer `k·n + m·(r+1)` is exact in `f64`, and the one `exp` per
    /// turn saturates to `∞` where `α^(k·n + m·(r+1))` leaves linear
    /// range (large fleets at deep horizons, from k ≈ 139 on the line).
    ///
    /// The stream ends once every ray has `f + 2` turns at or past
    /// `horizon`, which makes every (f+1)-st distinct-robot visit below
    /// the horizon final; a saturated turn counts as past any horizon.
    ///
    /// # Errors
    ///
    /// Returns [`StrategyError::InvalidHorizon`] for a non-finite or
    /// sub-unit horizon and [`StrategyError::InvalidParameters`] for an
    /// out-of-range robot index.
    pub fn turns(
        &self,
        robot: RobotId,
        horizon: f64,
    ) -> Result<impl Iterator<Item = (RayId, f64)>, StrategyError> {
        StrategyError::check_horizon(horizon)?;
        let r = robot.index();
        if r >= self.k as usize {
            return Err(StrategyError::invalid(format!(
                "robot index {r} out of range for k = {}",
                self.k
            )));
        }
        let rays = i64::from(self.m);
        let (k, offset) = (f64::from(self.k), f64::from(self.m) * (r as f64 + 1.0));
        let ln_alpha = self.alpha.ln();
        // per-ray count of turns at or past the horizon, and how many
        // rays still have fewer than f + 2 of them
        let needed = self.f as usize + 2;
        let mut beyond = vec![0usize; self.m as usize];
        let mut short = self.m as usize;
        // the paper starts at j = -2, i.e. excursion n0 = 1 - 2m, which
        // guarantees every robot has swept every ray before distance 1
        Ok((1 - 2 * rays..).map_while(move |n| {
            if short == 0 {
                return None;
            }
            let ray = n.rem_euclid(rays) as usize;
            let turn = ((k * n as f64 + offset) * ln_alpha).exp();
            if turn >= horizon {
                beyond[ray] += 1;
                short -= usize::from(beyond[ray] == needed);
            }
            Some((RayId::new_unvalidated(ray), turn))
        }))
    }

    /// Restriction of this strategy to the line (`m = 2`), with ray `0`
    /// mapped to the positive half-line.
    ///
    /// For `m = 2` the excursion tour and the genuine line motion produce
    /// identical first-visit times on the "current" side (the line robot's
    /// swing through the origin is the tour's return), so this view is
    /// exact, not a relaxation.
    ///
    /// # Errors
    ///
    /// Returns [`StrategyError::InvalidParameters`] if `m != 2`.
    pub fn to_line(&self) -> Result<CyclicExponentialLine, StrategyError> {
        if self.m != 2 {
            return Err(StrategyError::invalid(format!(
                "line view requires m = 2, this strategy has m = {}",
                self.m
            )));
        }
        Ok(CyclicExponentialLine {
            inner: self.clone(),
        })
    }
}

impl RayStrategy for CyclicExponential {
    fn name(&self) -> String {
        format!(
            "cyclic-exponential(m={}, k={}, f={}, alpha={:.6})",
            self.m, self.k, self.f, self.alpha
        )
    }

    fn num_rays(&self) -> usize {
        self.m as usize
    }

    fn num_robots(&self) -> usize {
        self.k as usize
    }

    /// [`CyclicExponential::turns`] collected into excursions: an
    /// invalid-distance error where a turn saturates to `∞` (large
    /// fleets at deep horizons, which compile through the stream
    /// instead).
    fn tour(&self, robot: RobotId, horizon: f64) -> Result<TourItinerary, StrategyError> {
        let excursions = self
            .turns(robot, horizon)?
            .map(|(ray, turn)| Excursion::new(ray, turn))
            .collect::<Result<_, _>>()?;
        Ok(TourItinerary::new(self.m as usize, excursions)?)
    }
}

/// The line (`m = 2`) view of [`CyclicExponential`], as a genuine
/// zig-zag [`LineStrategy`].
///
/// Obtained via [`CyclicExponential::to_line`]. This is the PODC'16 optimal
/// strategy for `k` robots and `f` crash faults on the line.
///
/// # Example
///
/// ```
/// use raysearch_strategies::{CyclicExponential, LineStrategy};
///
/// // k = 1, f = 0: the doubling cow path.
/// let line = CyclicExponential::optimal(2, 1, 0)?.to_line()?;
/// let it = line.itinerary(raysearch_sim::RobotId(0), 8.0)?;
/// let ratios: Vec<f64> = it.turns().windows(2).map(|w| w[1] / w[0]).collect();
/// for r in ratios {
///     assert!((r - 2.0).abs() < 1e-9); // doubling
/// }
/// # Ok::<(), raysearch_strategies::StrategyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CyclicExponentialLine {
    inner: CyclicExponential,
}

impl CyclicExponentialLine {
    /// The underlying ray-strategy parameters.
    pub fn as_ray_strategy(&self) -> &CyclicExponential {
        &self.inner
    }
}

impl LineStrategy for CyclicExponentialLine {
    fn name(&self) -> String {
        format!("line-{}", self.inner.name())
    }

    fn num_robots(&self) -> usize {
        self.inner.num_robots()
    }

    fn itinerary(&self, robot: RobotId, horizon: f64) -> Result<LineItinerary, StrategyError> {
        let tour = self.inner.tour(robot, horizon)?;
        // Consecutive excursions alternate rays 0/1, so the tour maps
        // directly to an alternating line plan.
        let first = tour
            .excursions()
            .first()
            .expect("searchable-regime tours are nonempty");
        let start = if first.ray.index() == 0 {
            Direction::Positive
        } else {
            Direction::Negative
        };
        let turns = tour.excursions().iter().map(|e| e.turn).collect();
        Ok(LineItinerary::new(start, turns)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_regime_parameters() {
        // trivial regime: k >= m(f+1)
        assert!(CyclicExponential::optimal(2, 4, 1).is_err());
        // impossible: k = f
        assert!(CyclicExponential::optimal(2, 2, 2).is_err());
        // bad alpha
        assert!(CyclicExponential::with_alpha(2, 1, 0, 1.0).is_err());
        assert!(CyclicExponential::with_alpha(2, 1, 0, f64::NAN).is_err());
        // fine
        assert!(CyclicExponential::with_alpha(2, 1, 0, 3.0).is_ok());
    }

    #[test]
    fn optimal_alpha_for_cow_path_is_two() {
        let s = CyclicExponential::optimal(2, 1, 0).unwrap();
        assert!((s.alpha() - 2.0).abs() < 1e-12);
        assert!((s.growth_per_excursion() - 2.0).abs() < 1e-12);
        assert_eq!(s.q(), 2);
    }

    #[test]
    fn tour_cycles_rays_in_order() {
        let s = CyclicExponential::optimal(3, 2, 0).unwrap();
        let tour = s.tour(RobotId(0), 50.0).unwrap();
        for (i, w) in tour.excursions().windows(2).enumerate() {
            assert_eq!(
                (w[0].ray.index() + 1) % 3,
                w[1].ray.index(),
                "cycle broken at excursion {i}"
            );
        }
    }

    #[test]
    fn turns_grow_geometrically_by_alpha_k() {
        let s = CyclicExponential::optimal(2, 3, 1).unwrap();
        let growth = s.growth_per_excursion();
        let tour = s.tour(RobotId(1), 100.0).unwrap();
        for w in tour.excursions().windows(2) {
            let ratio = w[1].turn / w[0].turn;
            assert!(
                (ratio - growth).abs() < 1e-9,
                "expected growth {growth}, got {ratio}"
            );
        }
    }

    #[test]
    fn robots_are_offset_by_alpha_m() {
        let s = CyclicExponential::optimal(2, 3, 1).unwrap();
        let t0 = s.tour(RobotId(0), 50.0).unwrap();
        let t1 = s.tour(RobotId(1), 50.0).unwrap();
        let offset = s.alpha().powi(2); // alpha^m
        let r = t1.excursions()[0].turn / t0.excursions()[0].turn;
        assert!((r - offset).abs() < 1e-9);
    }

    #[test]
    fn warmup_reaches_below_distance_one() {
        // every robot's first excursion must turn at distance <= 1
        for (m, k, f) in [
            (2u32, 1u32, 0u32),
            (2, 3, 1),
            (3, 2, 0),
            (4, 5, 1),
            (5, 9, 2),
        ] {
            let s = CyclicExponential::optimal(m, k, f).unwrap();
            for r in 0..k as usize {
                let tour = s.tour(RobotId(r), 10.0).unwrap();
                let first = tour.excursions()[0].turn;
                assert!(
                    first <= 1.0 + 1e-9,
                    "robot {r} of (m={m},k={k},f={f}) starts at {first} > 1"
                );
            }
        }
    }

    #[test]
    fn tour_extends_past_horizon_per_ray() {
        let (m, k, f) = (3u32, 4u32, 1u32);
        let s = CyclicExponential::optimal(m, k, f).unwrap();
        let h = 200.0;
        for r in 0..k as usize {
            let tour = s.tour(RobotId(r), h).unwrap();
            for ray in 0..m as usize {
                let beyond = tour
                    .excursions()
                    .iter()
                    .filter(|e| e.ray.index() == ray && e.turn >= h)
                    .count();
                assert!(beyond >= (f as usize) + 2, "ray {ray} undercovered");
            }
        }
    }

    #[test]
    fn turns_match_the_closed_form_bit_for_bit() {
        // every turn of every robot at the largest finite horizon, where
        // each stream runs on until f + 2 turns per ray have saturated
        // to ∞: 1,561, 2,635 and 104,588 turns
        for (m, k, f) in [(2u32, 3u32, 1u32), (3, 4, 1), (2, 256, 128)] {
            let s = CyclicExponential::optimal(m, k, f).unwrap();
            let ln_alpha = s.alpha().ln();
            for r in 0..i64::from(k) {
                let turns = s.turns(RobotId(r as usize), f64::MAX).unwrap();
                let mut last = 0.0;
                for (i, (ray, turn)) in turns.enumerate() {
                    let n = 1 - 2 * i64::from(m) + i as i64;
                    let exponent = i64::from(k) * n + i64::from(m) * (r + 1);
                    let at = format!("(m={m},k={k},f={f}) robot {r}, turn {i}");
                    assert_eq!(ray.index() as i64, n.rem_euclid(i64::from(m)), "{at}");
                    let want = (exponent as f64 * ln_alpha).exp();
                    assert_eq!(turn.to_bits(), want.to_bits(), "{at}");
                    last = turn;
                }
                assert_eq!(last, f64::INFINITY);
            }
        }
        let s = CyclicExponential::optimal(2, 3, 1).unwrap();
        assert!(s.turns(RobotId(3), 10.0).is_err());
        assert!(s.turns(RobotId(0), 0.5).is_err());
        assert!(s.turns(RobotId(0), f64::INFINITY).is_err());
    }

    #[test]
    fn turns_pass_the_horizon_on_every_ray_where_the_tour_overflows() {
        // q = k + 1 on the line: the slowest-growing base, whose turns
        // saturate to ∞ before f + 2 of them pass a deep horizon
        let (m, k, f) = (2u32, 149u32, 74u32);
        let s = CyclicExponential::optimal(m, k, f).unwrap();
        let horizon = 1e12;
        assert!(s.tour(RobotId(0), horizon).is_err(), "the tour overflows");
        let turns: Vec<(RayId, f64)> = s.turns(RobotId(0), horizon).unwrap().collect();
        assert_eq!(turns.last().unwrap().1, f64::INFINITY);
        let beyond = |ray: usize, turns: &[(RayId, f64)]| {
            turns
                .iter()
                .filter(|(r, turn)| r.index() == ray && *turn >= horizon)
                .count()
        };
        for ray in 0..m as usize {
            assert!(beyond(ray, &turns) >= 76, "ray {ray} is short");
        }
        // the stream stops at the turn that completes the last ray
        let (ray, _) = *turns.last().unwrap();
        assert_eq!(beyond(ray.index(), &turns), 76);
        assert_eq!(beyond(ray.index(), &turns[..turns.len() - 1]), 75);
    }

    #[test]
    fn robot_index_validation() {
        let s = CyclicExponential::optimal(2, 1, 0).unwrap();
        assert!(s.tour(RobotId(1), 10.0).is_err());
        assert!(s.tour(RobotId(0), 0.5).is_err());
    }

    #[test]
    fn line_view_requires_m2() {
        assert!(CyclicExponential::optimal(3, 2, 0)
            .unwrap()
            .to_line()
            .is_err());
        assert!(CyclicExponential::optimal(2, 1, 0)
            .unwrap()
            .to_line()
            .is_ok());
    }

    #[test]
    fn line_view_is_doubling_for_cow_path() {
        let line = CyclicExponential::optimal(2, 1, 0)
            .unwrap()
            .to_line()
            .unwrap();
        let it = line.itinerary(RobotId(0), 16.0).unwrap();
        for w in it.turns().windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-9);
        }
        assert_eq!(line.num_robots(), 1);
    }

    #[test]
    fn line_view_alternates_sides_matching_tour_rays() {
        let s = CyclicExponential::optimal(2, 3, 1).unwrap();
        let line = s.to_line().unwrap();
        let tour = s.tour(RobotId(2), 30.0).unwrap();
        let it = line.itinerary(RobotId(2), 30.0).unwrap();
        assert_eq!(tour.len(), it.len());
        for (e, signed) in tour.excursions().iter().zip(it.signed_turns()) {
            let expect_positive = e.ray.index() == 0;
            assert_eq!(signed > 0.0, expect_positive);
            assert!((signed.abs() - e.turn).abs() < 1e-12);
        }
    }
}
