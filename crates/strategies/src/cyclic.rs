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

use raysearch_bounds::{optimal_alpha, LogScaled, RayInstance, Regime};
use raysearch_sim::{
    Direction, LineItinerary, LogExcursion, LogTourItinerary, RayId, RobotId, TourItinerary,
};

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

    /// Robot `r`'s (0-based) excursions from the paper's first, `n0 =
    /// 1 − 2m`, on, without end: excursion `n` explores ray `n mod m`
    /// and turns at natural log `(k·n + m·(r+1)) · ln α`, with `ln α`
    /// computed once. Logs are the primary representation — the exponent
    /// grows linearly in `k·n`, so the linear-space magnitude
    /// `α^(k·n + m·(r+1))` overflows `f64` long before the tour
    /// contract's post-horizon padding is satisfied on large fleets
    /// (k ≳ 139 at deep horizons). Rejects an out-of-range robot.
    fn turn_lns(
        &self,
        robot: RobotId,
    ) -> Result<impl Iterator<Item = (RayId, f64)>, StrategyError> {
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
        // the paper starts at j = -2, i.e. excursion n0 = 1 - 2m, which
        // guarantees every robot has swept every ray before distance 1
        Ok((1 - 2 * rays..).map(move |n| {
            let ray = RayId::new_unvalidated(n.rem_euclid(rays) as usize);
            (ray, (k * n as f64 + offset) * ln_alpha)
        }))
    }

    /// The finite log-domain tour of one robot, valid for targets up to
    /// `horizon` — the overflow-proof form of [`RayStrategy::tour`].
    ///
    /// Turn points are generated and stored as logarithms; nothing here
    /// ever materializes `α^i` in linear space, so the tour exists for
    /// any fleet size. Wherever the linear tour is finite, its turns
    /// are exactly the saturating extraction of these (`tour` is
    /// implemented on top of this method).
    ///
    /// # Errors
    ///
    /// Returns [`StrategyError::InvalidHorizon`] for a non-finite or
    /// sub-unit horizon and [`StrategyError::InvalidParameters`] for an
    /// out-of-range robot index.
    ///
    /// # Example
    ///
    /// ```
    /// use raysearch_sim::RobotId;
    /// use raysearch_strategies::CyclicExponential;
    ///
    /// // k = 139 overflows the linear tour; the log tour is fine
    /// let s = CyclicExponential::optimal(2, 139, 69)?;
    /// let tour = s.log_tour(RobotId(0), 1e12)?;
    /// assert!(tour.to_linear().is_err());
    /// assert!(tour.len() > 140);
    /// # Ok::<(), raysearch_strategies::StrategyError>(())
    /// ```
    pub fn log_tour(
        &self,
        robot: RobotId,
        horizon: f64,
    ) -> Result<LogTourItinerary, StrategyError> {
        StrategyError::check_horizon(horizon)?;
        let mut lns = self.turn_lns(robot)?;
        let mut excursions = Vec::new();
        // Per-ray count of excursions whose turn already exceeds the
        // horizon; we stop once every ray has f+2 of them, which makes all
        // (f+1)-st distinct-robot visit times below the horizon final.
        let needed = self.f as usize + 2;
        let mut beyond = vec![0usize; self.m as usize];
        while beyond.iter().any(|&c| c < needed) {
            let (ray, ln_turn) = lns.next().expect("the excursion sequence never ends");
            excursions.push(
                LogExcursion::new(ray, LogScaled::from_ln(ln_turn))
                    .expect("finite exponent times finite ln(alpha) is a valid log turn"),
            );
            // same comparison the linear pipeline made: the extraction
            // saturates to inf past f64::MAX, which still counts as
            // beyond any finite horizon
            if ln_turn.exp() >= horizon {
                beyond[ray.index()] += 1;
            }
        }
        Ok(LogTourItinerary::new(self.m as usize, excursions)?)
    }

    /// One robot's excursions as `(ray, turn)` pairs, streamed: the
    /// turns of [`CyclicExponential::log_tour`] extracted to linear
    /// `f64`, bit for bit [`LogScaled::to_f64`]'s (so saturating to `∞`
    /// past `f64::MAX`), at one `exp` per excursion.
    ///
    /// The sequence never ends: it knows no horizon, and its consumer
    /// decides where to stop. The fleet compiler
    /// (`raysearch_core::compiled::optimal_fleet`) feeds it to a builder
    /// that stops once every ray has reached the cap, so no padding tail
    /// and no per-robot tour is ever built.
    ///
    /// # Errors
    ///
    /// Returns [`StrategyError::InvalidParameters`] for an out-of-range
    /// robot index.
    pub fn turns(
        &self,
        robot: RobotId,
    ) -> Result<impl Iterator<Item = (RayId, f64)>, StrategyError> {
        let lns = self.turn_lns(robot)?;
        Ok(lns.map(|(ray, ln_turn)| (ray, LogScaled::from_ln(ln_turn).to_f64())))
    }

    /// Log-domain tours for the whole fleet.
    ///
    /// # Errors
    ///
    /// Propagates the first failing robot's error.
    pub fn fleet_log_tours(&self, horizon: f64) -> Result<Vec<LogTourItinerary>, StrategyError> {
        (0..self.k as usize)
            .map(|r| self.log_tour(RobotId(r), horizon))
            .collect()
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

    /// The linear-space view of [`CyclicExponential::log_tour`]: same
    /// turn points bit-for-bit wherever they fit `f64`, an
    /// invalid-distance error where they overflow (large fleets at deep
    /// horizons — use `log_tour` there).
    fn tour(&self, robot: RobotId, horizon: f64) -> Result<TourItinerary, StrategyError> {
        Ok(self.log_tour(robot, horizon)?.to_linear()?)
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
    fn log_tour_matches_linear_tour_bit_for_bit() {
        for (m, k, f) in [(2u32, 3u32, 1u32), (3, 4, 1), (5, 9, 2)] {
            let s = CyclicExponential::optimal(m, k, f).unwrap();
            for r in 0..k as usize {
                let linear = s.tour(RobotId(r), 300.0).unwrap();
                let log = s.log_tour(RobotId(r), 300.0).unwrap();
                assert_eq!(linear.len(), log.len());
                for (a, b) in linear.excursions().iter().zip(log.excursions()) {
                    assert_eq!(a.ray, b.ray);
                    assert_eq!(a.turn.to_bits(), b.turn.to_f64().to_bits());
                }
            }
        }
    }

    #[test]
    fn log_tour_exists_where_the_linear_tour_overflows() {
        // q = k + 1 on the line: the slowest-growing base, whose
        // padding tail overflows f64 from k ≈ 139 at deep horizons
        let s = CyclicExponential::optimal(2, 149, 74).unwrap();
        assert!(s.tour(RobotId(0), 1e12).is_err(), "linear tour overflows");
        let tour = s.log_tour(RobotId(0), 1e12).unwrap();
        // per-excursion growth is exactly k·ln(alpha) in log space
        let step = f64::from(s.k) * s.alpha().ln();
        for w in tour.excursions().windows(2) {
            let got = w[1].turn.ln_abs() - w[0].turn.ln_abs();
            assert!((got - step).abs() < 1e-6, "growth {got} != {step}");
        }
        // the contract holds: each ray has f + 2 excursions past horizon
        let ln_h = 1e12f64.ln();
        for ray in 0..2usize {
            let beyond = tour
                .excursions()
                .iter()
                .filter(|e| e.ray.index() == ray && e.turn.ln_abs() >= ln_h)
                .count();
            assert!(beyond >= 76, "ray {ray} has only {beyond} beyond");
        }
        // fleet construction scales to every robot
        assert_eq!(s.fleet_log_tours(1e6).unwrap().len(), 149);
    }

    #[test]
    fn turns_stream_the_full_log_tour_bit_for_bit() {
        for (m, k, f) in [(2u32, 3u32, 1u32), (3, 4, 1), (2, 256, 128)] {
            let s = CyclicExponential::optimal(m, k, f).unwrap();
            for r in [0usize, k as usize - 1] {
                let full = s.log_tour(RobotId(r), 4e6).unwrap();
                let mut turns = s.turns(RobotId(r)).unwrap();
                for (i, e) in full.excursions().iter().enumerate() {
                    let (ray, turn) = turns.next().expect("turns never end");
                    let at = format!("(m={m},k={k},f={f}) robot {r}, excursion {i}");
                    assert_eq!(ray, e.ray, "{at}");
                    assert_eq!(turn.to_bits(), e.turn.to_f64().to_bits(), "{at}");
                }
                // past the padded tour the stream goes on cycling the
                // rays, its turns growing or saturated at ∞
                let (ray, turn) = turns.next().unwrap();
                let last = full.excursions().last().unwrap();
                assert_eq!(ray.index(), (last.ray.index() + 1) % m as usize);
                assert!(turn >= last.turn.to_f64());
            }
        }
        assert!(CyclicExponential::optimal(2, 3, 1)
            .unwrap()
            .turns(RobotId(3))
            .is_err());
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
