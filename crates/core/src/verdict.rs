//! Tightness verdicts: theory vs measurement vs falsification.
//!
//! For an instance `(m, k, f)` in the searchable regime the paper asserts
//! three mutually reinforcing facts, each independently checkable:
//!
//! 1. **theory** — the closed form `λ₀ = Λ(q/k)` (Theorem 6, via
//!    `raysearch-bounds`);
//! 2. **upper bound** — the cyclic exponential strategy *measures* at
//!    `λ₀` on the exact evaluator (appendix construction);
//! 3. **lower bound** — at any `λ < λ₀`, the strategy's induced `q`-fold
//!    ORC covering fails: the sweep exhibits an undercovered witness
//!    (Section 3.1 machinery).
//!
//! [`verify_tightness`] runs all three and returns a [`TightnessReport`].

use raysearch_bounds::{a_rays, lambda_to_mu, RayInstance};
use raysearch_cover::settings::{merge_fleet_intervals, OrcSetting};
use raysearch_cover::CoverageProfile;
use raysearch_sim::RobotId;
use raysearch_strategies::CyclicExponential;

use crate::compiled::{optimal_fleet, CompileCache, NoCache};
use crate::{CoreError, RayEvaluator};

/// The outcome of a tightness verification for one instance.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TightnessReport {
    /// The instance checked.
    pub m: u32,
    /// Number of robots.
    pub k: u32,
    /// Number of crash-faulty robots.
    pub f: u32,
    /// The closed-form optimal ratio `λ₀`.
    pub theory: f64,
    /// The measured worst-case ratio of the optimal strategy over
    /// `[1, horizon]` (approaches `theory` from below as the horizon
    /// grows).
    pub measured_upper: f64,
    /// Whether the `q`-fold ORC covering of the optimal strategy fails at
    /// `λ = (1−eps)·λ₀`, as the lower bound demands.
    pub falsified_below: bool,
    /// The undercovered witness distance when falsified.
    pub witness_below: Option<f64>,
    /// The relative margin used for the falsification check.
    pub eps: f64,
    /// The evaluation horizon.
    pub horizon: f64,
}

impl TightnessReport {
    /// Whether both directions hold within `tol` (relative).
    pub fn is_tight(&self, tol: f64) -> bool {
        self.falsified_below && (self.measured_upper - self.theory).abs() <= tol * self.theory
    }
}

/// Verifies the tightness of Theorem 6 for one instance.
///
/// `eps` is the relative margin below `λ₀` at which covering must fail;
/// for very small `eps` the failure witness moves far out, so the horizon
/// must grow accordingly (the paper's `N(ε)`).
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`]-style errors for out-of-regime
/// parameters, invalid horizons or `eps ∉ (0, 1)`.
pub fn verify_tightness(
    m: u32,
    k: u32,
    f: u32,
    horizon: f64,
    eps: f64,
) -> Result<TightnessReport, CoreError> {
    verify_tightness_cached(&NoCache, m, k, f, horizon, eps)
}

/// [`verify_tightness`] with a shared compilation cache for the
/// measurement side.
///
/// The upper-bound measurement consumes the same
/// [`CompiledFleet`](crate::CompiledFleet) artifact as
/// [`evaluate_optimal_cached`](crate::evaluate_optimal_cached) at the
/// same horizon, so verdicts piggyback on artifacts already compiled by
/// evaluations (and vice versa). The ORC falsification side still walks
/// the full log tours: its turn prefix is governed by the `μ·horizon`
/// mass cutoff, not the first-visit piece cap.
///
/// # Errors
///
/// As [`verify_tightness`].
pub fn verify_tightness_cached<C: CompileCache>(
    cache: &C,
    m: u32,
    k: u32,
    f: u32,
    horizon: f64,
    eps: f64,
) -> Result<TightnessReport, CoreError> {
    if !(eps.is_finite() && 0.0 < eps && eps < 1.0) {
        return Err(CoreError::invalid(format!(
            "eps must lie in (0, 1), got {eps}"
        )));
    }
    let instance = RayInstance::new(m, k, f)?;
    let theory = a_rays(m, k, f)?;
    let strategy = CyclicExponential::optimal(m, k, f)?;
    let evaluator = RayEvaluator::new(m as usize, f, 1.0, horizon)?;
    let lambda_below = theory * (1.0 - eps);
    let mu_below = lambda_to_mu(lambda_below)?;

    // Both checks ride the exact evaluator's overflow-proof log-domain
    // path (linear tours stop existing from k ≈ 139).
    let sum_cutoff = mu_below * horizon;

    // (2) measure the upper bound exactly, through the shared artifact:
    // one compilation serves this and `evaluate_optimal_cached`
    let fleet = optimal_fleet(cache, m, k, f, horizon)?;

    // (3) the bounded turn prefix of the q-fold ORC covering; this side
    // needs linear turns, but only while an interval's start
    // `sum_before/μ` can still land in `[1, horizon]`
    let mut per_robot = Vec::with_capacity(k as usize);
    for r in 0..k as usize {
        let tour = strategy.log_tour(RobotId(r), horizon * 4.0)?;
        let mut turns = Vec::new();
        let mut sum_before = 0.0f64;
        for e in tour.excursions() {
            if sum_before > sum_cutoff {
                break;
            }
            let turn = e.turn.to_f64();
            // warm-up turns of very large fleets underflow linear f64;
            // their true mass is below one ulp of any later sum and
            // their intervals end far under distance 1, so they cannot
            // move the profile over [1, horizon]
            if turn > 0.0 {
                turns.push(turn);
                sum_before += turn;
            }
        }
        per_robot.push(OrcSetting::covered_intervals(&turns, mu_below)?);
    }

    let report = evaluator.evaluate(&fleet)?;
    if !report.is_covered() {
        return Err(CoreError::Uncovered {
            witness: report.uncovered.map(|w| w.x).unwrap_or(f64::NAN),
            ray: report.uncovered.map(|w| w.ray).unwrap_or(0),
        });
    }

    let merged = merge_fleet_intervals(per_robot);
    let profile = CoverageProfile::build(&merged, 1.0, horizon)?;
    let witness = profile.first_undercovered(instance.q() as usize);

    Ok(TightnessReport {
        m,
        k,
        f,
        theory,
        measured_upper: report.ratio,
        falsified_below: witness.is_some(),
        witness_below: witness,
        eps,
        horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eps_validation() {
        assert!(verify_tightness(2, 1, 0, 100.0, 0.0).is_err());
        assert!(verify_tightness(2, 1, 0, 100.0, 1.0).is_err());
        assert!(verify_tightness(2, 1, 0, 100.0, f64::NAN).is_err());
    }

    #[test]
    fn cow_path_instance_is_tight() {
        let r = verify_tightness(2, 1, 0, 1e4, 1e-2).unwrap();
        assert!((r.theory - 9.0).abs() < 1e-12);
        assert!((r.measured_upper - 9.0).abs() < 1e-3);
        assert!(r.falsified_below, "coverage did not fail below 9");
        assert!(r.is_tight(1e-3));
    }

    #[test]
    fn faulty_line_instance_is_tight() {
        let r = verify_tightness(2, 3, 1, 1e4, 1e-2).unwrap();
        let expect = raysearch_bounds::a_line(3, 1).unwrap();
        assert!((r.theory - expect).abs() < 1e-12);
        assert!((r.measured_upper - expect).abs() < 1e-3);
        assert!(r.falsified_below);
    }

    #[test]
    fn multi_ray_instances_are_tight() {
        for (m, k, f) in [(3u32, 2u32, 0u32), (4, 3, 0), (3, 5, 1)] {
            let r = verify_tightness(m, k, f, 1e4, 2e-2).unwrap();
            assert!(
                (r.measured_upper - r.theory).abs() < 1e-3 * r.theory,
                "(m={m},k={k},f={f}): measured {} vs theory {}",
                r.measured_upper,
                r.theory
            );
            assert!(r.falsified_below, "(m={m},k={k},f={f}) not falsified");
        }
    }

    #[test]
    fn large_fleet_verdict_goes_through_the_log_pipeline() {
        // k = 256 has no linear fleet (turn points overflow f64); both
        // verdict sides must still run, sharing the log tours
        let r = verify_tightness(2, 256, 128, 1e6, 1e-2).unwrap();
        let expect = raysearch_bounds::a_rays(2, 256, 128).unwrap();
        assert!(r.measured_upper.is_finite());
        assert!((r.measured_upper - expect).abs() < 1e-6 * expect);
        assert!(r.falsified_below, "coverage did not fail below Λ");
        assert!(r.is_tight(1e-4));
    }

    #[test]
    fn cached_verdict_is_bit_identical_and_shares_the_evaluate_artifact() {
        use crate::compiled::CompileMemo;
        use crate::evaluate_optimal_cached;

        let memo = CompileMemo::new();
        for (m, k, f) in [(2u32, 3u32, 1u32), (3, 5, 1)] {
            let fresh = verify_tightness(m, k, f, 1e4, 1e-2).unwrap();
            let cached = verify_tightness_cached(&memo, m, k, f, 1e4, 1e-2).unwrap();
            assert_eq!(
                fresh.measured_upper.to_bits(),
                cached.measured_upper.to_bits(),
                "({m},{k},{f})"
            );
            assert_eq!(fresh.falsified_below, cached.falsified_below);
            assert_eq!(fresh.witness_below, cached.witness_below);
            // the evaluation entry point reuses the verdict's artifact
            evaluate_optimal_cached(&memo, m, k, f, 1e4).unwrap();
        }
        let stats = memo.stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (2, 2),
            "verdict and evaluation share one artifact per instance"
        );
    }

    #[test]
    fn out_of_regime_is_rejected() {
        assert!(verify_tightness(2, 4, 1, 100.0, 0.01).is_err()); // trivial
        assert!(verify_tightness(2, 2, 2, 100.0, 0.01).is_err()); // impossible
    }
}
