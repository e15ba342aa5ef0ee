//! The Monte-Carlo scenario, the batched parallel driver, and the
//! closed-form comparison report.
//!
//! # Determinism contract
//!
//! [`estimate`] is a pure function of `(Scenario, seed, samples, batch,
//! bins)`. The thread count shapes only the schedule:
//!
//! 1. sample `i` draws from its own counter-based generator
//!    [`SplitMix64::keyed`]`(seed, i)` — no shared stream to race on;
//! 2. samples are folded into batches of a fixed size (`cfg.batch`),
//!    whose boundaries depend only on the sample count;
//! 3. batches are evaluated by
//!    [`par_map_threads`] (order-preserving)
//!    and merged in batch order on the calling thread.
//!
//! Every [`McReport`] is therefore bit-identical across `threads ∈ {1,
//! 2, 8, …}`, which is what makes the serving layer's cache sound.

use std::sync::Arc;

use rand::rngs::SplitMix64;
use raysearch_core::{optimal_fleet, par_map_threads, CompileCache, CompiledFleet, NoCache};
use raysearch_strategies::CyclicExponential;

use crate::estimator::BatchEstimate;
use crate::sampler::{FaultSampler, TargetSampler};
use crate::{visits, McError};

/// Largest fleet the engine accepts (fault draws are fixed-width
/// [`SilentMask`](crate::SilentMask) bitsets of this many bits, and the
/// fleet compiles through the log-domain tour pipeline, so turn-point
/// overflow no longer caps `k`).
pub const MAX_FLEET: u32 = 4096;

/// A fully specified average-case experiment: the instance `(m, k, f)`
/// whose *optimal* cyclic exponential fleet is simulated, the evaluation
/// horizon, and the two samplers.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    m: u32,
    k: u32,
    f: u32,
    horizon: f64,
    faults: FaultSampler,
    targets: TargetSampler,
}

impl Scenario {
    /// Validates and builds a scenario over targets in `[1, horizon]`.
    ///
    /// # Errors
    ///
    /// Returns [`McError::InvalidInput`] if `(m, k, f)` is outside the
    /// searchable regime `f < k < m(f+1)`, `k` exceeds [`MAX_FLEET`],
    /// the horizon is not in `(1, ∞)`, or a sampler rejects the
    /// instance.
    ///
    /// # Example
    ///
    /// ```
    /// use raysearch_mc::{FaultSampler, Scenario, TargetSampler};
    ///
    /// let s = Scenario::new(
    ///     2,
    ///     3,
    ///     1,
    ///     1e4,
    ///     FaultSampler::UniformSubset { f: 1 },
    ///     TargetSampler::LogUniform { lo: 1.0, hi: 1e4 },
    /// )?;
    /// assert!(s.closed_form() > 1.0); // Λ(q/k), the exact worst case
    /// # Ok::<(), raysearch_mc::McError>(())
    /// ```
    pub fn new(
        m: u32,
        k: u32,
        f: u32,
        horizon: f64,
        faults: FaultSampler,
        targets: TargetSampler,
    ) -> Result<Self, McError> {
        if k > MAX_FLEET {
            return Err(McError::invalid(format!(
                "fleet size k = {k} exceeds the engine ceiling {MAX_FLEET}"
            )));
        }
        if !(horizon.is_finite() && horizon > 1.0) {
            return Err(McError::invalid(format!(
                "horizon must lie in (1, inf), got {horizon}"
            )));
        }
        // demands the searchable regime, like the exact evaluator path
        let _ = CyclicExponential::optimal(m, k, f)?;
        faults.validate(k)?;
        targets.validate(m as usize, 1.0, horizon)?;
        Ok(Scenario {
            m,
            k,
            f,
            horizon,
            faults,
            targets,
        })
    }

    /// Number of rays.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of robots.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Fault budget of the simulated strategy.
    pub fn f(&self) -> u32 {
        self.f
    }

    /// The evaluation horizon.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The fault sampler.
    pub fn faults(&self) -> &FaultSampler {
        &self.faults
    }

    /// The target sampler.
    pub fn targets(&self) -> &TargetSampler {
        &self.targets
    }

    /// The exact worst case `Λ(q/k) = A(m, k, f)` this scenario's
    /// average is compared against.
    pub fn closed_form(&self) -> f64 {
        raysearch_bounds::a_rays(self.m, self.k, self.f)
            .expect("scenario construction admitted only the searchable regime")
    }

    /// Builds the adversarial-grid replay sampler for this scenario: the
    /// exact adversary's candidate targets (every per-robot piece
    /// boundary of the optimal fleet, nudged just past the boundary,
    /// plus the inner edge of every ray).
    ///
    /// # Errors
    ///
    /// Returns [`McError::InvalidInput`] if the fleet cannot be
    /// materialized (a regression — construction already validated it).
    pub fn adversarial_grid(&self) -> Result<TargetSampler, McError> {
        let fleet = self.compiled(&NoCache)?;
        let mut points = Vec::new();
        for ray in 0..self.m as usize {
            points.push((ray, 1.0));
            for b in fleet.boundaries_on_ray(ray, 1.0, self.horizon) {
                // the sup is a right-limit at the boundary; replay a
                // point just inside the next piece
                let x = b * (1.0 + 1e-12);
                if x < self.horizon {
                    points.push((ray, x));
                }
            }
        }
        Ok(TargetSampler::GridReplay { points })
    }

    /// The optimal fleet's compiled artifact, fetched through `cache`
    /// under the same key the exact evaluator uses at this horizon, so
    /// Monte-Carlo runs and exact evaluations share one compilation.
    fn compiled<C: CompileCache>(&self, cache: &C) -> Result<Arc<CompiledFleet>, McError> {
        optimal_fleet(cache, self.m, self.k, self.f, self.horizon)
            .map_err(|e| McError::invalid(format!("first-visit compilation: {e}")))
    }
}

/// Estimation knobs: the master seed, the sample budget, and the
/// batching/sketch layout (part of the determinism key), plus the
/// thread count (deliberately *not* part of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Master seed; sample `i` draws from `SplitMix64::keyed(seed, i)`.
    pub seed: u64,
    /// Number of Monte-Carlo samples.
    pub samples: u64,
    /// Worker threads (`None` = machine parallelism, `Some(1)` =
    /// sequential). Never changes the result.
    pub threads: Option<usize>,
    /// Samples per batch; batch boundaries are part of the result's
    /// identity (they fix the floating-point merge order).
    pub batch: u64,
    /// Quantile-sketch bins over `[1, Λ(q/k)]`.
    pub bins: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            seed: 1707, // arXiv:1707.05077
            samples: 20_000,
            threads: None,
            batch: 4096,
            bins: 256,
        }
    }
}

impl McConfig {
    /// A config with the given seed and sample budget, defaults
    /// elsewhere.
    pub fn with_seed(seed: u64, samples: u64) -> Self {
        McConfig {
            seed,
            samples,
            ..McConfig::default()
        }
    }
}

/// The finished estimate: distribution statistics of the detection
/// ratio plus the closed-form worst case for contrast.
///
/// Statistics (`mean` … `max`) are over *detected* samples; samples
/// whose target was never confirmed by enough robots are counted in
/// `undetected` (possible only when a sampler may exceed the strategy's
/// fault budget, e.g. [`FaultSampler::IidCrash`]). [`estimate`] always
/// delivers `detected ≥ 1` (an all-undetected run is an error), so
/// `mean`/`min`/`max` and the quantiles are always finite; `variance`,
/// `std_error` and the confidence interval are `NaN` when `detected <
/// 2` (serialized as JSON `null`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct McReport {
    /// Number of rays.
    pub m: u32,
    /// Number of robots.
    pub k: u32,
    /// Fault budget of the simulated optimal strategy.
    pub f: u32,
    /// The evaluation horizon.
    pub horizon: f64,
    /// Canonical fault-sampler name (`"worst"`, `"uniform"`, `"iid"`,
    /// `"byzantine"`).
    pub fault_model: String,
    /// Canonical target-sampler name (`"fixed"`, `"loguniform"`,
    /// `"grid"`).
    pub target_model: String,
    /// The master seed.
    pub seed: u64,
    /// Total samples drawn.
    pub samples: u64,
    /// Samples whose target was detected.
    pub detected: u64,
    /// Samples whose target was never confirmed.
    pub undetected: u64,
    /// Mean detection ratio over detected samples.
    pub mean: f64,
    /// Unbiased sample variance of the ratio.
    pub variance: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Lower edge of the 95% normal-approximation confidence interval.
    pub ci95_lo: f64,
    /// Upper edge of the 95% normal-approximation confidence interval.
    pub ci95_hi: f64,
    /// Median detection ratio (conservative sketch estimate).
    pub p50: f64,
    /// 90th-percentile ratio (conservative sketch estimate).
    pub p90: f64,
    /// 95th-percentile ratio (conservative sketch estimate).
    pub p95: f64,
    /// Smallest detected ratio (exact).
    pub min: f64,
    /// Largest detected ratio (exact).
    pub max: f64,
    /// The exact worst case `Λ(q/k)` of Theorems 1/6.
    pub closed_form: f64,
}

impl McReport {
    /// The average-vs-worst-case contrast.
    pub fn comparison(&self) -> ClosedFormComparison {
        ClosedFormComparison {
            closed_form: self.closed_form,
            mean: self.mean,
            p95: self.p95,
            max: self.max,
            mean_slack: self.closed_form - self.mean,
            within_worst_case: self.undetected == 0
                && self.max <= self.closed_form * (1.0 + 1e-9) + 1e-9,
        }
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "(m={}, k={}, f={}) {}x{}: mean {:.4} / p95 {:.4} / max {:.4} vs Λ = {:.4} ({} of {} undetected)",
            self.m,
            self.k,
            self.f,
            self.fault_model,
            self.target_model,
            self.mean,
            self.p95,
            self.max,
            self.closed_form,
            self.undetected,
            self.samples
        )
    }
}

/// The `compare_to_closed_form` report: empirical mean/p95/max against
/// the exact worst case.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClosedFormComparison {
    /// The exact worst case `Λ(q/k)`.
    pub closed_form: f64,
    /// Empirical mean ratio.
    pub mean: f64,
    /// Empirical 95th percentile.
    pub p95: f64,
    /// Empirical maximum.
    pub max: f64,
    /// `closed_form − mean`: what the average case gains over the
    /// adversary.
    pub mean_slack: f64,
    /// Whether every sample stayed within the budgeted worst case
    /// (always true for budget-respecting samplers; may be false for
    /// i.i.d. faults that exceed the budget).
    pub within_worst_case: bool,
}

/// Runs the Monte-Carlo estimation.
///
/// See the [module docs](self) for the determinism contract.
///
/// # Errors
///
/// Returns [`McError::InvalidInput`] on a zero sample budget, a zero
/// batch size, fewer than two sketch bins, a fleet that fails to
/// materialize, or a run in which *every* sample was undetected (no
/// statistics exist then; deterministic per `(seed, samples)`).
///
/// # Example
///
/// ```
/// use raysearch_mc::{estimate, FaultSampler, McConfig, Scenario, TargetSampler};
///
/// let scenario = Scenario::new(
///     2,
///     3,
///     1,
///     1e3,
///     FaultSampler::UniformSubset { f: 1 },
///     TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
/// )?;
/// let report = estimate(&scenario, &McConfig::with_seed(7, 2_000))?;
/// assert_eq!(report.detected, 2_000);
/// // the average case is strictly better than the adversary
/// assert!(report.mean < report.closed_form);
/// # Ok::<(), raysearch_mc::McError>(())
/// ```
pub fn estimate(scenario: &Scenario, cfg: &McConfig) -> Result<McReport, McError> {
    estimate_cached(scenario, cfg, &NoCache)
}

/// [`estimate`] with a shared compile cache for the fleet's
/// [`CompiledFleet`], which every sample queries in place.
///
/// The report is bit-identical to [`estimate`]'s — the cached artifact
/// holds the same pieces a fresh compilation produces — so the serving
/// layer can route Monte-Carlo requests through its compile memo
/// without perturbing cached payloads.
///
/// # Errors
///
/// As [`estimate`].
pub fn estimate_cached<C: CompileCache>(
    scenario: &Scenario,
    cfg: &McConfig,
    cache: &C,
) -> Result<McReport, McError> {
    if cfg.samples == 0 {
        return Err(McError::invalid("sample budget must be at least 1"));
    }
    if cfg.batch == 0 {
        return Err(McError::invalid("batch size must be at least 1"));
    }
    if cfg.bins < 2 {
        return Err(McError::invalid("quantile sketch needs at least 2 bins"));
    }
    let fleet = scenario.compiled(cache)?;
    let closed_form = scenario.closed_form();
    let m = scenario.m as usize;
    let k = scenario.k as usize;

    let num_batches = cfg.samples.div_ceil(cfg.batch);
    let batches: Vec<u64> = (0..num_batches).collect();
    let partials = par_map_threads(&batches, cfg.threads, |&b| {
        let mut acc = BatchEstimate::new(1.0, closed_form, cfg.bins);
        let mut times: Vec<f64> = Vec::with_capacity(k);
        let lo = b * cfg.batch;
        let hi = (lo + cfg.batch).min(cfg.samples);
        for i in lo..hi {
            let mut rng = SplitMix64::keyed(cfg.seed, i);
            let (ray, x) = scenario.targets.draw(m, &mut rng);
            let draw = scenario.faults.draw(k, &mut rng);
            match visits::detection_time(&fleet, &draw, ray, x, &mut times) {
                Some(t) => acc.push_ratio(t / x),
                None => acc.push_undetected(),
            }
        }
        acc
    });

    // fixed-order fold: batch 0, 1, 2, … regardless of which thread
    // computed what
    let mut total = BatchEstimate::new(1.0, closed_form, cfg.bins);
    for partial in &partials {
        total.merge(partial);
    }

    let detected = total.welford.count();
    if detected == 0 {
        // with no detected sample every statistic is undefined (the
        // NaN/±∞ placeholders would serialize as JSON nulls and get
        // cached); refuse instead — the outcome is still deterministic
        // per (seed, samples), so callers see a stable error
        return Err(McError::invalid(format!(
            "all {} samples were undetected under the {:?} fault model — \
             no ratio statistics exist; raise the sample budget or lower \
             the fault probability",
            cfg.samples,
            scenario.faults.name()
        )));
    }
    let mean = total.welford.mean();
    let std_error = total.welford.std_error();
    let quantile = |q: f64| total.sketch.quantile(q).unwrap_or(total.max);
    Ok(McReport {
        m: scenario.m,
        k: scenario.k,
        f: scenario.f,
        horizon: scenario.horizon,
        fault_model: scenario.faults.name().to_owned(),
        target_model: scenario.targets.name().to_owned(),
        seed: cfg.seed,
        samples: cfg.samples,
        detected,
        undetected: total.undetected,
        mean,
        variance: total.welford.variance(),
        std_error,
        ci95_lo: mean - 1.96 * std_error,
        ci95_hi: mean + 1.96 * std_error,
        p50: quantile(0.5),
        p90: quantile(0.9),
        p95: quantile(0.95),
        min: total.min,
        max: total.max,
        closed_form,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(faults: FaultSampler, targets: TargetSampler) -> Scenario {
        Scenario::new(2, 3, 1, 1e3, faults, targets).unwrap()
    }

    #[test]
    fn scenario_validation() {
        let ft = FaultSampler::WorstCaseSubset { f: 1 };
        let tg = TargetSampler::LogUniform { lo: 1.0, hi: 1e3 };
        // non-searchable regimes are rejected
        assert!(Scenario::new(2, 1, 1, 1e3, ft.clone(), tg.clone()).is_err());
        // trivial regime (k = q) too
        assert!(Scenario::new(2, 4, 1, 1e3, ft.clone(), tg.clone()).is_err());
        // bad horizon
        assert!(Scenario::new(2, 3, 1, 1.0, ft.clone(), tg.clone()).is_err());
        assert!(Scenario::new(2, 3, 1, f64::INFINITY, ft.clone(), tg.clone()).is_err());
        // sampler/instance mismatch
        assert!(Scenario::new(
            2,
            3,
            1,
            1e3,
            FaultSampler::UniformSubset { f: 3 },
            tg.clone()
        )
        .is_err());
        assert!(Scenario::new(2, 3, 1, 1e3, ft, TargetSampler::Fixed { ray: 5, x: 2.0 }).is_err());
    }

    #[test]
    fn estimate_validates_the_config() {
        let s = scenario(
            FaultSampler::WorstCaseSubset { f: 1 },
            TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
        );
        let mut cfg = McConfig::with_seed(1, 0);
        assert!(estimate(&s, &cfg).is_err());
        cfg.samples = 10;
        cfg.batch = 0;
        assert!(estimate(&s, &cfg).is_err());
        cfg.batch = 4;
        cfg.bins = 1;
        assert!(estimate(&s, &cfg).is_err());
    }

    #[test]
    fn worst_case_sampler_stays_at_or_below_the_closed_form() {
        let s = scenario(
            FaultSampler::WorstCaseSubset { f: 1 },
            TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
        );
        let r = estimate(&s, &McConfig::with_seed(42, 5_000)).unwrap();
        assert_eq!(r.detected + r.undetected, 5_000);
        assert_eq!(r.undetected, 0);
        assert!(r.min >= 1.0);
        assert!(r.max <= r.closed_form + 1e-9, "{} > Λ", r.max);
        assert!(r.mean < r.closed_form);
        assert!(r.comparison().within_worst_case);
        assert!(r.ci95_lo <= r.mean && r.mean <= r.ci95_hi);
        assert!(r.p50 <= r.p90 && r.p90 <= r.p95);
    }

    #[test]
    fn adversarial_grid_attains_nearly_the_sup() {
        let s = scenario(
            FaultSampler::WorstCaseSubset { f: 1 },
            TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
        );
        let grid = s.adversarial_grid().unwrap();
        let s2 = Scenario::new(2, 3, 1, 1e3, FaultSampler::WorstCaseSubset { f: 1 }, grid).unwrap();
        let r = estimate(&s2, &McConfig::with_seed(7, 20_000)).unwrap();
        assert!(r.max <= r.closed_form + 1e-9);
        assert!(
            r.max > 0.95 * r.closed_form,
            "grid replay max {} far from Λ {}",
            r.max,
            r.closed_form
        );
    }

    #[test]
    fn all_undetected_is_a_stable_error_not_a_nan_report() {
        let s = scenario(
            FaultSampler::IidCrash { p: 0.999_999 },
            TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
        );
        // at p ≈ 1 every robot is silent in every sample (verified for
        // this pinned seed; the outcome is deterministic thereafter)
        let err = estimate(&s, &McConfig::with_seed(0, 3)).unwrap_err();
        assert!(err.to_string().contains("undetected"), "{err}");
        // and the identical call errs identically
        let again = estimate(&s, &McConfig::with_seed(0, 3)).unwrap_err();
        assert_eq!(err, again);
    }

    #[test]
    fn iid_p_one_is_valid_and_errs_all_undetected_for_any_seed() {
        // p = 1 (every robot silent, deterministically) is a legitimate
        // distribution: the scenario validates, and every run surfaces
        // the stable all-undetected error regardless of seed
        let s = scenario(
            FaultSampler::IidCrash { p: 1.0 },
            TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
        );
        for seed in [0u64, 1, 42, u64::MAX] {
            let err = estimate(&s, &McConfig::with_seed(seed, 50)).unwrap_err();
            assert!(err.to_string().contains("undetected"), "seed {seed}: {err}");
        }
    }

    #[test]
    fn large_fleets_estimate_beyond_the_old_128_ceiling() {
        // k = 256 > the retired u128-mask ceiling; q = k + 2
        let s = Scenario::new(
            2,
            256,
            128,
            1e6,
            FaultSampler::WorstCaseSubset { f: 128 },
            TargetSampler::LogUniform { lo: 1.0, hi: 1e6 },
        )
        .unwrap();
        let base = estimate(&s, &McConfig::with_seed(9, 600)).unwrap();
        assert_eq!(base.detected, 600);
        assert!(base.max <= base.closed_form + 1e-9);
        assert!(base.mean >= 1.0 && base.mean < base.closed_form);
        // thread-count bit-identity holds at the new fleet sizes
        for threads in [2usize, 8] {
            let cfg = McConfig {
                threads: Some(threads),
                ..McConfig::with_seed(9, 600)
            };
            assert_eq!(estimate(&s, &cfg).unwrap(), base, "threads = {threads}");
        }
        // the ceiling itself is enforced at the new value
        assert!(Scenario::new(
            2,
            MAX_FLEET + 1,
            2049,
            1e6,
            FaultSampler::WorstCaseSubset { f: 2049 },
            TargetSampler::LogUniform { lo: 1.0, hi: 1e6 },
        )
        .is_err());
    }

    #[test]
    fn cached_estimate_is_bit_identical_and_shares_the_evaluator_artifact() {
        use raysearch_core::{evaluate_optimal_cached, CompileMemo};

        let s = scenario(
            FaultSampler::WorstCaseSubset { f: 1 },
            TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
        );
        let memo = CompileMemo::new();
        // the exact evaluator compiles (2, 3, α, 1e3) first...
        evaluate_optimal_cached(&memo, 2, 3, 1, 1e3).unwrap();
        let fresh = estimate(&s, &McConfig::with_seed(11, 2_000)).unwrap();
        // ...and the Monte-Carlo run is a pure cache hit on it
        let cached = estimate_cached(&s, &McConfig::with_seed(11, 2_000), &memo).unwrap();
        assert_eq!(fresh, cached, "cache must not move a single bit");
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn iid_faults_can_exceed_the_budgeted_worst_case() {
        let s = scenario(
            FaultSampler::IidCrash { p: 0.6 },
            TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
        );
        let r = estimate(&s, &McConfig::with_seed(3, 4_000)).unwrap();
        // with p = 0.6 and k = 3, all three robots crash ~21.6% of the
        // time: undetected samples must appear
        assert!(r.undetected > 0);
        assert_eq!(r.detected + r.undetected, 4_000);
        assert!(!r.comparison().within_worst_case);
    }

    #[test]
    fn summary_mentions_the_models() {
        let s = scenario(
            FaultSampler::UniformSubset { f: 1 },
            TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
        );
        let r = estimate(&s, &McConfig::with_seed(1, 500)).unwrap();
        let line = r.summary();
        assert!(line.contains("uniform") && line.contains("loguniform"));
    }
}
