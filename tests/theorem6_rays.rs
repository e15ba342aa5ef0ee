//! Integration tests for Theorem 6: m rays, and its relaxation chain
//! (m-ray search -> q-fold ORC cover -> fractional cover).

use raysearch::bounds::{a_rays, c_fractional, c_orc, lambda_to_mu, RayInstance, Regime};
use raysearch::core::verdict::verify_tightness;
use raysearch::core::{CompiledFleet, RayEvaluator};
use raysearch::cover::settings::{merge_fleet_intervals, OrcSetting};
use raysearch::cover::CoverageProfile;
use raysearch::strategies::{CyclicExponential, RayStrategy};

/// All searchable (m, k, f) with m <= 5, k <= 7: measured == theory and
/// falsified just below, through the one-call verdict API.
#[test]
fn theorem6_tightness_grid() {
    for m in 2u32..=5 {
        for k in 1u32..=7 {
            for f in 0..k.min(3) {
                let instance = RayInstance::new(m, k, f).unwrap();
                if !matches!(instance.regime(), Regime::Searchable { .. }) {
                    continue;
                }
                let report = verify_tightness(m, k, f, 5e3, 0.02).unwrap();
                assert!(
                    (report.measured_upper - report.theory).abs() < 1e-2 * report.theory,
                    "(m={m},k={k},f={f}): measured {} vs theory {}",
                    report.measured_upper,
                    report.theory
                );
                assert!(
                    report.falsified_below,
                    "(m={m},k={k},f={f}): no witness below the bound"
                );
            }
        }
    }
}

/// The f = 0 case answers the old open question: k robots on m rays.
/// Check the explicit values for small (m, k) against Λ(m/k).
#[test]
fn open_question_f0_values() {
    for (m, k) in [(3u32, 2u32), (4, 3), (5, 4), (5, 2), (6, 5)] {
        let v = a_rays(m, k, 0).unwrap();
        let eta = f64::from(m) / f64::from(k);
        let explicit = 2.0 * (eta.powf(eta) / (eta - 1.0).powf(eta - 1.0)) + 1.0;
        assert!(
            (v - explicit).abs() < 1e-9,
            "(m={m},k={k}): {v} vs explicit {explicit}"
        );
    }
}

/// The ORC relaxation is faithful: the optimal m-ray strategy, with ray
/// labels discarded, q-fold covers [1, N] at lambda = A(m,k,f)·(1+eps)
/// and fails at lambda = A·(1−eps).
#[test]
fn orc_relaxation_two_sided() {
    let (m, k, f) = (3u32, 4u32, 1u32);
    let instance = RayInstance::new(m, k, f).unwrap();
    let q = instance.q() as usize;
    let theory = a_rays(m, k, f).unwrap();
    let strategy = CyclicExponential::optimal(m, k, f).unwrap();
    let fleet = strategy.fleet_tours(4e4).unwrap();

    for (factor, should_cover) in [(1.02, true), (0.98, false)] {
        let mu = lambda_to_mu(theory * factor).unwrap();
        let per_robot: Vec<_> = fleet
            .iter()
            .map(|t| OrcSetting::covered_intervals(&OrcSetting::turns_from_tour(t), mu).unwrap())
            .collect();
        let merged = merge_fleet_intervals(per_robot);
        let profile = CoverageProfile::build(&merged, 1.0, 1e4).unwrap();
        let witness = profile.first_undercovered(q);
        assert_eq!(
            witness.is_none(),
            should_cover,
            "factor {factor}: witness {witness:?}"
        );
    }
}

/// C(k, q) is monotone in the right ways: decreasing in k, increasing in
/// q, scale invariant, and consistent with the fractional C(η).
#[test]
fn orc_value_monotonicity_and_consistency() {
    for q in 3u32..=12 {
        for k in 1..q {
            let v = c_orc(k, q).unwrap();
            if k + 1 < q {
                assert!(
                    c_orc(k + 1, q).unwrap() < v,
                    "not decreasing in k at ({k},{q})"
                );
            }
            assert!(
                c_orc(k, q + 1).unwrap() > v,
                "not increasing in q at ({k},{q})"
            );
            let frac = c_fractional(f64::from(q) / f64::from(k)).unwrap();
            assert!((frac - v).abs() < 1e-9);
        }
    }
}

/// Sub-threshold death is universal, not specific to the optimal
/// strategy: seeded random strategies never q-fold cover below the bound.
#[test]
fn random_strategies_never_beat_the_bound() {
    use raysearch::strategies::RandomGeometric;
    let (m, k, f) = (3u32, 2u32, 0u32);
    let q = (m * (f + 1)) as usize;
    let theory = a_rays(m, k, f).unwrap();
    let mu = lambda_to_mu(0.97 * theory).unwrap();
    for seed in 0..40u64 {
        let strategy = RandomGeometric::new(m, k, f, seed, (1.1, 3.5)).unwrap();
        let fleet = strategy.fleet_tours(4e4).unwrap();
        let per_robot: Vec<_> = fleet
            .iter()
            .map(|t| OrcSetting::covered_intervals(&OrcSetting::turns_from_tour(t), mu).unwrap())
            .collect();
        let merged = merge_fleet_intervals(per_robot);
        let profile = CoverageProfile::build(&merged, 1.0, 1e4).unwrap();
        assert!(
            profile.first_undercovered(q).is_some(),
            "seed {seed}: a random strategy q-covered below the tight bound"
        );
    }
}

/// Perturbing the optimal strategy can only hurt: the measured ratio of a
/// jittered fleet is at least the optimum (up to horizon slack).
#[test]
fn perturbation_never_improves() {
    use raysearch::strategies::Perturbed;
    let (m, k, f) = (2u32, 3u32, 1u32);
    let theory = a_rays(m, k, f).unwrap();
    let base = CyclicExponential::optimal(m, k, f).unwrap();
    let evaluator = RayEvaluator::new(m as usize, f, 1.0, 5e3).unwrap();
    for seed in 0..10u64 {
        let jittered = Perturbed::new(base.clone(), 0.15, seed).unwrap();
        let fleet = jittered.fleet_tours(1e5).unwrap();
        let fleet = CompiledFleet::from_tours(m as usize, 1e5, &fleet).unwrap();
        let report = evaluator.evaluate(&fleet).unwrap();
        let measured = report.ratio;
        assert!(
            measured >= theory * (1.0 - 6e-3),
            "seed {seed}: jittered ratio {measured} beats theory {theory}"
        );
    }
}

/// The paper's remark on the distance-optimal shape, measured: the
/// dedicated-plus-sweeper strategy (Kao–Ma–Sipser–Yin structure) is
/// strictly worse in time than the cyclic strategy on every nontrivial
/// instance, by exactly the single-searcher constant of its sweeper.
#[test]
fn dedicated_shape_measured_time_ratio() {
    use raysearch::strategies::DedicatedPlusSweeper;
    for (m, k) in [(3u32, 2u32), (4, 3)] {
        let dedicated = DedicatedPlusSweeper::new(m, k).unwrap();
        let fleet = dedicated.fleet_tours(1e5).unwrap();
        let fleet = CompiledFleet::from_tours(m as usize, 1e5, &fleet).unwrap();
        let measured = RayEvaluator::new(m as usize, 0, 1.0, 1e4)
            .unwrap()
            .evaluate(&fleet)
            .unwrap()
            .ratio;
        let expected = dedicated.theoretical_time_ratio().unwrap();
        assert!(
            (measured - expected).abs() < 1e-2 * expected,
            "(m={m},k={k}): measured {measured} vs expected {expected}"
        );
        let optimal = a_rays(m, k, 0).unwrap();
        assert!(
            measured > optimal + 0.5,
            "(m={m},k={k}): not worse than optimal"
        );
    }
}

/// The strategy-independent impossibility certificate dominates every
/// measured witness and blows up towards the bound.
#[test]
fn impossibility_certificate_is_consistent() {
    use raysearch::cover::impossibility_horizon_log;
    let bound = c_orc(1, 2).unwrap();
    let ln_n_far = impossibility_horizon_log(1, 2, 0.8 * bound).unwrap();
    let ln_n_near = impossibility_horizon_log(1, 2, 0.999 * bound).unwrap();
    assert!(ln_n_near > ln_n_far);
    // measured witness at 0.999·9 is ~128 (E7); the certificate is larger
    assert!(ln_n_far > (128.0f64).ln());
}
