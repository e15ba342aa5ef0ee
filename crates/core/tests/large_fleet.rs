//! Regression suite for the streamed fleet compiler: the fleet sizes
//! whose linear tours overflow to an error (`k ≳ 139` at deep
//! horizons) must evaluate to finite ratios in closed-form
//! agreement, monotonically in `k`, with the trivial regime and the
//! horizon-overflow guard pinned alongside.
//!
//! The closed-form sweep here stays at horizons `1e7`–`1e8`; the full
//! `horizon = 1e12` E12 sweep up to `k = 4096` runs under Tier-1 in the
//! umbrella package's `e12_large_fleet` test, which pins its rows bit
//! for bit.

use raysearch_bounds::a_rays;
use raysearch_core::{evaluate_optimal, CoreError};

/// The formerly-overflowing fleet sizes, each paired with the
/// near-majority faulty count that keeps the line instance searchable
/// (`f = ⌊k/2⌋`, the closest approach to `η → 1⁺`) and a horizon deep
/// enough for sub-`1e-6` closed-form agreement.
const SWEEP: &[(u32, u32, f64)] = &[
    (139, 69, 1e8),
    (256, 128, 1e8),
    (512, 256, 1e8),
    (1024, 512, 1e8),
    (2048, 1024, 1e7),
    (4096, 2048, 1e7),
];

#[test]
fn formerly_overflowing_fleets_are_finite_and_closed_form_consistent() {
    for &(k, f, horizon) in SWEEP {
        let report = evaluate_optimal(2, k, f, horizon)
            .unwrap_or_else(|e| panic!("(2,{k},{f}) failed to evaluate: {e}"));
        let theory = a_rays(2, k, f).expect("searchable instance");
        assert!(
            report.is_covered(),
            "(2,{k},{f}) left a target uncovered: {:?}",
            report.uncovered
        );
        assert!(
            report.ratio.is_finite(),
            "(2,{k},{f}) ratio overflowed: {}",
            report.ratio
        );
        // the exact sup approaches Λ from below; never exceeds it
        assert!(
            report.ratio <= theory * (1.0 + 1e-9),
            "(2,{k},{f}) measured {} above Λ {theory}",
            report.ratio
        );
        let rel = (report.ratio - theory).abs() / theory;
        assert!(
            rel <= 1e-6,
            "(2,{k},{f}): measured {} vs Λ {theory}, relative error {rel:e}",
            report.ratio
        );
    }
}

#[test]
fn ratio_is_monotone_in_k_along_the_near_majority_diagonal() {
    // along f = k/2 (even k), η = (k+2)/k strictly decreases in k, so
    // both the closed form and the measured exact ratio must strictly
    // decrease toward Λ(1⁺) = 3 across the formerly-overflowing range
    let chain: Vec<(f64, f64)> = SWEEP
        .iter()
        .filter(|(k, _, _)| k % 2 == 0)
        .map(|&(k, f, _)| {
            // a fixed horizon across the chain so measured values are
            // comparable like-for-like
            let measured = evaluate_optimal(2, k, f, 1e7).expect("searchable").ratio;
            let theory = a_rays(2, k, f).expect("searchable");
            (measured, theory)
        })
        .collect();
    assert!(chain.len() >= 4);
    for w in chain.windows(2) {
        assert!(
            w[1].1 < w[0].1,
            "closed form not decreasing: {} !< {}",
            w[1].1,
            w[0].1
        );
        assert!(
            w[1].0 < w[0].0,
            "measured ratio not decreasing: {} !< {}",
            w[1].0,
            w[0].0
        );
    }
    // and the whole chain sits in (3, Λ(129/128)]
    for (measured, _) in &chain {
        assert!(*measured > 3.0 && *measured < 3.2);
    }
}

#[test]
fn trivial_regime_acceptance_instance_serves_ratio_one() {
    // the acceptance instance: k = 512, f = 1 on the line is deep in
    // the trivial regime (k ≥ 2(f+1)); the evaluator must agree with
    // the closed-form regime ratio of exactly 1, at full depth
    let report = evaluate_optimal(2, 512, 1, 1e12).expect("trivial instances evaluate");
    assert!(report.is_covered());
    assert!(
        (report.ratio - 1.0).abs() < 1e-6,
        "trivial-regime ratio {} != 1",
        report.ratio
    );
    let closed = raysearch_bounds::RayInstance::new(2, 512, 1)
        .unwrap()
        .regime()
        .ratio()
        .expect("trivial regime has a ratio");
    assert!((report.ratio - closed).abs() / closed <= 1e-6);
}

#[test]
fn oversized_horizons_fail_with_the_typed_error_not_inf() {
    // above f64::MAX / 8 the old pipeline silently multiplied into inf
    // (4x fleet pad, 2x more inside trivial-regime baseline tours); now
    // the overflow is caught before any padding multiplication
    let err = evaluate_optimal(2, 139, 69, f64::MAX / 2.0).unwrap_err();
    assert!(
        matches!(err, CoreError::HorizonOverflow { horizon } if horizon == f64::MAX / 2.0),
        "expected HorizonOverflow, got {err:?}"
    );
    // the guard is about representability, not size per se: the largest
    // paddable horizon proceeds past it
    assert!(!matches!(
        evaluate_optimal(2, 139, 69, f64::MAX / 8.0),
        Err(CoreError::HorizonOverflow { .. })
    ));
    // a genuinely deep horizon still evaluates to a finite ratio at the
    // closed form — depth alone is not an error
    let deep = evaluate_optimal(2, 139, 69, 1e300).expect("deep horizon evaluates");
    let theory = a_rays(2, 139, 69).unwrap();
    assert!(deep.ratio.is_finite());
    assert!((deep.ratio - theory).abs() / theory < 1e-6);
    // the trivial regime honors the same guard boundary (its baseline
    // tours walk out to 8x the horizon)
    assert!(matches!(
        evaluate_optimal(2, 512, 1, f64::MAX / 4.0),
        Err(CoreError::HorizonOverflow { .. })
    ));
    assert!(
        (evaluate_optimal(2, 512, 1, f64::MAX / 8.0).unwrap().ratio - 1.0).abs() < 1e-12,
        "trivial regime must evaluate right up to the guard"
    );
}

#[test]
fn saturating_depths_error_instead_of_returning_inf() {
    // within a factor alpha^(k*m) of f64::MAX, a first-visit constant
    // inside the range itself exceeds linear f64; that must surface as
    // a typed error, never as Ok { ratio: inf }
    for (m, k, f) in [(3u32, 200u32, 100u32), (5, 300, 80)] {
        match evaluate_optimal(m, k, f, f64::MAX / 8.0) {
            Ok(report) => assert!(
                report.ratio.is_finite(),
                "({m},{k},{f}): Ok must imply a finite ratio, got {}",
                report.ratio
            ),
            Err(CoreError::InvalidInput { reason }) => assert!(
                reason.contains("overflows"),
                "({m},{k},{f}): unexpected reason {reason}"
            ),
            Err(other) => panic!("({m},{k},{f}): unexpected error {other}"),
        }
    }
}
