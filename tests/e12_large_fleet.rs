//! E12's full large-fleet sweep, `k = 128 … 4096` at horizon `1e12`:
//! every row finite, at most `Λ(q/k)` and within `1e-6` of it, and the
//! 24 rows pinned bit for bit by their breakpoint total and row digest.
//! The pins are the `e12-sweep` benchmark's own, in its `row_digest`
//! byte layout, so any change to what the evaluator computes on large
//! fleets fails here.

use raysearch::bench::experiments::e12_large_fleet::{self, Row};
use raysearch::core::stable_hash64;

/// `stable_hash64` of every bit of every row, in row order: `m`, `k`
/// and `f` as little-endian `u32`; `eta`, `horizon`, `measured`,
/// `closed_form` and `rel_err` as little-endian `f64` bits; then
/// `breakpoints` as a little-endian `u64`.
fn row_digest(rows: &[Row]) -> String {
    let mut bytes = Vec::new();
    for r in rows {
        for v in [r.m, r.k, r.f] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for v in [r.eta, r.horizon, r.measured, r.closed_form, r.rel_err] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&r.breakpoints.to_le_bytes());
    }
    format!("{:016x}", stable_hash64(&bytes))
}

#[test]
fn full_sweep_is_finite_within_lambda_and_pinned() {
    let rows = e12_large_fleet::run(4096, 1e12);
    let mut ks: Vec<u32> = rows.iter().map(|r| r.k).collect();
    ks.sort_unstable();
    ks.dedup();
    assert_eq!(ks, [128, 256, 512, 1024, 2048, 4096]);
    for r in &rows {
        // the formerly-overflowing regime: every ratio is a finite
        // number that never exceeds Λ(q/k)
        assert!(r.measured.is_finite(), "{r:?}");
        assert!(r.measured <= r.closed_form * (1.0 + 1e-9), "{r:?}");
        assert!(r.rel_err <= 1e-6, "{r:?}");
    }
    let breakpoints: u64 = rows.iter().map(|r| r.breakpoints).sum();
    assert_eq!(breakpoints, 695_132);
    assert_eq!(row_digest(&rows), "e348b862f6e026dd");
}
