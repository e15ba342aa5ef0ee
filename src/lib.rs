//! `raysearch` — parallel search on the line and on `m` rays with faulty
//! robots.
//!
//! A production-quality reproduction of **Kupavskii & Welzl, “Lower Bounds
//! for Searching Robots, some Faulty”, PODC 2018** (arXiv:1707.05077): the
//! tight competitive ratios for `k`-robot search with `f` crash-type
//! faults, the covering relaxations and potential-function lower-bound
//! machinery, the optimal cyclic exponential strategies, fault adversaries
//! and an exact competitive-ratio evaluator.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `raysearch-sim` | time, geometry, itineraries, trajectories, visit engine |
//! | [`strategies`] | `raysearch-strategies` | cow-path, cyclic exponential, baselines, random |
//! | [`faults`] | `raysearch-faults` | crash & Byzantine adversaries, claim verification |
//! | [`bounds`] | `raysearch-bounds` | closed forms `A(k,f)`, `A(m,k,f)`, `C(k,q)`, `C(η)` |
//! | [`cover`] | `raysearch-cover` | covering settings, standardization, potential function |
//! | [`core`] | `raysearch-core` | exact evaluator, tightness verdicts, sweeps, campaign engine |
//! | [`mc`] | `raysearch-mc` | deterministic Monte-Carlo engine: random faults/targets, average-case ratios |
//! | [`bench`](mod@bench) | `raysearch-bench` | campaign-based experiments E1–E12, `tablegen` binary |
//! | [`service`] | `raysearch-service` | `raysearchd`: caching evaluation server, HTTP layer, router, replay harness |
//!
//! # Quickstart
//!
//! ```
//! use raysearch::bounds::{LineInstance, Regime};
//! use raysearch::core::verdict::verify_tightness;
//!
//! // What is the best possible ratio for 3 robots, one of them faulty?
//! let instance = LineInstance::new(3, 1)?;
//! let Regime::Searchable { ratio } = instance.regime() else { unreachable!() };
//! assert!((ratio - 5.233069).abs() < 1e-6);
//!
//! // And does the whole theory check out mechanically?
//! let report = verify_tightness(2, 3, 1, 1e4, 0.01)?;
//! assert!(report.is_tight(1e-3));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use raysearch_bench as bench;
pub use raysearch_bounds as bounds;
// NB: aliasing a member to `core` shadows the std `core` crate in paths
// like `crate::core::...`; callers wanting the std one must use `::core`.
pub use raysearch_core as core;
pub use raysearch_cover as cover;
pub use raysearch_faults as faults;
pub use raysearch_mc as mc;
pub use raysearch_service as service;
pub use raysearch_sim as sim;
pub use raysearch_strategies as strategies;

/// The arXiv identifier of the reproduced paper.
pub const PAPER_ARXIV_ID: &str = "1707.05077";

/// The venue of the reproduced paper.
pub const PAPER_VENUE: &str = "PODC 2018";

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        // one symbol from each member, exercised through the umbrella
        let _ = crate::bounds::a_line(3, 1).unwrap();
        let _ = crate::sim::Time::ZERO;
        let _ = crate::faults::CrashAdversary::new(1);
        let _ = crate::strategies::DoublingCowPath::classic();
        let _ = crate::cover::settings::OrcSetting;
        let _ = crate::core::CanonF64::new(10.0).unwrap();
        let _ = crate::mc::McConfig::default();
        assert!(crate::bench::experiments::ALL.contains(&"e1"));
    }

    #[test]
    fn paper_constants() {
        assert_eq!(crate::PAPER_ARXIV_ID, "1707.05077");
        assert!(crate::PAPER_VENUE.contains("PODC"));
    }
}
