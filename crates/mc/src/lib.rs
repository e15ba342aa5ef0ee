//! `raysearch-mc` — a deterministic Monte-Carlo estimation engine for
//! random faults, random targets, and average-case competitive ratios.
//!
//! Everything else in the workspace is worst-case: exact adversaries,
//! closed forms `Λ(q/k)`, covering falsifications. This crate opens the
//! *stochastic* scenario family studied by the surrounding literature
//! (i.i.d. crash probabilities after Bonato et al. 2020, randomized
//! Byzantine placement after Czyzowicz et al.): it simulates the optimal
//! cyclic exponential fleet against *sampled* fault sets and *sampled*
//! targets, and contrasts the resulting detection-ratio distribution
//! with the exact worst case.
//!
//! # Architecture
//!
//! * [`CompiledFleet`](raysearch_core::CompiledFleet) — the fleet's
//!   first-visit functions, compiled once by the core and queried in
//!   place by every sample (the very artifact the exact evaluator
//!   reads, so the two agree bit for bit);
//! * [`FaultSampler`] / [`TargetSampler`] — pluggable distributions
//!   over fault sets and target positions (see the taxonomy in
//!   [`sampler`]);
//! * [`Welford`] / [`QuantileSketch`] / [`BatchEstimate`] — streaming
//!   estimators whose merges are deterministic by construction;
//! * [`Scenario`] + [`estimate`] — the batched parallel driver and its
//!   [`McReport`], including the
//!   [`compare_to_closed_form`](McReport::comparison) contrast.
//!
//! # Determinism
//!
//! Results are **bit-identical for a fixed `(scenario, seed, samples,
//! batch, bins)` no matter the thread count**: sample `i` draws from its
//! own counter-based `SplitMix64::keyed(seed, i)` generator, batches
//! are fixed-size ranges of sample indices, and batch partials merge in
//! batch order. The serving layer relies on this to cache responses.
//!
//! # Example
//!
//! ```
//! use raysearch_mc::{estimate, FaultSampler, McConfig, Scenario, TargetSampler};
//!
//! // 3 robots on the line, one crashes uniformly at random; where does
//! // the *average* target land relative to the adversarial bound?
//! let scenario = Scenario::new(
//!     2,
//!     3,
//!     1,
//!     1e3,
//!     FaultSampler::UniformSubset { f: 1 },
//!     TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
//! )?;
//! let report = estimate(&scenario, &McConfig::with_seed(2018, 5_000))?;
//! let cmp = report.comparison();
//! assert!(cmp.within_worst_case);
//! assert!(cmp.mean_slack > 0.0); // strictly better than Λ(q/k) on average
//! # Ok::<(), raysearch_mc::McError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod visits;

pub mod engine;
pub mod estimator;
pub mod sampler;

pub use engine::{
    estimate, estimate_cached, ClosedFormComparison, McConfig, McReport, Scenario, MAX_FLEET,
};
pub use error::McError;
pub use estimator::{BatchEstimate, QuantileSketch, Welford};
pub use sampler::{FaultDraw, FaultSampler, SilentMask, TargetSampler};
