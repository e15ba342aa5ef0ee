//! Closed-form competitive ratios and numeric cross-checks for faulty-robot
//! search, after Kupavskii & Welzl, *Lower Bounds for Searching Robots, some
//! Faulty*, PODC 2018.
//!
//! The paper's quantitative content is concentrated in a single function of
//! one variable: for `η > 1`,
//!
//! ```text
//! Λ(η) = 2 · η^η / (η-1)^(η-1) + 1
//! ```
//!
//! * **Theorem 1** (line, crash faults): `A(k,f) = Λ(ρ)` with
//!   `ρ = 2(f+1)/k`, valid when `1 < ρ ≤ 2`;
//! * **Theorem 6** (`m` rays): `A(m,k,f) = Λ(q/k)` with `q = m(f+1)`,
//!   valid when `f < k < q`;
//! * **Eq. (10)** (ORC relaxation): `C(k,q) ≥ Λ(q/k)`, tight;
//! * **Eq. (11)** (fractional relaxation): `C(η) = Λ(η)` exactly.
//!
//! This crate computes these quantities exactly (up to `f64`), classifies
//! parameter regimes, provides the potential-function growth factors of
//! Lemmas 4–5, the optimal base `α*` of the exponential upper-bound
//! strategy, independent numeric optimizers used as cross-checks, and the
//! prior literature constants the paper improves on.
//!
//! # Example
//!
//! ```
//! use raysearch_bounds::{LineInstance, Regime};
//!
//! // One healthy robot, no faults: the classic cow-path constant 9.
//! let inst = LineInstance::new(1, 0)?;
//! match inst.regime() {
//!     Regime::Searchable { ratio } => assert!((ratio - 9.0).abs() < 1e-12),
//!     _ => unreachable!(),
//! }
//!
//! // Plenty of robots: ratio 1 by sending f+1 each way.
//! assert_eq!(LineInstance::new(4, 1)?.regime(), Regime::Trivial);
//!
//! // All robots faulty: hopeless.
//! assert_eq!(LineInstance::new(2, 2)?.regime(), Regime::Impossible);
//! # Ok::<(), raysearch_bounds::BoundsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod closed_form;
pub mod growth;
pub mod instance;
pub mod literature;
pub mod numeric;
pub mod strategy_math;

pub use closed_form::{
    a_line, a_rays, c_fractional, c_orc, lambda_big, lambda_to_mu, mu_threshold, mu_to_lambda,
};
pub use error::BoundsError;
pub use growth::{delta_growth, lemma4_argmax, lemma5_min_ratio, potential_poly};
pub use instance::{LineInstance, RayInstance, Regime};
pub use strategy_math::{cyclic_ratio, gamma_factor, optimal_alpha};
