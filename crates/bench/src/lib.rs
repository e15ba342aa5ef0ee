//! Experiment harness for the `raysearch` reproduction of Kupavskii &
//! Welzl, PODC 2018.
//!
//! The paper is a theory paper: its "evaluation" is a set of closed forms,
//! inequalities and constructions rather than measured tables. This crate
//! regenerates each of them as an executable experiment (E1–E12, indexed
//! in `DESIGN.md` and recorded in `EXPERIMENTS.md`):
//!
//! | id | claim |
//! |----|-------|
//! | E1 | Theorem 1: `A(k,f)` — closed form vs numeric optimum vs measured strategy |
//! | E2 | regime map: trivial / searchable / impossible |
//! | E3 | Byzantine corollary: `B(k,f) ≥ A(k,f)`, the `B(3,1)` lift |
//! | E4 | Theorem 6: `A(m,k,f)` grid, `f = 0` open-question rows |
//! | E5 | appendix strategy: ratio vs base `α`, minimum at `α*` |
//! | E6 | Lemma 5: measured potential growth vs `δ` across `μ/μ*` |
//! | E7 | ineq. (12): sub-threshold covers die; stuck frontier vs `λ` |
//! | E8 | Eq. (11): fractional `C(η)` and the rational sandwich |
//! | E9 | applications: contract scheduling and hybrid algorithms |
//! | E10 | boundaries: `ρ → 1⁺` discontinuity and the `ρ = 2` cow path |
//! | E11 | Monte-Carlo: average-case detection ratios vs the exact `Λ(q/k)` |
//! | E12 | large fleets `k ≤ 4096`: exact ratio vs `Λ(q/k)` across the formerly-overflowing range |
//!
//! Every experiment is a [`Campaign`](raysearch_core::campaign::Campaign):
//! a declarative parameter grid plus a per-cell closure returning one
//! serializable row. The engine shards cells across threads in
//! deterministic grid order and renders a [`Report`](raysearch_core::campaign::Report)
//! as an aligned text table or JSON; the `tablegen` binary drives the
//! whole suite through [`experiments::run_experiment`].
//!
//! # Example: run E1 through the campaign engine
//!
//! ```
//! use raysearch_bench::experiments::e1_theorem1;
//!
//! // Small grid, short horizon: every searchable (k, f) with k ≤ 3.
//! let run = e1_theorem1::campaign(3, 500.0).threads(Some(2)).run();
//! assert_eq!(run.len(), 4); // (1,0), (2,1), (3,1), (3,2)
//!
//! // Typed rows out of the run...
//! let rows = run.rows().collect::<Vec<_>>();
//! assert!((rows[0].closed_form - 9.0).abs() < 1e-12); // the cow path
//!
//! // ...and a type-erased report for rendering.
//! let report = run.report();
//! assert_eq!(report.id(), "e1");
//! assert!(report.render_text().contains("closed_form"));
//! assert_eq!(report.to_value().get("cells").and_then(|v| v.as_i64()), Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
