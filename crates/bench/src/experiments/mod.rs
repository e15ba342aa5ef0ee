//! The executable experiment suite (see crate docs for the index).
//!
//! Every experiment is a [`Campaign`]
//! — a declarative parameter grid plus a per-cell closure returning one
//! typed row — so grid enumeration, thread sharding and rendering live
//! in one place (`raysearch_core::campaign`). [`run_experiment`] is the
//! registry the `tablegen` binary drives: it maps an experiment id and a
//! [`Config`] to the finished [`Report`]s (E10 produces two, one per row
//! type).

use raysearch_core::campaign::{Campaign, Report};

pub mod e10_boundary;
pub mod e11_montecarlo;
pub mod e12_large_fleet;
pub mod e1_theorem1;
pub mod e2_regimes;
pub mod e3_byzantine;
pub mod e4_rays;
pub mod e5_alpha;
pub mod e6_potential;
pub mod e7_orc;
pub mod e8_fractional;
pub mod e9_applications;

/// Identifiers of all experiments, in order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
];

/// Scaling knobs shared by the whole suite (the `tablegen` CLI flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Ceiling for the `k` axes (and `k`-like grid extents) of E1–E4.
    pub max_k: u32,
    /// Worker threads per campaign (`None` = machine parallelism,
    /// `Some(1)` = sequential).
    pub threads: Option<usize>,
    /// Master seed for the stochastic experiments (E11). Each cell's
    /// sample `i` draws from `SplitMix64::keyed(seed, i)`, so the whole
    /// suite is reproducible from this one number.
    pub seed: u64,
    /// Monte-Carlo sample budget per E11 cell.
    pub mc_samples: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_k: 10,
            threads: None,
            seed: 1707, // arXiv:1707.05077
            mc_samples: 20_000,
        }
    }
}

/// What one registered campaign looks like before it runs: its report
/// id, title, and the number of grid cells the default spec enumerates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentInfo {
    /// The report id (`"e1"`, ..., `"e10_rho"`, `"e10_base"`).
    pub id: String,
    /// The human-readable campaign title.
    pub title: String,
    /// Number of grid cells after filtering (the rows a run produces).
    pub cells: usize,
}

/// A generic consumer of an experiment's campaign(s): the single point
/// where the registry's campaign *construction* is shared between
/// running ([`run_experiment`]) and introspection
/// ([`describe_experiment`], `tablegen --list`).
trait CampaignVisitor {
    fn visit<R: Send + serde::Serialize>(&mut self, campaign: Campaign<R>);
}

/// Builds the campaign(s) registered under `id` and feeds them to the
/// visitor. Returns `false` for an unknown id.
fn visit_experiment(id: &str, cfg: &Config, v: &mut impl CampaignVisitor) -> bool {
    let t = cfg.threads;
    match id {
        "e1" => v.visit(e1_theorem1::campaign(cfg.max_k, 5e3).threads(t)),
        "e2" => v.visit(e2_regimes::campaign(cfg.max_k).threads(t)),
        "e3" => v.visit(e3_byzantine::campaign(cfg.max_k).threads(t)),
        "e4" => v.visit(e4_rays::campaign(6, cfg.max_k, 5e3).threads(t)),
        "e5" => v.visit(e5_alpha::campaign(&[(2, 1, 0), (2, 3, 1), (3, 4, 1)], 4, 5e3).threads(t)),
        "e6" => v.visit(
            e6_potential::campaign(
                2,
                3,
                1,
                &[0.9, 0.99, 0.999, 0.9999, 1.0, 1.02, 1.05, 1.15],
                5e3,
            )
            .threads(t),
        ),
        "e7" => v.visit(
            e7_orc::campaign(
                &[(2, 1, 0), (3, 2, 0)],
                &[1.02, 0.999, 0.995, 0.98, 0.95, 0.9, 0.8],
                1e5,
            )
            .threads(t),
        ),
        "e8" => v.visit(
            e8_fractional::campaign(&[1.25, 1.5, 1.75, 2.0, std::f64::consts::E, 3.0, 3.5], 64)
                .threads(t),
        ),
        "e9" => v.visit(
            e9_applications::campaign(&[(1, 1), (2, 1), (3, 1), (3, 2), (4, 3), (5, 3)], 1e6)
                .threads(t),
        ),
        "e10" => {
            v.visit(e10_boundary::rho_campaign(12).threads(t));
            v.visit(
                e10_boundary::base_campaign(&[1.3, 1.5, 1.8, 2.0, 2.2, 2.5, 3.0, 4.0], 1e4)
                    .threads(t),
            );
        }
        "e11" => v.visit(e11_montecarlo::campaign(cfg.mc_samples, cfg.seed, 1e3).threads(t)),
        // the deep horizon is the point: E12 exists to exercise the
        // asymptotic regime linear tours cannot reach (its k axis is
        // FLEET_SIZES capped at max(max_k, 128), so default suite runs
        // stay on the cheap k = 128 slice)
        "e12" => v.visit(e12_large_fleet::campaign(cfg.max_k, 1e12).threads(t)),
        _ => return false,
    }
    true
}

/// Runs one experiment's campaign(s) and returns its report(s), or
/// `None` for an unknown id. Ids are the entries of [`ALL`]; `"e10"`
/// yields two reports (`e10_rho`, `e10_base`).
///
/// # Panics
///
/// Panics only if a substrate rejects in-regime parameters (a bug).
pub fn run_experiment(id: &str, cfg: &Config) -> Option<Vec<Report>> {
    struct Runner(Vec<Report>);
    impl CampaignVisitor for Runner {
        fn visit<R: Send + serde::Serialize>(&mut self, campaign: Campaign<R>) {
            self.0.push(campaign.run().report());
        }
    }
    let mut runner = Runner(Vec::new());
    visit_experiment(id, cfg, &mut runner).then_some(runner.0)
}

/// Describes one experiment's campaign(s) — id, title, grid size —
/// *without* evaluating any cell, or `None` for an unknown id. This is
/// what `tablegen --list` prints.
pub fn describe_experiment(id: &str, cfg: &Config) -> Option<Vec<ExperimentInfo>> {
    struct Describer(Vec<ExperimentInfo>);
    impl CampaignVisitor for Describer {
        fn visit<R: Send + serde::Serialize>(&mut self, campaign: Campaign<R>) {
            self.0.push(ExperimentInfo {
                id: campaign.id().to_owned(),
                title: campaign.title().to_owned(),
                cells: campaign.grid().cells().len(),
            });
        }
    }
    let mut describer = Describer(Vec::new());
    visit_experiment(id, cfg, &mut describer).then_some(describer.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_ids_and_rejects_unknown() {
        let cfg = Config {
            max_k: 4,
            threads: Some(2),
            ..Config::default()
        };
        // cheap spot-checks: the closed-form-only experiments
        for id in ["e2", "e3", "e8", "e10"] {
            let reports = run_experiment(id, &cfg).expect(id);
            assert!(!reports.is_empty(), "{id} produced no report");
            for r in &reports {
                assert!(!r.rows().is_empty(), "{id} report {} is empty", r.id());
                assert_eq!(r.threads(), 2.min(r.rows().len()).max(1));
            }
        }
        assert_eq!(
            run_experiment("e10", &cfg).map(|r| r.len()),
            Some(2),
            "e10 yields rho + base reports"
        );
        assert!(run_experiment("e99", &cfg).is_none());
        assert!(run_experiment("", &cfg).is_none());
    }

    #[test]
    fn describe_matches_what_a_run_produces() {
        let cfg = Config {
            max_k: 3,
            threads: Some(1),
            ..Config::default()
        };
        for id in ALL {
            let infos = describe_experiment(id, &cfg).expect(id);
            assert!(!infos.is_empty(), "{id} described no campaigns");
            for info in &infos {
                assert!(!info.title.is_empty(), "{id} has an untitled campaign");
            }
        }
        assert_eq!(
            describe_experiment("e10", &cfg).map(|i| i.len()),
            Some(2),
            "e10 describes rho + base"
        );
        assert!(describe_experiment("e99", &cfg).is_none());
        // the description's cell count is exactly the run's row count
        for id in ["e2", "e8"] {
            let infos = describe_experiment(id, &cfg).unwrap();
            let reports = run_experiment(id, &cfg).unwrap();
            assert_eq!(infos.len(), reports.len());
            for (info, report) in infos.iter().zip(&reports) {
                assert_eq!(info.id, report.id(), "{id}");
                assert_eq!(info.title, report.title(), "{id}");
                assert_eq!(info.cells, report.rows().len(), "{id}");
            }
        }
    }
}
