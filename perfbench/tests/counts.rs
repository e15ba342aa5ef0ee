//! The benchmark's own contract: one seed gives one input stream, and
//! the exact work counts a later change may rest a claim on repeat bit
//! for bit — across runs, and across one or two client connections —
//! and equal the ones `pinned.json` records for its seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! from the repository root (debug builds are many times slower).

use perfbench::gen::{job, SyncStream};
use perfbench::{pinned, run, Options, Outcome, END_TO_END, PER_LAYER};

/// The seed `pinned.json` records its counts for.
fn pinned_seed() -> u64 {
    pinned("jobs", "seed")
        .and_then(|v| v.as_u64())
        .expect("pinned.json records its seed")
}

/// A short traced run of `workload` with `clients` connections; the
/// run itself compares every pinned count it reaches.
fn traced(workload: &str, seed: u64, seconds: f64, clients: usize) -> Outcome {
    let mut opts = Options::new(workload, seed, seconds, true);
    opts.clients = clients;
    let outcome = run(&opts).expect("the workload runs");
    assert!(outcome.correct(), "{workload}: {:?}", outcome.problems);
    assert_eq!(outcome.failed, 0);
    outcome
}

/// The values of `names` in `outcome`, each checked against its pinned
/// value in section `section` where one is recorded.
fn counts(outcome: &Outcome, section: &str, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|n| {
            let got = outcome.get(n).unwrap_or_else(|| panic!("{n} missing"));
            if let Some(want) = pinned(section, n).and_then(|v| v.as_f64()) {
                assert_eq!(got, want, "{section}: {n}");
            }
            got
        })
        .collect()
}

#[test]
fn one_seed_gives_byte_identical_streams() {
    let lines = |seed| {
        let stream = SyncStream::new(seed);
        (0..2000)
            .map(|i| stream.distinct()[stream.index_of(i)].line())
            .chain((0..500).map(|i| job(seed, i).envelope("client-0")))
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(42), lines(42));
    assert_ne!(lines(42), lines(43));
}

#[test]
fn e12_counts_repeat_exactly_and_match_the_pinned_ones() {
    let names = [
        "compiled.pieces",
        "compiled.misses",
        "compiled.hits",
        "eval.breakpoints",
    ];
    // the grid is fixed, so any seed gives the pinned counts
    let first = counts(&traced("e12-sweep", 1, 1.0, 1), "e12", &names);
    assert_eq!(
        first,
        counts(&traced("e12-sweep", 2, 1.0, 1), "e12", &names)
    );
    assert_eq!(&first[1..3], &[24.0, 24.0]);
}

#[test]
fn job_counts_repeat_across_runs_and_connection_counts() {
    let names = ["jobs.breakpoints", "mc.samples", "cache.hit_ratio"];
    let seed = pinned_seed();
    let two = counts(&traced("jobs", seed, 2.0, 2), "jobs", &names);
    assert_eq!(two, counts(&traced("jobs", seed, 2.0, 2), "jobs", &names));
    assert_eq!(two, counts(&traced("jobs", seed, 2.0, 1), "jobs", &names));
    assert_eq!(two[2], 0.0, "every job key is fresh");
}

#[test]
fn an_untraced_run_reports_every_end_to_end_metric() {
    let outcome = run(&Options::new("sync-hot", 3, 0.5, false)).expect("the workload runs");
    assert!(outcome.correct(), "{:?}", outcome.problems);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
    let line = outcome.json_line();
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
}

#[test]
fn sync_hot_is_all_cache_hits_at_any_connection_count() {
    for clients in [1, 2] {
        let outcome = traced("sync-hot", pinned_seed(), 1.0, clients);
        counts(&outcome, "sync-hot", &["cache.hit_ratio"]);
        assert_eq!(outcome.get("cache.hit_ratio"), Some(1.0));
        // the traced run reports every per-layer metric by name
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
    }
}
