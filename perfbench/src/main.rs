//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the raysearch benchmark and prints its metrics:
//! human-readable lines first, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}` as the last line of
//! standard output. `--trace 0` reports the end-to-end metrics of an
//! untraced run; `--trace 1` adds a traced run and reports the
//! per-layer metrics, writing its spans as a Chrome trace under
//! `perfbench/out/`. Exits 1 when an output check fails, 2 on bad
//! arguments.

use perfbench::{run, Options, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds expects a positive number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (available: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Options::new(&workload, seed, seconds, trace))
}

fn main() {
    let opts = match parse(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# check failed: {problem}");
    }
    for m in &outcome.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json_line());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
