//! `tablegen` — regenerate every experiment table of the reproduction.
//!
//! ```text
//! tablegen [--list] [--json PATH] [--experiment e1,e4] [--max-k N]
//!          [--threads N] [--seed N] [--samples N] [ids...]
//! ```
//!
//! `--list` prints the experiment registry (one line per campaign: id,
//! title, default grid size) without running anything, and exits 0.
//!
//! Without a selection, all of E1–E10 run. In text mode (the default)
//! each campaign renders as an aligned table with run metadata. With
//! `--json PATH` a single JSON document is written to PATH (`-` for
//! stdout):
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "paper": "1707.05077",
//!   "config": {"max_k": 10, "threads": null},
//!   "campaigns": [
//!     {"id": "e1", "title": "...", "threads": 8, "micros": 12345,
//!      "cells": 25, "rows": [{"k": 1, "f": 0, ...}, ...]},
//!     {"id": "e12", ..., "micros": 12345,
//!      "compile": {"hits": 0, "misses": 24, "entries": 24,
//!                  "compile_micros": 2345, "evaluate_micros": 10000,
//!                  "evaluate_p50_micros": 255, "evaluate_p95_micros": 511,
//!                  "evaluate_max_micros": 489},
//!      "rows": [...]},
//!     ...
//!   ]
//! }
//! ```
//!
//! Campaigns that attach a compile memo (E12) also report the
//! compile/evaluate wall-time split: `compile_micros` is time spent
//! building [`raysearch_core::CompiledFleet`] artifacts, and
//! `evaluate_micros` is the remainder of `micros`. The
//! `evaluate_p50_micros` / `evaluate_p95_micros` / `evaluate_max_micros`
//! fields summarize the *per-cell* wall times through the same
//! log-bucketed histogram as the serving tier's `/metrics` (percentiles
//! are bucket upper bounds, `p ≤ reported < 2p`; the max is exact).

use raysearch_bench::experiments::{self, Config};

const USAGE: &str = "\
usage: tablegen [options] [ids...]

options:
  --list             print the experiment registry (id, title, default
                     grid size) and exit
  --json PATH        write one JSON document to PATH ('-' = stdout)
                     instead of rendering text tables
  --experiment LIST  comma-separated experiment ids (same as positional
                     ids), e.g. --experiment e1,e4
  --max-k N          ceiling for the k axes of E1-E4 and the E12 fleet
                     sizes (E12 sweeps {128,...,4096} capped at
                     max(N, 128)) (default 10)
  --threads N        worker threads per campaign (N >= 1; 1 = sequential;
                     default: machine parallelism)
  --seed N           master seed for the stochastic experiments (E11);
                     the whole table is a pure function of it (default
                     1707, never changes the deterministic E1-E10)
  --samples N        Monte-Carlo samples per E11 cell (N >= 1;
                     default 20000)
  --help             show this help

experiments: e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 (default: all)";

struct Cli {
    json: Option<String>,
    list: bool,
    ids: Vec<String>,
    cfg: Config,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut json = None;
    let mut list = false;
    let mut ids: Vec<String> = Vec::new();
    let mut cfg = Config::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--list" => list = true,
            "--json" => {
                let path = value_of("--json")?;
                // catch scripts written against the old `--json e3` CLI
                // (a flag without a value) before they clobber a file
                if path.starts_with("--") || experiments::ALL.contains(&path.as_str()) {
                    return Err(format!(
                        "--json requires an output PATH ('-' = stdout), got {path:?}"
                    ));
                }
                json = Some(path);
            }
            "--experiment" | "--experiments" => {
                ids.extend(
                    value_of("--experiment")?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_lowercase),
                );
            }
            "--max-k" => {
                cfg.max_k = value_of("--max-k")?
                    .parse::<u32>()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or("--max-k expects an integer >= 1")?;
            }
            "--threads" => {
                cfg.threads = Some(
                    value_of("--threads")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&t| t >= 1)
                        .ok_or("--threads expects an integer >= 1")?,
                );
            }
            "--seed" => {
                cfg.seed = value_of("--seed")?
                    .parse::<u64>()
                    .map_err(|_| "--seed expects a non-negative integer")?;
            }
            "--samples" => {
                cfg.mc_samples = value_of("--samples")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--samples expects an integer >= 1")?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            id => ids.push(id.to_lowercase()),
        }
    }
    for id in &ids {
        if !experiments::ALL.contains(&id.as_str()) {
            return Err(format!(
                "unknown experiment {id:?} (available: {})",
                experiments::ALL.join(", ")
            ));
        }
    }
    if list && json.is_some() {
        // a script expecting a JSON document must not silently get the
        // text registry (and no output file) with exit 0
        return Err("--list and --json are mutually exclusive".to_owned());
    }
    Ok(Some(Cli {
        json,
        list,
        ids,
        cfg,
    }))
}

fn json_document(cli: &Cli, reports: &[raysearch_core::campaign::Report]) -> serde_json::Value {
    use serde_json::{Map, Value};
    let mut config = Map::new();
    config.insert("max_k".to_owned(), Value::Int(i64::from(cli.cfg.max_k)));
    config.insert(
        "threads".to_owned(),
        cli.cfg
            .threads
            .map_or(Value::Null, |t| Value::Int(t as i64)),
    );
    config.insert(
        "seed".to_owned(),
        serde_json::to_value(cli.cfg.seed).expect("u64 serializes"),
    );
    config.insert(
        "mc_samples".to_owned(),
        serde_json::to_value(cli.cfg.mc_samples).expect("u64 serializes"),
    );
    let mut doc = Map::new();
    doc.insert("schema_version".to_owned(), Value::Int(1));
    doc.insert("paper".to_owned(), Value::String("1707.05077".to_owned()));
    doc.insert("config".to_owned(), Value::Object(config));
    doc.insert(
        "campaigns".to_owned(),
        Value::Array(reports.iter().map(|r| r.to_value()).collect()),
    );
    Value::Object(doc)
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some(cli) = parse_args(&args)? else {
        println!("{USAGE}");
        return Ok(());
    };
    let selected: Vec<&str> = experiments::ALL
        .iter()
        .copied()
        .filter(|id| cli.ids.is_empty() || cli.ids.iter().any(|w| w == id))
        .collect();

    if cli.list {
        let mut table = raysearch_core::campaign::Table::new(vec![
            "experiment".to_owned(),
            "campaign".to_owned(),
            "cells".to_owned(),
            "title".to_owned(),
        ]);
        for id in &selected {
            let infos =
                experiments::describe_experiment(id, &cli.cfg).expect("registry covers ALL");
            for info in infos {
                table.push(vec![
                    (*id).to_owned(),
                    info.id,
                    info.cells.to_string(),
                    info.title,
                ]);
            }
        }
        print!("{}", table.render());
        return Ok(());
    }

    let mut reports = Vec::new();
    for id in &selected {
        let batch =
            experiments::run_experiment(id, &cli.cfg).expect("registry covers every id in ALL");
        if cli.json.is_none() {
            for report in &batch {
                println!("{}", report.render_text());
            }
        }
        reports.extend(batch);
    }

    match &cli.json {
        Some(path) => {
            let text =
                serde_json::to_string(&json_document(&cli, &reports)).expect("document serializes");
            if path == "-" {
                println!("{text}");
            } else {
                std::fs::write(path, text + "\n")
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
        }
        None => println!("experiments available: {}", experiments::ALL.join(", ")),
    }
    Ok(())
}

fn main() {
    if let Err(msg) = run(std::env::args().skip(1).collect()) {
        eprintln!("tablegen: {msg}\n\n{USAGE}");
        std::process::exit(2);
    }
}
