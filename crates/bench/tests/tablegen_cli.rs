//! The `tablegen` binary, driven as a process: the `--json` document's
//! shape, the E11 Monte-Carlo rows against the exact worst case, and the
//! `--list` registry.

use std::process::{Command, Stdio};

use serde_json::Value;

/// Runs `tablegen` to success and returns its stdout.
fn tablegen(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_tablegen"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run tablegen");
    assert!(
        output.status.success(),
        "tablegen {args:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

/// The `--json -` document for `args`.
fn json_report(args: &[&str]) -> Value {
    let args: Vec<&str> = ["--json", "-"].iter().chain(args).copied().collect();
    serde_json::from_str(&tablegen(&args)).expect("--json - prints one JSON document")
}

fn campaigns(doc: &Value) -> &[Value] {
    doc.get("campaigns")
        .and_then(Value::as_array)
        .expect("campaigns")
}

fn rows(campaign: &Value) -> &[Value] {
    campaign
        .get("rows")
        .and_then(Value::as_array)
        .expect("rows")
}

#[test]
fn the_json_document_is_schema_1_with_rows_in_every_campaign() {
    let doc = json_report(&["--max-k", "4", "--threads", "2"]);
    assert_eq!(doc.get("schema_version").and_then(Value::as_u64), Some(1));
    let ids: Vec<&str> = campaigns(&doc)
        .iter()
        .map(|c| c.get("id").and_then(Value::as_str).expect("campaign id"))
        .collect();
    for id in ["e1", "e10_rho", "e10_base"] {
        assert!(ids.contains(&id), "{id} missing from {ids:?}");
    }
    for (id, campaign) in ids.iter().zip(campaigns(&doc)) {
        assert!(!rows(campaign).is_empty(), "{id} has no rows");
    }
}

#[test]
fn e11_averages_stay_within_the_exact_worst_case() {
    let doc = json_report(&["--experiment", "e11", "--samples", "2000", "--max-k", "4"]);
    let config = doc.get("config").expect("config");
    assert_eq!(config.get("seed").and_then(Value::as_u64), Some(1707));
    assert_eq!(config.get("mc_samples").and_then(Value::as_u64), Some(2000));
    let [e11] = campaigns(&doc) else {
        panic!("one campaign: {}", doc.to_json_string());
    };
    assert!(!rows(e11).is_empty(), "e11 produced no rows");
    for row in rows(e11) {
        let field = |name: &str| {
            row.get(name)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{name} missing: {}", row.to_json_string()))
        };
        assert_eq!(row.get("samples").and_then(Value::as_u64), Some(2000));
        // the empirical average never beats the exact adversary
        let (mean, closed_form) = (field("mean"), field("closed_form"));
        assert!(
            1.0 <= mean && mean <= closed_form,
            "{}",
            row.to_json_string()
        );
        // budget-respecting fault models stay within the worst case
        if matches!(
            row.get("model").and_then(Value::as_str),
            Some("worst" | "uniform")
        ) {
            assert_eq!(
                row.get("undetected").and_then(Value::as_u64),
                Some(0),
                "{}",
                row.to_json_string()
            );
            assert!(
                field("max") <= closed_form + 1e-9,
                "{}",
                row.to_json_string()
            );
        }
    }
}

#[test]
fn list_names_the_split_e10_campaigns() {
    let text = tablegen(&["--list"]);
    assert!(text.contains("e10_rho"), "{text}");
}
