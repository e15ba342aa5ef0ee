//! The shipped binaries, driven as processes, for what only their wiring
//! can break: port files, `raysearch-router --backends N` finding
//! `raysearchd` beside itself and handing child `i` its `--job-node i`
//! and the fleet's `--trace-sample` / `--slow-log-micros`, the children
//! dying with a SIGKILLed router, `replaygen`'s record, replay, report
//! and Chrome-export modes, and its fleet's port-file directory going
//! when it exits. What the endpoints compute is pinned by the
//! in-process suites.
//!
//! Every process gets a null stdin, and every router sits in a guard
//! that SIGKILLs and reaps it on drop.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use raysearch_service::client::fetch_json;
use raysearch_service::http::Request;
use raysearch_service::{rendezvous_rank, routing_key, Tape};
use serde_json::Value;

/// A fresh, empty state directory for one test.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raysearch-bin-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

/// Waits for a port file to hold an address.
fn read_port_file(path: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let addr = std::fs::read_to_string(path).unwrap_or_default();
        if !addr.trim().is_empty() {
            return addr.trim().to_owned();
        }
        assert!(
            Instant::now() < deadline,
            "{} never written",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Whether every address refuses connections before `timeout` runs out.
fn all_refuse_within(addrs: &[String], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if addrs.iter().all(|addr| TcpStream::connect(addr).is_err()) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A running `raysearch-router --backends 2`: SIGKILLed and reaped on
/// drop.
struct Router {
    child: Child,
    addr: String,
    backends: Vec<String>,
}

impl Router {
    fn spawn(dir: &Path, extra: &[&str]) -> Router {
        let port_file = dir.join("router.port");
        let child = Command::new(env!("CARGO_BIN_EXE_raysearch-router"))
            .args(["--backends", "2", "--workers", "4", "--state-dir"])
            .arg(dir)
            .arg("--port-file")
            .arg(&port_file)
            .args(extra)
            // the backends must be found beside the router
            .env_remove("RAYSEARCHD_BIN")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn raysearch-router");
        // guarded before the waits below, so a timeout still kills it
        let mut router = Router {
            child,
            addr: String::new(),
            backends: Vec::new(),
        };
        // the router writes its port file once every backend wrote its own
        router.addr = read_port_file(&port_file);
        router.backends = (0..2)
            .map(|i| read_port_file(&dir.join(format!("backend-{i}.port"))))
            .collect();
        router
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn get_json(addr: &str, target: &str) -> Value {
    let (status, doc) = fetch_json(addr, "GET", target, None).expect("request");
    assert_eq!(
        status,
        200,
        "GET {target} on {addr}: {}",
        doc.to_json_string()
    );
    doc
}

#[test]
fn the_router_hands_its_flags_to_the_backends_it_spawns() {
    let dir = state_dir("wiring");
    let router = Router::spawn(&dir, &["--trace-sample", "3", "--slow-log-micros", "12345"]);
    assert_eq!(
        get_json(&router.addr, "/healthz")
            .get("status")
            .and_then(Value::as_str),
        Some("ok")
    );

    // read back on each tier itself: a trace alone would prove nothing,
    // since a threshold of 0 keeps every trace as slow
    for addr in std::iter::once(&router.addr).chain(&router.backends) {
        let index = get_json(addr, "/debug/trace");
        assert_eq!(
            index.get("sample_one_in").and_then(Value::as_u64),
            Some(3),
            "{addr}"
        );
        let slow = get_json(addr, "/debug/slow");
        assert_eq!(
            slow.get("threshold_micros").and_then(Value::as_u64),
            Some(12345),
            "{addr}"
        );
    }

    // a job the router sends to backend 1 carries node tag 1 and lives
    // in that child's store
    let ids = ["backend-0".to_owned(), "backend-1".to_owned()];
    let envelope = (1u32..=12)
        .map(|max_k| format!(r#"{{"endpoint":"campaign","id":"e3","max_k":{max_k}}}"#))
        .find(|envelope| {
            let key = routing_key(&Request::new("POST", "/jobs", envelope.as_str()));
            rendezvous_rank(&ids, &key)[0] == 1
        })
        .expect("an e3 depth backend-1 owns");
    let (status, doc) = fetch_json(&router.addr, "POST", "/jobs", Some(&envelope)).unwrap();
    assert_eq!(status, 202, "{}", doc.to_json_string());
    let id = doc.get("id").and_then(Value::as_str).expect("job id");
    assert!(id.starts_with("01"), "child 1 mints node-1 ids: {id}");
    get_json(&router.backends[1], &format!("/jobs/{id}"));

    drop(router);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sigkilled_router_takes_its_backends_down() {
    let dir = state_dir("kill");
    let mut router = Router::spawn(&dir, &[]);
    let backends = router.backends.clone();
    for addr in &backends {
        get_json(addr, "/healthz");
    }

    // SIGKILL: no destructor runs in the router, so only the kernel
    // closing the children's stdin pipes can end them
    router.child.kill().expect("SIGKILL the router");
    router.child.wait().expect("reap the router");
    assert!(
        all_refuse_within(&backends, Duration::from_secs(5)),
        "backends {backends:?} outlived their router"
    );
    drop(router);
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `replaygen` to completion in `dir`, with its fleet's port files
/// under `tmp`.
fn replaygen(dir: &Path, tmp: &Path, args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_replaygen"))
        .args(args)
        .current_dir(dir)
        .env("TMPDIR", tmp)
        .env_remove("RAYSEARCHD_BIN")
        .stdin(Stdio::null())
        .output()
        .expect("run replaygen");
    assert!(
        output.status.success(),
        "replaygen {args:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn replaygen_records_replays_reports_and_exports_chrome_traces() {
    let dir = state_dir("replay");
    replaygen(
        &dir,
        &dir,
        &["--record", "t.tape", "--requests", "20", "--backends", "2"],
    );
    let tape = Tape::load(&dir.join("t.tape")).expect("load the recorded tape");
    assert_eq!(tape.entries.len(), 20);

    replaygen(
        &dir,
        &dir,
        &[
            "--tape",
            "t.tape",
            "--backends",
            "2",
            "--concurrency",
            "2",
            "--passes",
            "2",
            "--max-shed-rate",
            "0.01",
            "--require-warm-hits",
            "--report",
            "report.json",
            "--export-trace",
            "trace.json",
        ],
    );
    let read = |name: &str| -> Value {
        let text = std::fs::read_to_string(dir.join(name)).expect("read output");
        serde_json::from_str(&text).expect("output is JSON")
    };
    let report = read("report.json");
    let passes = report
        .get("passes")
        .and_then(Value::as_array)
        .expect("passes");
    assert_eq!(passes.len(), 2);
    for pass in passes {
        for (counter, want) in [("requests", 20), ("mismatched", 0), ("transport_errors", 0)] {
            assert_eq!(
                pass.get(counter).and_then(Value::as_u64),
                Some(want),
                "{}",
                pass.to_json_string()
            );
        }
    }

    // the catapult contract: every event names its phase, timestamp,
    // process, thread and span
    let export = read("trace.json");
    let events = export
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("X")),
        "no complete spans"
    );
    for event in events {
        if event.get("ph").and_then(Value::as_str) == Some("X") {
            assert!(event.get("dur").and_then(Value::as_u64).is_some());
        }
        for key in ["ph", "ts", "pid", "tid", "name"] {
            assert!(
                event.get(key).is_some(),
                "{key} missing: {}",
                event.to_json_string()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The fleet's port files and the `replaygen-<pid>` directory it made
/// for them are gone once `replaygen` exits.
#[test]
fn replaygen_leaves_nothing_in_its_tmpdir() {
    let (dir, tmp) = (state_dir("record"), state_dir("tmpdir"));
    replaygen(&dir, &tmp, &["--record", "t.tape", "--requests", "5"]);
    let left: Vec<PathBuf> = std::fs::read_dir(&tmp)
        .expect("read TMPDIR")
        .map(|entry| entry.expect("TMPDIR entry").path())
        .collect();
    assert!(left.is_empty(), "replaygen left {left:?} behind");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&tmp).ok();
}
