//! The router soak: record the smoke mix through a two-backend fleet,
//! then replay the tape against fresh fleets at concurrency 8 and at
//! concurrency 1, two passes each (cold, then warm). Every response must
//! match the tape byte for byte, nothing may fail over, and the per-pass
//! counter fingerprints must not depend on concurrency.
//!
//! The fleet is wired like `replaygen`'s: an in-process router with 12
//! workers and a 250 ms health thread over two backends. The backends
//! get 2 workers and a 60 s read timeout, so a forward parked behind a
//! connection the router left idle on a busy backend would stall a pass
//! for a minute instead of passing unnoticed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use raysearch_service::client::HttpClient;
use raysearch_service::replay::{replay, smoke_mix};
use raysearch_service::route::{spawn_health_thread, BackendSpec, RouterState};
use raysearch_service::server::{Server, ServerConfig, ServerHandle};
use raysearch_service::tape::{Tape, TapeRecorder};

/// Requests recorded: the smoke mix cycled three times.
const RECORDED: usize = 60;

/// The most one replay pass may take.
const PASS_LIMIT: Duration = Duration::from_secs(20);

struct Fleet {
    state: Arc<RouterState>,
    router: ServerHandle<RouterState>,
    backends: Vec<ServerHandle>,
    stop: Arc<AtomicBool>,
    health: JoinHandle<()>,
}

impl Fleet {
    fn start(recorder: Option<TapeRecorder>) -> Fleet {
        let backends: Vec<ServerHandle> = (0..2)
            .map(|node| {
                let cfg = ServerConfig {
                    workers: 2,
                    read_timeout: Duration::from_secs(60),
                    job_node: node,
                    ..ServerConfig::default()
                };
                Server::bind(cfg).expect("bind backend").spawn()
            })
            .collect();
        let specs = backends
            .iter()
            .enumerate()
            .map(|(i, b)| BackendSpec::fixed(&format!("backend-{i}"), &b.addr().to_string()))
            .collect();
        let state = Arc::new(RouterState::new(specs, recorder));
        assert_eq!(state.check_backends_now(), 2, "both backends healthy");
        let stop = Arc::new(AtomicBool::new(false));
        let health = spawn_health_thread(
            Arc::clone(&state),
            Duration::from_millis(250),
            Arc::clone(&stop),
        );
        let cfg = ServerConfig {
            workers: 12,
            ..ServerConfig::default()
        };
        let router = Server::bind_with(cfg, Arc::clone(&state))
            .expect("bind router")
            .spawn();
        Fleet {
            state,
            router,
            backends,
            stop,
            health,
        }
    }

    fn addr(&self) -> String {
        self.router.addr().to_string()
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.health.join().expect("health thread");
        self.router.shutdown();
        for backend in self.backends {
            backend.shutdown();
        }
    }
}

/// Replays `tape` twice against a fresh fleet at `concurrency` and
/// returns the two passes' fingerprints.
fn soak(tape: &Tape, concurrency: usize) -> Vec<String> {
    let fleet = Fleet::start(None);
    let mut tape_paths: Vec<&str> = tape
        .entries
        .iter()
        .map(|entry| entry.target.split('?').next().unwrap_or_default())
        .map(|path| path.trim_start_matches('/'))
        .collect();
    tape_paths.sort_unstable();
    tape_paths.dedup();
    let mut fingerprints = Vec::new();
    for pass in 1..=2 {
        let report = replay(&fleet.addr(), tape, concurrency).expect("replay");
        let fingerprint = report.fingerprint();
        assert_eq!(report.requests, RECORDED as u64, "{fingerprint}");
        assert_eq!(
            report.mismatched, 0,
            "c{concurrency} pass {pass}: {:?}",
            report.mismatch_details
        );
        assert_eq!(report.transport_errors, 0, "c{concurrency} pass {pass}");
        assert_eq!(report.sheds, 0, "c{concurrency} pass {pass}");
        assert!(
            report.wall_micros < PASS_LIMIT.as_micros() as u64,
            "c{concurrency} pass {pass} took {} us",
            report.wall_micros
        );
        if pass == 2 {
            assert!(report.hits > 0, "the warm pass must hit: {fingerprint}");
        }
        let mut endpoints: Vec<&str> = report
            .endpoints
            .iter()
            .map(|row| row.endpoint.as_str())
            .collect();
        endpoints.sort_unstable();
        assert_eq!(endpoints, tape_paths, "c{concurrency} pass {pass}");
        let timed: u64 = report.endpoints.iter().map(|row| row.requests).sum();
        assert_eq!(timed, RECORDED as u64, "c{concurrency} pass {pass}");
        for row in &report.endpoints {
            assert!(
                row.p50_micros <= row.p90_micros
                    && row.p90_micros <= row.p95_micros
                    && row.p95_micros <= row.p99_micros
                    && row.p99_micros <= row.max_micros,
                "c{concurrency} pass {pass}: {row:?}"
            );
        }
        fingerprints.push(fingerprint);
    }
    assert_eq!(fleet.state.failover_total(), 0, "c{concurrency}");
    fleet.stop();
    fingerprints
}

#[test]
fn replay_counters_do_not_depend_on_concurrency() {
    let dir = std::env::temp_dir().join(format!("raysearch-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let tape_path = dir.join("soak.tape");

    let fleet = Fleet::start(Some(TapeRecorder::create(&tape_path).expect("create tape")));
    let mut client = HttpClient::connect(&fleet.addr()).expect("connect router");
    let mix = smoke_mix();
    for (method, target, body) in mix.iter().cycle().take(RECORDED) {
        client
            .request(method, target, Some(body))
            .expect("recording request");
    }
    drop(client);
    fleet.stop();
    let tape = Tape::load(&tape_path).expect("load tape");
    assert_eq!(tape.entries.len(), RECORDED);

    let concurrent = soak(&tape, 8);
    let sequential = soak(&tape, 1);
    assert_eq!(concurrent, sequential, "concurrency changed the counters");
    std::fs::remove_dir_all(&dir).ok();
}
