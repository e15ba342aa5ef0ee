//! The router's per-backend connection pool and what it relays: one
//! idle keep-alive connection per backend, reused by forwards and
//! health probes alike, retried once on a fresh connection when it went
//! stale, never reused across a `Connection: close` or an address
//! change — and a relay that passes bodies, headers and backend sheds
//! through verbatim, and routes job polls by the node tag in the id.
//! Everything runs in process on ephemeral ports, without sleeps.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use raysearch_service::client::HttpClient;
use raysearch_service::http::{read_request, HttpError, Request, Response};
use raysearch_service::route::{rendezvous_rank, BackendSpec, RouterState};
use raysearch_service::routing_key;
use raysearch_service::server::{Handler, Server, ServerConfig, ServerHandle};
use serde_json::Value;

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        cache_capacity: 256,
        cache_shards: 4,
        ..ServerConfig::default()
    }
}

fn request(method: &str, target: &str, body: &[u8]) -> Request {
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (
            path,
            query
                .split('&')
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_owned(), v.to_owned()),
                    None => (pair.to_owned(), String::new()),
                })
                .collect(),
        ),
        None => (target, Vec::new()),
    };
    Request {
        method: method.to_owned(),
        version: "HTTP/1.1".to_owned(),
        path: path.to_owned(),
        query,
        headers: Vec::new(),
        body: body.to_vec(),
    }
}

fn get(target: &str) -> Request {
    request("GET", target, b"")
}

/// The router's `/stats` entry for backend `id`.
fn backend_stats(state: &RouterState, id: &str) -> Value {
    let stats = state.handle(&get("/stats"));
    let doc: Value = serde_json::from_str(&stats.body).expect("stats is JSON");
    doc.get("backends")
        .and_then(Value::as_array)
        .and_then(|bs| {
            bs.iter()
                .find(|b| b.get("id").and_then(Value::as_str) == Some(id))
        })
        .cloned()
        .unwrap_or_else(|| panic!("no backend {id:?} in {}", stats.body))
}

/// A fleet-wide counter from the router's `/stats`.
fn fleet_counter(state: &RouterState, name: &str) -> u64 {
    let stats = state.handle(&get("/stats"));
    let doc: Value = serde_json::from_str(&stats.body).expect("stats is JSON");
    counter(&doc, name)
}

fn counter(entry: &Value, name: &str) -> u64 {
    entry
        .get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no counter {name:?} in {}", entry.to_json_string()))
}

fn spawn_backend(workers: usize) -> (ServerHandle, String) {
    let handle = Server::bind(config(workers)).expect("bind backend").spawn();
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// A backend on a raw socket that serves one connection at a time and
/// returns `(connections accepted, routed requests read)` once it has
/// answered `routed` requests other than `/healthz` and `/stats`. Every
/// answer is `200 {}`. With `say_close` it answers `Connection: close`
/// and closes after every response; without, it keeps health-probe
/// connections open and closes silently right after answering a routed
/// request with `Connection: keep-alive` — the connection a pool holds
/// then goes stale.
fn spawn_fake(routed: usize, say_close: bool) -> (String, JoinHandle<(usize, usize)>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake");
    let addr = listener.local_addr().expect("fake address").to_string();
    let fake = std::thread::spawn(move || {
        let (mut connections, mut seen) = (0, 0);
        while seen < routed {
            let (stream, _) = listener.accept().expect("accept");
            connections += 1;
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            while let Ok(req) = read_request(&mut reader) {
                let health = matches!(req.path.as_str(), "/healthz" | "/stats");
                seen += usize::from(!health);
                Response::ok("{}")
                    .write_to(&mut writer, !say_close)
                    .expect("write response");
                if say_close || !health {
                    break;
                }
            }
        }
        (connections, seen)
    });
    (addr, fake)
}

#[test]
fn sequential_forwards_share_one_connection() {
    const N: u64 = 20;
    let (backend, backend_addr) = spawn_backend(2);
    let state = Arc::new(RouterState::new(
        vec![BackendSpec::fixed("backend-0", &backend_addr)],
        None,
    ));
    assert_eq!(state.check_backends_now(), 1);
    let router = Server::bind_with(config(2), Arc::clone(&state))
        .expect("bind router")
        .spawn();

    let mut client = HttpClient::connect(&router.addr().to_string()).expect("connect router");
    for k in 1..=N {
        let (status, _) = client
            .request("GET", &format!("/closed_form?k={k}&f=0"), None)
            .expect("forward");
        assert_eq!(status, 200);
    }

    // the health pass opened the one connection every forward reused
    let entry = backend_stats(&state, "backend-0");
    assert_eq!(counter(&entry, "routed"), N);
    assert_eq!(counter(&entry, "connects"), 1);
    assert_eq!(counter(&entry, "stale_retries"), 0);
    let metrics = state.handle(&get("/metrics")).body;
    assert!(
        metrics.contains("raysearch_router_backend_connects_total{backend=\"backend-0\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("raysearch_router_backend_stale_retries_total{backend=\"backend-0\"} 0\n"),
        "{metrics}"
    );

    drop(client);
    router.shutdown();
    backend.shutdown();
}

#[test]
fn a_stale_pooled_connection_is_retried_once_on_a_fresh_one() {
    let (addr, fake) = spawn_fake(2, false);
    let state = RouterState::new(vec![BackendSpec::fixed("backend-0", &addr)], None);
    assert_eq!(state.check_backends_now(), 1);

    // the first forward reuses the health pass's connection, and the
    // fake closes it after answering; the second finds it stale
    for _ in 0..2 {
        let response = state.handle(&get("/closed_form?k=3&f=1"));
        assert_eq!(response.status, 200, "{}", response.body);
    }
    assert_eq!(state.failover_total(), 0);
    assert_eq!(state.healthy_backends(), 1);
    let entry = backend_stats(&state, "backend-0");
    assert_eq!(counter(&entry, "stale_retries"), 1);
    assert_eq!(counter(&entry, "failed"), 0);
    assert_eq!(counter(&entry, "connects"), 2);
    assert_eq!(
        fake.join().expect("fake backend"),
        (2, 2),
        "(connections, routed requests) the fake saw"
    );
}

#[test]
fn a_connection_close_response_is_not_pooled() {
    const N: usize = 3;
    let (addr, fake) = spawn_fake(N, true);
    let state = RouterState::new(vec![BackendSpec::fixed("backend-0", &addr)], None);
    assert_eq!(state.check_backends_now(), 1);
    for _ in 0..N {
        assert_eq!(state.handle(&get("/closed_form?k=3&f=1")).status, 200);
    }
    // /healthz, /stats and every forward each opened their own
    let entry = backend_stats(&state, "backend-0");
    assert_eq!(counter(&entry, "connects"), N as u64 + 2);
    assert_eq!(counter(&entry, "stale_retries"), 0);
    assert_eq!(fake.join().expect("fake backend"), (N + 2, N));
}

#[test]
fn no_connection_is_pooled_while_another_exchange_is_in_flight() {
    // a raw one-worker backend: it serves a connection for its whole
    // keep-alive lifetime before it reads the next one
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake");
    let addr = listener.local_addr().expect("fake address").to_string();
    let fake = std::thread::spawn(move || {
        let serve = |reader: &mut BufReader<TcpStream>, writer: &mut TcpStream| {
            read_request(reader).expect("request");
            Response::ok("{}")
                .write_to(writer, true)
                .expect("write response");
        };
        let (first, _) = listener.accept().expect("accept");
        let mut first_writer = first.try_clone().expect("clone stream");
        let mut first_reader = BufReader::new(first);
        // the health pass's /healthz and /stats
        serve(&mut first_reader, &mut first_writer);
        serve(&mut first_reader, &mut first_writer);
        // one forward takes the idle connection; answer it only once
        // the other forward has connected, so it is still in flight
        read_request(&mut first_reader).expect("forward on the idle connection");
        let (second, _) = listener.accept().expect("accept");
        Response::ok("{}")
            .write_to(&mut first_writer, true)
            .expect("write response");
        // a router that parked the first connection would hold this
        // worker until the timeout, with the second forward queued
        first_writer
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let released = matches!(read_request(&mut first_reader), Err(HttpError::Closed));
        let mut second_writer = second.try_clone().expect("clone stream");
        serve(&mut BufReader::new(second), &mut second_writer);
        released
    });

    let state = Arc::new(RouterState::new(
        vec![BackendSpec::fixed("backend-0", &addr)],
        None,
    ));
    assert_eq!(state.check_backends_now(), 1);
    let forwards: Vec<_> = (0..2)
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || state.handle(&get("/closed_form?k=3&f=1")).status)
        })
        .collect();
    for forward in forwards {
        assert_eq!(forward.join().expect("forward thread"), 200);
    }
    assert!(
        fake.join().expect("fake backend"),
        "the connection was kept idle while the other forward waited"
    );
    let entry = backend_stats(&state, "backend-0");
    assert_eq!(counter(&entry, "connects"), 2);
    assert_eq!(counter(&entry, "stale_retries"), 0);
}

/// Answers health probes and counts every request it sees.
#[derive(Debug, Default)]
struct CountingStub {
    requests: AtomicU64,
}

impl Handler for CountingStub {
    fn handle(&self, _req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::SeqCst);
        Response::ok("{}")
    }
}

#[test]
fn no_connection_outlives_a_port_file_address_change() {
    let spawn_stub = || {
        let stub = Arc::new(CountingStub::default());
        let handle = Server::bind_with(config(2), Arc::clone(&stub))
            .expect("bind stub")
            .spawn();
        (stub, handle)
    };
    let (old, old_server) = spawn_stub();
    let (new, new_server) = spawn_stub();
    let dir = std::env::temp_dir().join(format!("raysearch-pool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let port_file: PathBuf = dir.join("backend-0.port");
    std::fs::write(&port_file, old_server.addr().to_string()).expect("write port file");

    let state = RouterState::new(
        vec![BackendSpec::port_file("backend-0", port_file.clone())],
        None,
    );
    assert_eq!(state.check_backends_now(), 1);
    assert_eq!(state.handle(&get("/closed_form?k=3&f=1")).status, 200);
    let old_seen = old.requests.load(Ordering::SeqCst);
    assert_eq!(old_seen, 3, "health pass plus one forward");

    // the backend "respawns" on a new port: the next health pass
    // rediscovers it, and nothing is sent down the old connection again
    std::fs::write(&port_file, new_server.addr().to_string()).expect("rewrite port file");
    assert_eq!(state.check_backends_now(), 1);
    for _ in 0..2 {
        assert_eq!(state.handle(&get("/closed_form?k=3&f=1")).status, 200);
    }
    assert_eq!(old.requests.load(Ordering::SeqCst), old_seen);
    assert_eq!(new.requests.load(Ordering::SeqCst), 4);
    let entry = backend_stats(&state, "backend-0");
    assert_eq!(counter(&entry, "connects"), 2, "one per address");
    assert_eq!(counter(&entry, "stale_retries"), 0);

    drop(state);
    old_server.shutdown();
    new_server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_one_worker_backend_passes_health_checks_right_after_a_forward() {
    let (backend, backend_addr) = spawn_backend(1);
    let state = RouterState::new(vec![BackendSpec::fixed("backend-0", &backend_addr)], None);
    assert_eq!(state.check_backends_now(), 1);
    for k in 1..=3 {
        let response = state.handle(&get(&format!("/closed_form?k={k}&f=0")));
        assert_eq!(response.status, 200, "{}", response.body);
        // the probe takes the connection the forward left idle on the
        // backend's only worker
        assert_eq!(state.check_backends_now(), 1, "after forward {k}");
    }
    assert_eq!(counter(&backend_stats(&state, "backend-0"), "connects"), 1);
    drop(state);
    backend.shutdown();
}

#[test]
fn a_fresh_connection_failure_marks_the_backend_down_and_fails_over() {
    let (live, live_addr) = spawn_backend(2);
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("address").to_string()
    }; // dropped: nothing listens there any more
    let state = RouterState::new(
        vec![
            BackendSpec::fixed("live", &live_addr),
            BackendSpec::fixed("dead", &dead_addr),
        ],
        None,
    );
    // no health pass: both backends are unhealthy, so the rendezvous
    // order alone decides which one is tried first
    let ids = state.backend_ids();
    let target = (1u32..200)
        .map(|k| format!("/closed_form?k={k}&f=0"))
        .find(|target| ids[rendezvous_rank(&ids, &routing_key(&get(target)))[0]] == "dead")
        .expect("a target the dead backend owns");

    let response = state.handle(&get(&target));
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(state.failover_total(), 1);
    let dead = backend_stats(&state, "dead");
    assert_eq!(counter(&dead, "failed"), 1);
    assert_eq!(dead.get("healthy"), Some(&Value::Bool(false)));
    assert_eq!(counter(&backend_stats(&state, "live"), "routed"), 1);
    live.shutdown();
}

/// Sends `request` on a fresh connection and returns `(status, body)`
/// of the response, read to EOF.
fn raw_exchange(addr: &str, request: &[u8]) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().expect("status line").to_owned();
    (status, body.to_owned())
}

#[test]
fn a_non_utf8_body_reaches_the_backend_byte_for_byte() {
    let (backend, backend_addr) = spawn_backend(2);
    let state = Arc::new(RouterState::new(
        vec![BackendSpec::fixed("backend-0", &backend_addr)],
        None,
    ));
    assert_eq!(state.check_backends_now(), 1);
    let router = Server::bind_with(config(2), Arc::clone(&state))
        .expect("bind router")
        .spawn();

    let body: &[u8] = b"{\"m\":2,\"k\":3,\"f\":1,\"note\":\"\xff\xfe\"}";
    let mut wire = format!(
        "POST /evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    let direct = raw_exchange(&backend_addr, &wire);
    let routed = raw_exchange(&router.addr().to_string(), &wire);
    assert!(direct.0.starts_with("HTTP/1.1 400 "), "{direct:?}");
    assert_eq!(routed, direct);

    router.shutdown();
    backend.shutdown();
}

#[test]
fn a_job_poll_to_a_dead_backend_is_not_a_failover() {
    let backend = Server::bind(ServerConfig {
        job_cost_threshold: 0,
        ..config(2)
    })
    .expect("bind backend")
    .spawn();
    let state = RouterState::new(
        vec![BackendSpec::fixed("backend-0", &backend.addr().to_string())],
        None,
    );
    assert_eq!(state.check_backends_now(), 1);
    let submitted = state.handle(&request(
        "POST",
        "/jobs",
        br#"{"endpoint":"evaluate","m":2,"k":3,"f":1,"horizon":1000}"#,
    ));
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let doc: Value = serde_json::from_str(&submitted.body).expect("job envelope is JSON");
    let id = doc
        .get("id")
        .and_then(Value::as_str)
        .expect("job id")
        .to_owned();

    backend.shutdown();
    let failed_before = counter(&backend_stats(&state, "backend-0"), "failed");
    let poll = state.handle(&get(&format!("/jobs/{id}")));
    assert_eq!(poll.status, 502, "{}", poll.body);
    assert_eq!(state.failover_total(), 0, "a poll never fails over");
    assert_eq!(
        counter(&backend_stats(&state, "backend-0"), "failed"),
        failed_before + 1
    );
}

/// Answers health probes and sheds every routed request with the
/// shared `503` + `Retry-After`. Real overload (a full accept queue)
/// cannot be provoked on demand; a backend that always sheds can.
#[derive(Debug, Default)]
struct ShedStub;

impl Handler for ShedStub {
    fn handle(&self, req: &Request) -> Response {
        match req.path.as_str() {
            "/healthz" | "/stats" => Response::ok("{}"),
            _ => Response::shed("shed-stub sheds every request"),
        }
    }
}

#[test]
fn a_backend_shed_passes_through_with_retry_after_and_no_failover() {
    let (backend, backend_addr) = spawn_backend(2);
    let stub = Server::bind_with(config(2), Arc::new(ShedStub))
        .expect("bind stub")
        .spawn();
    let state = Arc::new(RouterState::new(
        vec![
            BackendSpec::fixed("backend-0", &backend_addr),
            BackendSpec::fixed("shed-stub", &stub.addr().to_string()),
        ],
        None,
    ));
    assert_eq!(state.check_backends_now(), 2);
    let router = Server::bind_with(config(2), Arc::clone(&state))
        .expect("bind router")
        .spawn();
    let ids = state.backend_ids();
    let target = (1u32..200)
        .map(|k| format!("/closed_form?k={k}&f=0"))
        .find(|target| ids[rendezvous_rank(&ids, &routing_key(&get(target)))[0]] == "shed-stub")
        .expect("a target the stub owns");

    let (status, headers, body) = HttpClient::connect(&router.addr().to_string())
        .and_then(|mut c| c.request_with_headers("GET", &target, None, &[]))
        .expect("shed request");
    assert_eq!(status, 503, "{body}");
    let doc: Value = serde_json::from_str(&body).expect("shed body is JSON");
    assert!(doc.get("error").is_some(), "{body}");
    assert_eq!(
        headers
            .iter()
            .find(|(n, _)| n == "retry-after")
            .map(|(_, v)| v.as_str()),
        Some("1"),
        "the back-off hint survives the router"
    );
    // overload is an answer, not a transport error
    assert_eq!(fleet_counter(&state, "shed_passthrough"), 1);
    assert_eq!(state.failover_total(), 0);
    assert_eq!(counter(&backend_stats(&state, "shed-stub"), "routed"), 1);
    assert_eq!(counter(&backend_stats(&state, "backend-0"), "routed"), 0);

    router.shutdown();
    stub.shutdown();
    backend.shutdown();
}

#[test]
fn job_ids_route_polls_to_the_minting_backend() {
    let backends: Vec<ServerHandle> = (0..2)
        .map(|node| {
            Server::bind(ServerConfig {
                job_node: node,
                ..config(2)
            })
            .expect("bind backend")
            .spawn()
        })
        .collect();
    let state = RouterState::new(
        backends
            .iter()
            .enumerate()
            .map(|(i, b)| BackendSpec::fixed(&format!("backend-{i}"), &b.addr().to_string()))
            .collect(),
        None,
    );
    assert_eq!(state.check_backends_now(), 2);
    // a campaign the second backend owns, by the router's own key for
    // the envelope
    let ids = state.backend_ids();
    let (body, envelope) = (1u32..=12)
        .map(|max_k| {
            (
                format!(r#"{{"id":"e3","max_k":{max_k}}}"#),
                format!(r#"{{"endpoint":"campaign","id":"e3","max_k":{max_k}}}"#),
            )
        })
        .find(|(_, envelope)| {
            let key = routing_key(&request("POST", "/jobs", envelope.as_bytes()));
            ids[rendezvous_rank(&ids, &key)[0]] == "backend-1"
        })
        .expect("an e3 depth backend-1 owns");

    let submitted = state.handle(&request("POST", "/jobs", envelope.as_bytes()));
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let doc: Value = serde_json::from_str(&submitted.body).expect("job envelope is JSON");
    let id = doc
        .get("id")
        .and_then(Value::as_str)
        .expect("job id")
        .to_owned();
    assert!(id.starts_with("01"), "backend 1 tags its ids: {id}");
    let poll = get(&format!("/jobs/{id}?wait_micros=1000000"));
    let record = (0..60)
        .map(|_| state.handle(&poll))
        .map(|r| {
            assert_eq!(r.status, 200, "{}", r.body);
            serde_json::from_str(&r.body).expect("job record is JSON")
        })
        .find(|record| record.get("state").and_then(Value::as_str) == Some("done"))
        .expect("the job finishes");
    let sync = state.handle(&request("POST", "/campaign", body.as_bytes()));
    assert_eq!(sync.status, 200, "{}", sync.body);
    let sync: Value = serde_json::from_str(&sync.body).expect("campaign is JSON");
    assert_eq!(
        record.get("result").map(Value::to_json_string),
        sync.get("result").map(Value::to_json_string),
        "job and sync payloads diverge"
    );
    assert_eq!(counter(&backend_stats(&state, "backend-0"), "routed"), 0);

    // an id naming a node past the fleet is answered by the router
    // without contacting any backend
    let routed = fleet_counter(&state, "routed_total");
    let missing = state.handle(&get("/jobs/ff00000000000001"));
    assert_eq!(missing.status, 404, "{}", missing.body);
    assert!(missing.body.contains("backend"), "{}", missing.body);
    assert_eq!(fleet_counter(&state, "routed_total"), routed);

    // the fleet's /stats aggregates the backends' job counters
    state.check_backends_now();
    assert_eq!(fleet_counter(&state, "jobs_submitted"), 1);
    assert_eq!(fleet_counter(&state, "jobs_completed"), 1);
    drop(state);
    for backend in backends {
        backend.shutdown();
    }
}
