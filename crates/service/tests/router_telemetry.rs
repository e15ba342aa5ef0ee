//! Observability-layer integration tests: the router's `/stats` and
//! `/metrics` must never poll backends synchronously (pinned by a
//! request-counting backend stub), `x-raysearch-trace` must round
//! trip router → backend → response at the raw socket level, and the
//! router's slow log and `/debug/trace` must show one request across
//! both tiers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use raysearch_core::SpanData;
use raysearch_service::api::ServiceState;
use raysearch_service::client::fetch_json;
use raysearch_service::http::{Request, Response};
use raysearch_service::route::{BackendSpec, RouterState};
use raysearch_service::server::{Handler, Server, ServerConfig};
use raysearch_service::telemetry::TRACE_HEADER;
use serde_json::Value;

fn small_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        cache_capacity: 256,
        cache_shards: 4,
        ..ServerConfig::default()
    }
}

/// A backend that counts every request it sees — the witness that the
/// router's client-facing endpoints never poll it synchronously.
#[derive(Debug, Default)]
struct CountingStub {
    hits: AtomicU64,
}

impl Handler for CountingStub {
    fn handle(&self, req: &Request) -> Response {
        self.hits.fetch_add(1, Ordering::SeqCst);
        match req.path.as_str() {
            "/healthz" => Response::ok("{\"status\":\"ok\"}"),
            "/stats" => Response::ok(
                "{\"requests_total\":7,\"shed_total\":1,\"cache\":{\"hits\":3,\"misses\":4}}",
            ),
            _ => Response::ok("{\"cached\":false,\"result\":{}}"),
        }
    }

    fn note_shed(&self) {}
}

fn get(path: &str) -> Request {
    Request {
        method: "GET".to_owned(),
        version: "HTTP/1.1".to_owned(),
        path: path.to_owned(),
        query: Vec::new(),
        headers: Vec::new(),
        body: Vec::new(),
    }
}

#[test]
fn router_stats_and_metrics_never_poll_backends_synchronously() {
    let stub = Arc::new(CountingStub::default());
    let backend = Server::bind_with(small_config(), Arc::clone(&stub))
        .expect("bind stub backend")
        .spawn();
    let addr = backend.addr().to_string();

    let state = RouterState::new(vec![BackendSpec::fixed("backend-0", &addr)], None);
    // exactly one health pass touches the backend (healthz + stats on
    // one keep-alive connection)…
    assert_eq!(state.check_backends_now(), 1);
    let baseline = stub.hits.load(Ordering::SeqCst);
    assert_eq!(baseline, 2, "one /healthz plus one /stats per pass");

    // …after which /stats and /metrics serve purely from the cache
    for _ in 0..10 {
        let stats = state.handle(&get("/stats"));
        assert_eq!(stats.status, 200);
        let metrics = state.handle(&get("/metrics"));
        assert_eq!(metrics.status, 200);
    }
    assert_eq!(
        stub.hits.load(Ordering::SeqCst),
        baseline,
        "/stats and /metrics must issue zero synchronous backend requests"
    );

    // the cached snapshot surfaces the backend's counters + staleness
    let stats = state.handle(&get("/stats"));
    let doc: Value = serde_json::from_str(&stats.body).expect("stats is JSON");
    let uint = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap_or(u64::MAX);
    assert_eq!(uint(doc.get("cache_hits")), 3);
    assert_eq!(uint(doc.get("cache_misses")), 4);
    assert_eq!(uint(doc.get("backend_shed")), 1);
    assert_eq!(uint(doc.get("backend_requests")), 7);
    assert!(
        doc.get("stats_age_micros")
            .and_then(Value::as_u64)
            .is_some(),
        "aggregate staleness field present"
    );
    let backends = doc
        .get("backends")
        .and_then(Value::as_array)
        .expect("backends");
    assert_eq!(backends.len(), 1);
    assert_eq!(backends[0].get("reachable"), Some(&Value::Bool(true)));
    assert!(
        backends[0]
            .get("stats_age_micros")
            .and_then(Value::as_u64)
            .is_some(),
        "per-backend staleness field present"
    );

    // /metrics exposes the same cached counters in Prometheus text
    let metrics = state.handle(&get("/metrics"));
    assert!(metrics
        .body
        .contains("raysearch_router_backend_cache_hits_total{backend=\"backend-0\"} 3\n"));
    assert!(metrics
        .body
        .contains("raysearch_router_backend_requests_total{backend=\"backend-0\"} 7\n"));

    backend.shutdown();
}

/// Writes one request over a raw TCP socket and returns the full
/// response text (status line, headers, body).
fn raw_request(addr: &str, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

#[test]
fn trace_header_round_trips_router_to_backend_to_response() {
    let backend_state = Arc::new(ServiceState::new(256, 4));
    // make the backend log every request so we can see the trace there
    backend_state.telemetry().set_slow_threshold(0);
    let backend = Server::bind_with(small_config(), Arc::clone(&backend_state))
        .expect("bind backend")
        .spawn();
    let backend_addr = backend.addr().to_string();

    let router_state = Arc::new(RouterState::new(
        vec![BackendSpec::fixed("backend-0", &backend_addr)],
        None,
    ));
    assert_eq!(router_state.check_backends_now(), 1);
    let router = Server::bind_with(small_config(), Arc::clone(&router_state))
        .expect("bind router")
        .spawn();
    let router_addr = router.addr().to_string();

    // a client-supplied trace id is echoed verbatim by the router…
    let response = raw_request(
        &router_addr,
        &format!(
            "GET /closed_form?k=3&f=1 HTTP/1.1\r\nHost: x\r\n{TRACE_HEADER}: 00000000deadbeef\r\nConnection: close\r\n\r\n"
        ),
    );
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(
        response.contains(&format!("{TRACE_HEADER}: 00000000deadbeef\r\n")),
        "router must echo the client's trace id: {response}"
    );
    assert_eq!(
        response
            .to_ascii_lowercase()
            .matches(&format!("{TRACE_HEADER}:"))
            .count(),
        1,
        "the backend's own echo must not be relayed next to the router's: {response}"
    );

    // …and was forwarded to the backend (its slow log captured it)
    let slow = raw_request(
        &backend_addr,
        "GET /debug/slow HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(
        slow.contains("\"trace\":\"00000000deadbeef\""),
        "backend must join the propagated trace: {slow}"
    );

    // without a client header the router mints a 16-hex id
    let response = raw_request(
        &router_addr,
        "GET /closed_form?k=5&f=0 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    let minted = response
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{TRACE_HEADER}: ")))
        .map(str::trim)
        .expect("response carries a trace header");
    assert_eq!(minted.len(), 16, "minted id is 16 hex digits: {minted:?}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()));

    router.shutdown();
    backend.shutdown();
}

/// Asserts every descendant of `span` lies inside its parent's
/// interval, recursively.
fn assert_nested(span: &SpanData) {
    for child in &span.children {
        assert!(
            span.start_micros <= child.start_micros
                && child.start_micros <= child.end_micros
                && child.end_micros <= span.end_micros,
            "{} escapes its parent {}",
            child.to_json(),
            span.name
        );
        assert_nested(child);
    }
}

#[test]
fn one_routed_request_is_slow_logged_and_assembled_across_both_tiers() {
    // both tiers keep every trace, so the backend sampled the request
    // the router did; the router logs every request as slow
    let backend_state = Arc::new(ServiceState::new(256, 4));
    backend_state.telemetry().set_trace_sample(1);
    let backend = Server::bind_with(small_config(), backend_state)
        .expect("bind backend")
        .spawn();
    let router_state = Arc::new(RouterState::new(
        vec![BackendSpec::fixed("backend-0", &backend.addr().to_string())],
        None,
    ));
    router_state.telemetry().set_slow_threshold(0);
    router_state.telemetry().set_trace_sample(1);
    assert_eq!(router_state.check_backends_now(), 1);
    let router = Server::bind_with(small_config(), Arc::clone(&router_state))
        .expect("bind router")
        .spawn();
    let addr = router.addr().to_string();

    let response = raw_request(
        &addr,
        &format!(
            "GET /closed_form?k=3&f=1 HTTP/1.1\r\nHost: x\r\n{TRACE_HEADER}: 00000000cafef00d\r\nConnection: close\r\n\r\n"
        ),
    );
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");

    // the router's slow log holds the request with its span breakdown
    let (status, slow) = fetch_json(&addr, "GET", "/debug/slow", None).unwrap();
    assert_eq!(status, 200);
    let entry = slow
        .get("entries")
        .and_then(Value::as_array)
        .and_then(|entries| {
            entries
                .iter()
                .find(|e| e.get("trace").and_then(Value::as_str) == Some("00000000cafef00d"))
        })
        .unwrap_or_else(|| panic!("slow log misses the request: {}", slow.to_json_string()));
    assert!(
        entry
            .get("spans")
            .and_then(|s| s.get("backend_wait"))
            .and_then(Value::as_u64)
            .is_some(),
        "{}",
        entry.to_json_string()
    );

    // the assembled trace: router spans on top, the backend's own tree
    // stitched under backend_wait, every span inside its parent
    let (status, doc) = fetch_json(&addr, "GET", "/debug/trace/00000000cafef00d", None).unwrap();
    assert_eq!(status, 200, "{}", doc.to_json_string());
    assert_eq!(
        doc.get("service").and_then(Value::as_str),
        Some("raysearch-router")
    );
    assert_eq!(
        doc.get("trace").and_then(Value::as_str),
        Some("00000000cafef00d")
    );
    let root = SpanData::from_json(doc.get("root").expect("root")).expect("root parses");
    assert_eq!(root.name, "request");
    assert_nested(&root);
    assert!(root.leaf_duration_sum() <= root.duration_micros());
    let wait = root
        .children
        .iter()
        .find(|c| c.name == "backend_wait")
        .expect("a backend_wait span");
    let stitched = wait
        .children
        .iter()
        .find(|c| {
            c.attrs
                .iter()
                .any(|(k, v)| k == "service" && v == "raysearchd")
        })
        .unwrap_or_else(|| panic!("no stitched backend tree: {}", wait.to_json()));
    assert_eq!(stitched.name, "request");
    assert!(!stitched.children.is_empty(), "{}", stitched.to_json());

    // the index lists the id; an unknown id is a JSON 404
    let (status, index) = fetch_json(&addr, "GET", "/debug/trace", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(index.get("sample_one_in").and_then(Value::as_u64), Some(1));
    assert!(index
        .get("traces")
        .and_then(Value::as_array)
        .is_some_and(|ids| ids.iter().any(|v| v.as_str() == Some("00000000cafef00d"))));
    let (status, doc) = fetch_json(&addr, "GET", "/debug/trace/fffffffffffffffe", None).unwrap();
    assert_eq!(status, 404);
    assert!(doc.get("error").is_some());

    router.shutdown();
    backend.shutdown();
}
