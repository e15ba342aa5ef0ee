//! Integration tests: a real `raysearchd` server on an ephemeral port,
//! exercised over actual TCP sockets — endpoints, cache behaviour
//! (verified through `/stats` counters), canonicalized keys, error
//! paths, keep-alive, and the compile tier beneath the result cache.

use raysearch_service::client::{fetch_json, HttpClient};
use raysearch_service::server::{Server, ServerConfig, ServerHandle};
use serde_json::Value;

fn spawn_server() -> (ServerHandle, String) {
    let cfg = ServerConfig {
        workers: 3,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let handle = server.spawn();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn result_of(doc: &Value) -> &Value {
    doc.get("result").expect("wrapped response has a result")
}

#[test]
fn all_endpoints_over_real_tcp() {
    let (handle, addr) = spawn_server();

    // healthz
    let (status, doc) = fetch_json(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));

    // closed_form: A(1,0) = 9, and the eta form
    let (status, doc) = fetch_json(&addr, "GET", "/closed_form?k=1&f=0", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        result_of(&doc).get("a").and_then(Value::as_f64),
        Some(9.0),
        "cow path closed form"
    );
    let (_, doc) = fetch_json(&addr, "GET", "/closed_form?m=3&k=3&f=0", None).unwrap();
    assert_eq!(
        result_of(&doc).get("regime").and_then(Value::as_str),
        Some("trivial"),
        "k = m(f+1) is trivial"
    );
    let (_, doc) = fetch_json(&addr, "POST", "/closed_form", Some(r#"{"eta":2.0}"#)).unwrap();
    assert!(result_of(&doc)
        .get("lambda")
        .and_then(Value::as_f64)
        .is_some_and(|l| l > 1.0));

    // evaluate matches the closed form
    let body = r#"{"m":2,"k":3,"f":1,"horizon":2000}"#;
    let (status, doc) = fetch_json(&addr, "POST", "/evaluate", Some(body)).unwrap();
    assert_eq!(status, 200);
    let expected = raysearch_bounds::a_line(3, 1).unwrap();
    let ratio = result_of(&doc)
        .get("report")
        .and_then(|r| r.get("ratio"))
        .and_then(Value::as_f64)
        .expect("evaluate returns a ratio");
    assert!((ratio - expected).abs() < 1e-2, "{ratio} vs {expected}");

    // verdict on the cow path
    let (status, doc) = fetch_json(
        &addr,
        "POST",
        "/verdict",
        Some(r#"{"k":1,"f":0,"horizon":1000,"eps":0.01}"#),
    )
    .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        result_of(&doc)
            .get("falsified_below")
            .and_then(Value::as_bool),
        Some(true)
    );

    // campaign rows
    let (status, doc) = fetch_json(
        &addr,
        "POST",
        "/campaign",
        Some(r#"{"id":"e8","max_k":3,"threads":2}"#),
    )
    .unwrap();
    assert_eq!(status, 200);
    let campaigns = result_of(&doc)
        .get("campaigns")
        .and_then(Value::as_array)
        .expect("campaign response lists campaigns");
    assert!(!campaigns.is_empty());
    assert!(campaigns[0]
        .get("rows")
        .and_then(Value::as_array)
        .is_some_and(|rows| !rows.is_empty()));

    // stats shape
    let (status, doc) = fetch_json(&addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    assert!(doc.get("requests_total").and_then(Value::as_u64).unwrap() >= 6);
    assert!(doc.get("cache").and_then(|c| c.get("capacity")).is_some());

    handle.shutdown();
}

#[test]
fn repeated_requests_hit_the_cache_per_stats() {
    let (handle, addr) = spawn_server();
    let body = r#"{"m":3,"k":2,"f":0,"horizon":3000}"#;

    let hits_of = |addr: &str| {
        let (_, doc) = fetch_json(addr, "GET", "/stats", None).unwrap();
        doc.get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Value::as_u64)
            .unwrap()
    };

    let (_, first) = fetch_json(&addr, "POST", "/evaluate", Some(body)).unwrap();
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
    let hits_before = hits_of(&addr);

    let (_, second) = fetch_json(&addr, "POST", "/evaluate", Some(body)).unwrap();
    assert_eq!(
        second.get("cached").and_then(Value::as_bool),
        Some(true),
        "identical request must be served from cache"
    );
    assert_eq!(hits_of(&addr), hits_before + 1, "stats must count the hit");

    // deterministic JSON bodies: the payloads are byte-identical
    assert_eq!(
        result_of(&first).to_json_string(),
        result_of(&second).to_json_string()
    );

    handle.shutdown();
}

#[test]
fn canonicalized_keys_share_one_entry() {
    let (handle, addr) = spawn_server();
    // three spellings of the same instance: float, int, exponent form
    let spellings = [
        r#"{"m":2,"k":3,"f":1,"horizon":10000.0}"#,
        r#"{"m":2,"k":3,"f":1,"horizon":10000}"#,
        r#"{"m":2,"k":3,"f":1,"horizon":1e4}"#,
        r#"{"m":2,"k":3,"f":1}"#, // DEFAULT_HORIZON is 1e4
    ];
    let mut cached_flags = Vec::new();
    for body in spellings {
        let (status, doc) = fetch_json(&addr, "POST", "/evaluate", Some(body)).unwrap();
        assert_eq!(status, 200);
        cached_flags.push(doc.get("cached").and_then(Value::as_bool).unwrap());
    }
    assert_eq!(
        cached_flags,
        vec![false, true, true, true],
        "logically equal instances must share one cache entry"
    );
    let (_, doc) = fetch_json(&addr, "GET", "/stats", None).unwrap();
    assert_eq!(
        doc.get("cache")
            .and_then(|c| c.get("entries"))
            .and_then(Value::as_u64),
        Some(1)
    );
    handle.shutdown();
}

#[test]
fn error_paths_are_well_formed_json() {
    let (handle, addr) = spawn_server();

    for (method, path, body, want) in [
        ("GET", "/nope", None, 404),
        ("DELETE", "/evaluate", None, 405),
        ("POST", "/evaluate", Some(r#"{"m":2}"#), 400), // missing k/f
        ("POST", "/evaluate", Some("not json"), 400),
        ("POST", "/evaluate", Some(r#"{"k":2,"f":2}"#), 400), // f = k impossible
        (
            "POST",
            "/evaluate",
            Some(r#"{"k":3,"f":1,"horizon":"NaN"}"#),
            400,
        ),
        ("POST", "/campaign", Some(r#"{"id":"e99"}"#), 400),
        (
            "POST",
            "/campaign",
            Some(r#"{"id":"e1","max_k":1000}"#),
            400,
        ),
        ("GET", "/closed_form?k=abc&f=0", None, 400),
        // serving ceilings: one request must not be able to OOM the server
        ("POST", "/evaluate", Some(r#"{"k":100000,"f":49999}"#), 400),
        (
            "POST",
            "/evaluate",
            Some(r#"{"k":3,"f":1,"horizon":1e30}"#),
            400,
        ),
        ("POST", "/verdict", Some(r#"{"m":100000,"k":3,"f":1}"#), 400),
        // within the m/k ceilings but outside the k·m·(f+2) work
        // envelope: one request must not monopolize a worker
        (
            "POST",
            "/evaluate",
            Some(r#"{"m":512,"k":511,"f":500}"#),
            400,
        ),
        // same principle for /montecarlo: the samples·k envelope
        (
            "POST",
            "/montecarlo",
            Some(r#"{"m":2,"k":4096,"f":4095,"samples":200000}"#),
            400,
        ),
    ] {
        let (status, doc) = fetch_json(&addr, method, path, body).unwrap();
        assert_eq!(status, want, "{method} {path} {body:?}");
        assert!(
            doc.get("error").and_then(Value::as_str).is_some(),
            "{method} {path}: error body missing"
        );
    }

    // a failed computation must not poison the cache for a valid retry
    let (status, doc) = fetch_json(
        &addr,
        "POST",
        "/evaluate",
        Some(r#"{"k":3,"f":1,"horizon":500}"#),
    )
    .unwrap();
    assert_eq!(status, 200);
    assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(false));

    handle.shutdown();
}

#[test]
fn montecarlo_endpoint_end_to_end() {
    let (handle, addr) = spawn_server();
    let body = r#"{"m":2,"k":3,"f":1,"horizon":1000,"samples":3000,"seed":77,"faults":"uniform"}"#;

    // cold compute
    let (status, first) = fetch_json(&addr, "POST", "/montecarlo", Some(body)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
    let report = result_of(&first).get("report").expect("report");
    let mean = report.get("mean").and_then(Value::as_f64).unwrap();
    let closed_form = report.get("closed_form").and_then(Value::as_f64).unwrap();
    let max = report.get("max").and_then(Value::as_f64).unwrap();
    assert!(
        mean >= 1.0 && mean < closed_form,
        "{mean} vs Λ {closed_form}"
    );
    assert!(max <= closed_form + 1e-9, "max {max} above Λ {closed_form}");
    assert_eq!(report.get("samples").and_then(Value::as_u64), Some(3000));
    assert_eq!(
        result_of(&first)
            .get("comparison")
            .and_then(|c| c.get("within_worst_case"))
            .and_then(Value::as_bool),
        Some(true)
    );

    // cache hit: byte-identical payload
    let (status, second) = fetch_json(&addr, "POST", "/montecarlo", Some(body)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(
        result_of(&first).to_json_string(),
        result_of(&second).to_json_string(),
        "cache hit must replay the cold bytes"
    );

    // a *different* server instance cold-computes the same bytes: the
    // engine (not the cache) is the source of determinism
    let (handle2, addr2) = spawn_server();
    let (_, other) = fetch_json(&addr2, "POST", "/montecarlo", Some(body)).unwrap();
    assert_eq!(other.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(
        result_of(&first).to_json_string(),
        result_of(&other).to_json_string(),
        "independent servers must agree bit-for-bit"
    );
    handle2.shutdown();

    // a different seed changes the payload (the seed is in the key)
    let reseeded =
        r#"{"m":2,"k":3,"f":1,"horizon":1000,"samples":3000,"seed":78,"faults":"uniform"}"#;
    let (_, third) = fetch_json(&addr, "POST", "/montecarlo", Some(reseeded)).unwrap();
    assert_eq!(third.get("cached").and_then(Value::as_bool), Some(false));
    assert_ne!(
        result_of(&first).to_json_string(),
        result_of(&third).to_json_string()
    );

    // error paths: bad model, oversized budget, out-of-regime instance,
    // oversized fleet — all uncached JSON 400s
    for bad in [
        r#"{"m":2,"k":3,"f":1,"faults":"bogus"}"#,
        r#"{"m":2,"k":3,"f":1,"samples":100000000}"#,
        r#"{"m":2,"k":3,"f":1,"samples":0}"#,
        r#"{"m":2,"k":4,"f":1}"#,   // k = m(f+1): trivial regime
        r#"{"m":2,"k":140,"f":1}"#, // above the Monte-Carlo fleet ceiling
        r#"{"m":2,"k":3,"f":1,"faults":"iid","p":1.5}"#,
    ] {
        let (status, doc) = fetch_json(&addr, "POST", "/montecarlo", Some(bad)).unwrap();
        assert_eq!(status, 400, "{bad}");
        assert!(doc.get("error").is_some(), "{bad}: no error body");
        assert!(
            doc.get("cached").is_none(),
            "{bad}: error carried a cache flag"
        );
    }

    handle.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (handle, addr) = spawn_server();
    let mut client = HttpClient::connect(&addr).unwrap();
    for i in 0..20 {
        let (status, text) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "request {i}");
        assert!(text.contains("\"ok\""));
    }
    // a malformed request closes the connection with a 400
    let (status, _) = client.request("BAD REQUEST LINE", "/x", None).unwrap();
    assert_eq!(status, 400);
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let (handle, addr) = spawn_server();
    let bodies: Vec<String> = [(2u32, 1u32, 0u32), (2, 3, 1), (3, 2, 0), (4, 3, 0)]
        .iter()
        .map(|(m, k, f)| format!("{{\"m\":{m},\"k\":{k},\"f\":{f},\"horizon\":2000}}"))
        .collect();
    std::thread::scope(|scope| {
        for worker in 0..3 {
            let addr = &addr;
            let bodies = &bodies;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let mut seen: Vec<Option<String>> = vec![None; bodies.len()];
                for round in 0..10 {
                    let idx = (worker + round) % bodies.len();
                    let (status, text) = client
                        .request("POST", "/evaluate", Some(&bodies[idx]))
                        .unwrap();
                    assert_eq!(status, 200);
                    let doc: Value = serde_json::from_str(&text).unwrap();
                    let payload = doc.get("result").unwrap().to_json_string();
                    match &seen[idx] {
                        None => seen[idx] = Some(payload),
                        Some(prev) => assert_eq!(prev, &payload, "nondeterministic payload"),
                    }
                }
            });
        }
    });
    handle.shutdown();
}

/// A cacheable mix with no repeats: small-fleet evaluations, `q = k + 1`
/// large fleets at the deep horizon `1e12` (up to `k = 257`, past the
/// old `k ≈ 139` linear-overflow wall), two verdicts and one campaign.
fn cacheable_mix() -> Vec<(&'static str, String)> {
    let evaluate = |m: u32, k: u32, f: u32, horizon: f64| {
        (
            "/evaluate",
            format!("{{\"m\":{m},\"k\":{k},\"f\":{f},\"horizon\":{horizon}}}"),
        )
    };
    let small = [
        (2u32, 1u32, 0u32),
        (2, 3, 1),
        (2, 5, 2),
        (3, 2, 0),
        (3, 4, 1),
        (3, 5, 1),
        (4, 3, 0),
        (5, 4, 0),
    ];
    let large = [
        (2u32, 79u32, 39u32),
        (2, 99, 49),
        (2, 129, 64),
        (2, 149, 74),
        (2, 199, 99),
        (2, 257, 128),
        (3, 61, 20),
        (4, 62, 15),
    ];
    let mut mix: Vec<(&'static str, String)> = small
        .iter()
        .map(|&(m, k, f)| evaluate(m, k, f, 1e6))
        .chain(large.iter().map(|&(m, k, f)| evaluate(m, k, f, 1e12)))
        .collect();
    for (m, k, f) in [(2, 3, 1), (3, 2, 0)] {
        mix.push((
            "/verdict",
            format!("{{\"m\":{m},\"k\":{k},\"f\":{f},\"horizon\":1e4,\"eps\":0.01}}"),
        ));
    }
    mix.push(("/campaign", "{\"id\":\"e2\",\"max_k\":8}".to_owned()));
    mix
}

#[test]
fn cold_then_hot_mix_moves_the_cache_counters_exactly() {
    use raysearch_service::tape::normalize_body;
    use raysearch_service::telemetry::stat;

    let (handle, addr) = spawn_server();
    let counter = |name: &str| {
        let (_, doc) = fetch_json(&addr, "GET", "/stats", None).unwrap();
        stat(&doc, name).unwrap_or_else(|| panic!("/stats has no {name}"))
    };
    let mix = cacheable_mix();
    let distinct = mix.len() as u64;

    // cold: each request once over one connection, every one a miss
    let mut client = HttpClient::connect(&addr).unwrap();
    let cold: Vec<String> = mix
        .iter()
        .map(|(path, body)| {
            let (status, text) = client.request("POST", path, Some(body)).unwrap();
            assert_eq!(status, 200, "{path} {body}: {text}");
            assert!(text.starts_with("{\"cached\":false,"), "{path} {body}");
            text
        })
        .collect();
    drop(client);
    assert_eq!(counter("cache.misses"), distinct);
    let hits_after_cold = counter("cache.hits");

    // hot: the whole mix again from each of two keep-alive clients
    let clients = 2;
    std::thread::scope(|scope| {
        for worker in 0..clients {
            let (addr, mix, cold) = (&addr, &mix, &cold);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..mix.len() {
                    let idx = (worker + i) % mix.len();
                    let (path, body) = &mix[idx];
                    let (status, text) = client.request("POST", path, Some(body)).unwrap();
                    assert_eq!(status, 200, "{path} {body}: {text}");
                    assert!(text.starts_with("{\"cached\":true,"), "{path} {body}");
                    assert_eq!(normalize_body(&text), cold[idx], "{path} {body}");
                }
            });
        }
    });
    assert_eq!(
        counter("cache.hits"),
        hits_after_cold + (clients * mix.len()) as u64
    );
    assert_eq!(counter("cache.misses"), distinct);
    handle.shutdown();
}

#[test]
fn post_without_content_length_gets_a_clean_411() {
    use std::io::{Read, Write};

    let (handle, addr) = spawn_server();
    // a raw socket, below HttpClient: the client always sends
    // Content-Length, and this test exists precisely to cover peers
    // that do not
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /evaluate HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\r\n{\"k\":3,\"f\":1}")
        .unwrap();
    // the server must answer 411 immediately (no stall waiting for an
    // entity it cannot delimit) and close, never misparsing the stray
    // body bytes as a second request
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 411 Length Required\r\n"),
        "expected 411, got: {response:?}"
    );
    assert!(response.contains("Connection: close"));
    assert!(response.contains("Content-Length"));
    assert_eq!(
        response.matches("HTTP/1.1").count(),
        1,
        "body bytes must not be parsed as a second request: {response:?}"
    );

    // the server stays healthy for well-formed traffic afterwards
    let (status, _) = fetch_json(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn large_fleet_evaluate_end_to_end() {
    let (handle, addr) = spawn_server();
    // k = 199 has no linear fleet (its turn points overflow to an
    // error); the streamed fleet serves the closed form exactly
    let body = r#"{"m":2,"k":199,"f":99,"horizon":1e6}"#;
    let (status, doc) = fetch_json(&addr, "POST", "/evaluate", Some(body)).unwrap();
    assert_eq!(status, 200);
    let ratio = result_of(&doc)
        .get("report")
        .and_then(|r| r.get("ratio"))
        .and_then(Value::as_f64)
        .expect("large-fleet evaluate returns a ratio");
    let theory = raysearch_bounds::a_rays(2, 199, 99).unwrap();
    assert!(
        ratio.is_finite() && ((ratio - theory) / theory).abs() < 1e-6,
        "{ratio} vs {theory}"
    );
    // and the repeat is a byte-identical cache hit
    let (_, doc2) = fetch_json(&addr, "POST", "/evaluate", Some(body)).unwrap();
    assert_eq!(doc2.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(
        result_of(&doc).to_json_string(),
        result_of(&doc2).to_json_string()
    );
    handle.shutdown();
}

#[test]
fn rejected_montecarlo_requests_never_enter_the_cache() {
    use raysearch_service::telemetry::stat;

    let (handle, addr) = spawn_server();
    let cache = |name: &str| {
        let (_, doc) = fetch_json(&addr, "GET", "/stats", None).unwrap();
        stat(&doc, &format!("cache.{name}")).unwrap_or_else(|| panic!("no cache.{name}"))
    };

    // an invalid fault model is rejected before the cache: twice, and
    // no cache counter moves
    for _ in 0..2 {
        let (status, doc) = fetch_json(
            &addr,
            "POST",
            "/montecarlo",
            Some(r#"{"m":2,"k":3,"f":1,"faults":"bogus"}"#),
        )
        .unwrap();
        assert_eq!(status, 400, "{}", doc.to_json_string());
        assert!(doc.get("cached").is_none());
    }
    assert_eq!((cache("hits"), cache("misses")), (0, 0));

    // iid p = 1.0 silences every robot: a valid scenario whose
    // all-undetected outcome is a 400 after computing, so each identical
    // retry recomputes (one miss each) and nothing is stored
    for _ in 0..2 {
        let (status, doc) = fetch_json(
            &addr,
            "POST",
            "/montecarlo",
            Some(r#"{"m":2,"k":3,"f":1,"faults":"iid","p":1.0,"samples":100,"seed":5}"#),
        )
        .unwrap();
        assert_eq!(status, 400, "{}", doc.to_json_string());
        assert!(doc.get("cached").is_none());
        assert!(doc
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("undetected")));
    }
    assert_eq!(
        (cache("hits"), cache("misses"), cache("entries")),
        (0, 2, 0)
    );
    handle.shutdown();
}

#[test]
fn trivial_regime_fleets_serve_ratio_one_and_share_a_compiled_fleet_across_f() {
    use raysearch_service::telemetry::stat;

    let (handle, addr) = spawn_server();
    let ratio_of = |doc: &Value| {
        result_of(doc)
            .get("report")
            .and_then(|r| r.get("ratio"))
            .and_then(Value::as_f64)
    };
    let counter = |name: &str| {
        let (_, doc) = fetch_json(&addr, "GET", "/stats", None).unwrap();
        stat(&doc, name).unwrap_or_else(|| panic!("/stats has no {name}"))
    };

    // k >= m(f+1): some robot sits on every ray, so the ratio is 1
    let (status, doc) = fetch_json(
        &addr,
        "POST",
        "/evaluate",
        Some(r#"{"m":2,"k":512,"f":1,"horizon":1e6}"#),
    )
    .unwrap();
    assert_eq!(status, 200, "{}", doc.to_json_string());
    assert_eq!(ratio_of(&doc), Some(1.0));

    // the compile tier is keyed by geometry, not by fault budget: two
    // f values at one (m, k, horizon) are two result-cache entries but
    // one compiled zone fleet
    let (hits, misses) = (counter("compile_hits"), counter("compile_misses"));
    for (f, compile_hits) in [(1, hits), (3, hits + 1)] {
        let body = format!(r#"{{"m":2,"k":768,"f":{f},"horizon":1e6}}"#);
        let (status, doc) = fetch_json(&addr, "POST", "/evaluate", Some(&body)).unwrap();
        assert_eq!(status, 200, "{}", doc.to_json_string());
        assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(false));
        assert_eq!(ratio_of(&doc), Some(1.0));
        assert_eq!(counter("compile_hits"), compile_hits, "after f = {f}");
    }
    assert_eq!(counter("compile_misses"), misses + 1);
    assert!(counter("compile_entries") > 0);
    handle.shutdown();
}
