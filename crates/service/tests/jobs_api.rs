//! Integration tests for the async job tier: a randomized mix of
//! campaign / montecarlo / evaluate payloads submitted via `POST /jobs`
//! must poll to `done` with result payloads *byte-identical* to the
//! synchronous endpoints — at replay concurrency 1 and 8 — plus the
//! lifecycle edges (cancel, admission shedding with `Retry-After`,
//! long-poll, cost threshold, unknown ids), and interactive reads
//! staying fast while a deep job runs.

use raysearch_service::client::{fetch_json, HttpClient};
use raysearch_service::server::{Server, ServerConfig, ServerHandle};
use serde_json::Value;

/// A server whose job tier admits every payload (threshold 0), so the
/// randomized mix below can push cheap evaluates through the queue too.
fn spawn_jobs_server(workers: usize, compute_workers: usize) -> (ServerHandle, String) {
    let cfg = ServerConfig {
        workers,
        compute_workers,
        cache_capacity: 256,
        cache_shards: 4,
        job_cost_threshold: 0,
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let handle = server.spawn();
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// Deterministic split-mix style generator — the test must replay
/// identically, so no OS entropy.
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let x = *state;
    (x ^ (x >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11
}

/// One randomized payload: `(endpoint, body)` drawn from the three
/// job-eligible endpoints with parameters kept debug-build friendly.
fn random_payload(state: &mut u64) -> (&'static str, String) {
    match next_rand(state) % 3 {
        0 => {
            let ids = ["e1", "e2", "e3", "e5", "e7", "e11"];
            let id = ids[(next_rand(state) % ids.len() as u64) as usize];
            let max_k = 2 + next_rand(state) % 5;
            ("campaign", format!(r#"{{"id":"{id}","max_k":{max_k}}}"#))
        }
        1 => {
            // montecarlo needs a searchable, non-trivial instance:
            // f < k < m(f+1)
            let m = 2 + next_rand(state) % 2;
            let f = 1 + next_rand(state) % 2;
            let k = f + 1 + next_rand(state) % (m * (f + 1) - f - 1);
            let samples = 200 + next_rand(state) % 800;
            let seed = next_rand(state) % 1000;
            (
                "montecarlo",
                format!(
                    r#"{{"m":{m},"k":{k},"f":{f},"horizon":1000,"samples":{samples},"seed":{seed}}}"#
                ),
            )
        }
        _ => {
            let m = 2 + next_rand(state) % 2;
            let k = m + 1 + next_rand(state) % 40;
            let f = next_rand(state) % 2;
            (
                "evaluate",
                format!(r#"{{"m":{m},"k":{k},"f":{f},"horizon":5000}}"#),
            )
        }
    }
}

/// Wraps an endpoint payload as a `POST /jobs` envelope: the same JSON
/// object with the `endpoint` tag (and a client label) spliced in.
fn envelope(endpoint: &str, body: &str, client: &str) -> String {
    format!(
        r#"{{"endpoint":"{endpoint}","client":"{client}",{}"#,
        body.trim_start_matches('{')
    )
}

/// Long-polls `GET /jobs/{id}?wait_micros=` until the record is
/// terminal; panics if it is anything but `done`.
fn poll_done(addr: &str, id: &str) -> Value {
    let target = format!("/jobs/{id}?wait_micros=1000000");
    for _ in 0..120 {
        let (status, record) = fetch_json(addr, "GET", &target, None).expect("poll job");
        assert_eq!(
            status,
            200,
            "poll should be 200: {}",
            record.to_json_string()
        );
        match record.get("state").and_then(Value::as_str) {
            Some("done") => return record,
            Some("queued" | "running") => {}
            other => panic!("job reached {other:?}: {}", record.to_json_string()),
        }
    }
    panic!("job {id} did not finish");
}

/// Submits `(endpoint, body)` as a job, polls it to `done`, and asserts
/// its payload is byte-identical to the synchronous endpoint's. When
/// `sync_first` the synchronous request computes (cold) and the job
/// hits the shared cache; otherwise the job computes and the
/// synchronous twin hits — identity must hold in both directions.
fn assert_job_matches_sync(addr: &str, endpoint: &str, body: &str, client: &str, sync_first: bool) {
    let sync_path = format!("/{endpoint}");
    let fetch_sync = || {
        let (status, doc) = fetch_json(addr, "POST", &sync_path, Some(body)).expect("sync request");
        assert_eq!(
            status,
            200,
            "sync {endpoint} {body}: {}",
            doc.to_json_string()
        );
        doc
    };
    let sync_before = sync_first.then(&fetch_sync);

    let (status, doc) = fetch_json(
        addr,
        "POST",
        "/jobs",
        Some(&envelope(endpoint, body, client)),
    )
    .expect("submit");
    assert_eq!(
        status,
        202,
        "submit {endpoint} {body}: {}",
        doc.to_json_string()
    );
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("queued"));
    let id = doc
        .get("id")
        .and_then(Value::as_str)
        .expect("submit returns an id")
        .to_owned();
    let record = poll_done(addr, &id);
    let sync = sync_before.unwrap_or_else(fetch_sync);

    let job_payload = record
        .get("result")
        .unwrap_or_else(|| panic!("done job without result: {}", record.to_json_string()))
        .to_json_string();
    let sync_payload = sync
        .get("result")
        .expect("sync response has a result")
        .to_json_string();
    assert_eq!(
        job_payload, sync_payload,
        "job and sync payloads diverge for {endpoint} {body}"
    );
    assert!(
        record.get("cached").and_then(Value::as_bool).is_some(),
        "done job reports whether its compute was a cache hit"
    );
    assert!(
        record
            .get("queue_wait_micros")
            .and_then(Value::as_u64)
            .is_some(),
        "done job reports its queue wait"
    );
}

#[test]
fn randomized_job_mix_matches_sync_at_concurrency_1() {
    let (handle, addr) = spawn_jobs_server(4, 2);
    let mut state = 0x00c0ffee_u64;
    for round in 0..24 {
        let (endpoint, body) = random_payload(&mut state);
        // alternate which path computes cold, so identity is checked in
        // both directions through the shared memo cache
        assert_job_matches_sync(&addr, endpoint, &body, "mix-1", round % 2 == 0);
    }
    handle.shutdown();
}

#[test]
fn randomized_job_mix_matches_sync_at_concurrency_8() {
    let (handle, addr) = spawn_jobs_server(12, 4);
    std::thread::scope(|scope| {
        for lane in 0..8u64 {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut state = 0xfeed_0000 + lane;
                let client = format!("lane-{lane}");
                for round in 0..6 {
                    let (endpoint, body) = random_payload(&mut state);
                    assert_job_matches_sync(&addr, endpoint, &body, &client, round % 2 == 0);
                }
            });
        }
    });
    handle.shutdown();
}

/// The raw `result` payload of a done job record: the bytes between
/// `"result":` and the `started_micros` key that follows it in the
/// record's sorted key order.
fn raw_job_result(record: &str) -> &str {
    let start = record
        .find("\"result\":")
        .expect("done record has a result")
        + 9;
    let end = record
        .rfind(",\"started_micros\":")
        .expect("done record has started_micros");
    &record[start..end]
}

#[test]
fn job_target_parameters_in_the_query_run_like_the_synchronous_twin() {
    // a job reads its target's parameters from the body or the query,
    // exactly as its synchronous twin does, so splitting them between
    // the two must neither reject the job nor change what it computes
    let (handle, addr) = spawn_jobs_server(4, 2);
    // one connection per request, so none idles while the job runs
    let send = |method: &str, target: &str, body: Option<&str>| {
        HttpClient::connect(&addr)
            .and_then(|mut client| client.request(method, target, body))
            .unwrap_or_else(|e| panic!("{method} {target}: {e}"))
    };
    for (endpoint, query, body) in [
        ("evaluate", "k=600&f=599", r#"{"m":2,"horizon":1e12}"#),
        ("montecarlo", "k=4&f=1", r#"{"m":3,"samples":500,"seed":7}"#),
        // every parameter in the query, and an empty body
        ("evaluate", "k=300&f=299&m=2&horizon=1e9", ""),
    ] {
        let (status, submitted) = send(
            "POST",
            &format!("/jobs?endpoint={endpoint}&{query}"),
            Some(body),
        );
        assert_eq!(
            status, 202,
            "{endpoint} job with {query} in the query: {submitted}"
        );
        let submitted: Value = serde_json::from_str(&submitted).expect("JSON submit reply");
        let id = submitted
            .get("id")
            .and_then(Value::as_str)
            .expect("submit returns an id")
            .to_owned();
        poll_done(&addr, &id);
        let (status, record) = send("GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "{record}");

        let (status, sync) = send("POST", &format!("/{endpoint}?{query}"), Some(body));
        assert_eq!(status, 200, "sync {endpoint}?{query}: {sync}");
        let sync_payload = sync
            .strip_prefix("{\"cached\":true,\"result\":")
            .and_then(|rest| rest.strip_suffix('}'))
            .unwrap_or_else(|| panic!("the twin answers from the job's memo entry: {sync}"));
        assert_eq!(
            raw_job_result(&record),
            sync_payload,
            "job and sync payloads diverge for {endpoint}?{query}"
        );
    }
    handle.shutdown();
}

#[test]
fn queued_job_cancels_and_terminal_job_does_not() {
    // a single compute worker pinned busy by a slow montecarlo keeps
    // the follow-up job deterministically queued
    let (handle, addr) = spawn_jobs_server(4, 1);
    let slow = r#"{"m":3,"k":7,"f":2,"horizon":20000,"samples":200000,"seed":1}"#;
    let (status, _) = fetch_json(
        &addr,
        "POST",
        "/jobs",
        Some(&envelope("montecarlo", slow, "c")),
    )
    .unwrap();
    assert_eq!(status, 202);
    let quick = r#"{"id":"e2","max_k":3}"#;
    let (status, doc) = fetch_json(
        &addr,
        "POST",
        "/jobs",
        Some(&envelope("campaign", quick, "c")),
    )
    .unwrap();
    assert_eq!(status, 202);
    let id = doc.get("id").and_then(Value::as_str).unwrap().to_owned();

    let (status, doc) = fetch_json(&addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(status, 200, "queued job cancels: {}", doc.to_json_string());
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("cancelled"));
    let (status, record) = fetch_json(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        record.get("state").and_then(Value::as_str),
        Some("cancelled")
    );
    assert!(
        record.get("result").is_none(),
        "a cancelled job has no result"
    );

    // cancelling again is a 409: the job is already terminal
    let (status, doc) = fetch_json(&addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(status, 409, "{}", doc.to_json_string());
    handle.shutdown();
}

#[test]
fn admission_sheds_with_retry_after() {
    // one busy worker + per-client limit 16 against a queue of depth 64:
    // drown the queue with slow montecarlo jobs from distinct clients
    // until admission sheds, then assert the 503 carries Retry-After
    let (handle, addr) = spawn_jobs_server(4, 1);
    let mut client = HttpClient::connect(&addr).expect("connect");
    let mut shed = None;
    for i in 0..200 {
        let body = format!(r#"{{"m":3,"k":7,"f":2,"horizon":20000,"samples":200000,"seed":{i}}}"#);
        let env = envelope("montecarlo", &body, &format!("flood-{i}"));
        let (status, headers, body) = client
            .request_with_headers("POST", "/jobs", Some(&env), &[])
            .expect("flood submit");
        if status == 503 {
            shed = Some((headers, body));
            break;
        }
        assert_eq!(status, 202);
    }
    let (headers, body) = shed.expect("job queue should eventually shed");
    assert!(body.contains("full"), "shed names the full queue: {body}");
    assert_eq!(
        headers
            .iter()
            .find(|(n, _)| n == "retry-after")
            .map(|(_, v)| v.as_str()),
        Some("1"),
        "job-queue shed carries the back-off hint"
    );
    handle.shutdown();
}

#[test]
fn cost_threshold_redirects_cheap_evaluates() {
    // default threshold (not 0): a cheap evaluate is told to use the
    // synchronous endpoint instead of the queue
    let cfg = ServerConfig {
        workers: 3,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr().to_string();
    let cheap = r#"{"m":2,"k":3,"f":1,"horizon":2000}"#;
    let (status, doc) = fetch_json(
        &addr,
        "POST",
        "/jobs",
        Some(&envelope("evaluate", cheap, "c")),
    )
    .unwrap();
    assert_eq!(status, 400, "{}", doc.to_json_string());
    assert!(doc
        .get("error")
        .and_then(Value::as_str)
        .is_some_and(|e| e.contains("cost threshold") && e.contains("/evaluate")));
    // campaigns are always heavy enough
    let (status, _) = fetch_json(
        &addr,
        "POST",
        "/jobs",
        Some(&envelope("campaign", r#"{"id":"e2","max_k":3}"#, "c")),
    )
    .unwrap();
    assert_eq!(status, 202);
    handle.shutdown();
}

#[test]
fn long_poll_returns_early_on_completion() {
    let (handle, addr) = spawn_jobs_server(4, 2);
    let body = r#"{"id":"e2","max_k":4}"#;
    let (status, doc) = fetch_json(
        &addr,
        "POST",
        "/jobs",
        Some(&envelope("campaign", body, "c")),
    )
    .unwrap();
    assert_eq!(status, 202);
    let id = doc.get("id").and_then(Value::as_str).unwrap().to_owned();
    // a 5s-capped long poll must come back as soon as the quick
    // campaign lands, not after the full wait
    let started = std::time::Instant::now();
    let (status, record) = fetch_json(
        &addr,
        "GET",
        &format!("/jobs/{id}?wait_micros=5000000"),
        None,
    )
    .unwrap();
    assert_eq!(status, 200);
    assert_eq!(record.get("state").and_then(Value::as_str), Some("done"));
    assert!(
        started.elapsed() < std::time::Duration::from_secs(4),
        "long poll should return on completion, not at the deadline"
    );
    handle.shutdown();
}

#[test]
fn reads_stay_fast_while_a_deep_job_runs_and_done_jobs_are_final() {
    use raysearch_service::telemetry::stat;

    let (handle, addr) = spawn_jobs_server(4, 2);
    // warm the read that is timed while the job is in flight
    let (status, _) = fetch_json(&addr, "GET", "/closed_form?k=3&f=1", None).unwrap();
    assert_eq!(status, 200);

    // the deepest registry campaign, on the compute pool
    let (status, doc) = fetch_json(
        &addr,
        "POST",
        "/jobs",
        Some(&envelope("campaign", r#"{"id":"e11","max_k":12}"#, "deep")),
    )
    .unwrap();
    assert_eq!(status, 202, "{}", doc.to_json_string());
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("queued"));
    let id = doc.get("id").and_then(Value::as_str).unwrap().to_owned();

    // the job may not hold an HTTP worker: health and a cached read
    // answer at once
    let started = std::time::Instant::now();
    let (status, _) = fetch_json(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let (status, doc) = fetch_json(&addr, "GET", "/closed_form?k=3&f=1", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(true));
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "healthz + cached read took {elapsed:?} beside a running job"
    );

    poll_done(&addr, &id);
    let (_, stats) = fetch_json(&addr, "GET", "/stats", None).unwrap();
    assert_eq!(stat(&stats, "jobs.submitted"), Some(1));
    assert_eq!(stat(&stats, "jobs.completed"), Some(1));
    // a done job is terminal: cancelling it is a 409, not a success
    let (status, doc) = fetch_json(&addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(status, 409, "{}", doc.to_json_string());
    assert!(doc.get("error").is_some());
    handle.shutdown();
}

#[test]
fn unknown_ids_and_ineligible_endpoints_are_well_formed_errors() {
    let (handle, addr) = spawn_jobs_server(2, 1);
    for id in ["00ffffffffffffff", "not-a-job-id"] {
        let (status, doc) = fetch_json(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(status, 404, "{id}: {}", doc.to_json_string());
        assert!(doc.get("error").is_some(), "{id}");
    }
    let (status, doc) = fetch_json(
        &addr,
        "POST",
        "/jobs",
        Some(r#"{"endpoint":"closed_form","k":3,"f":1}"#),
    )
    .unwrap();
    assert_eq!(status, 400, "{}", doc.to_json_string());
    assert!(doc
        .get("error")
        .and_then(Value::as_str)
        .is_some_and(|e| e.contains("not job-eligible")));
    handle.shutdown();
}
