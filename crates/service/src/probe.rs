//! The `--probe` self-client: a scripted smoke test of every endpoint,
//! so CI can exercise a running `raysearchd` without curl or python.
//!
//! Each check issues a real request over TCP and validates the JSON
//! shape *and* the mathematics (closed forms pinned to the paper's
//! values), plus cache behaviour: repeated `/evaluate` and
//! `/montecarlo` requests must come back `cached: true` with the hit
//! visible in `/stats`, and invalid `/montecarlo` requests must fail
//! without touching any cache counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use raysearch_core::SpanData;
use serde_json::{Map, Value};

use crate::api::routing_key;
use crate::client::{fetch_json, HttpClient};
use crate::http::{Request, Response};
use crate::route::{rendezvous_rank, BackendSpec, RouterState};
use crate::server::{Handler, Server, ServerConfig};
use crate::telemetry::{stat, TRACE_HEADER};

/// One passed probe check, for reporting.
pub type CheckLine = String;

fn expect(condition: bool, what: &str, got: &Value) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(format!("{what}; response: {}", got.to_json_string()))
    }
}

/// The `result` field of a wrapped endpoint response.
fn result_of(doc: &Value) -> Result<&Value, String> {
    doc.get("result")
        .ok_or_else(|| format!("response without \"result\": {}", doc.to_json_string()))
}

/// Probes every endpoint of the server at `addr`.
///
/// Returns one line per passed check.
///
/// # Errors
///
/// Returns a description of the first failed check.
pub fn run_probe(addr: &str) -> Result<Vec<CheckLine>, String> {
    let mut lines = Vec::new();
    let mut pass = |line: String| lines.push(line);

    // 1. healthz identifies the service
    let (status, doc) = fetch_json(addr, "GET", "/healthz", None)?;
    expect(status == 200, "healthz should be 200", &doc)?;
    expect(
        doc.get("status").and_then(Value::as_str) == Some("ok"),
        "healthz status should be \"ok\"",
        &doc,
    )?;
    pass(format!("healthz: ok ({addr})"));

    // 2. closed_form pins A(3,1) = Λ(4/3) from Theorem 1
    let expected_a31 = raysearch_bounds::a_line(3, 1).expect("(3,1) is searchable");
    let (status, doc) = fetch_json(addr, "GET", "/closed_form?k=3&f=1", None)?;
    expect(status == 200, "closed_form should be 200", &doc)?;
    let a = result_of(&doc)?.get("a").and_then(Value::as_f64);
    expect(
        a.is_some_and(|a| (a - expected_a31).abs() < 1e-12),
        &format!("closed_form a should be {expected_a31}"),
        &doc,
    )?;
    pass(format!("closed_form: A(3,1) = {expected_a31:.6}"));

    // 3. closed_form over a raw eta computes Λ(η)
    let (status, doc) = fetch_json(addr, "GET", "/closed_form?eta=1.5", None)?;
    expect(
        status == 200
            && result_of(&doc)?
                .get("lambda")
                .and_then(Value::as_f64)
                .is_some(),
        "closed_form eta=1.5 should yield a lambda",
        &doc,
    )?;
    pass("closed_form: Λ(1.5) computed".to_owned());

    // 4. evaluate measures the optimal strategy at the closed form
    let body = r#"{"m":2,"k":3,"f":1,"horizon":2000}"#;
    let (status, doc) = fetch_json(addr, "POST", "/evaluate", Some(body))?;
    expect(status == 200, "evaluate should be 200", &doc)?;
    let ratio = result_of(&doc)?
        .get("report")
        .and_then(|r| r.get("ratio"))
        .and_then(Value::as_f64);
    expect(
        ratio.is_some_and(|r| (r - expected_a31).abs() < 1e-2),
        &format!("measured ratio should approach {expected_a31}"),
        &doc,
    )?;
    pass(format!(
        "evaluate: measured ratio {:.6} ≈ A(3,1)",
        ratio.unwrap_or(f64::NAN)
    ));

    // 5. the identical evaluate must be served from cache
    let (status, doc) = fetch_json(addr, "POST", "/evaluate", Some(body))?;
    expect(
        status == 200 && doc.get("cached").and_then(Value::as_bool) == Some(true),
        "repeated evaluate should be cached",
        &doc,
    )?;
    pass("evaluate: repeat request served from cache".to_owned());

    // 6. verdict verifies tightness end to end (the cow-path instance)
    let body = r#"{"m":2,"k":1,"f":0,"horizon":1000,"eps":0.01}"#;
    let (status, doc) = fetch_json(addr, "POST", "/verdict", Some(body))?;
    expect(status == 200, "verdict should be 200", &doc)?;
    let result = result_of(&doc)?;
    let theory = result.get("theory").and_then(Value::as_f64);
    expect(
        theory.is_some_and(|t| (t - 9.0).abs() < 1e-12)
            && result.get("falsified_below").and_then(Value::as_bool) == Some(true),
        "verdict should be tight at theory 9",
        &doc,
    )?;
    pass("verdict: cow path tight at 9, falsified below".to_owned());

    // 7. campaign returns schema-v1 rows
    let (status, doc) = fetch_json(addr, "POST", "/campaign", Some(r#"{"id":"e2","max_k":3}"#))?;
    expect(status == 200, "campaign should be 200", &doc)?;
    let rows = result_of(&doc)?
        .get("campaigns")
        .and_then(Value::as_array)
        .and_then(|cs| cs.first())
        .and_then(|c| c.get("rows"))
        .and_then(Value::as_array)
        .map(<[Value]>::len)
        .unwrap_or(0);
    expect(rows > 0, "campaign e2 should produce rows", &doc)?;
    pass(format!("campaign: e2 produced {rows} rows"));

    // 8. stats reflects the traffic and the cache hit
    let (status, doc) = fetch_json(addr, "GET", "/stats", None)?;
    expect(status == 200, "stats should be 200", &doc)?;
    let hits = stat(&doc, "cache.hits").unwrap_or(0);
    let requests = stat(&doc, "requests_total").unwrap_or(0);
    expect(hits >= 1, "stats should show at least one cache hit", &doc)?;
    expect(requests >= 7, "stats should count this session", &doc)?;
    pass(format!("stats: {requests} requests, {hits} cache hits"));

    // 9. error handling: unknown path and wrong method
    let (status, doc) = fetch_json(addr, "GET", "/no_such_endpoint", None)?;
    expect(
        status == 404 && doc.get("error").is_some(),
        "unknown path should be a JSON 404",
        &doc,
    )?;
    let (status, doc) = fetch_json(addr, "DELETE", "/evaluate", None)?;
    expect(status == 405, "DELETE /evaluate should be 405", &doc)?;
    pass("errors: 404 and 405 are well-formed JSON".to_owned());

    // 10. montecarlo: the average case stays below the exact worst case
    let mc_body = r#"{"m":2,"k":3,"f":1,"horizon":1000,"samples":2000,"seed":7}"#;
    let (status, doc) = fetch_json(addr, "POST", "/montecarlo", Some(mc_body))?;
    expect(status == 200, "montecarlo should be 200", &doc)?;
    let report = result_of(&doc)?
        .get("report")
        .ok_or_else(|| format!("montecarlo without report: {}", doc.to_json_string()))?;
    let mean = report.get("mean").and_then(Value::as_f64);
    let closed_form = report.get("closed_form").and_then(Value::as_f64);
    expect(
        matches!((mean, closed_form), (Some(mean), Some(cf)) if 1.0 <= mean && mean < cf),
        "montecarlo mean should lie in [1, closed_form)",
        &doc,
    )?;
    expect(
        result_of(&doc)?
            .get("comparison")
            .and_then(|c| c.get("within_worst_case"))
            .and_then(Value::as_bool)
            == Some(true),
        "uniform-subset faults should stay within the worst case",
        &doc,
    )?;
    pass(format!(
        "montecarlo: mean {:.6} < Λ {:.6} over 2000 samples",
        mean.unwrap_or(f64::NAN),
        closed_form.unwrap_or(f64::NAN)
    ));

    // 11. the identical montecarlo is a cache hit, visible in /stats
    let (_, stats_before) = fetch_json(addr, "GET", "/stats", None)?;
    let hits_before = stat(&stats_before, "cache.hits").unwrap_or(0);
    let (status, doc) = fetch_json(addr, "POST", "/montecarlo", Some(mc_body))?;
    expect(
        status == 200 && doc.get("cached").and_then(Value::as_bool) == Some(true),
        "repeated montecarlo should be cached",
        &doc,
    )?;
    let (_, stats_after) = fetch_json(addr, "GET", "/stats", None)?;
    expect(
        stat(&stats_after, "cache.hits").unwrap_or(0) > hits_before,
        "stats should record the montecarlo cache hit",
        &stats_after,
    )?;
    pass("montecarlo: repeat request served from cache (hit visible in /stats)".to_owned());

    // 12. montecarlo errors are rejected before the cache: two identical
    // bad requests both fail and move no cache counter
    let (_, stats_before) = fetch_json(addr, "GET", "/stats", None)?;
    let bad_body = r#"{"m":2,"k":3,"f":1,"faults":"bogus"}"#;
    for round in ["first", "second"] {
        let (status, doc) = fetch_json(addr, "POST", "/montecarlo", Some(bad_body))?;
        expect(
            status == 400 && doc.get("error").is_some() && doc.get("cached").is_none(),
            &format!("{round} bad montecarlo should be an uncached JSON 400"),
            &doc,
        )?;
    }
    let (_, stats_after) = fetch_json(addr, "GET", "/stats", None)?;
    expect(
        ["cache.hits", "cache.misses"].iter().all(|path| {
            stat(&stats_after, path).unwrap_or(0) == stat(&stats_before, path).unwrap_or(0)
        }),
        "bad montecarlo requests must not touch the cache",
        &stats_after,
    )?;
    pass("montecarlo: invalid fault model rejected, cache counters untouched".to_owned());

    // 13. iid crash p = 1.0 (every robot silent): a *valid* scenario
    // whose deterministic all-undetected outcome must surface as an
    // uncached 4xx — each identical retry recomputes (miss counters
    // move, hit and entry counters do not), proving errors never enter
    // the cache
    let (_, stats_before) = fetch_json(addr, "GET", "/stats", None)?;
    let p1_body = r#"{"m":2,"k":3,"f":1,"faults":"iid","p":1.0,"samples":100,"seed":5}"#;
    for round in ["first", "second"] {
        let (status, doc) = fetch_json(addr, "POST", "/montecarlo", Some(p1_body))?;
        expect(
            status == 400
                && doc.get("cached").is_none()
                && doc
                    .get("error")
                    .and_then(Value::as_str)
                    .is_some_and(|e| e.contains("undetected")),
            &format!("{round} p=1.0 montecarlo should be an uncached all-undetected 400"),
            &doc,
        )?;
    }
    let (_, stats_after) = fetch_json(addr, "GET", "/stats", None)?;
    expect(
        ["cache.hits", "cache.entries"].iter().all(|path| {
            stat(&stats_after, path).unwrap_or(0) == stat(&stats_before, path).unwrap_or(0)
        }) && stat(&stats_after, "cache.misses").unwrap_or(0)
            == stat(&stats_before, "cache.misses").unwrap_or(0) + 2,
        "p=1.0 runs must recompute every time and cache nothing",
        &stats_after,
    )?;
    pass("montecarlo: iid p=1.0 is a stable uncached 400 (miss counters advance)".to_owned());

    // 14. large fleets past the old k ≈ 139 overflow wall evaluate to
    // finite ratios at the closed form, and the trivial regime serves
    // ratio 1 under the raised k ceiling
    let body = r#"{"m":2,"k":256,"f":128,"horizon":1e6}"#;
    let (status, doc) = fetch_json(addr, "POST", "/evaluate", Some(body))?;
    expect(status == 200, "large-fleet evaluate should be 200", &doc)?;
    let theory = raysearch_bounds::a_rays(2, 256, 128).expect("(2,256,128) is searchable");
    let ratio = result_of(&doc)?
        .get("report")
        .and_then(|r| r.get("ratio"))
        .and_then(Value::as_f64);
    expect(
        ratio.is_some_and(|r| r.is_finite() && ((r - theory) / theory).abs() < 1e-6),
        &format!("k=256 ratio should be finite at the closed form {theory}"),
        &doc,
    )?;
    let trivial = r#"{"m":2,"k":512,"f":1,"horizon":1e6}"#;
    let (status, doc) = fetch_json(addr, "POST", "/evaluate", Some(trivial))?;
    let one = result_of(&doc)?
        .get("report")
        .and_then(|r| r.get("ratio"))
        .and_then(Value::as_f64);
    expect(
        status == 200 && one.is_some_and(|r| (r - 1.0).abs() < 1e-12),
        "trivial-regime evaluate should serve ratio 1",
        &doc,
    )?;
    pass(format!(
        "evaluate: k=256 fleet finite at Λ = {theory:.6}; trivial k=512 serves ratio 1"
    ));

    // 15. the compile tier deduplicates by geometry, not by fault
    // budget: two /evaluate calls at the same (m, k, horizon) with
    // *different* f are distinct result-cache entries, but the second
    // must hit the compiled-fleet memo (the trivial-regime zone fleet
    // is f-free), visible as a compile_hits advance in /stats
    let (_, stats_before) = fetch_json(addr, "GET", "/stats", None)?;
    let compile_hits_before = stat(&stats_before, "compile_hits").unwrap_or(0);
    let (status, doc) = fetch_json(
        addr,
        "POST",
        "/evaluate",
        Some(r#"{"m":2,"k":768,"f":1,"horizon":1e6}"#),
    )?;
    expect(status == 200, "k=768 f=1 evaluate should be 200", &doc)?;
    let (status, doc) = fetch_json(
        addr,
        "POST",
        "/evaluate",
        Some(r#"{"m":2,"k":768,"f":3,"horizon":1e6}"#),
    )?;
    expect(
        status == 200 && doc.get("cached").and_then(Value::as_bool) == Some(false),
        "k=768 f=3 evaluate should compute fresh (distinct result key)",
        &doc,
    )?;
    let (_, stats_after) = fetch_json(addr, "GET", "/stats", None)?;
    expect(
        stat(&stats_after, "compile_hits").unwrap_or(0) > compile_hits_before,
        "same-geometry evaluate with different f should hit the compile cache",
        &stats_after,
    )?;
    expect(
        stat(&stats_after, "compile_entries").unwrap_or(0) > 0,
        "stats should report resident compiled fleets",
        &stats_after,
    )?;
    pass(format!(
        "compile cache: k=768 f=1→f=3 reused one zone fleet ({} hits, {} entries)",
        stat(&stats_after, "compile_hits").unwrap_or(0),
        stat(&stats_after, "compile_entries").unwrap_or(0)
    ));

    // 16. async jobs: a deep campaign submitted via POST /jobs runs on
    // the compute pool, not an HTTP worker — /healthz and a warm cached
    // read answer in well under 500ms right after the submit — and the
    // long-polled record's payload is byte-identical to the synchronous
    // /campaign answer for the same parameters
    let job_envelope = r#"{"endpoint":"campaign","id":"e11","max_k":12,"client":"probe"}"#;
    let (status, doc) = fetch_json(addr, "POST", "/jobs", Some(job_envelope))?;
    expect(status == 202, "job submit should be 202", &doc)?;
    expect(
        doc.get("state").and_then(Value::as_str) == Some("queued"),
        "a fresh job should report state \"queued\"",
        &doc,
    )?;
    let job_id = doc
        .get("id")
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("job submit without an id: {}", doc.to_json_string()))?;
    let reads_started = std::time::Instant::now();
    let (status, doc) = fetch_json(addr, "GET", "/healthz", None)?;
    expect(status == 200, "healthz during a job should be 200", &doc)?;
    let (status, doc) = fetch_json(addr, "GET", "/closed_form?k=3&f=1", None)?;
    expect(
        status == 200 && doc.get("cached").and_then(Value::as_bool) == Some(true),
        "a warm closed_form during a job should be a cache hit",
        &doc,
    )?;
    let read_micros = reads_started.elapsed().as_micros();
    if read_micros >= 500_000 {
        return Err(format!(
            "healthz + cached read took {read_micros} us alongside a running job (budget 500000)"
        ));
    }
    let record = poll_job_done(addr, &job_id)?;
    let (status, sync) = fetch_json(
        addr,
        "POST",
        "/campaign",
        Some(r#"{"id":"e11","max_k":12}"#),
    )?;
    expect(
        status == 200,
        "synchronous campaign twin should be 200",
        &sync,
    )?;
    let job_payload = record
        .get("result")
        .ok_or_else(|| format!("done job without a result: {}", record.to_json_string()))?
        .to_json_string();
    let sync_payload = result_of(&sync)?.to_json_string();
    if job_payload != sync_payload {
        return Err(format!(
            "job payload diverges from the synchronous answer:\njob:  {job_payload}\nsync: {sync_payload}"
        ));
    }
    expect(
        record
            .get("queue_wait_micros")
            .and_then(Value::as_u64)
            .is_some(),
        "a finished job should report its queue wait",
        &record,
    )?;
    pass(format!(
        "jobs: e11 campaign via POST /jobs byte-identical to sync, reads stayed fast ({read_micros} us)"
    ));

    // 17. job lifecycle counters land in /stats, and terminal jobs are
    // no longer cancellable (409, not a silent success)
    let (status, stats) = fetch_json(addr, "GET", "/stats", None)?;
    let submitted = stat(&stats, "jobs.submitted").unwrap_or(0);
    let completed = stat(&stats, "jobs.completed").unwrap_or(0);
    expect(
        status == 200 && submitted >= 1 && completed >= 1,
        "stats should count the submitted and completed job",
        &stats,
    )?;
    let (status, doc) = fetch_json(addr, "DELETE", &format!("/jobs/{job_id}"), None)?;
    expect(
        status == 409 && doc.get("error").is_some(),
        "cancelling a done job should be a JSON 409",
        &doc,
    )?;
    pass(format!(
        "jobs: lifecycle counters in /stats ({submitted} submitted, {completed} completed), done job uncancellable"
    ));

    // 18. job admission errors are well-formed: unknown and malformed
    // ids are 404s, a non-eligible endpoint and a below-threshold
    // payload are 400s that name the problem
    let (status, doc) = fetch_json(addr, "GET", "/jobs/00ffffffffffffff", None)?;
    expect(status == 404, "an unknown job id should be 404", &doc)?;
    let (status, doc) = fetch_json(addr, "GET", "/jobs/not-a-job-id", None)?;
    expect(status == 404, "a malformed job id should be 404", &doc)?;
    let (status, doc) = fetch_json(
        addr,
        "POST",
        "/jobs",
        Some(r#"{"endpoint":"closed_form","k":3,"f":1}"#),
    )?;
    expect(
        status == 400
            && doc
                .get("error")
                .and_then(Value::as_str)
                .is_some_and(|e| e.contains("not job-eligible")),
        "closed_form should not be job-eligible",
        &doc,
    )?;
    let (status, doc) = fetch_json(
        addr,
        "POST",
        "/jobs",
        Some(r#"{"endpoint":"evaluate","m":2,"k":3,"f":1,"horizon":2000}"#),
    )?;
    expect(
        status == 400
            && doc
                .get("error")
                .and_then(Value::as_str)
                .is_some_and(|e| e.contains("cost threshold")),
        "a cheap evaluate should be rejected below the job cost threshold",
        &doc,
    )?;
    pass("jobs: 404s for unknown/malformed ids, 400s for ineligible/cheap payloads".to_owned());

    Ok(lines)
}

/// Long-polls `GET /jobs/{id}?wait_micros=` until the record is
/// terminal, erroring on any terminal state but `done` (and after ~60
/// polls, on a job that never finishes).
fn poll_job_done(addr: &str, job_id: &str) -> Result<Value, String> {
    let target = format!("/jobs/{job_id}?wait_micros=1000000");
    for _ in 0..60 {
        let (status, record) = fetch_json(addr, "GET", &target, None)?;
        if status != 200 {
            return Err(format!(
                "job poll failed with {status}: {}",
                record.to_json_string()
            ));
        }
        match record.get("state").and_then(Value::as_str) {
            Some("done") => return Ok(record),
            Some("queued" | "running") => {}
            other => {
                return Err(format!(
                    "job reached terminal state {other:?}: {}",
                    record.to_json_string()
                ))
            }
        }
    }
    Err(format!(
        "job {job_id} did not finish within the poll budget"
    ))
}

/// A backend that sheds everything: `200` on `/healthz`, a minimal
/// counter document on `/stats`, `503` for every routable request. The
/// self-hosted router probe uses it to test shed passthrough
/// *deterministically* — real overload (a full accept queue) cannot be
/// provoked reliably, but a backend that always answers `503` can.
#[derive(Debug, Default)]
struct ShedStub {
    requests: AtomicU64,
    shed: AtomicU64,
}

impl Handler for ShedStub {
    fn handle(&self, req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match req.path.as_str() {
            "/healthz" => {
                let mut doc = Map::new();
                doc.insert("status".to_owned(), Value::String("ok".to_owned()));
                doc.insert("service".to_owned(), Value::String("shed-stub".to_owned()));
                Response::ok(Value::Object(doc).to_json_string())
            }
            "/stats" => {
                let mut doc = Map::new();
                doc.insert(
                    "requests_total".to_owned(),
                    serde_json::to_value(self.requests.load(Ordering::Relaxed))
                        .expect("u64 serializes"),
                );
                doc.insert(
                    "shed_total".to_owned(),
                    serde_json::to_value(self.shed.load(Ordering::Relaxed))
                        .expect("u64 serializes"),
                );
                let mut cache = Map::new();
                for counter in ["hits", "misses", "entries"] {
                    cache.insert(
                        counter.to_owned(),
                        serde_json::to_value(0u64).expect("u64 serializes"),
                    );
                }
                doc.insert("cache".to_owned(), Value::Object(cache));
                Response::ok(Value::Object(doc).to_json_string())
            }
            _ => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                // the shared shed shape: 503 + Retry-After, exactly what
                // a saturated real backend emits (check 21 asserts the
                // header survives the trip through the router)
                Response::shed("shed-stub sheds every request")
            }
        }
    }
}

/// The per-backend entry for `id` in a router `/stats` document.
fn backend_entry<'a>(stats: &'a Value, id: &str) -> Result<&'a Value, String> {
    stats
        .get("backends")
        .and_then(Value::as_array)
        .and_then(|bs| {
            bs.iter()
                .find(|b| b.get("id").and_then(Value::as_str) == Some(id))
        })
        .ok_or_else(|| {
            format!(
                "router stats missing backend {id:?}: {}",
                stats.to_json_string()
            )
        })
}

fn routed_of(stats: &Value, id: &str) -> Result<u64, String> {
    Ok(stat(backend_entry(stats, id)?, "routed").unwrap_or(0))
}

/// Probes a self-hosted router: one real in-process backend plus one
/// always-shedding stub, fronted by a [`RouterState`] server. The checks
/// continue the single-backend probe's numbering (19–28): rendezvous
/// routing lands on the predicted shard (visible in per-backend
/// `/stats` deltas), the aggregated `/stats` arithmetic is internally
/// consistent, a backend's `503` (with its `Retry-After` hint) passes
/// through to the client, and `/jobs` traffic routes by the inner
/// payload's key on submit and by the id's embedded backend affinity
/// on poll/cancel.
///
/// # Errors
///
/// Returns a description of the first failed check.
pub fn run_router_probe() -> Result<Vec<CheckLine>, String> {
    // one real backend, one shedding stub, and the router over both
    let small = ServerConfig {
        workers: 4,
        cache_capacity: 256,
        cache_shards: 4,
        ..ServerConfig::default()
    };
    let backend_server = Server::bind(small.clone()).map_err(|e| format!("bind backend: {e}"))?;
    // check 25 asserts on an assembled cross-tier trace, which needs
    // the backend to have sampled the same request the router did
    backend_server.state().telemetry().set_trace_sample(1);
    let backend = backend_server.spawn();
    let stub = Server::bind_with(small.clone(), Arc::new(ShedStub::default()))
        .map_err(|e| format!("bind stub: {e}"))?
        .spawn();
    let state = Arc::new(RouterState::new(
        vec![
            BackendSpec::fixed("backend-0", &backend.addr().to_string()),
            BackendSpec::fixed("shed-stub", &stub.addr().to_string()),
        ],
        None,
    ));
    state.check_backends_now();
    let router = Server::bind_with(small, Arc::clone(&state))
        .map_err(|e| format!("bind router: {e}"))?
        .spawn();

    let outcome = router_checks(&router.addr().to_string(), &state);
    router.shutdown();
    stub.shutdown();
    backend.shutdown();
    outcome
}

fn router_checks(addr: &str, state: &RouterState) -> Result<Vec<CheckLine>, String> {
    let mut lines = Vec::new();
    let mut pass = |line: String| lines.push(line);
    let ids = state.backend_ids();

    // pick, by the same pure rendezvous function the router runs, one
    // target owned by each backend — the probe *predicts* placement
    let owned_target = |id: &str| -> Result<String, String> {
        (1u32..200)
            .map(|k| format!("/closed_form?k={k}&f=0"))
            .find(|target| {
                let rank = rendezvous_rank(&ids, &routing_key(&Request::new("GET", target, "")));
                ids[rank[0]] == id
            })
            .ok_or_else(|| format!("no probe target ranks {id:?} first"))
    };

    // 19. routing lands on the predicted shard, visible as a
    // per-backend routed delta, and the repeat is that shard's memo hit
    let target = owned_target("backend-0")?;
    let (_, before) = fetch_json(addr, "GET", "/stats", None)?;
    let (status, first) = fetch_json(addr, "GET", &target, None)?;
    expect(status == 200, "routed closed_form should be 200", &first)?;
    let (status, second) = fetch_json(addr, "GET", &target, None)?;
    expect(
        status == 200 && second.get("cached").and_then(Value::as_bool) == Some(true),
        "repeat through the router should hit the owning shard's cache",
        &second,
    )?;
    let (_, after) = fetch_json(addr, "GET", "/stats", None)?;
    let delta_owner = routed_of(&after, "backend-0")? - routed_of(&before, "backend-0")?;
    let delta_stub = routed_of(&after, "shed-stub")? - routed_of(&before, "shed-stub")?;
    expect(
        delta_owner == 2 && delta_stub == 0,
        "both requests should route to the predicted backend only",
        &after,
    )?;
    pass(format!(
        "check 19 - route: {target} routed to backend-0 twice (predicted), repeat cached"
    ));

    // 20. aggregated /stats arithmetic: router totals equal the sum of
    // the per-backend columns in one snapshot. /stats serves from the
    // health thread's cached snapshots (zero synchronous polling), so
    // run one explicit health pass first to fold check 19's traffic in.
    state.check_backends_now();
    let (status, stats) = fetch_json(addr, "GET", "/stats", None)?;
    expect(status == 200, "router stats should be 200", &stats)?;
    let backends = stats
        .get("backends")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("router stats without backends: {}", stats.to_json_string()))?;
    let total = |name: &str| stat(&stats, name).unwrap_or(0);
    let sum = |name: &str| -> u64 { backends.iter().filter_map(|b| stat(b, name)).sum() };
    expect(
        total("routed_total") == sum("routed"),
        "routed_total should equal the per-backend routed sum",
        &stats,
    )?;
    expect(
        total("cache_hits") == sum("hits")
            && total("cache_misses") == sum("misses")
            && total("backend_shed") == sum("shed")
            && total("backend_requests") == sum("requests"),
        "aggregated cache/shed/request sums should match the per-backend columns",
        &stats,
    )?;
    expect(
        backends
            .iter()
            .all(|b| b.get("reachable").and_then(Value::as_bool) == Some(true)),
        "both probe backends should be reachable",
        &stats,
    )?;
    expect(
        total("cache_hits") >= 1,
        "the check-16 repeat should be visible as an aggregated hit",
        &stats,
    )?;
    expect(
        stat(&stats, "stats_age_micros").is_some()
            && backends
                .iter()
                .all(|b| stat(b, "stats_age_micros").is_some()),
        "cached snapshots should carry their staleness age",
        &stats,
    )?;
    pass(format!(
        "check 20 - stats: totals consistent over {} backends ({} routed, {} hits, snapshot age {} us)",
        backends.len(),
        total("routed_total"),
        total("cache_hits"),
        total("stats_age_micros")
    ));

    // 21. a backend's 503 passes through: the router reports the shed
    // verbatim — including the Retry-After back-off hint among the
    // relayed headers — counts it, and does not fail over (overload is
    // an answer, not a transport error)
    let target = owned_target("shed-stub")?;
    let (_, before) = fetch_json(addr, "GET", "/stats", None)?;
    let failovers_before = state.failover_total();
    let mut shed_client =
        HttpClient::connect(addr).map_err(|e| format!("connect for shed check: {e}"))?;
    let (status, headers, body) = shed_client
        .request_with_headers("GET", &target, None, &[])
        .map_err(|e| format!("shed request: {e}"))?;
    let doc = serde_json::from_str(&body)
        .map_err(|e| format!("check 21: shed body is not JSON ({e}): {body}"))?;
    expect(
        status == 503 && doc.get("error").is_some(),
        "a stub-owned request should come back as the stub's JSON 503",
        &doc,
    )?;
    let retry_after = headers
        .iter()
        .find(|(n, _)| n == "retry-after")
        .map(|(_, v)| v.as_str());
    expect(
        retry_after == Some("1"),
        "the shed 503 should carry Retry-After: 1 through the router",
        &doc,
    )?;
    let (_, after) = fetch_json(addr, "GET", "/stats", None)?;
    expect(
        stat(&after, "shed_passthrough").unwrap_or(0)
            == stat(&before, "shed_passthrough").unwrap_or(0) + 1,
        "the passthrough should advance shed_passthrough by exactly one",
        &after,
    )?;
    expect(
        state.failover_total() == failovers_before,
        "a 503 answer must not trigger failover",
        &after,
    )?;
    pass(format!(
        "check 21 - shed: {target} passed the stub's 503 + Retry-After through, no failover"
    ));

    // 22. trace echo: a client-supplied x-raysearch-trace id comes back
    // verbatim; without one the router mints a 16-hex id
    let target = owned_target("backend-0")?;
    let mut client =
        HttpClient::connect(addr).map_err(|e| format!("connect for trace check: {e}"))?;
    let (status, headers, _) = client
        .request_with_headers("GET", &target, None, &[(TRACE_HEADER, "00000000deadbeef")])
        .map_err(|e| format!("traced request: {e}"))?;
    let echoed = headers
        .iter()
        .find(|(n, _)| n == TRACE_HEADER)
        .map(|(_, v)| v.as_str());
    if !(status == 200 && echoed == Some("00000000deadbeef")) {
        return Err(format!(
            "check 22: expected the trace id echoed verbatim, got status {status}, header {echoed:?}"
        ));
    }
    let (_, headers, _) = client
        .request_with_headers("GET", &target, None, &[])
        .map_err(|e| format!("untraced request: {e}"))?;
    let minted = headers
        .iter()
        .find(|(n, _)| n == TRACE_HEADER)
        .map(|(_, v)| v.clone())
        .ok_or("check 22: response without a minted trace header")?;
    if minted.len() != 16 || !minted.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!(
            "check 22: minted trace {minted:?} is not 16 hex digits"
        ));
    }
    pass(format!(
        "check 22 - trace: echo verbatim, minted {minted} without one"
    ));

    // 23. /metrics speaks Prometheus text exposition: counters, TYPE
    // lines, cumulative histogram buckets with an +Inf bound
    let (status, headers, metrics) = client
        .request_with_headers("GET", "/metrics", None, &[])
        .map_err(|e| format!("metrics request: {e}"))?;
    let content_type = headers
        .iter()
        .find(|(n, _)| n == "content-type")
        .map(|(_, v)| v.as_str())
        .unwrap_or("");
    let well_formed = status == 200
        && content_type.starts_with("text/plain")
        && metrics.contains("# TYPE raysearch_router_requests_total counter\n")
        && metrics.contains("# TYPE raysearch_router_span_latency_micros histogram\n")
        && metrics.contains("raysearch_router_span_latency_micros_bucket{endpoint=\"closed_form\",span=\"request\",le=\"+Inf\"}")
        && metrics.contains("raysearch_router_backend_cache_hits_total{backend=");
    if !well_formed {
        return Err(format!(
            "check 23: /metrics not valid exposition (status {status}, content-type {content_type:?}):\n{metrics}"
        ));
    }
    pass("check 23 - metrics: Prometheus exposition with counters and histograms".to_owned());

    // 24. slow-log capture: with the threshold at zero every request is
    // captured, trace id and span breakdown included
    state.telemetry().set_slow_threshold(0);
    let (status, _, _) = client
        .request_with_headers("GET", &target, None, &[(TRACE_HEADER, "00000000cafef00d")])
        .map_err(|e| format!("slow-logged request: {e}"))?;
    if status != 200 {
        return Err(format!("check 24: routed request failed with {status}"));
    }
    let (status, slow) = fetch_json(addr, "GET", "/debug/slow", None)?;
    let entries = slow
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| {
            format!(
                "check 24: /debug/slow without entries: {}",
                slow.to_json_string()
            )
        })?;
    let captured = entries.iter().any(|e| {
        e.get("trace").and_then(Value::as_str) == Some("00000000cafef00d")
            && e.get("spans")
                .is_some_and(|s| s.get("backend_wait").and_then(Value::as_u64).is_some())
    });
    if !(status == 200 && captured) {
        return Err(format!(
            "check 24: slow log should capture the traced request with its backend_wait span: {}",
            slow.to_json_string()
        ));
    }
    pass(format!(
        "check 24 - slow log: captured trace 00000000cafef00d with span breakdown ({} entries)",
        entries.len()
    ));

    // 25. assembled trace: GET /debug/trace/{id} on the router returns
    // one stitched tree — router spans at the top, the backend's tree
    // grafted under backend_wait — with the leaf-duration invariant
    state.telemetry().set_trace_sample(1);
    let (status, _, _) = client
        .request_with_headers("GET", &target, None, &[(TRACE_HEADER, "00000000feedface")])
        .map_err(|e| format!("traced request for assembly: {e}"))?;
    if status != 200 {
        return Err(format!("check 25: routed request failed with {status}"));
    }
    let (status, doc) = fetch_json(addr, "GET", "/debug/trace/00000000feedface", None)?;
    expect(status == 200, "assembled trace should be 200", &doc)?;
    expect(
        doc.get("service").and_then(Value::as_str) == Some("raysearch-router")
            && doc.get("trace").and_then(Value::as_str) == Some("00000000feedface"),
        "assembled trace should identify the router and the trace id",
        &doc,
    )?;
    let root_value = doc
        .get("root")
        .ok_or_else(|| "check 25: assembled trace without a root".to_owned())?;
    let root = SpanData::from_json(root_value).map_err(|e| format!("check 25: {e}"))?;
    let wait = root
        .children
        .iter()
        .find(|c| c.name == "backend_wait")
        .ok_or("check 25: assembled trace has no backend_wait span")?;
    let backend_tree = wait
        .children
        .iter()
        .find(|c| c.attrs.iter().any(|(k, _)| k == "service"))
        .ok_or("check 25: backend_wait has no stitched backend tree")?;
    if backend_tree.name != "request" || backend_tree.children.is_empty() {
        return Err(format!(
            "check 25: stitched backend tree looks wrong: {}",
            backend_tree.to_json()
        ));
    }
    if root.leaf_duration_sum() > root.duration_micros() {
        return Err(format!(
            "check 25: leaf durations ({}) exceed the root ({})",
            root.leaf_duration_sum(),
            root.duration_micros()
        ));
    }
    pass(format!(
        "check 25 - trace assembly: stitched tree with {} backend spans, leaves {} us <= root {} us",
        backend_tree.children.len(),
        root.leaf_duration_sum(),
        root.duration_micros()
    ));

    // 26. the trace index lists stored ids, and an unknown id is a
    // well-formed 404
    let (status, index) = fetch_json(addr, "GET", "/debug/trace", None)?;
    let listed = index
        .get("traces")
        .and_then(Value::as_array)
        .is_some_and(|ids| ids.iter().any(|v| v.as_str() == Some("00000000feedface")));
    expect(
        status == 200 && listed,
        "trace index should list the assembled trace",
        &index,
    )?;
    let (status, doc) = fetch_json(addr, "GET", "/debug/trace/fffffffffffffffe", None)?;
    expect(
        status == 404 && doc.get("error").is_some(),
        "an unknown trace id should be a JSON 404",
        &doc,
    )?;
    pass("check 26 - trace index: stored ids listed, unknown id is a JSON 404".to_owned());

    // 27. job submit routes by the *inner* payload's canonical key —
    // the probe ranks the envelope itself by the router's own key,
    // finds a campaign the real backend owns, submits it as a job, and
    // the minted id routes the poll back to that backend (node 0) for
    // a payload byte-identical to the routed synchronous answer
    let (campaign_body, envelope) = (1u32..=12)
        .map(|max_k| {
            (
                format!(r#"{{"id":"e3","max_k":{max_k}}}"#),
                format!(r#"{{"endpoint":"campaign","id":"e3","max_k":{max_k}}}"#),
            )
        })
        .find(|(_, envelope)| {
            let rank = rendezvous_rank(
                &ids,
                &routing_key(&Request::new("POST", "/jobs", envelope.as_str())),
            );
            ids[rank[0]] == "backend-0"
        })
        .ok_or("check 27: no e3 campaign depth ranks backend-0 first")?;
    let (status, doc) = fetch_json(addr, "POST", "/jobs", Some(&envelope))?;
    expect(status == 202, "routed job submit should be 202", &doc)?;
    let job_id = doc
        .get("id")
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("check 27: submit without an id: {}", doc.to_json_string()))?;
    expect(
        job_id.starts_with("00"),
        "a job minted by backend 0 should carry node 0 in its id",
        &doc,
    )?;
    let record = poll_job_done(addr, &job_id)?;
    let (status, sync) = fetch_json(addr, "POST", "/campaign", Some(&campaign_body))?;
    expect(
        status == 200,
        "the routed synchronous campaign twin should be 200",
        &sync,
    )?;
    let job_payload = record
        .get("result")
        .ok_or_else(|| {
            format!(
                "check 27: done job without a result: {}",
                record.to_json_string()
            )
        })?
        .to_json_string();
    let sync_payload = result_of(&sync)?.to_json_string();
    if job_payload != sync_payload {
        return Err(format!(
            "check 27: routed job payload diverges from the routed synchronous answer:\njob:  {job_payload}\nsync: {sync_payload}"
        ));
    }
    pass(format!(
        "check 27 - jobs: {campaign_body} via POST /jobs routed to backend-0, payload byte-identical"
    ));

    // 28. id affinity is strict: an id naming a node beyond the fleet is
    // a router-side 404 (no backend is even contacted), and the fleet
    // /stats aggregates the backend's job counters
    let (status, doc) = fetch_json(addr, "GET", "/jobs/ff00000000000001", None)?;
    expect(
        status == 404
            && doc
                .get("error")
                .and_then(Value::as_str)
                .is_some_and(|e| e.contains("backend")),
        "an id naming backend 255 should be a router-side 404",
        &doc,
    )?;
    state.check_backends_now();
    let (status, stats) = fetch_json(addr, "GET", "/stats", None)?;
    expect(
        status == 200
            && stat(&stats, "jobs_submitted").unwrap_or(0) >= 1
            && stat(&stats, "jobs_completed").unwrap_or(0) >= 1,
        "router stats should aggregate the backend's job counters",
        &stats,
    )?;
    pass("check 28 - jobs: out-of-fleet id is a router 404, job counters aggregated".to_owned());

    Ok(lines)
}
