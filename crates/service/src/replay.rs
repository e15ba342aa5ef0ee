//! Deterministic tape replay: re-issue a recorded request stream at
//! configurable concurrency and verify every response byte-identical
//! to the tape's recorded digests.
//!
//! Replay is a *verification* pass, not just a load generator. Each
//! worker takes a deterministic round-robin share of the tape in tick
//! order (worker `w` of `c` gets entries `w, w+c, w+2c, …`), so the
//! multiset of requests issued — and, because backends coalesce
//! concurrent identical computations (a waiter counts a hit), the
//! aggregate hit/miss/shed counters — is a pure function of the tape
//! and the fleet's cache temperature, independent of concurrency and
//! scheduling. That is what lets CI assert `replay(tape, c=1)` and
//! `replay(tape, c=8)` produce *identical* counter fingerprints.
//!
//! Per response, the harness distinguishes: digest match (the
//! byte-identity criterion, modulo the `cached` flag), digest
//! mismatch (a hard failure), `503` shed (counted, not compared — an
//! overloaded fleet refuses, it does not lie), and transport errors.
//! A response that announces `Connection: close` (an acceptor's shed,
//! a `500`) retires its connection, so the worker's next entry goes
//! out on a fresh one instead of failing on a socket the peer closed.

use std::time::Instant;

use serde_json::{Map, Value};

use crate::client::{announces_close, HttpClient};
use crate::tape::Tape;
use raysearch_core::telemetry::LatencyHistogram;

/// How many mismatches keep their full detail line in the report.
pub const MAX_MISMATCH_DETAILS: usize = 8;

/// Client-observed latency percentiles for one endpoint of a pass,
/// computed from the same log-bucketed histogram the servers use for
/// their `/metrics` tier (so replay reports and live metrics agree on
/// bucketing semantics: `p ≤ reported < 2p`, max is exact).
#[derive(Debug, Clone, serde::Serialize)]
pub struct EndpointLatency {
    /// Endpoint label, the request path without its leading slash.
    pub endpoint: String,
    /// Requests timed into this histogram.
    pub requests: u64,
    /// 50th-percentile round-trip latency, microseconds.
    pub p50_micros: u64,
    /// 90th-percentile round-trip latency, microseconds.
    pub p90_micros: u64,
    /// 95th-percentile round-trip latency, microseconds.
    pub p95_micros: u64,
    /// 99th-percentile round-trip latency, microseconds.
    pub p99_micros: u64,
    /// Exact slowest round trip, microseconds.
    pub max_micros: u64,
}

/// The outcome of one replay pass.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Entries issued.
    pub requests: u64,
    /// Responses byte-identical to the tape (status + normalized digest).
    pub matched: u64,
    /// Responses that differed — wrong bytes, the hard failure.
    pub mismatched: u64,
    /// `200` responses served from a backend memo cache.
    pub hits: u64,
    /// `200` responses computed fresh.
    pub misses: u64,
    /// `503` responses (shed by the router or a backend).
    pub sheds: u64,
    /// Requests that failed at the transport layer.
    pub transport_errors: u64,
    /// Wall-clock duration of the pass, microseconds.
    pub wall_micros: u64,
    /// Details of the first [`MAX_MISMATCH_DETAILS`] mismatches.
    pub mismatch_details: Vec<String>,
    /// Client-side latency percentiles per endpoint (wall-clock data,
    /// so — like `wall_micros` — excluded from [`Self::fingerprint`]).
    pub endpoints: Vec<EndpointLatency>,
}

impl ReplayReport {
    /// Requests per second over the wall clock.
    #[must_use]
    pub fn rps(&self) -> f64 {
        if self.wall_micros == 0 {
            f64::INFINITY
        } else {
            self.requests as f64 / (self.wall_micros as f64 / 1e6)
        }
    }

    /// Cache-hit rate over the `200` responses (0 when there were none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let ok = self.hits + self.misses;
        if ok == 0 {
            0.0
        } else {
            self.hits as f64 / ok as f64
        }
    }

    /// Shed rate over all issued requests (0 when none were issued).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.sheds as f64 / self.requests as f64
        }
    }

    /// The deterministic counters as one comparable line — everything
    /// except wall-clock figures. Two replays of the same tape against
    /// same-temperature fleets must produce identical fingerprints
    /// regardless of concurrency; CI enforces exactly this.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "requests={} matched={} mismatched={} hits={} misses={} sheds={} transport_errors={}",
            self.requests,
            self.matched,
            self.mismatched,
            self.hits,
            self.misses,
            self.sheds,
            self.transport_errors
        )
    }

    /// The report as a JSON document (fixed field order): one entry of
    /// the `passes` array in `replaygen`'s report.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut doc = Map::new();
        let mut uint = |name: &str, value: u64| {
            doc.insert(
                name.to_owned(),
                serde_json::to_value(value).expect("u64 serializes"),
            );
        };
        uint("requests", self.requests);
        uint("matched", self.matched);
        uint("mismatched", self.mismatched);
        uint("hits", self.hits);
        uint("misses", self.misses);
        uint("sheds", self.sheds);
        uint("transport_errors", self.transport_errors);
        uint("wall_micros", self.wall_micros);
        doc.insert("rps".to_owned(), Value::Float(self.rps()));
        doc.insert("hit_rate".to_owned(), Value::Float(self.hit_rate()));
        doc.insert("shed_rate".to_owned(), Value::Float(self.shed_rate()));
        doc.insert(
            "mismatch_details".to_owned(),
            Value::Array(
                self.mismatch_details
                    .iter()
                    .map(|d| Value::String(d.clone()))
                    .collect(),
            ),
        );
        doc.insert(
            "endpoints".to_owned(),
            serde_json::to_value(&self.endpoints).expect("endpoint rows serialize"),
        );
        Value::Object(doc)
    }

    fn absorb(&mut self, other: ReplayReport) {
        self.requests += other.requests;
        self.matched += other.matched;
        self.mismatched += other.mismatched;
        self.hits += other.hits;
        self.misses += other.misses;
        self.sheds += other.sheds;
        self.transport_errors += other.transport_errors;
        for detail in other.mismatch_details {
            if self.mismatch_details.len() < MAX_MISMATCH_DETAILS {
                self.mismatch_details.push(detail);
            }
        }
    }
}

/// The canonical 20-request smoke mix — what `replaygen --record`
/// issues and what the committed golden tape fixture pins. Each item
/// is `(method, target, body)`. The mix deliberately covers every
/// endpoint, exact repeats (whose recorded digests must equal their
/// first occurrence's), defaulted parameters, a malformed request
/// (`400`) and an unknown path (`404`) — errors are deterministic
/// responses too, and a replay must reproduce them byte-for-byte.
#[must_use]
pub fn smoke_mix() -> Vec<(&'static str, String, String)> {
    let get = |target: &str| ("GET", target.to_owned(), String::new());
    let post = |target: &str, body: &str| ("POST", target.to_owned(), body.to_owned());
    vec![
        get("/closed_form?k=3&f=1"),
        get("/closed_form?m=3&k=4&f=1"),
        get("/closed_form?eta=1.5"),
        post("/evaluate", "{\"m\":2,\"k\":3,\"f\":1,\"horizon\":2000}"),
        post("/evaluate", "{\"m\":2,\"k\":3,\"f\":1,\"horizon\":2000}"),
        post("/evaluate", "{\"m\":3,\"k\":4,\"f\":1,\"horizon\":1000}"),
        post("/evaluate", "{\"m\":2,\"k\":5,\"f\":2,\"horizon\":1000}"),
        post(
            "/verdict",
            "{\"m\":2,\"k\":1,\"f\":0,\"horizon\":1000,\"eps\":0.01}",
        ),
        post(
            "/verdict",
            "{\"m\":2,\"k\":3,\"f\":1,\"horizon\":1000,\"eps\":0.01}",
        ),
        post(
            "/montecarlo",
            "{\"m\":2,\"k\":3,\"f\":1,\"horizon\":1000,\"samples\":500,\"seed\":7}",
        ),
        post(
            "/montecarlo",
            "{\"m\":2,\"k\":3,\"f\":1,\"horizon\":1000,\"samples\":500,\"seed\":7}",
        ),
        post(
            "/montecarlo",
            "{\"m\":2,\"k\":4,\"f\":1,\"horizon\":1000,\"samples\":500,\"seed\":11,\
             \"faults\":\"iid\",\"p\":0.2}",
        ),
        get("/closed_form?k=5&f=0"),
        post("/evaluate", "{\"m\":2,\"k\":1,\"f\":0,\"horizon\":500}"),
        post("/campaign", "{\"id\":\"e2\",\"max_k\":3}"),
        post("/evaluate", "{\"m\":4,\"k\":3,\"f\":0,\"horizon\":1000}"),
        get("/closed_form?k=3&f=1"),
        post("/evaluate", "{\"k\":2,\"f\":0}"),
        post(
            "/montecarlo",
            "{\"m\":2,\"k\":3,\"f\":1,\"faults\":\"bogus\"}",
        ),
        get("/no_such_endpoint"),
    ]
}

/// Replays `tape` against the server at `addr` with `concurrency`
/// persistent connections.
///
/// # Errors
///
/// Returns a message if no worker could connect at all (individual
/// request failures are counted, not fatal).
pub fn replay(addr: &str, tape: &Tape, concurrency: usize) -> Result<ReplayReport, String> {
    let concurrency = concurrency.max(1);
    let ordered = tape.in_tick_order();

    // per-endpoint (path sans query) latency histograms, shared
    // lock-free across workers, same bucketing as the live /metrics tier
    fn path_part(target: &str) -> &str {
        target.split('?').next().unwrap_or(target)
    }
    let mut paths: Vec<String> = Vec::new();
    let path_of: Vec<usize> = ordered
        .iter()
        .map(|entry| {
            let path = path_part(&entry.target);
            match paths.iter().position(|p| p == path) {
                Some(idx) => idx,
                None => {
                    paths.push(path.to_owned());
                    paths.len() - 1
                }
            }
        })
        .collect();
    let hists: Vec<LatencyHistogram> = paths.iter().map(|_| LatencyHistogram::new()).collect();
    let started = Instant::now();

    let partials = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for worker in 0..concurrency {
            let ordered = &ordered;
            let path_of = &path_of;
            let hists = &hists;
            joins.push(scope.spawn(move || {
                let mut part = ReplayReport::default();
                let mut client: Option<HttpClient> = None;
                for (idx, entry) in ordered.iter().enumerate().skip(worker).step_by(concurrency) {
                    part.requests += 1;
                    let connected = match client.take() {
                        Some(c) => Some(c),
                        None => HttpClient::connect(addr).ok(),
                    };
                    let Some(mut c) = connected else {
                        part.transport_errors += 1;
                        continue;
                    };
                    let sent = Instant::now();
                    let outcome = c.request_with_headers(
                        &entry.method,
                        &entry.target,
                        Some(&entry.body),
                        &[],
                    );
                    hists[path_of[idx]].record(sent.elapsed().as_micros() as u64);
                    match outcome {
                        Ok((status, headers, body)) => {
                            if !announces_close(&headers) {
                                client = Some(c);
                            }
                            if status == 503 {
                                part.sheds += 1;
                                continue;
                            }
                            if status == 200 {
                                if body.starts_with("{\"cached\":true") {
                                    part.hits += 1;
                                } else {
                                    part.misses += 1;
                                }
                            }
                            if entry.matches(status, &body) {
                                part.matched += 1;
                            } else {
                                part.mismatched += 1;
                                if part.mismatch_details.len() < MAX_MISMATCH_DETAILS {
                                    part.mismatch_details.push(format!(
                                        "tick {}: {} {} expected status {} digest {}, \
                                         got status {} body {:.120}",
                                        entry.tick,
                                        entry.method,
                                        entry.target,
                                        entry.status,
                                        entry.digest,
                                        status,
                                        body
                                    ));
                                }
                            }
                        }
                        Err(_) => {
                            // drop the broken connection; reconnect lazily
                            part.transport_errors += 1;
                        }
                    }
                }
                part
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().map_err(|_| "replay worker panicked".to_owned()))
            .collect::<Result<Vec<_>, String>>()
    })?;

    let mut report = ReplayReport::default();
    for part in partials {
        report.absorb(part);
    }
    report.wall_micros = started.elapsed().as_micros() as u64;
    report.endpoints = paths
        .iter()
        .zip(&hists)
        .filter(|(_, hist)| hist.count() > 0)
        .map(|(path, hist)| {
            let snap = hist.snapshot();
            EndpointLatency {
                endpoint: path.trim_start_matches('/').to_owned(),
                requests: snap.count,
                p50_micros: snap.percentile(50),
                p90_micros: snap.percentile(90),
                p95_micros: snap.percentile(95),
                p99_micros: snap.percentile(99),
                max_micros: snap.max,
            }
        })
        .collect();
    if !tape.entries.is_empty() && report.transport_errors == report.requests {
        return Err(format!("every replayed request against {addr} failed"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_reports() {
        let report = ReplayReport::default();
        assert_eq!(report.hit_rate(), 0.0);
        assert_eq!(report.shed_rate(), 0.0);
        assert_eq!(
            report.fingerprint(),
            "requests=0 matched=0 mismatched=0 hits=0 misses=0 sheds=0 transport_errors=0"
        );
    }

    #[test]
    fn json_report_has_the_pinned_fields() {
        let report = ReplayReport {
            requests: 10,
            matched: 9,
            mismatched: 0,
            hits: 5,
            misses: 4,
            sheds: 1,
            transport_errors: 0,
            wall_micros: 1000,
            mismatch_details: Vec::new(),
            endpoints: vec![EndpointLatency {
                endpoint: "evaluate".to_owned(),
                requests: 10,
                p50_micros: 127,
                p90_micros: 255,
                p95_micros: 255,
                p99_micros: 511,
                max_micros: 400,
            }],
        };
        let doc = report.to_json();
        assert_eq!(
            doc.to_json_string(),
            "{\"requests\":10,\"matched\":9,\"mismatched\":0,\"hits\":5,\"misses\":4,\
             \"sheds\":1,\"transport_errors\":0,\"wall_micros\":1000,\"rps\":10000.0,\
             \"hit_rate\":0.5555555555555556,\"shed_rate\":0.1,\"mismatch_details\":[],\
             \"endpoints\":[{\"endpoint\":\"evaluate\",\"requests\":10,\"p50_micros\":127,\
             \"p90_micros\":255,\"p95_micros\":255,\"p99_micros\":511,\"max_micros\":400}]}"
        );
        assert_eq!(doc.get("requests").and_then(Value::as_u64), Some(10));
        assert_eq!(doc.get("sheds").and_then(Value::as_u64), Some(1));
        let endpoints = doc.get("endpoints").and_then(Value::as_array).unwrap();
        assert_eq!(endpoints.len(), 1);
        assert_eq!(
            endpoints[0].get("endpoint"),
            Some(&Value::String("evaluate".to_owned()))
        );
        assert_eq!(
            endpoints[0].get("p99_micros").and_then(Value::as_u64),
            Some(511)
        );
        let hit_rate = doc.get("hit_rate").and_then(Value::as_f64).unwrap();
        assert!((hit_rate - 5.0 / 9.0).abs() < 1e-12);
        let shed_rate = doc.get("shed_rate").and_then(Value::as_f64).unwrap();
        assert!((shed_rate - 0.1).abs() < 1e-12);
        assert!(doc.get("rps").and_then(Value::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn fingerprints_ignore_wall_clock() {
        let mut a = ReplayReport {
            requests: 4,
            matched: 4,
            hits: 2,
            misses: 2,
            wall_micros: 10,
            ..ReplayReport::default()
        };
        let b = ReplayReport {
            wall_micros: 99_999,
            ..a.clone()
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.mismatched = 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
