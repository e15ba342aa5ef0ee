//! The metric registry's contract over a live in-process fleet: a
//! router in front of two real backends, driven with a 20-request mix.
//! Both tiers' `/metrics` must pass the exposition lint; every family
//! and `/stats` key path the tiers served before the registry must
//! still be served; every numeric `/stats` value of a backend must have
//! its `/metrics` family under the naming rule; and the router must
//! re-export every backend value per backend.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use raysearch_service::api::ServiceState;
use raysearch_service::client::HttpClient;
use raysearch_service::route::{BackendSpec, RouterState};
use raysearch_service::server::{Server, ServerConfig, ServerHandle};
use serde_json::Value;

/// Cold and warm requests on every routed endpoint, one 400 and one
/// 404.
const MIX: [(&str, &str, Option<&str>); 20] = [
    ("GET", "/closed_form?k=3&f=1", None),
    ("GET", "/closed_form?m=3&k=4&f=1", None),
    ("GET", "/closed_form?eta=1.5", None),
    (
        "POST",
        "/evaluate",
        Some(r#"{"m":2,"k":3,"f":1,"horizon":2000}"#),
    ),
    (
        "POST",
        "/evaluate",
        Some(r#"{"m":2,"k":3,"f":1,"horizon":2000}"#),
    ),
    (
        "POST",
        "/evaluate",
        Some(r#"{"m":3,"k":4,"f":1,"horizon":1000}"#),
    ),
    (
        "POST",
        "/evaluate",
        Some(r#"{"m":2,"k":5,"f":2,"horizon":1000}"#),
    ),
    (
        "POST",
        "/verdict",
        Some(r#"{"m":2,"k":1,"f":0,"horizon":1000,"eps":0.01}"#),
    ),
    (
        "POST",
        "/verdict",
        Some(r#"{"m":2,"k":3,"f":1,"horizon":1000,"eps":0.01}"#),
    ),
    (
        "POST",
        "/montecarlo",
        Some(r#"{"m":2,"k":3,"f":1,"horizon":1000,"samples":500,"seed":7}"#),
    ),
    (
        "POST",
        "/montecarlo",
        Some(r#"{"m":2,"k":3,"f":1,"horizon":1000,"samples":500,"seed":7}"#),
    ),
    (
        "POST",
        "/montecarlo",
        Some(
            r#"{"m":2,"k":4,"f":1,"horizon":1000,"samples":500,"seed":11,"faults":"iid","p":0.2}"#,
        ),
    ),
    ("GET", "/closed_form?k=5&f=0", None),
    (
        "POST",
        "/evaluate",
        Some(r#"{"m":2,"k":1,"f":0,"horizon":500}"#),
    ),
    ("POST", "/campaign", Some(r#"{"id":"e2","max_k":3}"#)),
    (
        "POST",
        "/evaluate",
        Some(r#"{"m":4,"k":3,"f":0,"horizon":1000}"#),
    ),
    ("GET", "/closed_form?k=3&f=1", None),
    ("POST", "/evaluate", Some(r#"{"k":2,"f":0}"#)),
    (
        "POST",
        "/montecarlo",
        Some(r#"{"m":2,"k":3,"f":1,"faults":"bogus"}"#),
    ),
    ("GET", "/no_such_endpoint", None),
];

/// The router's endpoints that it answers itself instead of routing.
const LOCAL_ENDPOINTS: [&str; 5] = ["healthz", "stats", "metrics", "debug_slow", "debug_trace"];

/// The router's per-backend `/stats` names for backend values:
/// `(backend path, name in a router backends entry)`.
const ALIASES: [(&str, &str); 8] = [
    ("cache.hits", "hits"),
    ("cache.misses", "misses"),
    ("shed_total", "shed"),
    ("requests_total", "requests"),
    ("jobs.queued", "jobs_queued"),
    ("jobs.running", "jobs_running"),
    ("jobs.submitted", "jobs_submitted"),
    ("jobs.completed", "jobs_completed"),
];

/// Every router `/metrics` family before the registry: name, kind and
/// the label keys its samples carry.
const ROUTER_FAMILIES: [(&str, &str, &[&str]); 25] = [
    (
        "raysearch_router_backend_cache_hits_total",
        "counter",
        &["backend"],
    ),
    (
        "raysearch_router_backend_cache_misses_total",
        "counter",
        &["backend"],
    ),
    (
        "raysearch_router_backend_connects_total",
        "counter",
        &["backend"],
    ),
    (
        "raysearch_router_backend_failed_total",
        "counter",
        &["backend"],
    ),
    ("raysearch_router_backend_healthy", "gauge", &["backend"]),
    (
        "raysearch_router_backend_jobs_completed_total",
        "counter",
        &["backend"],
    ),
    (
        "raysearch_router_backend_jobs_queued",
        "gauge",
        &["backend"],
    ),
    (
        "raysearch_router_backend_jobs_running",
        "gauge",
        &["backend"],
    ),
    (
        "raysearch_router_backend_jobs_submitted_total",
        "counter",
        &["backend"],
    ),
    (
        "raysearch_router_backend_requests_total",
        "counter",
        &["backend"],
    ),
    (
        "raysearch_router_backend_routed_total",
        "counter",
        &["backend"],
    ),
    (
        "raysearch_router_backend_shed_total",
        "counter",
        &["backend"],
    ),
    (
        "raysearch_router_backend_stale_retries_total",
        "counter",
        &["backend"],
    ),
    (
        "raysearch_router_backend_stats_age_micros",
        "gauge",
        &["backend"],
    ),
    ("raysearch_router_failover_total", "counter", &[]),
    ("raysearch_router_healthy_backends", "gauge", &[]),
    ("raysearch_router_no_backend_total", "counter", &[]),
    ("raysearch_router_requests_total", "counter", &[]),
    ("raysearch_router_routed_total", "counter", &[]),
    ("raysearch_router_shed_passthrough_total", "counter", &[]),
    ("raysearch_router_shed_total", "counter", &[]),
    (
        "raysearch_router_span_latency_micros",
        "histogram",
        &["endpoint", "le", "span"],
    ),
    ("raysearch_router_traces_dropped_total", "counter", &[]),
    ("raysearch_router_traces_stored", "gauge", &[]),
    ("raysearch_router_uptime_seconds", "gauge", &[]),
];

/// Every backend `/metrics` family before the registry.
const BACKEND_FAMILIES: [(&str, &str, &[&str]); 23] = [
    ("raysearchd_cache_entries", "gauge", &[]),
    ("raysearchd_cache_evictions_total", "counter", &[]),
    ("raysearchd_cache_hits_total", "counter", &[]),
    ("raysearchd_cache_misses_total", "counter", &[]),
    ("raysearchd_compile_entries", "gauge", &[]),
    ("raysearchd_compile_hits_total", "counter", &[]),
    ("raysearchd_compile_misses_total", "counter", &[]),
    ("raysearchd_jobs_cancelled_total", "counter", &[]),
    ("raysearchd_jobs_completed_total", "counter", &[]),
    ("raysearchd_jobs_evicted_total", "counter", &[]),
    ("raysearchd_jobs_failed_total", "counter", &[]),
    ("raysearchd_jobs_queued", "gauge", &[]),
    ("raysearchd_jobs_rejected_total", "counter", &[]),
    ("raysearchd_jobs_running", "gauge", &[]),
    ("raysearchd_jobs_stored", "gauge", &[]),
    ("raysearchd_jobs_submitted_total", "counter", &[]),
    ("raysearchd_requests_total", "counter", &[]),
    ("raysearchd_shed_total", "counter", &[]),
    (
        "raysearchd_span_latency_micros",
        "histogram",
        &["endpoint", "le", "span"],
    ),
    ("raysearchd_traces_dropped_total", "counter", &[]),
    ("raysearchd_traces_stored", "gauge", &[]),
    ("raysearchd_uptime_micros", "gauge", &[]),
    ("raysearchd_uptime_seconds", "gauge", &[]),
];

/// Every router `/stats` key path before the registry, with its JSON
/// type.
const ROUTER_STATS: [(&str, &str); 33] = [
    ("backend_requests", "number"),
    ("backend_shed", "number"),
    ("backends", "array"),
    ("backends[].connects", "number"),
    ("backends[].failed", "number"),
    ("backends[].healthy", "bool"),
    ("backends[].hits", "number"),
    ("backends[].id", "string"),
    ("backends[].jobs_completed", "number"),
    ("backends[].jobs_queued", "number"),
    ("backends[].jobs_running", "number"),
    ("backends[].jobs_submitted", "number"),
    ("backends[].misses", "number"),
    ("backends[].reachable", "bool"),
    ("backends[].requests", "number"),
    ("backends[].routed", "number"),
    ("backends[].shed", "number"),
    ("backends[].stale_retries", "number"),
    ("backends[].stats_age_micros", "number"),
    ("cache_hits", "number"),
    ("cache_misses", "number"),
    ("failover_total", "number"),
    ("jobs_completed", "number"),
    ("jobs_queued", "number"),
    ("jobs_running", "number"),
    ("jobs_submitted", "number"),
    ("no_backend_total", "number"),
    ("requests_total", "number"),
    ("routed_total", "number"),
    ("shed_passthrough", "number"),
    ("shed_total", "number"),
    ("stats_age_micros", "number"),
    ("uptime_micros", "number"),
];

/// Every backend `/stats` key path before the registry.
const BACKEND_STATS: [(&str, &str); 23] = [
    ("cache", "object"),
    ("cache.capacity", "number"),
    ("cache.entries", "number"),
    ("cache.evictions", "number"),
    ("cache.hits", "number"),
    ("cache.misses", "number"),
    ("cache.shards", "number"),
    ("compile_entries", "number"),
    ("compile_hits", "number"),
    ("compile_misses", "number"),
    ("jobs", "object"),
    ("jobs.cancelled", "number"),
    ("jobs.completed", "number"),
    ("jobs.evicted", "number"),
    ("jobs.failed", "number"),
    ("jobs.queued", "number"),
    ("jobs.rejected", "number"),
    ("jobs.running", "number"),
    ("jobs.stored", "number"),
    ("jobs.submitted", "number"),
    ("requests_total", "number"),
    ("shed_total", "number"),
    ("uptime_micros", "number"),
];

/// A router over two real backends, after the mix.
struct Fleet {
    router: ServerHandle<RouterState>,
    state: Arc<RouterState>,
    backends: Vec<ServerHandle<ServiceState>>,
}

impl Fleet {
    fn driven() -> Fleet {
        let config = ServerConfig {
            workers: 4,
            cache_capacity: 256,
            cache_shards: 4,
            ..ServerConfig::default()
        };
        let backends: Vec<_> = (0..2)
            .map(|_| Server::bind(config.clone()).expect("bind backend").spawn())
            .collect();
        let specs = backends
            .iter()
            .enumerate()
            .map(|(i, b)| BackendSpec::fixed(&format!("backend-{i}"), &b.addr().to_string()))
            .collect();
        let state = Arc::new(RouterState::new(specs, None));
        assert_eq!(state.check_backends_now(), 2);
        let router = Server::bind_with(config, Arc::clone(&state))
            .expect("bind router")
            .spawn();
        let addr = router.addr().to_string();
        for (method, target, body) in MIX {
            HttpClient::connect(&addr)
                .and_then(|mut c| c.request(method, target, body))
                .unwrap_or_else(|e| panic!("{method} {target}: {e}"));
        }
        Fleet {
            router,
            state,
            backends,
        }
    }

    fn router_addr(&self) -> String {
        self.router.addr().to_string()
    }

    fn backend_addrs(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.addr().to_string()).collect()
    }

    fn shutdown(self) {
        self.router.shutdown();
        for backend in self.backends {
            backend.shutdown();
        }
    }
}

/// `GET target`: the content type and the body.
fn get(addr: &str, target: &str) -> (String, String) {
    let (status, headers, body) = HttpClient::connect(addr)
        .and_then(|mut c| c.request_with_headers("GET", target, None, &[]))
        .unwrap_or_else(|e| panic!("GET {target} from {addr}: {e}"));
    assert_eq!(status, 200, "GET {target}: {body}");
    let content_type = headers
        .into_iter()
        .find(|(name, _)| name == "content-type")
        .map(|(_, value)| value)
        .unwrap_or_default();
    (content_type, body)
}

fn stats(addr: &str) -> Value {
    serde_json::from_str(&get(addr, "/stats").1).expect("stats is JSON")
}

/// `GET /metrics`, linted.
fn metrics(addr: &str, prefix: &str) -> Page {
    let (content_type, body) = get(addr, "/metrics");
    assert!(content_type.starts_with("text/plain"), "{content_type:?}");
    lint(&body, prefix)
}

/// A sample's label pairs, in order.
type Labels = Vec<(String, String)>;

/// A linted exposition page.
#[derive(Debug, Default)]
struct Page {
    /// Family name → TYPE kind.
    kinds: BTreeMap<String, String>,
    /// Family name → the label keys its samples carry.
    label_keys: BTreeMap<String, BTreeSet<String>>,
    /// Every sample: name, label pairs, value.
    samples: Vec<(String, Labels, u64)>,
}

impl Page {
    /// The value of `name` with exactly `labels`.
    fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.samples
            .iter()
            .find(|(n, l, _)| {
                n == name
                    && l.len() == labels.len()
                    && l.iter()
                        .zip(labels)
                        .all(|((k, v), (x, y))| k == x && v == y)
            })
            .map(|(_, _, value)| *value)
    }
}

fn is_name(name: &str, colon: bool) -> bool {
    let ok = |c: char, first: bool| {
        c.is_ascii_alphabetic() || c == '_' || (colon && c == ':') || (!first && c.is_ascii_digit())
    };
    let mut chars = name.chars();
    chars.next().is_some_and(|c| ok(c, true)) && chars.all(|c| ok(c, false))
}

/// The Prometheus lint: name and label-pair charset, TYPE kinds, no
/// duplicate TYPE, every sample under a declared TYPE, and `prefix` on
/// every sample name.
fn lint(text: &str, prefix: &str) -> Page {
    let mut page = Page::default();
    for line in text.lines() {
        if line.starts_with("# HELP ") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
            assert!(is_name(name, true), "bad family name: {line}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad kind: {line}"
            );
            assert!(
                page.kinds
                    .insert(name.to_owned(), kind.to_owned())
                    .is_none(),
                "duplicate TYPE: {name}"
            );
            page.label_keys.insert(name.to_owned(), BTreeSet::new());
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()),
            "unparseable sample line: {line:?}"
        );
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest.strip_suffix('}').expect("closing brace");
                let pairs: Labels = labels
                    .split(',')
                    .map(|pair| {
                        let (key, quoted) = pair.split_once('=').expect("label k=v");
                        let value = quoted
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .expect("quoted label value");
                        assert!(
                            is_name(key, false) && !value.contains(['"', '\\']),
                            "bad label pair: {line}"
                        );
                        (key.to_owned(), value.to_owned())
                    })
                    .collect();
                (name, pairs)
            }
            None => (series, Vec::new()),
        };
        assert!(is_name(name, true), "bad sample name: {line}");
        assert!(name.starts_with(prefix), "foreign metric name: {line}");
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| page.kinds.contains_key(*base))
            })
            .unwrap_or(name);
        let keys = page
            .label_keys
            .get_mut(family)
            .unwrap_or_else(|| panic!("sample without a TYPE: {line}"));
        keys.extend(labels.iter().map(|(k, _)| k.clone()));
        page.samples
            .push((name.to_owned(), labels, value.parse().expect("u64")));
    }
    assert!(
        !page.kinds.is_empty() && !page.samples.is_empty(),
        "metrics page is empty"
    );
    page
}

fn json_type(value: &Value) -> &'static str {
    if value.is_null() {
        "null"
    } else if value.as_bool().is_some() {
        "bool"
    } else if value.as_f64().is_some() {
        "number"
    } else if value.as_str().is_some() {
        "string"
    } else if value.as_array().is_some() {
        "array"
    } else {
        "object"
    }
}

/// Every key path of a `/stats` document and its JSON type; array
/// elements share the path `{array}[]`.
fn key_paths(doc: &Value, prefix: &str, out: &mut BTreeMap<String, &'static str>) {
    if let Some(map) = doc.as_object() {
        for (key, value) in map.iter() {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            out.insert(path.clone(), json_type(value));
            key_paths(value, &path, out);
        }
    } else if let Some(items) = doc.as_array() {
        for item in items {
            key_paths(item, &format!("{prefix}[]"), out);
        }
    }
}

/// The numeric leaves of a backend `/stats` document, by dotted path.
fn numeric_leaves(doc: &Value) -> BTreeMap<String, u64> {
    let mut paths = BTreeMap::new();
    key_paths(doc, "", &mut paths);
    paths
        .into_iter()
        .filter(|(_, kind)| *kind == "number")
        .map(|(path, _)| {
            let value = path
                .split('.')
                .try_fold(doc, |node, key| node.get(key))
                .and_then(Value::as_u64)
                .expect("a numeric leaf is a u64");
            (path, value)
        })
        .collect()
}

/// The family a `/stats` path renders as under `prefix` on `page`,
/// checked against the naming rule: the path with `.` → `_`, plus
/// `_total` for a counter whose path does not already end in it.
fn family_of(page: &Page, prefix: &str, path: &str) -> String {
    let base = format!("{prefix}_{}", path.replace('.', "_"));
    let counter = if base.ends_with("_total") {
        base.clone()
    } else {
        format!("{base}_total")
    };
    match (page.kinds.get(&base), page.kinds.get(&counter)) {
        (Some(kind), _) if kind == "gauge" => base,
        (_, Some(kind)) if kind == "counter" => counter,
        _ => panic!("/stats path {path:?} has no {prefix} family {base:?} or {counter:?}"),
    }
}

/// Values that a request to the tier itself moves, so a `/stats` read
/// and a `/metrics` read of them cannot be equal.
fn moves_per_request(path: &str) -> bool {
    path == "requests_total" || path.starts_with("uptime_") || path.starts_with("traces_")
}

#[test]
fn both_tiers_pass_the_exposition_lint_and_count_the_mix() {
    let fleet = Fleet::driven();
    let router = metrics(&fleet.router_addr(), "raysearch_router_");
    let routed: u64 = router
        .samples
        .iter()
        .filter(|(name, labels, _)| {
            name == "raysearch_router_span_latency_micros_count"
                && labels.contains(&("span".to_owned(), "request".to_owned()))
                && !labels
                    .iter()
                    .any(|(k, v)| k == "endpoint" && LOCAL_ENDPOINTS.contains(&v.as_str()))
        })
        .map(|(_, _, count)| count)
        .sum();
    assert_eq!(
        routed,
        MIX.len() as u64,
        "every mix request, and nothing else"
    );
    for addr in fleet.backend_addrs() {
        metrics(&addr, "raysearchd_");
    }
    fleet.shutdown();
}

#[test]
fn every_family_and_stats_key_of_the_parent_is_still_served() {
    let fleet = Fleet::driven();
    let router = metrics(&fleet.router_addr(), "raysearch_router_");
    let backend_addr = &fleet.backend_addrs()[0];
    let backend = metrics(backend_addr, "raysearchd_");
    for (page, pinned) in [
        (&router, &ROUTER_FAMILIES[..]),
        (&backend, &BACKEND_FAMILIES[..]),
    ] {
        for (name, kind, keys) in pinned {
            assert_eq!(
                page.kinds.get(*name).map(String::as_str),
                Some(*kind),
                "{name}"
            );
            let keys: BTreeSet<String> = keys.iter().map(|k| (*k).to_owned()).collect();
            assert_eq!(page.label_keys.get(*name), Some(&keys), "{name}");
        }
    }
    for (addr, pinned) in [
        (fleet.router_addr(), &ROUTER_STATS[..]),
        (backend_addr.clone(), &BACKEND_STATS[..]),
    ] {
        let mut paths = BTreeMap::new();
        key_paths(&stats(&addr), "", &mut paths);
        for (path, kind) in pinned {
            assert_eq!(paths.get(*path), Some(kind), "/stats path {path}");
        }
    }
    fleet.shutdown();
}

#[test]
fn every_backend_stats_value_has_its_metrics_family() {
    let fleet = Fleet::driven();
    for addr in fleet.backend_addrs() {
        // each value is read between two /metrics reads, so a value that
        // only grows sits between them and any other equals both
        let before = metrics(&addr, "raysearchd_");
        let leaves = numeric_leaves(&stats(&addr));
        let after = metrics(&addr, "raysearchd_");
        let mut families = BTreeSet::new();
        for (path, value) in &leaves {
            let family = family_of(&before, "raysearchd", path);
            let (a, b) = (before.value(&family, &[]), after.value(&family, &[]));
            assert!(
                a <= Some(*value) && Some(*value) <= b,
                "{path} = {value} outside {family} reads {a:?}..{b:?}"
            );
            assert!(
                moves_per_request(path) || a == b,
                "{family} moved: {a:?} -> {b:?}"
            );
            families.insert(family);
        }
        // and every family but the histograms is one of those values
        let registered: BTreeSet<String> = before
            .kinds
            .iter()
            .filter(|(_, kind)| *kind != "histogram")
            .map(|(name, _)| name.clone())
            .collect();
        assert_eq!(registered, families);
    }
    fleet.shutdown();
}

#[test]
fn the_router_reexports_every_backend_value_per_backend() {
    let fleet = Fleet::driven();
    fleet.state.check_backends_now();
    let router = metrics(&fleet.router_addr(), "raysearch_router_");
    let router_stats = stats(&fleet.router_addr());
    let entries = router_stats
        .get("backends")
        .and_then(Value::as_array)
        .expect("backends");
    for (i, addr) in fleet.backend_addrs().iter().enumerate() {
        let id = format!("backend-{i}");
        let own = metrics(addr, "raysearchd_");
        let entry = entries
            .iter()
            .find(|e| e.get("id").and_then(Value::as_str) == Some(id.as_str()))
            .expect("router stats entry");
        for path in numeric_leaves(&stats(addr)).keys() {
            let family = family_of(&router, "raysearch_router_backend", path);
            assert_eq!(
                router.kinds.get(&family),
                own.kinds.get(&family_of(&own, "raysearchd", path)),
                "{family} keeps the backend's kind"
            );
            let value = router
                .value(&family, &[("backend", &id)])
                .unwrap_or_else(|| panic!("no {family}{{backend=\"{id}\"}}"));
            if let Some((_, name)) = ALIASES.iter().find(|(p, _)| p == path) {
                assert_eq!(
                    entry.get(name).and_then(Value::as_u64),
                    Some(value),
                    "{name}"
                );
            }
        }
    }
    fleet.shutdown();
}
