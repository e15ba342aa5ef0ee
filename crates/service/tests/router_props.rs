//! Property tests for the consistent-hash router.
//!
//! Three guarantees are pinned here, because the scale-out layer's
//! whole value rests on them:
//!
//! 1. **Minimal disruption** — removing (or adding) one of `N` backends
//!    remaps only the keys that backend owned, roughly `1/N` of the
//!    population; every other key keeps its backend and therefore its
//!    memo entries.
//! 2. **Stability** — the key→backend assignment is a pure function of
//!    the id strings and key bytes: byte-identical across thread counts
//!    {1, 2, 8} and across process restarts (a golden fingerprint pins
//!    it forever).
//! 3. **Spelling invariance** — every spelling of the same logical
//!    request (query string vs JSON body, `1e4` vs `10000`, defaulted
//!    vs explicit parameters, a `POST /jobs` envelope vs its synchronous
//!    twin) derives the same routing key, so it lands on the same
//!    backend's cache.
//! 4. **Key ⇔ memo** — against a real in-process backend, two requests
//!    that both answer 200 share a routing key exactly when the second
//!    is a memo hit: the router's key is the backend's memo key.
//!
//! All randomness is seeded: proptest's sampler is seeded per test
//! name, and key populations are derived from the pinned FNV-1a hash —
//! no ambient randomness anywhere.

use proptest::prelude::*;
use raysearch_core::stable_hash64;
use raysearch_service::http::Request;
use raysearch_service::route::rendezvous_rank;
use raysearch_service::{routing_key, ServiceState};

fn backend_ids(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("backend-{i}")).collect()
}

/// A deterministic population of `count` keys derived from `seed` by
/// the pinned hash — varied shapes (canonical-looking and raw-looking)
/// but reproducible bytes on every machine.
fn keys_from_seed(seed: u64, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let h = stable_hash64(format!("{seed}:{i}").as_bytes());
            match h % 3 {
                0 => format!(
                    "evaluate:m={},k={},f={},h={}",
                    2 + h % 5,
                    1 + (h >> 8) % 40,
                    (h >> 16) % 4,
                    1000 * (1 + (h >> 24) % 9)
                ),
                1 => format!(
                    "closed_form:m={},k={},f={}",
                    2 + h % 4,
                    1 + (h >> 8) % 64,
                    (h >> 20) % 8
                ),
                _ => format!("raw:GET:/p{}:{}", h % 97, h >> 32),
            }
        })
        .collect()
}

/// The rendezvous winner for `key` over `ids`.
fn owner(ids: &[String], key: &str) -> usize {
    rendezvous_rank(ids, key)[0]
}

/// The full assignment as one comparable string: `key -> id` per line.
fn assignment(ids: &[String], keys: &[String]) -> String {
    let mut out = String::new();
    for key in keys {
        out.push_str(key);
        out.push_str(" -> ");
        out.push_str(&ids[owner(ids, key)]);
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Removing one of `N` backends remaps exactly the keys it owned —
    /// the survival invariant is exact, and the remapped fraction is
    /// ~1/N (checked with wide tolerance; the exact invariant is the
    /// load-bearing one).
    #[test]
    fn removing_a_backend_remaps_only_its_keys(
        seed in 0u64..1_000_000_000,
        n in 3usize..7,
        victim in 0usize..7,
    ) {
        prop_assume!(victim < n);
        let keys = keys_from_seed(seed, 512);
        let full = backend_ids(n);
        let mut reduced = full.clone();
        let removed_id = reduced.remove(victim);

        let mut remapped = 0usize;
        for key in &keys {
            let before = &full[owner(&full, key)];
            let after = &reduced[owner(&reduced, key)];
            if *before == removed_id {
                remapped += 1;
            } else {
                // the exact minimal-disruption invariant: survivors
                // keep every key they owned
                prop_assert_eq!(before, after, "key {} moved between survivors", key);
            }
        }
        // the removed backend owned ~1/n of the keys
        let expected = keys.len() as f64 / n as f64;
        prop_assert!(
            (remapped as f64) < 2.5 * expected,
            "{remapped} of {} keys remapped, expected ~{expected:.0}",
            keys.len()
        );
        prop_assert!(
            (remapped as f64) > expected / 4.0,
            "{remapped} of {} keys remapped, expected ~{expected:.0}",
            keys.len()
        );
    }

    /// Adding a backend only *steals* keys for itself: every key either
    /// keeps its backend or moves to the newcomer.
    #[test]
    fn adding_a_backend_only_steals_for_itself(
        seed in 0u64..1_000_000_000,
        n in 2usize..6,
    ) {
        let keys = keys_from_seed(seed, 256);
        let old = backend_ids(n);
        let grown = backend_ids(n + 1);
        let new_id = &grown[n];
        for key in &keys {
            let before = &old[owner(&old, key)];
            let after = &grown[owner(&grown, key)];
            prop_assert!(
                after == before || after == new_id,
                "key {} moved from {} to {} (not the new backend)",
                key, before, after
            );
        }
    }
}

/// The assignment is byte-stable across thread counts: computing it
/// from 1, 2 and 8 threads concurrently produces identical bytes.
#[test]
fn assignment_is_byte_stable_across_thread_counts() {
    let ids = backend_ids(3);
    let keys = keys_from_seed(42, 256);
    let reference = assignment(&ids, &keys);
    for threads in [1usize, 2, 8] {
        let copies = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| assignment(&ids, &keys)))
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("assignment thread panicked"))
                .collect::<Vec<String>>()
        });
        for copy in copies {
            assert_eq!(copy, reference, "{threads}-thread assignment diverged");
        }
    }
}

/// The golden fingerprint: the pinned hash of a fixed assignment. This
/// is the process-restart (and machine, and toolchain) stability
/// guarantee — if this value ever changes, every deployed router would
/// reshuffle its keyspace and cold every cache. Do not update it;
/// a mismatch is a bug in the hash or the ranking.
#[test]
fn assignment_fingerprint_is_pinned() {
    let ids = backend_ids(4);
    let keys = keys_from_seed(7, 128);
    let fingerprint = stable_hash64(assignment(&ids, &keys).as_bytes());
    assert_eq!(
        format!("{fingerprint:016x}"),
        "00652ca21b88bdbc",
        "rendezvous assignment drifted — routers would reshuffle on upgrade"
    );
}

fn get(path: &str, query: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".to_owned(),
        version: "HTTP/1.1".to_owned(),
        path: path.to_owned(),
        query: query
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect(),
        headers: Vec::new(),
        body: Vec::new(),
    }
}

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".to_owned(),
        version: "HTTP/1.1".to_owned(),
        path: path.to_owned(),
        query: Vec::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// Every spelling of the same logical request derives the same routing
/// key — the property that makes the hit rate survive scale-out.
#[test]
fn routing_key_is_spelling_invariant() {
    // query string vs JSON body, scientific notation vs integer
    let spellings = [
        post("/evaluate", "{\"m\":2,\"k\":3,\"f\":1,\"horizon\":10000}"),
        post("/evaluate", "{\"m\":2,\"k\":3,\"f\":1,\"horizon\":1e4}"),
        get(
            "/evaluate",
            &[("m", "2"), ("k", "3"), ("f", "1"), ("horizon", "10000")],
        ),
        // horizon defaults to 1e4 when omitted
        post("/evaluate", "{\"m\":2,\"k\":3,\"f\":1}"),
    ];
    let keys: Vec<String> = spellings.iter().map(routing_key).collect();
    assert_eq!(keys[0], "evaluate:m=2,k=3,f=1,h=10000");
    for key in &keys[1..] {
        assert_eq!(key, &keys[0]);
    }
}

/// Different logical requests derive different keys.
#[test]
fn routing_key_separates_distinct_requests() {
    let a = routing_key(&post("/evaluate", "{\"m\":2,\"k\":3,\"f\":1}"));
    let b = routing_key(&post("/evaluate", "{\"m\":2,\"k\":4,\"f\":1}"));
    let c = routing_key(&post("/verdict", "{\"m\":2,\"k\":3,\"f\":1}"));
    assert_ne!(a, b);
    assert_ne!(a, c);
    assert_ne!(b, c);
}

/// Requests that do not parse into a memo key still route
/// deterministically on the raw fallback key.
#[test]
fn routing_key_falls_back_to_raw_for_unroutable_requests() {
    let unknown = routing_key(&get("/no_such_endpoint", &[("a", "1")]));
    assert_eq!(unknown, "raw:GET:/no_such_endpoint?a=1:");

    let malformed = routing_key(&post("/evaluate", "{\"m\":\"not a number\"}"));
    assert!(malformed.starts_with("raw:POST:/evaluate:"));

    // raw keys still differ by body, so distinct requests spread out
    let other = routing_key(&post("/evaluate", "{\"k\":\"also bad\"}"));
    assert_ne!(malformed, other);
}

/// The ranking a router computes is the ranking any other process
/// computes — an offline harness can predict shard placement.
#[test]
fn ranking_is_reproducible_from_id_strings_alone() {
    let ids = backend_ids(5);
    for key in keys_from_seed(3, 64) {
        let rank = rendezvous_rank(&ids, &key);
        let again = rendezvous_rank(&ids, &key);
        assert_eq!(rank, again);
        // every backend appears exactly once
        let mut sorted = rank.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ids.len()).collect::<Vec<_>>());
    }
}

/// A job routes with its synchronous twin whether the envelope carries
/// its `endpoint` tag in the body or in the query, and whether the
/// target's parameters ride in the body alone or split between the
/// query and the body: the router unwraps `POST /jobs` exactly as job
/// admission does, so the job computes on the backend holding its
/// twin's memo and compile entries.
#[test]
fn job_envelopes_route_with_their_synchronous_twin() {
    for (endpoint, payload, split_query, split_body) in [
        (
            "evaluate",
            r#""m":2,"k":600,"f":599,"horizon":1e12"#,
            "k=600&f=599",
            r#"{"m":2,"horizon":1e12}"#,
        ),
        (
            "montecarlo",
            r#""m":3,"k":4,"f":1,"samples":500,"seed":7"#,
            "k=4&f=1",
            r#"{"m":3,"samples":500,"seed":7}"#,
        ),
        (
            "campaign",
            r#""id":"e11","max_k":12"#,
            "id=e11",
            r#"{"max_k":12}"#,
        ),
    ] {
        let sync = routing_key(&post(&format!("/{endpoint}"), &format!("{{{payload}}}")));
        assert!(sync.starts_with(&format!("{endpoint}:")), "{sync}");
        let mut query_tagged = post("/jobs", &format!("{{{payload}}}"));
        query_tagged
            .query
            .push(("endpoint".to_owned(), endpoint.to_owned()));
        assert_eq!(
            routing_key(&query_tagged),
            sync,
            "query-tagged {endpoint} job"
        );
        let body_tagged = post(
            "/jobs",
            &format!(r#"{{"endpoint":"{endpoint}","client":"c",{payload}}}"#),
        );
        assert_eq!(
            routing_key(&body_tagged),
            sync,
            "body-tagged {endpoint} job"
        );
        // the tag and part of the payload in the query, the rest in the
        // body: the job reads its target's parameters from both
        let split = Request::new(
            "POST",
            &format!("/jobs?endpoint={endpoint}&{split_query}"),
            split_body,
        );
        assert_eq!(routing_key(&split), sync, "split {endpoint} job");
    }
}

/// The SplitMix64 sequence (Steele et al.), so the generated pairs
/// replay identically everywhere.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

/// A parameter value exactly as written: a number's spelling is kept
/// verbatim (`1e4` and `10000.0` stay distinct on the wire), a string
/// is quoted in a JSON body and bare in a query.
#[derive(Clone, Debug)]
enum Val {
    Num(String),
    Str(&'static str),
}

/// One generated request: the endpoint, its parameters in order, and
/// whether they travel as a JSON body or as a query string.
#[derive(Clone, Debug)]
struct Spec {
    endpoint: &'static str,
    params: Vec<(&'static str, Val)>,
    in_query: bool,
}

impl Spec {
    fn request(&self) -> Request {
        let path = format!("/{}", self.endpoint);
        if self.in_query {
            let mut req = post(&path, "");
            req.query = self
                .params
                .iter()
                .map(|(name, val)| {
                    let text = match val {
                        Val::Num(t) => t.clone(),
                        Val::Str(t) => (*t).to_owned(),
                    };
                    ((*name).to_owned(), text)
                })
                .collect();
            return req;
        }
        let fields: Vec<String> = self
            .params
            .iter()
            .map(|(name, val)| match val {
                Val::Num(t) => format!("\"{name}\":{t}"),
                Val::Str(t) => format!("\"{name}\":\"{t}\""),
            })
            .collect();
        post(&path, &format!("{{{}}}", fields.join(",")))
    }

    fn get(&self, name: &str) -> Option<&Val> {
        self.params.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    fn set(&mut self, name: &'static str, val: Val) {
        match self.params.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = val,
            None => self.params.push((name, val)),
        }
    }

    fn remove(&mut self, name: &str) {
        self.params.retain(|(n, _)| *n != name);
    }
}

fn num(value: impl ToString) -> Val {
    Val::Num(value.to_string())
}

/// Three spellings of one integral float: `10000`, `10000.0`, `1e4`.
fn float_spelling(rng: &mut SplitMix64, value: u32) -> Val {
    let value = f64::from(value);
    Val::Num(match rng.below(3) {
        0 => format!("{value}"),
        1 => format!("{value:.1}"),
        _ => format!("{value:e}"),
    })
}

/// A cheap request for `endpoint`: small fleets (searchable, trivial
/// and impossible regimes), horizons up to `2e4`, `max_k` ≤ 3 and at
/// most 500 Monte-Carlo samples.
fn base_spec(rng: &mut SplitMix64, endpoint: &'static str) -> Spec {
    let (m, k, f) = rng.pick(&[
        (2, 1, 0),
        (2, 3, 1),
        (3, 4, 1),
        (2, 5, 2),
        (2, 4, 1),
        (2, 2, 2),
    ]);
    let mut params = Vec::new();
    if endpoint == "campaign" {
        params.push(("id", Val::Str(rng.pick(&["e1", "e2", "e3"]))));
        params.push(("max_k", num(1 + rng.below(3))));
    } else if endpoint == "closed_form" && rng.below(3) == 0 {
        params.push((
            "eta",
            Val::Num(rng.pick(&["1.5", "15e-1", "2.25"]).to_owned()),
        ));
    } else {
        params.push(("m", num(m)));
        params.push(("k", num(k)));
        params.push(("f", num(f)));
        if endpoint != "closed_form" {
            let horizon = rng.pick(&[1000, 10_000, 20_000]);
            params.push(("horizon", float_spelling(rng, horizon)));
        }
        if endpoint == "verdict" {
            params.push((
                "eps",
                Val::Num(rng.pick(&["0.01", "1e-2", "0.05"]).to_owned()),
            ));
        }
        if endpoint == "montecarlo" {
            params.push(("samples", num(rng.pick(&[200, 500]))));
            params.push(("seed", num(rng.pick(&[7, 11]))));
            params.push(("faults", Val::Str(rng.pick(&["worst", "uniform", "iid"]))));
            params.push(("p", Val::Num(rng.pick(&["0.2", "0.1"]).to_owned())));
        }
    }
    Spec {
        endpoint,
        params,
        in_query: rng.below(3) == 0,
    }
}

/// What a pair is built to exercise.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Pair {
    /// The same instance, spelled differently: keys must agree.
    Respelled,
    /// A different instance that differs in one parameter: keys differ.
    NearMiss,
    /// The second request has one parameter broken or dropped: mostly
    /// rejected (no claim then), sometimes still a valid spelling.
    Invalid,
}

fn parsed<T: std::str::FromStr>(spec: &Spec, name: &str) -> Option<T> {
    match spec.get(name)? {
        Val::Num(t) => t.parse().ok(),
        Val::Str(_) => None,
    }
}

/// One request pair for `endpoint`: the kind, the first request and
/// the second derived from it.
fn pair(rng: &mut SplitMix64, endpoint: &'static str) -> (Pair, Spec, Spec) {
    let mut a = base_spec(rng, endpoint);
    let mut b = a.clone();
    let kind = match rng.below(9) {
        1 if a.get("horizon").is_some() => {
            let horizon: f64 = parsed(&a, "horizon").expect("generated horizon");
            if horizon == 1e4 && rng.below(2) == 0 {
                b.remove("horizon"); // the default horizon
            } else {
                b.set("horizon", float_spelling(rng, horizon as u32));
            }
            Pair::Respelled
        }
        2 if parsed::<u32>(&a, "m") == Some(2) => {
            b.remove("m"); // m defaults to the line
            Pair::Respelled
        }
        3 if a.get("faults").is_some() => {
            // worst-case faults ignore p: present, absent or different
            a.set("faults", Val::Str("worst"));
            b = a.clone();
            match rng.below(3) {
                0 => b.remove("p"),
                1 => b.set("p", Val::Num("0.3".to_owned())),
                _ => b.in_query = !a.in_query,
            }
            Pair::Respelled
        }
        4 if a.get("eps").is_some() => {
            match (parsed::<f64>(&a, "eps") == Some(0.01), rng.below(2)) {
                (true, 0) => b.remove("eps"), // the default margin
                (true, _) => b.set("eps", Val::Num("0.010".to_owned())),
                (false, _) => b.set("eps", Val::Num("5e-2".to_owned())),
            }
            Pair::Respelled
        }
        5 if a.get("id").is_some() => {
            // threads shapes the schedule, never the rows
            b.set("threads", num(1 + rng.below(2)));
            Pair::Respelled
        }
        6 => {
            if a.get("horizon").is_some() {
                b.set("horizon", Val::Num("3e4".to_owned()));
            } else if let Some(max_k) = parsed::<u32>(&a, "max_k") {
                b.set("max_k", num(max_k % 3 + 1));
            } else if a.get("eta").is_some() {
                b.set("eta", Val::Num("1.75".to_owned()));
            } else {
                let k: u32 = parsed(&a, "k").expect("generated k");
                b.set("k", num(k + 1));
            }
            Pair::NearMiss
        }
        7 if a.get("faults").is_some() => {
            a.set("faults", Val::Str("iid"));
            a.set("p", Val::Num("0.2".to_owned()));
            b = a.clone();
            b.set("p", Val::Num("0.35".to_owned()));
            Pair::NearMiss
        }
        8 => {
            // break one parameter the first request carries: a string
            // where a number belongs (or an unknown name), a negative
            // number, or a missing required parameter
            let name = a.params[rng.below(a.params.len())].0;
            match rng.below(3) {
                0 => b.set(name, Val::Str("x")),
                1 => b.set(name, Val::Num("-1".to_owned())),
                _ => b.remove(name),
            }
            Pair::Invalid
        }
        _ => {
            b.in_query = !a.in_query;
            Pair::Respelled
        }
    };
    (kind, a, b)
}

/// The routing key equals the backend's memo key, end to end: over
/// seeded pairs of requests to all five memoizable endpoints (respelled
/// twins, near misses, malformed requests), whenever both answer 200
/// the keys are equal exactly when the second is a memo hit — one more
/// `cache.hits` and no new `cache.misses` on a fresh in-process backend.
#[test]
fn routing_keys_agree_exactly_when_the_backend_memo_hits() {
    const ENDPOINTS: [&str; 5] = [
        "closed_form",
        "evaluate",
        "verdict",
        "campaign",
        "montecarlo",
    ];
    let mut rng = SplitMix64(0x0004_0b5e_55ed);
    let mut checked = [0usize; 3];
    let (mut equal, mut rejected) = (0usize, 0usize);
    for case in 0..400 {
        let endpoint = ENDPOINTS[case % ENDPOINTS.len()];
        let (kind, a, b) = pair(&mut rng, endpoint);
        let (req_a, req_b) = (a.request(), b.request());
        let state = ServiceState::new(64, 4);
        let first = state.handle(&req_a);
        let before = state.cache_stats();
        let second = state.handle(&req_b);
        let after = state.cache_stats();
        if first.status != 200 || second.status != 200 {
            rejected += usize::from(first.status == 200);
            continue;
        }
        let (key_a, key_b) = (routing_key(&req_a), routing_key(&req_b));
        assert!(
            !key_a.starts_with("raw:"),
            "an answered request keys raw: {key_a}"
        );
        let hit = after.hits == before.hits + 1 && after.misses == before.misses;
        let context = format!("case {case} ({kind:?}): {a:?} then {b:?}\n{key_a}\n{key_b}");
        assert_eq!(key_a == key_b, hit, "keys vs memo hit, {context}");
        match kind {
            Pair::Respelled => assert_eq!(key_a, key_b, "respelled twins split, {context}"),
            Pair::NearMiss => assert_ne!(key_a, key_b, "near miss merged, {context}"),
            Pair::Invalid => {}
        }
        checked[kind as usize] += 1;
        equal += usize::from(key_a == key_b);
    }
    // the generator must reach every kind and both sides of the claim
    assert!(
        checked[0] >= 100 && checked[1] >= 20 && checked[2] >= 1,
        "{checked:?} pairs answered 200 twice (respelled, near miss, invalid)"
    );
    assert!(equal >= 100 && checked.iter().sum::<usize>() - equal >= 20);
    assert!(
        rejected >= 15,
        "only {rejected} second requests were rejected"
    );
}
