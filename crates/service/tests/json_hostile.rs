//! Seeded hostile JSON for the request-key path. The router derives
//! every routing key by running the backend's own envelope unwrap and
//! `prepare` on untrusted bodies, so those must never panic: random,
//! truncated, mutated and padded bodies over the five memoizable
//! endpoints and `POST /jobs`, plus objects and arrays nested past the
//! JSON parser's 128-level limit. Every input must give one key, the
//! same key every time, and either the raw fallback or a key of its
//! own endpoint.
//!
//! The generator is a self-contained SplitMix64, so every run replays
//! the same cases.

use std::panic::catch_unwind;

use raysearch_service::http::Request;
use raysearch_service::routing_key;

const CASES: u64 = 4000;

/// The SplitMix64 sequence (Steele et al.).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<'a, T: ?Sized>(&mut self, items: &[&'a T]) -> &'a T {
        items[self.below(items.len())]
    }
}

/// Each target path with the memo-key prefixes a non-raw key for it
/// may carry (a job keys as the endpoint it wraps).
const TARGETS: [(&str, &[&str]); 6] = [
    ("/closed_form", &["closed_form:", "lambda:"]),
    ("/evaluate", &["evaluate:"]),
    ("/verdict", &["verdict:"]),
    ("/campaign", &["campaign:"]),
    ("/montecarlo", &["montecarlo:"]),
    ("/jobs", &["evaluate:", "montecarlo:", "campaign:"]),
];

/// Well-formed payloads to mutate: at least one accepted by each target.
const SEEDS: [&str; 8] = [
    r#"{"m":2,"k":3,"f":1,"horizon":1e4}"#,
    r#"{"k":5,"f":0}"#,
    r#"{"eta":1.5}"#,
    r#"{"m":2,"k":3,"f":1,"horizon":1000,"eps":0.01}"#,
    r#"{"id":"e2","max_k":3,"threads":2}"#,
    r#"{"m":2,"k":3,"f":1,"horizon":1000,"samples":500,"seed":7,"faults":"iid","p":0.2}"#,
    r#"{"endpoint":"evaluate","client":"c","m":2,"k":600,"f":599,"horizon":1e12}"#,
    r#"{"endpoint":"campaign","id":"e11","max_k":12}"#,
];

/// Bytes that matter to a JSON parser, spliced in by mutation.
const SPECIAL: [&str; 18] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    ",",
    ":",
    "-",
    ".",
    "e",
    "0",
    "\0",
    "\u{ff}",
    "\\u",
    "\\ud800",
    "1e999",
    "99999999999999999999",
];

/// JSON-ish tokens for random bodies.
const TOKENS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"k\"",
    "\"m\"",
    "\"f\"",
    "\"horizon\"",
    "\"endpoint\"",
    "\"evaluate\"",
    "\"id\"",
    "\"e2\"",
    "3",
    "-1",
    "1e4",
    "0.5",
    "1e309",
    "-0",
    "true",
    "null",
    "\"\\u00e9\"",
    " ",
];

/// Query strings a request may carry (the `endpoint` tag among them).
const QUERIES: [&str; 6] = [
    "",
    "endpoint=evaluate",
    "endpoint=campaign&client=q",
    "k=3&f=1",
    "horizon=1e4&m=2",
    "endpoint=verdict&k=x",
];

fn random_bytes(rng: &mut SplitMix64) -> Vec<u8> {
    let len = rng.below(96);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn truncated(rng: &mut SplitMix64) -> Vec<u8> {
    let seed = rng.pick(&SEEDS).as_bytes();
    seed[..rng.below(seed.len() + 1)].to_vec()
}

fn mutated(rng: &mut SplitMix64) -> Vec<u8> {
    let mut body = rng.pick(&SEEDS).as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(body.len() + 1);
        match rng.below(3) {
            0 if at < body.len() => body[at] ^= 1 << rng.below(8),
            1 if at < body.len() => {
                body.remove(at);
            }
            _ => {
                let special = rng.pick(&SPECIAL).as_bytes();
                body.splice(at..at, special.iter().copied());
            }
        }
    }
    body
}

fn padded(rng: &mut SplitMix64) -> Vec<u8> {
    let seed = rng.pick(&SEEDS);
    let body = match rng.below(6) {
        0 => format!(" \t\r\n{seed}\n\n"),
        1 => format!("{seed}{seed}"),
        2 => format!("[{seed}]"),
        3 => format!("{seed},"),
        4 => format!(
            "{},\"pad\":\"{}\"}}",
            &seed[..seed.len() - 1],
            "x".repeat(rng.below(4096))
        ),
        _ => format!(
            "{},\"k\":{}}}",
            &seed[..seed.len() - 1],
            "9".repeat(1 + rng.below(40))
        ),
    };
    body.into_bytes()
}

fn tokens(rng: &mut SplitMix64) -> Vec<u8> {
    let count = rng.below(24);
    (0..count)
        .map(|_| rng.pick(&TOKENS))
        .collect::<String>()
        .into_bytes()
}

fn hostile_body(rng: &mut SplitMix64, case: u64) -> Vec<u8> {
    match case % 5 {
        0 => random_bytes(rng),
        1 => truncated(rng),
        2 => mutated(rng),
        3 => padded(rng),
        _ => tokens(rng),
    }
}

/// The raw fallback key, rendered independently of the library.
fn raw_key(req: &Request) -> String {
    let query: Vec<String> = req.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let query = if query.is_empty() {
        String::new()
    } else {
        format!("?{}", query.join("&"))
    };
    format!(
        "raw:{}:{}{query}:{}",
        req.method,
        req.path,
        String::from_utf8_lossy(&req.body)
    )
}

/// Keys `req` under `catch_unwind` twice and checks the key's shape.
/// Returns whether the key is raw.
fn check(req: &Request, prefixes: &[&str], case: &str) -> bool {
    let key = catch_unwind(|| routing_key(req))
        .unwrap_or_else(|_| panic!("routing_key panicked on {case}: {req:?}"));
    let again = catch_unwind(|| routing_key(req))
        .unwrap_or_else(|_| panic!("routing_key panicked on {case} the second time: {req:?}"));
    assert_eq!(key, again, "routing_key is not deterministic on {case}");
    if key.starts_with("raw:") {
        assert_eq!(key, raw_key(req), "raw fallback drifted on {case}");
        return true;
    }
    assert!(
        prefixes.iter().any(|p| key.starts_with(p)),
        "{case}: {} keyed as {key:?}",
        req.path
    );
    false
}

#[test]
fn hostile_bodies_never_panic_and_key_deterministically() {
    let mut rng = SplitMix64(0x0a50_5eed);
    let mut raw = 0;
    for case in 0..CASES {
        let (path, prefixes) = TARGETS[rng.below(TARGETS.len())];
        let method = if rng.below(8) == 0 { "GET" } else { "POST" };
        let query = QUERIES[rng.below(QUERIES.len())];
        let target = if query.is_empty() {
            path.to_owned()
        } else {
            format!("{path}?{query}")
        };
        let req = Request::new(method, &target, hostile_body(&mut rng, case));
        if check(&req, prefixes, &format!("case {case}")) {
            raw += 1;
        }
    }
    // the generator must reach both sides of the key derivation
    assert!(
        raw > CASES / 2 && raw < CASES * 97 / 100,
        "{raw} of {CASES} cases keyed raw"
    );
}

#[test]
fn nesting_at_and_past_the_parser_limit_keys_raw() {
    for depth in [127, 128, 129, 200, 100_000] {
        let object = format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        let array = format!("{{\"k\":{}3{}}}", "[".repeat(depth), "]".repeat(depth));
        for (path, prefixes) in TARGETS {
            for body in [&object, &array] {
                let req = Request::new("POST", path, body.as_str());
                assert!(
                    check(&req, prefixes, &format!("depth {depth}")),
                    "a nested body at depth {depth} must not key as an instance"
                );
            }
        }
    }
}
