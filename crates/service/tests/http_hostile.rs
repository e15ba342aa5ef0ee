//! Seeded hostile input for the hand-rolled HTTP parser: random bytes,
//! truncated and bit-flipped valid requests, request lines, header
//! counts and `Content-Length`s at and past the hard limits, and quotes,
//! backslashes, NULs and non-UTF-8 bytes in the method, path and header
//! values. No input may panic `read_request`, and every request it
//! accepts must respect the limits and carry exactly the body its
//! `Content-Length` announced.
//!
//! The generator is a self-contained SplitMix64, so every run replays
//! the same cases.

use std::io::BufReader;
use std::panic::catch_unwind;

use raysearch_service::http::{
    read_request, HttpError, Request, MAX_BODY, MAX_HEADERS, MAX_REQUEST_LINE,
};

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

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// A well-formed GET or POST (random body bytes) the server could see.
fn valid(rng: &mut SplitMix64) -> Vec<u8> {
    let path = [
        "/evaluate",
        "/closed_form?k=3&f=1",
        "/stats",
        "/jobs/00ff00ff00ff00ff",
    ][rng.below(4)];
    if rng.below(2) == 0 {
        format!("GET {path} HTTP/1.1\r\nHost: x\r\nx-raysearch-trace: 00000000deadbeef\r\n\r\n")
            .into_bytes()
    } else {
        let len = rng.below(64);
        let body = rng.bytes(len);
        let mut out = format!("POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len}\r\n\r\n")
            .into_bytes();
        out.extend(body);
        out
    }
}

/// A request at or just past one hard limit.
fn oversized(rng: &mut SplitMix64) -> Vec<u8> {
    match rng.below(4) {
        0 => {
            let path = "a".repeat(MAX_REQUEST_LINE - 16 + rng.below(32));
            format!("GET /{path} HTTP/1.1\r\n\r\n").into_bytes()
        }
        1 => {
            let headers = MAX_HEADERS - 1 + rng.below(3);
            let lines: String = (0..headers).map(|i| format!("x-h{i}: v\r\n")).collect();
            format!("GET /stats HTTP/1.1\r\n{lines}\r\n").into_bytes()
        }
        2 => {
            // announces a body at or past MAX_BODY but sends a short one
            let len = MAX_BODY - 1 + rng.below(3);
            format!("POST /evaluate HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{{}}").into_bytes()
        }
        _ => {
            let len = ["18446744073709551616", "-1", "1e3", "+2", " 2 "][rng.below(5)];
            format!("POST /evaluate HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{{}}").into_bytes()
        }
    }
}

/// A GET with a quote, backslash, NUL or non-UTF-8 byte spliced into its
/// method, path or a header value.
fn spliced(rng: &mut SplitMix64) -> Vec<u8> {
    let special: &[u8] = [&b"\""[..], b"\\", b"\0", b"\xff", b"\xc3\x28"][rng.below(5)];
    let mut parts: [Vec<u8>; 3] = [b"GET".to_vec(), b"/evaluate".to_vec(), b"ab-cd".to_vec()];
    let part = &mut parts[rng.below(3)];
    let at = rng.below(part.len() + 1);
    part.splice(at..at, special.iter().copied());
    let [method, path, value] = parts;
    let mut out = method;
    out.push(b' ');
    out.extend(path);
    out.extend(b" HTTP/1.1\r\nx-raysearch-trace: ");
    out.extend(value);
    out.extend(b"\r\n\r\n");
    out
}

fn hostile(rng: &mut SplitMix64, case: u64) -> Vec<u8> {
    match case % 5 {
        0 => {
            let len = rng.below(256);
            rng.bytes(len)
        }
        1 => {
            let mut input = valid(rng);
            input.truncate(rng.below(input.len() + 1));
            input
        }
        2 => {
            let mut input = valid(rng);
            for _ in 0..=rng.below(4) {
                let at = rng.below(input.len());
                input[at] ^= 1 << rng.below(8);
            }
            input
        }
        3 => oversized(rng),
        _ => spliced(rng),
    }
}

/// The limits every accepted request must respect.
fn check_bounds(req: &Request, input: &[u8]) {
    let input = String::from_utf8_lossy(input);
    let line = req.method.len() + 1 + req.path.len() + 1 + req.version.len();
    assert!(
        line <= MAX_REQUEST_LINE,
        "request line over the limit: {input:?}"
    );
    assert!(
        req.headers.len() <= MAX_HEADERS,
        "too many headers: {input:?}"
    );
    for (name, value) in &req.headers {
        assert!(
            name.len() + value.len() < MAX_REQUEST_LINE,
            "header over the limit"
        );
    }
    assert!(req.body.len() <= MAX_BODY, "body over the limit");
    let announced = req.header("content-length").map_or(0, |v| {
        v.parse::<usize>()
            .expect("an accepted Content-Length parses")
    });
    assert_eq!(
        req.body.len(),
        announced,
        "body length vs Content-Length: {input:?}"
    );
}

#[test]
fn hostile_input_never_panics_and_accepted_requests_stay_bounded() {
    let mut rng = SplitMix64(0x5eed);
    let mut accepted = 0;
    for case in 0..CASES {
        let input = hostile(&mut rng, case);
        let outcome = catch_unwind(|| read_request(&mut BufReader::new(&input[..])))
            .unwrap_or_else(|_| {
                let input = String::from_utf8_lossy(&input);
                panic!("read_request panicked on case {case}: {input:?}")
            });
        match outcome {
            Ok(req) => {
                check_bounds(&req, &input);
                accepted += 1;
            }
            Err(
                HttpError::Closed
                | HttpError::Malformed(_)
                | HttpError::TooLarge(_)
                | HttpError::LengthRequired(_)
                | HttpError::Io(_),
            ) => {}
        }
    }
    // the generator must reach both sides of the parser
    assert!(
        accepted > CASES / 10 && accepted < CASES * 9 / 10,
        "{accepted} of {CASES} accepted"
    );
}
