//! A hand-rolled, dependency-free HTTP/1.1 layer.
//!
//! The build environment has no crates.io access, so there is no hyper,
//! no tiny_http — just `std::net` and this module. It implements the
//! slice of HTTP/1.1 the evaluation server needs and nothing more:
//!
//! * request parsing: request line, headers, `Content-Length` bodies,
//!   query strings (no percent-decoding — every parameter this API
//!   takes is `[A-Za-z0-9_.+-]`);
//! * response writing: status line, `Content-Type: application/json`,
//!   `Content-Length`, explicit `Connection` header;
//! * persistent connections: HTTP/1.1 keep-alive semantics, honoring a
//!   client's `Connection: close`;
//! * hard limits (request-line / header / body size) so a misbehaving
//!   client cannot balloon server memory.
//!
//! Chunked transfer encoding, multipart bodies, TLS and HTTP/2 are out
//! of scope by design.

use std::fmt;
use std::io::{BufRead, Read, Write};

/// Longest accepted request line, in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly between requests — not an
    /// error, just the end of a keep-alive session.
    Closed,
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// The request exceeds one of the hard limits (413-worthy).
    TooLarge(String),
    /// A body-bearing method arrived without `Content-Length`
    /// (411-worthy): the server cannot know where the entity ends, and
    /// guessing "no body" would desynchronize the keep-alive stream —
    /// the entity's bytes would be misparsed as the next request line.
    LengthRequired(String),
    /// Transport-level I/O failure (includes read timeouts).
    Io(std::io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::TooLarge(why) => write!(f, "request too large: {why}"),
            HttpError::LengthRequired(why) => write!(f, "length required: {why}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The protocol version (`HTTP/1.1` or `HTTP/1.0`).
    pub version: String,
    /// The path component of the request target, without the query.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs in receipt order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The raw request body (empty unless `Content-Length` said more).
    pub body: Vec<u8>,
}

impl Request {
    /// An `HTTP/1.1` request without headers, its `target` (`path?query`)
    /// split exactly as [`read_request`] splits a request line's.
    pub fn new(method: &str, target: &str, body: impl Into<Vec<u8>>) -> Request {
        let (path, query) = split_target(target);
        Request {
            method: method.to_owned(),
            version: "HTTP/1.1".to_owned(),
            path,
            query,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// The first header named `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first query parameter named `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should close after this request:
    /// `Connection: close`, or an HTTP/1.0 request without an explicit
    /// `Connection: keep-alive` (1.0 defaults to close, 1.1 to
    /// keep-alive).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            None => self.version == "HTTP/1.0",
        }
    }

    /// The request body as UTF-8, if it is valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Reads one line terminated by `\n`, enforcing `limit` bytes, and
/// strips the line terminator (`\r\n` or bare `\n`).
fn read_line_limited(reader: &mut impl BufRead, limit: usize) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let mut take = reader.take((limit + 1) as u64);
    let n = take.read_until(b'\n', &mut raw)?;
    if n == 0 {
        return Ok(None); // clean EOF
    }
    if raw.last() != Some(&b'\n') {
        // either the limit cut the read short, or EOF hit mid-line
        return if raw.len() > limit {
            Err(HttpError::TooLarge(format!("line exceeds {limit} bytes")))
        } else {
            Err(HttpError::Malformed(
                "EOF in the middle of a line".to_owned(),
            ))
        };
    }
    raw.pop();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| HttpError::Malformed("non-UTF-8 bytes in header section".to_owned()))
}

/// Splits a request target into its path and `key=value` query pairs
/// (no percent-decoding).
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    let Some((path, query)) = target.split_once('?') else {
        return (target.to_owned(), Vec::new());
    };
    let query = query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (part.to_owned(), String::new()),
        })
        .collect();
    (path.to_owned(), query)
}

/// Reads and parses one request off `reader`.
///
/// # Errors
///
/// [`HttpError::Closed`] on clean EOF before the first byte,
/// [`HttpError::Malformed`]/[`HttpError::TooLarge`] on protocol
/// violations, [`HttpError::Io`] on transport failures (including read
/// timeouts mid-request).
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let request_line = match read_line_limited(reader, MAX_REQUEST_LINE)? {
        None => return Err(HttpError::Closed),
        Some(line) if line.is_empty() => {
            // tolerate a stray CRLF between pipelined requests
            match read_line_limited(reader, MAX_REQUEST_LINE)? {
                None => return Err(HttpError::Closed),
                Some(line) => line,
            }
        }
        Some(line) => line,
    };

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let (path, query) = split_target(target);

    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(reader, MAX_REQUEST_LINE)?
            .ok_or_else(|| HttpError::Malformed("EOF inside header section".to_owned()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    // chunked bodies are unsupported; silently reading 0 bytes would
    // desynchronize the keep-alive stream (chunk octets would be parsed
    // as the next request line), so reject them outright
    if let Some((_, te)) = headers.iter().find(|(n, _)| n == "transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(HttpError::Malformed(format!(
                "unsupported Transfer-Encoding {te:?} (use Content-Length)"
            )));
        }
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))
        })
        .transpose()?;
    // body-bearing methods must declare their length: defaulting to "no
    // body" would leave any actual entity bytes in the stream to be
    // misparsed as the next keep-alive request (or stall the reader)
    let content_length = match content_length {
        Some(n) => n,
        None if matches!(method, "POST" | "PUT" | "PATCH") => {
            return Err(HttpError::LengthRequired(format!(
                "{method} requests must carry a Content-Length header"
            )))
        }
        None => 0,
    };
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds {MAX_BODY}"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method: method.to_owned(),
        version: version.to_owned(),
        path,
        query,
        headers,
        body,
    })
}

/// One HTTP response: a status code, a body, and optional extra
/// headers (trace echo, content-type overrides for `/metrics`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The response body (`application/json` unless a `Content-Type`
    /// header override is present).
    pub body: String,
    /// Extra response headers `(name, value)`, emitted after the
    /// defaults. A `Content-Type` entry here replaces the default
    /// `application/json`; names are matched case-insensitively.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A `200 OK` response with the given JSON body.
    pub fn ok(body: impl Into<String>) -> Self {
        Response {
            status: 200,
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// An error response whose body is `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Self {
        let payload = serde_json::Value::String(message.to_owned());
        Response {
            status,
            body: format!("{{\"error\":{}}}", payload.to_json_string()),
            headers: Vec::new(),
        }
    }

    /// The shared load-shed response: `503` with a `Retry-After: 1`
    /// hint so well-behaved clients back off instead of hammering a
    /// saturated acceptor or a full job queue. Both tiers' accept
    /// loops and job admission emit their 503s through this.
    pub fn shed(message: &str) -> Self {
        Response::error(503, message).with_header("Retry-After", "1")
    }

    /// Returns `self` with an extra response header appended.
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The standard reason phrase for this status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            411 => "Length Required",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response to `writer`, advertising keep-alive or
    /// close as requested. The whole response goes out in a single
    /// write: small header-only packets would otherwise interact with
    /// Nagle's algorithm and delayed ACKs into ~40 ms round trips.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let content_type = self
            .headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-type"))
            .map_or("application/json", |(_, v)| v.as_str());
        let mut wire = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason(),
            content_type,
            self.body.len(),
            connection,
        );
        for (name, value) in &self.headers {
            if !name.eq_ignore_ascii_case("content-type") {
                wire.push_str(name);
                wire.push_str(": ");
                wire.push_str(value);
                wire.push_str("\r\n");
            }
        }
        wire.push_str("\r\n");
        wire.push_str(&self.body);
        writer.write_all(wire.as_bytes())?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /closed_form?m=2&k=3&f=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/closed_form");
        assert_eq!(req.query_param("m"), Some("2"));
        assert_eq!(req.query_param("k"), Some("3"));
        assert_eq!(req.query_param("f"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
    }

    #[test]
    fn new_splits_the_target_like_the_wire_parser() {
        for target in [
            "/closed_form?k=3&&f=1&flag",
            "/jobs?endpoint=evaluate",
            "/stats",
            "/?",
        ] {
            let wire = parse(format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
            assert_eq!(Request::new("GET", target, ""), wire, "{target}");
        }
        let req = Request::new("POST", "/evaluate?m=2", "{\"k\":3}");
        assert_eq!(req.query, vec![("m".to_owned(), "2".to_owned())]);
        assert_eq!(req.body_utf8(), Some("{\"k\":3}"));
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            b"POST /evaluate HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"k\":3}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_utf8(), Some("{\"k\":3}"));
        assert_eq!(req.header("content-type"), Some("application/json"));
    }

    #[test]
    fn keep_alive_parses_back_to_back_requests() {
        let wire = b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let first = read_request(&mut reader).unwrap();
        assert_eq!(first.path, "/healthz");
        assert!(!first.wants_close());
        let second = read_request(&mut reader).unwrap();
        assert_eq!(second.path, "/stats");
        assert!(second.wants_close());
        assert!(matches!(read_request(&mut reader), Err(HttpError::Closed)));
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.version, "HTTP/1.0");
        assert!(req.wants_close(), "1.0 without keep-alive must close");
        let req = parse(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.wants_close(), "explicit 1.0 keep-alive is honored");
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert!(!req.wants_close(), "1.1 defaults to keep-alive");
    }

    #[test]
    fn clean_eof_is_closed_not_malformed() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        // a stray blank line then EOF is also a clean close
        assert!(matches!(parse(b"\r\n"), Err(HttpError::Closed)));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            &b"GET\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET /x HTTP/1.1\r\nTruncated",
        ] {
            assert!(
                matches!(parse(bad), Err(HttpError::Malformed(_) | HttpError::Io(_))),
                "accepted {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn enforces_limits() {
        let long_line = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(MAX_REQUEST_LINE + 10)
        );
        assert!(matches!(
            parse(long_line.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));

        let huge_body = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse(huge_body.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));

        let mut many_headers = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many_headers.push_str(&format!("h{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert!(matches!(
            parse(many_headers.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected() {
        let req = parse(
            b"POST /evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n7\r\n{\"k\":3}\r\n0\r\n\r\n",
        );
        assert!(matches!(req, Err(HttpError::Malformed(_))));
        // identity is a no-op and stays accepted
        let req = parse(b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn post_without_content_length_is_length_required() {
        for method in ["POST", "PUT", "PATCH"] {
            let wire = format!("{method} /evaluate HTTP/1.1\r\nHost: x\r\n\r\n");
            assert!(
                matches!(parse(wire.as_bytes()), Err(HttpError::LengthRequired(_))),
                "{method} without Content-Length must be 411-worthy"
            );
        }
        // explicit zero-length bodies remain fine…
        let req = parse(b"POST /evaluate HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert!(req.body.is_empty());
        // …and GET stays exempt (no entity expected)
        assert!(parse(b"GET /healthz HTTP/1.1\r\n\r\n").is_ok());
    }

    #[test]
    fn truncated_body_is_io_error() {
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort");
        assert!(matches!(req, Err(HttpError::Io(_))));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::ok("{\"a\":1}").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));

        let mut out = Vec::new();
        Response::error(404, "no such endpoint \"x\"")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        // the error message is JSON-escaped
        assert!(text.contains(r#"{"error":"no such endpoint \"x\""}"#));
    }

    #[test]
    fn extra_headers_and_content_type_override() {
        let mut out = Vec::new();
        Response::ok("{}")
            .with_header("x-raysearch-trace", "00000000deadbeef")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("x-raysearch-trace: 00000000deadbeef\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        Response::ok("# HELP\n")
            .with_header("Content-Type", "text/plain; version=0.0.4")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(
            !text.contains("application/json"),
            "the override must replace the default, not duplicate it"
        );
    }
}
