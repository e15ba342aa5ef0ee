//! A minimal HTTP/1.1 client for the router's forwards, tape replay and
//! the integration tests — the same hand-rolled layer as the server,
//! from the other side of the socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde_json::Value;

/// A full decoded response: status, headers (names lowercased), body.
pub type FullResponse = (u16, Vec<(String, String)>, String);

/// A persistent (keep-alive) connection to a `raysearchd` server.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects to `addr` (e.g. `127.0.0.1:8077`).
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: &str) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        HttpClient::from_stream(stream, Duration::from_secs(60))
    }

    /// Connects to `addr` with `timeout` bounding both the TCP connect
    /// and every subsequent read — the router's variant, where a wedged
    /// backend must fail the exchange, not wedge the router.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures (including the timeout).
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> std::io::Result<HttpClient> {
        let sock: std::net::SocketAddr = addr.parse().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("bad address {addr:?}: {e}"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        HttpClient::from_stream(stream, timeout)
    }

    fn from_stream(stream: TcpStream, read_timeout: Duration) -> std::io::Result<HttpClient> {
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Issues one request and reads the full response, reusing the
    /// connection. `body = Some(json)` sends a POST-style entity.
    ///
    /// # Errors
    ///
    /// Returns an error on transport failure or a malformed response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        self.request_with_headers(method, path, body, &[])
            .map(|(status, _headers, body)| (status, body))
    }

    /// Like [`HttpClient::request`], but also sends `extra_headers` on
    /// the request and returns the response headers (names lowercased)
    /// alongside the status and body — the trace-propagation variant.
    ///
    /// # Errors
    ///
    /// Returns an error on transport failure or a malformed response.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<FullResponse> {
        self.send(method, path, body.unwrap_or("").as_bytes(), extra_headers)
            .map_err(std::io::Error::from)
    }

    /// Sets the read timeout every later exchange on this connection
    /// runs under.
    pub(crate) fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(timeout))
    }

    /// Sends one request whose body is `body` byte for byte and reads
    /// the full response, telling apart a peer that never answered from
    /// one that failed mid-response.
    pub(crate) fn send(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
        extra_headers: &[(&str, &str)],
    ) -> Result<FullResponse, SendError> {
        // single write: see Response::write_to on Nagle interactions
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: raysearchd\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in extra_headers {
            wire.push_str(name);
            wire.push_str(": ");
            wire.push_str(value);
            wire.push_str("\r\n");
        }
        wire.push_str("\r\n");
        let mut wire = wire.into_bytes();
        wire.extend_from_slice(body);
        self.writer
            .write_all(&wire)
            .and_then(|()| self.writer.flush())
            .map_err(SendError::before_response)?;
        match self.reader.fill_buf() {
            Ok([]) => {
                return Err(SendError::Unanswered(bad(
                    "connection closed before status line".to_owned(),
                )))
            }
            Ok(_) => {}
            Err(e) => return Err(SendError::before_response(e)),
        }
        self.read_response().map_err(SendError::Failed)
    }

    fn read_response(&mut self) -> std::io::Result<FullResponse> {
        // `send` saw the first byte, so the status line is not empty
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;

        let mut headers = Vec::new();
        let mut content_length: Option<usize> = None;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside headers".to_owned()));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    content_length = value.parse().ok();
                }
                headers.push((name, value.to_owned()));
            }
        }
        let length =
            content_length.ok_or_else(|| bad("response without Content-Length".to_owned()))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|text| (status, headers, text))
            .map_err(|_| bad("response body is not UTF-8".to_owned()))
    }
}

/// Whether response `headers` (names lowercased) announce
/// `Connection: close`: the peer drops the socket after this response,
/// so the connection must not carry another request.
pub(crate) fn announces_close(headers: &[(String, String)]) -> bool {
    headers
        .iter()
        .any(|(name, value)| name == "connection" && value.eq_ignore_ascii_case("close"))
}

fn bad(why: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why)
}

/// Why [`HttpClient::send`] got no response.
#[derive(Debug)]
pub(crate) enum SendError {
    /// The peer closed or reset the connection before any byte of a
    /// response arrived.
    Unanswered(std::io::Error),
    /// Any other failure, including a read timeout.
    Failed(std::io::Error),
}

impl SendError {
    /// Classifies an error struck before the first response byte: a
    /// reset, an abort or a broken pipe means the peer never answered.
    fn before_response(e: std::io::Error) -> SendError {
        use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
        match e.kind() {
            BrokenPipe | ConnectionAborted | ConnectionReset | UnexpectedEof => {
                SendError::Unanswered(e)
            }
            _ => SendError::Failed(e),
        }
    }
}

impl From<SendError> for std::io::Error {
    fn from(e: SendError) -> std::io::Error {
        match e {
            SendError::Unanswered(e) | SendError::Failed(e) => e,
        }
    }
}

/// One-shot convenience: connect, request, parse the body as JSON.
///
/// # Errors
///
/// Returns a human-readable message on transport, HTTP or JSON failure.
pub fn fetch_json(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, Value), String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let (status, text) = client
        .request(method, path, body)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let value = serde_json::from_str(&text)
        .map_err(|e| format!("{method} {path}: non-JSON body {text:?}: {e}"))?;
    Ok((status, value))
}
