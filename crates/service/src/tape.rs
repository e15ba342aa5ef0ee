//! The record/replay tape: a line-delimited JSON capture of request
//! traffic with pinned response digests.
//!
//! Every payload this system serves is deterministic and byte-identical
//! by construction, so a recorded request stream is *verifiable*: each
//! tape line carries the request (method, target, body, arrival tick)
//! plus the digest of the response it got, and a replay harness can
//! demand bit-for-bit agreement from any later fleet — load testing
//! becomes a regression test instead of a flaky benchmark.
//!
//! One wrinkle: response bodies wrap the deterministic payload as
//! `{"cached":<bool>,"result":…}`, and the `cached` flag legitimately
//! differs between the recording run (a cold miss) and a warm replay (a
//! hit). Digests therefore cover the [`normalize_body`] form — the
//! `cached` flag forced to `false` — which *is* request-determined.
//! Router-local endpoints (`/healthz`, `/stats`) report live state and
//! are excluded from tapes entirely (see [`is_recordable`]).
//!
//! The wire format is one JSON object per line with a fixed field
//! order (`v`, `tick`, `method`, `target`, `body`, `status`, `digest`,
//! `len`) so a tape round-trips through parse → re-serialize
//! byte-identically; a committed golden fixture pins the format.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use raysearch_core::stable_hash64;
use serde_json::{Map, Value};

use crate::http::Response;

/// The tape format version; bumped on any incompatible change.
pub const TAPE_VERSION: u64 = 1;

/// Whether requests to `path` belong on a tape. `/healthz`, `/stats`,
/// `/metrics`, `/debug/slow` and the `/debug/trace` family answer with
/// live, router-local state (uptime, counters, histograms, sampled
/// span trees), so their bytes are not request-determined and
/// recording them would make every replay fail verification. The
/// `/jobs` family is excluded for the same reason from the other side:
/// submissions mint fresh ids and polls race the compute worker, so
/// neither the envelope bytes nor the observed state are
/// request-determined (the *payload* a job computes is still covered —
/// via the synchronous endpoint it shares bytes with). Trace
/// propagation never interferes with tapes at all: digests cover the
/// (normalized) response *body* only, and the `x-raysearch-trace` echo
/// lives in response headers.
#[must_use]
pub fn is_recordable(path: &str) -> bool {
    !matches!(path, "/healthz" | "/stats" | "/metrics" | "/debug/slow")
        && !path.starts_with("/debug/trace")
        && !path.starts_with("/jobs")
}

/// Forces the `cached` flag of a wrapped response body to `false`, so
/// the recording run (a cold miss) and any warm replay digest
/// identically. Bodies without the wrapper (errors, non-wrapped
/// endpoints) pass through untouched.
#[must_use]
pub fn normalize_body(body: &str) -> String {
    match body.strip_prefix("{\"cached\":true,") {
        Some(rest) => format!("{{\"cached\":false,{rest}"),
        None => body.to_owned(),
    }
}

/// The digest a tape pins for one response: the pinned FNV-1a hash of
/// the [normalized](normalize_body) body, as 16 lowercase hex digits.
#[must_use]
pub fn digest_body(body: &str) -> String {
    format!("{:016x}", stable_hash64(normalize_body(body).as_bytes()))
}

/// One recorded request/response pair — one line of a tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeEntry {
    /// Arrival order at the recorder (0-based, dense). Replay sorts by
    /// tick, so a tape's ordering survives serialization.
    pub tick: u64,
    /// The request method (`GET`, `POST`, …).
    pub method: String,
    /// The request target: path plus query string, exactly as routable
    /// (`/closed_form?k=3&f=1`).
    pub target: String,
    /// The request body (UTF-8; this API speaks JSON).
    pub body: String,
    /// The HTTP status the recording run observed.
    pub status: u16,
    /// [`digest_body`] of the observed response.
    pub digest: String,
    /// Byte length of the normalized response body (a cheap second
    /// check, and a human-readable size column).
    pub len: u64,
}

impl TapeEntry {
    /// Builds the entry for one observed exchange, assigning `tick`.
    #[must_use]
    pub fn observe(tick: u64, method: &str, target: &str, body: &str, response: &Response) -> Self {
        TapeEntry {
            tick,
            method: method.to_owned(),
            target: target.to_owned(),
            body: body.to_owned(),
            status: response.status,
            digest: digest_body(&response.body),
            len: normalize_body(&response.body).len() as u64,
        }
    }

    /// Whether a replayed response agrees with this entry byte-for-byte
    /// (modulo the `cached` flag, which is not request-determined).
    #[must_use]
    pub fn matches(&self, status: u16, body: &str) -> bool {
        status == self.status
            && digest_body(body) == self.digest
            && normalize_body(body).len() as u64 == self.len
    }

    /// Serializes the entry as its canonical tape line (no trailing
    /// newline). Field order is fixed, so `from_line` → `to_line`
    /// round-trips a canonical line byte-identically.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut doc = Map::new();
        doc.insert(
            "v".to_owned(),
            serde_json::to_value(TAPE_VERSION).expect("u64 serializes"),
        );
        doc.insert(
            "tick".to_owned(),
            serde_json::to_value(self.tick).expect("u64 serializes"),
        );
        doc.insert("method".to_owned(), Value::String(self.method.clone()));
        doc.insert("target".to_owned(), Value::String(self.target.clone()));
        doc.insert("body".to_owned(), Value::String(self.body.clone()));
        doc.insert(
            "status".to_owned(),
            serde_json::to_value(u64::from(self.status)).expect("u64 serializes"),
        );
        doc.insert("digest".to_owned(), Value::String(self.digest.clone()));
        doc.insert(
            "len".to_owned(),
            serde_json::to_value(self.len).expect("u64 serializes"),
        );
        Value::Object(doc).to_json_string()
    }

    /// Parses one tape line. Strict by design: a version mismatch, a
    /// missing field, or an *extra* field is an error — format drift
    /// must fail loudly, not deserialize into something almost right.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn from_line(line: &str) -> Result<TapeEntry, String> {
        let doc: Value = serde_json::from_str(line).map_err(|e| format!("bad tape line: {e}"))?;
        let obj = doc
            .as_object()
            .ok_or_else(|| format!("tape line is not an object: {line:?}"))?;
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| format!("tape line missing {name:?}: {line:?}"))
        };
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| format!("tape field {name:?} is not an integer: {line:?}"))
        };
        let text = |name: &str| {
            field(name).map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("tape field {name:?} is not a string: {line:?}"))
            })?
        };
        let version = uint("v")?;
        if version != TAPE_VERSION {
            return Err(format!(
                "tape version {version} is not the supported {TAPE_VERSION}"
            ));
        }
        if obj.len() != 8 {
            let known = [
                "v", "tick", "method", "target", "body", "status", "digest", "len",
            ];
            let extras: Vec<&str> = obj
                .iter()
                .map(|(k, _)| k.as_str())
                .filter(|k| !known.contains(k))
                .collect();
            return Err(format!("tape line has unknown fields {extras:?}: {line:?}"));
        }
        let status = uint("status")?;
        let status = u16::try_from(status)
            .map_err(|_| format!("tape status {status} is not a valid HTTP status"))?;
        Ok(TapeEntry {
            tick: uint("tick")?,
            method: text("method")?,
            target: text("target")?,
            body: text("body")?,
            status,
            digest: text("digest")?,
            len: uint("len")?,
        })
    }
}

/// A loaded tape: the recorded entries, in file order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tape {
    /// The recorded entries.
    pub entries: Vec<TapeEntry>,
}

impl Tape {
    /// Loads a tape from `path`, skipping blank lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and the first malformed line (with its
    /// 1-based line number).
    pub fn load(path: &Path) -> Result<Tape, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            entries.push(
                TapeEntry::from_line(line)
                    .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?,
            );
        }
        Ok(Tape { entries })
    }

    /// Serializes the whole tape in canonical form (one line per entry,
    /// `\n`-terminated).
    #[must_use]
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&entry.to_line());
            out.push('\n');
        }
        out
    }

    /// The entries sorted by arrival tick (stably), the order a replay
    /// harness issues them in.
    #[must_use]
    pub fn in_tick_order(&self) -> Vec<&TapeEntry> {
        let mut ordered: Vec<&TapeEntry> = self.entries.iter().collect();
        ordered.sort_by_key(|e| e.tick);
        ordered
    }
}

/// The recording side: hands out dense arrival ticks and appends
/// entries to an open tape file (line-buffered, flushed per entry so a
/// killed recorder loses at most the in-flight line).
#[derive(Debug)]
pub struct TapeRecorder {
    writer: Mutex<BufWriter<File>>,
    tick: AtomicU64,
}

impl TapeRecorder {
    /// Creates (truncating) the tape file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the create failure.
    pub fn create(path: &Path) -> std::io::Result<TapeRecorder> {
        Ok(TapeRecorder {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
            tick: AtomicU64::new(0),
        })
    }

    /// Assigns the next arrival tick (dense, starting at 0).
    pub fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends one entry to the tape.
    pub fn record(&self, entry: &TapeEntry) {
        let mut writer = self.writer.lock();
        // best-effort: a full disk should not take the router down
        let _ = writeln!(writer, "{}", entry.to_line());
        let _ = writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> TapeEntry {
        TapeEntry {
            tick: 3,
            method: "POST".to_owned(),
            target: "/evaluate".to_owned(),
            body: "{\"m\":2,\"k\":3,\"f\":1}".to_owned(),
            status: 200,
            digest: "00d1e2f3a4b5c697".to_owned(),
            len: 42,
        }
    }

    #[test]
    fn line_round_trips_byte_identically() {
        let line = entry().to_line();
        let parsed = TapeEntry::from_line(&line).unwrap();
        assert_eq!(parsed, entry());
        assert_eq!(parsed.to_line(), line);
    }

    #[test]
    fn line_has_the_pinned_field_order() {
        let line = entry().to_line();
        assert_eq!(
            line,
            "{\"v\":1,\"tick\":3,\"method\":\"POST\",\"target\":\"/evaluate\",\
             \"body\":\"{\\\"m\\\":2,\\\"k\\\":3,\\\"f\\\":1}\",\"status\":200,\
             \"digest\":\"00d1e2f3a4b5c697\",\"len\":42}"
        );
    }

    #[test]
    fn parse_rejects_drifted_formats() {
        // wrong version
        let drift = entry().to_line().replacen("\"v\":1", "\"v\":2", 1);
        assert!(TapeEntry::from_line(&drift)
            .unwrap_err()
            .contains("version"));
        // missing field
        let missing = "{\"v\":1,\"tick\":0}";
        assert!(TapeEntry::from_line(missing).is_err());
        // extra field
        let extra = entry()
            .to_line()
            .replacen("\"len\":42}", "\"len\":42,\"zzz\":1}", 1);
        assert!(TapeEntry::from_line(&extra)
            .unwrap_err()
            .contains("unknown fields"));
        // not JSON at all
        assert!(TapeEntry::from_line("not json").is_err());
    }

    #[test]
    fn normalization_forces_the_cached_flag() {
        let cold = "{\"cached\":false,\"result\":{\"a\":9}}";
        let warm = "{\"cached\":true,\"result\":{\"a\":9}}";
        assert_eq!(normalize_body(warm), cold);
        assert_eq!(normalize_body(cold), cold);
        assert_eq!(digest_body(warm), digest_body(cold));
        // errors have no wrapper and pass through untouched
        let err = "{\"error\":\"nope\"}";
        assert_eq!(normalize_body(err), err);
    }

    #[test]
    fn observe_then_match_accepts_both_temperatures() {
        let cold = Response::ok("{\"cached\":false,\"result\":{\"a\":9}}");
        let entry = TapeEntry::observe(0, "GET", "/closed_form?k=1&f=0", "", &cold);
        assert!(entry.matches(200, "{\"cached\":false,\"result\":{\"a\":9}}"));
        assert!(entry.matches(200, "{\"cached\":true,\"result\":{\"a\":9}}"));
        assert!(!entry.matches(200, "{\"cached\":false,\"result\":{\"a\":8}}"));
        assert!(!entry.matches(503, "{\"cached\":false,\"result\":{\"a\":9}}"));
    }

    #[test]
    fn recorder_writes_loadable_tapes_with_dense_ticks() {
        let dir = std::env::temp_dir().join(format!("raysearch-tape-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.tape");
        let recorder = TapeRecorder::create(&path).unwrap();
        assert_eq!(recorder.next_tick(), 0);
        assert_eq!(recorder.next_tick(), 1);
        let mut e = entry();
        e.tick = 0;
        recorder.record(&e);
        e.tick = 1;
        recorder.record(&e);
        let tape = Tape::load(&path).unwrap();
        assert_eq!(tape.entries.len(), 2);
        assert_eq!(tape.entries[0].tick, 0);
        assert_eq!(tape.entries[1].tick, 1);
        // canonical save equals what the recorder streamed
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(tape.canonical_text(), streamed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn router_local_paths_are_not_recordable() {
        assert!(!is_recordable("/healthz"));
        assert!(!is_recordable("/stats"));
        assert!(!is_recordable("/metrics"));
        assert!(!is_recordable("/debug/slow"));
        assert!(!is_recordable("/debug/trace"));
        assert!(!is_recordable("/debug/trace/00000000000000aa"));
        // jobs are stateful (submit mutates, polls race the worker), so
        // their bytes are not request-determined
        assert!(!is_recordable("/jobs"));
        assert!(!is_recordable("/jobs/00000000000000aa"));
        assert!(is_recordable("/evaluate"));
        assert!(is_recordable("/closed_form"));
        assert!(is_recordable("/no_such_endpoint"));
    }

    #[test]
    fn tick_order_is_stable() {
        let mut tape = Tape::default();
        for tick in [2u64, 0, 1] {
            let mut e = entry();
            e.tick = tick;
            tape.entries.push(e);
        }
        let ticks: Vec<u64> = tape.in_tick_order().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![0, 1, 2]);
    }
}
