//! Serving layer for the `raysearch` reproduction: a long-running,
//! caching evaluation server (`raysearchd`) over plain `std::net`.
//!
//! Every answer the workspace can compute — `Λ(q/k)` closed forms from
//! Kupavskii–Welzl's Theorem 1/6, exact competitive-ratio evaluations of
//! the optimal strategies, tightness verdicts, whole campaign runs —
//! previously required a one-shot `tablegen` invocation recomputing from
//! scratch. This crate memoizes them behind a stable JSON-over-HTTP API:
//!
//! * [`http`] — a hand-rolled, dependency-free HTTP/1.1 layer (the
//!   environment has no crates.io access: no hyper, no tiny_http);
//! * [`api`] — the endpoints (`/closed_form`, `/evaluate`, `/verdict`,
//!   `/campaign`, `/montecarlo`, `/healthz`, `/stats`, `/metrics`,
//!   `/jobs`, `/debug/slow`, `/debug/trace`) over the `raysearch-core`
//!   evaluators, the Monte-Carlo engine and the campaign registry. Their
//!   payloads are memoized in core's sharded LRU cache
//!   ([`raysearch_core::cache::ShardedLru`]), keyed by canonicalized
//!   instance parameters ([`raysearch_core::canon`]), above a bounded
//!   compiled-fleet tier ([`raysearch_core::CompileMemo`]);
//! * [`server`] — a fixed HTTP worker pool behind a bounded accept
//!   queue, with load shedding (503 + `Retry-After`), cooperative
//!   shutdown, and a separate compute-worker pool draining the job
//!   queue;
//! * [`jobs`] — the async job tier: a bounded priority-by-cost-class
//!   [`jobs::JobQueue`] with per-client admission that queues each
//!   job's prepared computation, the sharded bounded store of job
//!   records with oldest-done eviction behind the same
//!   [`jobs::JobQueue`] handle, and the node-tagged job-id scheme behind
//!   `POST /jobs`, `GET /jobs/{id}` (long-poll via `?wait_micros=`) and
//!   `DELETE /jobs/{id}`;
//! * [`client`] — a minimal blocking HTTP/1.1 client for tests, the
//!   router's forwards and replay.
//!
//! The scale-out tier shards requests across many `raysearchd`
//! processes and regression-tests the whole fleet at the byte level:
//!
//! * [`route`] — the consistent-hash router (`raysearch-router`):
//!   rendezvous hashing over canonical routing keys, health checks,
//!   failover, aggregated `/stats`;
//! * [`backends`] — child-process backend fleets behind port-file
//!   handshakes (spawn / kill / respawn on fresh ephemeral ports);
//! * [`tape`] — the record/replay tape format with normalized response
//!   digests;
//! * [`replay`] — deterministic tape replay (`replaygen`), the one
//!   load-and-verify harness: concurrent re-issue in tick order,
//!   byte-identity verification, counter fingerprints that are
//!   concurrency-invariant by construction, per-endpoint latency
//!   percentiles;
//! * [`telemetry`] — the observability layer: per-request span timing
//!   into per-endpoint latency histograms, `x-raysearch-trace`
//!   propagation, a bounded slow-request log (`GET /debug/slow`), the
//!   metric registry that both tiers render `GET /stats` and
//!   `GET /metrics` from (the router re-exporting every backend row), and
//!   hierarchical span traces: every measured span also lands in a
//!   per-request tree ([`raysearch_core::trace`]), sampled traces are
//!   served from `GET /debug/trace/{id}`, and the router assembles the
//!   cross-tier view by stitching the backend's tree under its own
//!   `backend_wait` span (exportable as a Chrome trace-event timeline
//!   via `replaygen --export-trace`).
//!
//! # Example: an in-process server round trip
//!
//! ```
//! use raysearch_service::client::fetch_json;
//! use raysearch_service::server::{Server, ServerConfig};
//! use serde_json::Value;
//!
//! let server = Server::bind(ServerConfig::default())?;
//! let handle = server.spawn();
//! let addr = handle.addr().to_string();
//!
//! let (status, doc) = fetch_json(&addr, "GET", "/closed_form?k=1&f=0", None).unwrap();
//! assert_eq!(status, 200);
//! // the classic cow path: A(1, 0) = 9
//! let a = doc.get("result").and_then(|r| r.get("a")).and_then(Value::as_f64);
//! assert_eq!(a, Some(9.0));
//!
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod backends;
pub mod client;
pub mod http;
pub mod jobs;
pub mod replay;
pub mod route;
pub mod server;
pub mod tape;
pub mod telemetry;

pub use api::{routing_key, ServiceState};
pub use raysearch_core::cache::CacheStats;
pub use route::{rendezvous_rank, BackendSpec, RouterState};
pub use server::{Handler, Server, ServerConfig, ServerHandle};
pub use tape::{Tape, TapeEntry, TapeRecorder};
pub use telemetry::{trace_index_json, trace_json, Span, SpanSet, Telemetry, TRACE_HEADER};
