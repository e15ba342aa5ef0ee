//! The TCP server: a fixed worker pool behind a bounded accept queue,
//! generic over the request [`Handler`].
//!
//! One acceptor thread owns the `TcpListener` and pushes accepted
//! connections into a bounded `sync_channel`; `workers` threads pop
//! connections and drive each one through its whole keep-alive
//! lifetime. When the queue is full the acceptor sheds load immediately
//! with a `503` instead of letting the backlog grow without bound — a
//! deliberate, visible failure mode for overload (and counted through
//! [`Handler::note_shed`], so `/stats` can report it).
//!
//! The transport knows nothing about endpoints: everything above the
//! HTTP layer goes through the [`Handler`] trait, which both the
//! evaluation backend ([`ServiceState`]) and the consistent-hash router
//! ([`RouterState`](crate::route::RouterState)) implement — one
//! worker-pool/accept-queue/keep-alive implementation serves both
//! binaries.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] sets a flag,
//! shuts the read half of every open connection (a worker parked on an
//! idle keep-alive connection wakes with EOF instead of waiting out
//! `read_timeout`; one mid-request still writes its response), pokes
//! the listener with a throwaway connection to unblock `accept`, closes
//! the queue, and joins every thread.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::api::ServiceState;
use crate::http::{read_request, HttpError, Request, Response};
use crate::jobs::JobConfig;

/// What the transport needs from the layer above it: turn one parsed
/// request into one response, and (optionally) account for connections
/// the acceptor had to shed.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one request. Must be infallible at the
    /// HTTP layer — internal errors become JSON error responses.
    fn handle(&self, req: &Request) -> Response;

    /// Called by the acceptor each time it sheds a connection with a
    /// `503` because the accept queue is full. Default: unobserved.
    fn note_shed(&self) {}

    /// Spawns any background worker threads the handler owns, separate
    /// from the HTTP pool — the evaluation backend starts its job
    /// compute pool here. Called once by [`Server::spawn`] with the
    /// server's stop flag; the returned threads are joined at shutdown.
    /// Default: none.
    fn start_background(self: Arc<Self>, stop: Arc<AtomicBool>) -> Vec<JoinHandle<()>>
    where
        Self: Sized,
    {
        let _ = stop;
        Vec::new()
    }

    /// Asks background workers to wind down promptly (the backend
    /// closes its job queue here) before their threads are joined.
    /// Default: nothing to stop.
    fn stop_background(&self) {}
}

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded depth of the accept queue; beyond it, connections get 503.
    pub queue_depth: usize,
    /// Total memo-cache capacity (entries) — used by the default
    /// [`ServiceState`] construction in [`Server::bind`].
    pub cache_capacity: usize,
    /// Number of memo-cache shards (ditto).
    pub cache_shards: usize,
    /// Per-connection read timeout while waiting for the next request.
    pub read_timeout: Duration,
    /// Compute-worker threads draining the job queue — a pool separate
    /// from the HTTP `workers`, so queued heavy jobs never occupy the
    /// threads serving cached reads.
    pub compute_workers: usize,
    /// Bounded depth of the job admission queue; beyond it, `POST
    /// /jobs` sheds with a 503.
    pub job_queue_depth: usize,
    /// Bounded capacity of the job record store (oldest-done eviction).
    pub job_store_capacity: usize,
    /// Maximum in-flight (queued or running) jobs per client label.
    pub job_max_per_client: usize,
    /// Minimum `k·m·(f+2)` work for an `evaluate` job; cheaper
    /// evaluations are redirected to the synchronous endpoint.
    pub job_cost_threshold: u64,
    /// This backend's logical node index, encoded into the high bits of
    /// every job id it mints (the router routes `GET /jobs/{id}` by it).
    pub job_node: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let jobs = JobConfig::default();
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(4),
            queue_depth: 128,
            cache_capacity: 4096,
            cache_shards: 16,
            read_timeout: Duration::from_secs(10),
            compute_workers: jobs.workers,
            job_queue_depth: jobs.queue_depth,
            job_store_capacity: jobs.store_capacity,
            job_max_per_client: jobs.max_per_client,
            job_cost_threshold: jobs.cost_threshold,
            job_node: jobs.node,
        }
    }
}

/// A bound, not-yet-running server over handler `H`.
#[derive(Debug)]
pub struct Server<H: Handler = ServiceState> {
    listener: TcpListener,
    state: Arc<H>,
    cfg: ServerConfig,
}

impl Server<ServiceState> {
    /// Binds the configured address and allocates a fresh evaluation
    /// [`ServiceState`] sized by the config's cache fields.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server<ServiceState>> {
        let jobs = JobConfig {
            queue_depth: cfg.job_queue_depth,
            store_capacity: cfg.job_store_capacity,
            max_per_client: cfg.job_max_per_client,
            cost_threshold: cfg.job_cost_threshold,
            node: cfg.job_node,
            workers: cfg.compute_workers,
        };
        let state = Arc::new(ServiceState::with_jobs(
            cfg.cache_capacity,
            cfg.cache_shards,
            jobs,
        ));
        Server::bind_with(cfg, state)
    }
}

impl<H: Handler> Server<H> {
    /// Binds the configured address around a caller-provided handler
    /// (the router binary passes its [`RouterState`](crate::route::RouterState)
    /// here; tests can pass anything implementing [`Handler`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(cfg: ServerConfig, handler: Arc<H>) -> std::io::Result<Server<H>> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server {
            listener,
            state: handler,
            cfg,
        })
    }

    /// The actually bound address (resolves an ephemeral port request).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared handler state (for in-process probing and tests).
    pub fn state(&self) -> Arc<H> {
        Arc::clone(&self.state)
    }

    /// Starts the acceptor and worker threads, returning a handle that
    /// can stop them. The caller's thread is *not* consumed.
    ///
    /// # Panics
    ///
    /// Panics if the listener's address cannot be introspected.
    pub fn spawn(self) -> ServerHandle<H> {
        let addr = self.local_addr().expect("bound listener has an address");
        let stop = Arc::new(AtomicBool::new(false));
        let open = Arc::new(OpenConnections::default());
        let (sender, receiver) =
            std::sync::mpsc::sync_channel::<(u64, TcpStream)>(self.cfg.queue_depth);
        let receiver = Arc::new(Mutex::new(receiver));

        let mut threads: Vec<JoinHandle<()>> = Vec::with_capacity(self.cfg.workers + 1);
        for _ in 0..self.cfg.workers.max(1) {
            let receiver = Arc::clone(&receiver);
            let state = Arc::clone(&self.state);
            let open = Arc::clone(&open);
            let timeout = self.cfg.read_timeout;
            threads.push(std::thread::spawn(move || {
                worker_loop(&receiver, &*state, &open, timeout)
            }));
        }

        let acceptor = {
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&self.state);
            let open = Arc::clone(&open);
            std::thread::spawn(move || accept_loop(&self.listener, &sender, &stop, &open, &*state))
        };
        threads.push(acceptor);

        // the handler's own background pool (e.g. job compute workers),
        // joined at shutdown alongside the HTTP threads
        threads.extend(Arc::clone(&self.state).start_background(Arc::clone(&stop)));

        ServerHandle {
            addr,
            state: self.state,
            stop,
            open,
            threads,
        }
    }
}

/// A running server: its address, state, and the means to stop it.
#[derive(Debug)]
pub struct ServerHandle<H: Handler = ServiceState> {
    addr: std::net::SocketAddr,
    state: Arc<H>,
    stop: Arc<AtomicBool>,
    open: Arc<OpenConnections>,
    threads: Vec<JoinHandle<()>>,
}

impl<H: Handler> ServerHandle<H> {
    /// The address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared handler state.
    pub fn state(&self) -> Arc<H> {
        Arc::clone(&self.state)
    }

    /// Stops accepting, drains the workers, winds down background
    /// workers (closing the job queue), and joins every thread. Idle
    /// keep-alive connections do not hold it up: their read halves are
    /// shut, so their workers see EOF at once.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.state.stop_background();
        self.open.shut_reads();
        // poke accept() awake; it will observe the flag and return
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks the calling thread until every server thread exits (i.e.
    /// forever, unless another thread calls for shutdown). Used by the
    /// `raysearchd` serve mode.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Clones of the connections the server has accepted and not yet
/// finished, so shutdown can wake the workers blocked reading them.
#[derive(Debug, Default)]
struct OpenConnections {
    next_id: AtomicU64,
    streams: Mutex<HashMap<u64, TcpStream>>,
}

impl OpenConnections {
    /// Registers a clone of `stream`; `None` if it cannot be cloned.
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.streams.lock().insert(id, clone);
        Some(id)
    }

    /// Drops the clone of a finished connection — until then it keeps
    /// the socket open, and the peer would see neither EOF nor a reply.
    fn remove(&self, id: u64) {
        self.streams.lock().remove(&id);
    }

    fn shut_reads(&self) {
        for stream in self.streams.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    sender: &SyncSender<(u64, TcpStream)>,
    stop: &AtomicBool,
    open: &OpenConnections,
    state: &dyn Handler,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            // dropping the sender closes the queue; workers drain & exit
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            // persistent failures (e.g. EMFILE under fd exhaustion)
            // would otherwise busy-spin this thread at 100% CPU
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let Some(id) = open.register(&stream) else {
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            // shutdown may have shut the open reads before this one
            // was registered
            open.remove(id);
            return;
        }
        match sender.try_send((id, stream)) {
            Ok(()) => {}
            Err(TrySendError::Full((id, mut stream))) => {
                // shed load rather than queueing without bound; the
                // Retry-After hint tells clients to back off briefly
                open.remove(id);
                state.note_shed();
                let _ = Response::shed("server overloaded, try again").write_to(&mut stream, false);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

fn worker_loop(
    receiver: &Mutex<Receiver<(u64, TcpStream)>>,
    state: &dyn Handler,
    open: &OpenConnections,
    timeout: Duration,
) {
    loop {
        // hold the lock only for the dequeue, not while serving
        let next = receiver.lock().recv();
        match next {
            Ok((id, stream)) => {
                handle_connection(stream, state, timeout);
                open.remove(id);
            }
            Err(_) => return, // queue closed: shutdown
        }
    }
}

/// Serves one connection for its whole keep-alive lifetime.
fn handle_connection(stream: TcpStream, state: &dyn Handler, timeout: Duration) {
    if stream.set_read_timeout(Some(timeout)).is_err() {
        return;
    }
    // one response = one packet; without this, Nagle + delayed ACK can
    // stretch a cache hit to ~40 ms
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(req) => {
                let keep_alive = !req.wants_close();
                // isolate handler panics: without this, one panicking
                // request would silently shrink the worker pool for the
                // rest of the server's life
                let response =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.handle(&req)))
                        .unwrap_or_else(|_| {
                            Response::error(500, "internal error: request handler panicked")
                        });
                let close = response.status == 500 || !keep_alive;
                if response.write_to(&mut writer, !close).is_err() || close {
                    return;
                }
            }
            Err(HttpError::Closed) => return,
            Err(HttpError::Io(_)) => return, // timeout or broken transport
            Err(HttpError::Malformed(why)) => {
                let _ = Response::error(400, &why).write_to(&mut writer, false);
                return;
            }
            Err(HttpError::LengthRequired(why)) => {
                // close rather than keep alive: without a length we do
                // not know where (or if) the entity ends in the stream
                let _ = Response::error(411, &why).write_to(&mut writer, false);
                return;
            }
            Err(HttpError::TooLarge(why)) => {
                let _ = Response::error(413, &why).write_to(&mut writer, false);
                return;
            }
        }
        let _ = writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::client::HttpClient;

    /// Answers every request with an empty JSON object.
    struct Empty;

    impl Handler for Empty {
        fn handle(&self, _req: &Request) -> Response {
            Response::ok("{}")
        }
    }

    #[test]
    fn shutdown_does_not_wait_out_an_idle_keep_alive_connection() {
        let cfg = ServerConfig {
            workers: 1,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let server = Server::bind_with(cfg, Arc::new(Empty))
            .expect("bind")
            .spawn();
        let mut client = HttpClient::connect(&server.addr().to_string()).expect("connect");
        let (status, _) = client.request("GET", "/", None).expect("request");
        assert_eq!(status, 200);

        // the client keeps its connection open, so the one worker is
        // parked reading it
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "shutdown took {took:?} with an idle keep-alive connection open"
        );
        assert!(
            client.request("GET", "/", None).is_err(),
            "the idle connection is closed, not left open"
        );
    }
}
