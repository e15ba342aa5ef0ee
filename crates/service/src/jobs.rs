//! The async job tier: enqueue → schedule → execute → store.
//!
//! Heavy requests (`/campaign`, `/montecarlo`, deep `/evaluate`) can be
//! submitted as *jobs* instead of being computed inline on the HTTP
//! worker that accepted them. This module owns the three pieces the
//! serving layer threads together:
//!
//! - [`JobQueue`] — a bounded, priority-by-cost-class FIFO with
//!   per-client admission counters. Lighter cost classes are always
//!   drained first so a burst of campaign sweeps cannot starve cheap
//!   evaluate jobs, and no single client can occupy the whole queue.
//! - The record store behind the same [`JobQueue`] handle — a sharded
//!   bounded map of [`JobRecord`]s with oldest-done eviction: terminal
//!   records (done/failed/cancelled) are evicted oldest-first when the
//!   store is full; queued and running jobs are never evicted.
//! - The job-id scheme: ids are 64-bit with the owning backend's
//!   logical node index in the high [`NODE_BITS`] bits, so the router
//!   can route `GET /jobs/{id}` straight to the backend that owns the
//!   record without any shared state.
//!
//! Execution itself lives in the service layer
//! (`api::ServiceState::run_compute_worker`): admission prepares each
//! job once, the queue holds that prepared computation beside the job
//! id, and compute workers — a pool separate from the HTTP accept pool
//! — pop it and run it through the *same* execute path as the
//! synchronous endpoints, then park the result payload back in the
//! store, so job results are byte-identical to their synchronous twins
//! and share the memo/compile caches.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::api::Prepared;

/// Bits of the job id reserved for the owning backend's node index.
pub const NODE_BITS: u32 = 8;

/// Mask selecting the sequence part of a job id.
pub const SEQ_MASK: u64 = (1 << (64 - NODE_BITS)) - 1;

/// Packs a backend node index and a local sequence number into a job id.
#[must_use]
pub fn encode_job_id(node: u64, seq: u64) -> u64 {
    ((node & ((1 << NODE_BITS) - 1)) << (64 - NODE_BITS)) | (seq & SEQ_MASK)
}

/// The backend node index encoded in a job id's high bits.
#[must_use]
pub fn job_node(id: u64) -> u64 {
    id >> (64 - NODE_BITS)
}

/// Renders a job id as its wire form: 16 lowercase hex digits.
#[must_use]
pub fn format_job_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses the wire form produced by [`format_job_id`]. Strict: exactly
/// 16 hex digits, so path fragments never alias.
#[must_use]
pub fn parse_job_id(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Scheduling priority, cheapest first. The queue drains strictly by
/// class (FIFO within a class), so interactive-sized work never waits
/// behind a campaign sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum CostClass {
    /// Single-instance evaluation.
    Light = 0,
    /// Monte-Carlo estimation (samples × fleet work).
    Medium = 1,
    /// Full campaign sweeps.
    Heavy = 2,
}

/// Number of cost classes (one FIFO each).
pub const COST_CLASS_COUNT: usize = 3;

impl CostClass {
    /// The class a job endpoint schedules under.
    #[must_use]
    pub fn for_endpoint(endpoint: &str) -> CostClass {
        match endpoint {
            "campaign" => CostClass::Heavy,
            "montecarlo" => CostClass::Medium,
            _ => CostClass::Light,
        }
    }

    /// The snake_case label used in job JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CostClass::Light => "light",
            CostClass::Medium => "medium",
            CostClass::Heavy => "heavy",
        }
    }
}

/// Lifecycle state of a job record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the queue.
    Queued,
    /// Picked up by a compute worker.
    Running,
    /// Finished successfully; the result payload is in the record.
    Done,
    /// Finished with an error; status and message are in the record.
    Failed,
    /// Cancelled while still queued.
    Cancelled,
}

impl JobState {
    /// The snake_case label used in job JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is final (done, failed or cancelled).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// What a submitted job will execute: the endpoint tag plus the
/// computation admission prepared from the target's parameters (its
/// memo key and validated compute closure), which a compute worker runs
/// through the same execute path as the synchronous endpoint.
#[derive(Debug)]
pub struct JobSpec {
    /// Synchronous-endpoint tag: `evaluate`, `montecarlo` or `campaign`.
    pub endpoint: String,
    /// Admission bucket (defaults to `anon` at the API layer).
    pub client: String,
    /// Scheduling class.
    pub class: CostClass,
    /// The prepared computation, queued beside the job id.
    pub(crate) prepared: Prepared,
}

/// A job's execution outcome: the pre-wrap result payload plus the
/// cache flag on success, or the would-be HTTP status and error
/// message on failure.
pub type JobOutcome = Result<(String, bool), (u16, String)>;

/// One stored job: identity, lifecycle state, tick timeline and (once
/// terminal) the outcome.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (node index in the high bits).
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Endpoint tag from the spec.
    pub endpoint: String,
    /// Admission bucket from the spec.
    pub client: String,
    /// Scheduling class from the spec.
    pub class: CostClass,
    /// Store-relative tick (µs) when the job was accepted.
    pub submitted_micros: u64,
    /// Tick when a worker started it (0 while queued).
    pub started_micros: u64,
    /// Tick when it reached a terminal state (0 before that).
    pub finished_micros: u64,
    /// The outcome, present once the state is `Done` or `Failed`.
    pub result: Option<JobOutcome>,
}

impl JobRecord {
    /// Microseconds the job spent queued (started − submitted); for
    /// jobs that are still queued, the wait so far is unknown to the
    /// record and reported as 0.
    #[must_use]
    pub fn queue_wait_micros(&self) -> u64 {
        self.started_micros.saturating_sub(self.submitted_micros)
    }
}

/// Admission/queue configuration for a [`JobQueue`].
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Maximum jobs queued (all classes together).
    pub queue_depth: usize,
    /// Maximum stored records (queued + running + terminal).
    pub store_capacity: usize,
    /// Maximum in-flight (queued or running) jobs per client.
    pub max_per_client: usize,
    /// Minimum `k·m·(f+2)` work for an `evaluate` job; cheaper
    /// evaluations are redirected to the synchronous endpoint.
    pub cost_threshold: u64,
    /// This backend's logical node index (encoded into job ids).
    pub node: u64,
    /// Compute-worker pool size.
    pub workers: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            queue_depth: 64,
            store_capacity: 256,
            max_per_client: 16,
            cost_threshold: 1 << 16,
            node: 0,
            workers: 2,
        }
    }
}

/// Why a submission was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue (or the store) is at capacity.
    QueueFull,
    /// The client already has `max_per_client` jobs in flight.
    ClientLimit,
    /// The queue has been closed for shutdown.
    Closed,
}

/// Why a cancellation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelError {
    /// No record under that id.
    NotFound,
    /// The job is no longer queued; carries the state it was in.
    NotCancellable(JobState),
}

/// Monotonic counters and gauges for `/stats` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobsSnapshot {
    /// Jobs currently queued.
    pub queued: u64,
    /// Jobs currently executing on a compute worker.
    pub running: u64,
    /// Records currently stored (any state).
    pub stored: u64,
    /// Jobs ever admitted.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Submissions refused admission (queue full or client limit).
    pub rejected: u64,
    /// Terminal records evicted to make room.
    pub evicted: u64,
}

const STORE_SHARDS: usize = 8;

#[derive(Debug, Default)]
struct Shard {
    map: Mutex<HashMap<u64, JobRecord>>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct QueueInner {
    classes: [VecDeque<(u64, Prepared)>; COST_CLASS_COUNT],
    len: usize,
    per_client: HashMap<String, usize>,
}

/// The job subsystem: bounded admission queue plus sharded record
/// store, shared between the HTTP pool (submit/poll/cancel) and the
/// compute pool (pop/execute/finish).
///
/// `JobQueue` is the admission-facing name; the sharded bounded record
/// map with oldest-done eviction rides inside the same handle.
#[derive(Debug)]
pub struct JobQueue {
    cfg: JobConfig,
    started: Instant,
    seq: AtomicU64,
    shards: Vec<Shard>,
    queue: Mutex<QueueInner>,
    queue_cond: Condvar,
    closed: AtomicBool,
    stored: AtomicU64,
    queued: AtomicU64,
    running: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
}

impl JobQueue {
    /// A fresh queue + store under `cfg`.
    #[must_use]
    pub fn new(cfg: JobConfig) -> JobQueue {
        JobQueue {
            cfg,
            started: Instant::now(),
            seq: AtomicU64::new(0),
            shards: (0..STORE_SHARDS).map(|_| Shard::default()).collect(),
            queue: Mutex::new(QueueInner::default()),
            queue_cond: Condvar::new(),
            closed: AtomicBool::new(false),
            stored: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            running: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The configuration this queue runs under.
    #[must_use]
    pub fn config(&self) -> &JobConfig {
        &self.cfg
    }

    fn tick(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn shard(&self, id: u64) -> &Shard {
        &self.shards[(id as usize) % self.shards.len()]
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Evicts the terminal record with the smallest finished tick.
    /// Returns false when every stored record is still live.
    fn evict_oldest_done(&self) -> bool {
        let mut oldest: Option<(u64, u64)> = None; // (finished, id)
        for shard in &self.shards {
            let map = Self::lock(&shard.map);
            for rec in map.values() {
                if !rec.state.is_terminal() {
                    continue;
                }
                let candidate = (rec.finished_micros, rec.id);
                if oldest.is_none_or(|o| candidate < o) {
                    oldest = Some(candidate);
                }
            }
        }
        let Some((_, id)) = oldest else { return false };
        if self.shard(id).map_remove(id) {
            self.stored.fetch_sub(1, Ordering::Relaxed);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Admits a job: bounds the queue, enforces the per-client limit,
    /// mints the id, stores the record and enqueues it.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when admission is refused; the caller maps it to
    /// a shed response (503 + `Retry-After`).
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        if self.closed.load(Ordering::Relaxed) {
            return Err(SubmitError::Closed);
        }
        let mut queue = Self::lock(&self.queue);
        if queue.len >= self.cfg.queue_depth {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull);
        }
        let in_flight = queue.per_client.get(&spec.client).copied().unwrap_or(0);
        if in_flight >= self.cfg.max_per_client {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ClientLimit);
        }
        // make room in the store before committing to the id
        while self.stored.load(Ordering::Relaxed) >= self.cfg.store_capacity as u64 {
            if !self.evict_oldest_done() {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull);
            }
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let id = encode_job_id(self.cfg.node, seq);
        let record = JobRecord {
            id,
            state: JobState::Queued,
            endpoint: spec.endpoint,
            client: spec.client.clone(),
            class: spec.class,
            submitted_micros: self.tick(),
            started_micros: 0,
            finished_micros: 0,
            result: None,
        };
        Self::lock(&self.shard(id).map).insert(id, record);
        self.stored.fetch_add(1, Ordering::Relaxed);
        queue.classes[spec.class as usize].push_back((id, spec.prepared));
        queue.len += 1;
        *queue.per_client.entry(spec.client).or_insert(0) += 1;
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        self.queue_cond.notify_one();
        Ok(id)
    }

    /// Blocks a compute worker until a job is available (or `timeout`
    /// passes, or the queue closes), marks it running, and hands back
    /// `(id, prepared, queue_wait_micros)`. Cancelled jobs left in the
    /// queue are skipped (and their computations dropped) here.
    pub(crate) fn next_job(&self, timeout: Duration) -> Option<(u64, Prepared, u64)> {
        let deadline = Instant::now() + timeout;
        let mut queue = Self::lock(&self.queue);
        loop {
            while let Some((id, prepared)) = Self::pop_any(&mut queue) {
                drop(queue);
                if let Some(wait) = self.start_job(id) {
                    return Some((id, prepared, wait));
                }
                queue = Self::lock(&self.queue);
            }
            if self.closed.load(Ordering::Relaxed) {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .queue_cond
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
        }
    }

    fn pop_any(queue: &mut QueueInner) -> Option<(u64, Prepared)> {
        for class in &mut queue.classes {
            if let Some(job) = class.pop_front() {
                queue.len -= 1;
                return Some(job);
            }
        }
        None
    }

    /// Transitions a popped id to Running and returns its queue wait;
    /// `None` when the record was cancelled (or evicted) while waiting.
    fn start_job(&self, id: u64) -> Option<u64> {
        let shard = self.shard(id);
        let mut map = Self::lock(&shard.map);
        let rec = map.get_mut(&id)?;
        if rec.state != JobState::Queued {
            return None;
        }
        rec.state = JobState::Running;
        rec.started_micros = self.tick();
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.running.fetch_add(1, Ordering::Relaxed);
        Some(rec.queue_wait_micros())
    }

    /// Parks a finished job's outcome and wakes long-pollers.
    pub fn finish(&self, id: u64, outcome: JobOutcome) {
        let shard = self.shard(id);
        let mut map = Self::lock(&shard.map);
        let Some(rec) = map.get_mut(&id) else { return };
        if rec.state != JobState::Running {
            return;
        }
        rec.state = if outcome.is_ok() {
            self.completed.fetch_add(1, Ordering::Relaxed);
            JobState::Done
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
            JobState::Failed
        };
        rec.finished_micros = self.tick();
        rec.result = Some(outcome);
        let client = rec.client.clone();
        drop(map);
        self.running.fetch_sub(1, Ordering::Relaxed);
        self.release_client(&client);
        shard.cond.notify_all();
    }

    /// Cancels a queued job (the id stays parked in the queue; workers
    /// skip terminal records on pop).
    ///
    /// # Errors
    ///
    /// [`CancelError::NotFound`] for unknown ids,
    /// [`CancelError::NotCancellable`] once the job left the queue.
    pub fn cancel(&self, id: u64) -> Result<(), CancelError> {
        let shard = self.shard(id);
        let mut map = Self::lock(&shard.map);
        let Some(rec) = map.get_mut(&id) else {
            return Err(CancelError::NotFound);
        };
        if rec.state != JobState::Queued {
            return Err(CancelError::NotCancellable(rec.state));
        }
        rec.state = JobState::Cancelled;
        rec.finished_micros = self.tick();
        let client = rec.client.clone();
        drop(map);
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.cancelled.fetch_add(1, Ordering::Relaxed);
        self.release_client(&client);
        shard.cond.notify_all();
        Ok(())
    }

    fn release_client(&self, client: &str) {
        let mut queue = Self::lock(&self.queue);
        if let Some(n) = queue.per_client.get_mut(client) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                queue.per_client.remove(client);
            }
        }
    }

    /// Snapshot of one record (cloned out from under the shard lock).
    #[must_use]
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        Self::lock(&self.shard(id).map).get(&id).cloned()
    }

    /// Long-poll: blocks until the record is terminal or `max` passes,
    /// then returns the freshest snapshot (None for unknown ids).
    #[must_use]
    pub fn wait(&self, id: u64, max: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + max;
        let shard = self.shard(id);
        let mut map = Self::lock(&shard.map);
        loop {
            let rec = map.get(&id)?;
            if rec.state.is_terminal() {
                return Some(rec.clone());
            }
            let now = Instant::now();
            if now >= deadline || self.closed.load(Ordering::Relaxed) {
                return Some(rec.clone());
            }
            let (guard, _) = shard
                .cond
                .wait_timeout(map, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            map = guard;
        }
    }

    /// Current counters and gauges.
    #[must_use]
    pub fn snapshot(&self) -> JobsSnapshot {
        JobsSnapshot {
            queued: self.queued.load(Ordering::Relaxed),
            running: self.running.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Closes the queue for shutdown: pending `next_job`/`wait` calls
    /// return promptly and new submissions are refused.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        self.queue_cond.notify_all();
        for shard in &self.shards {
            shard.cond.notify_all();
        }
    }
}

impl Shard {
    fn map_remove(&self, id: u64) -> bool {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id)
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(endpoint: &str, client: &str) -> JobSpec {
        JobSpec {
            endpoint: endpoint.to_owned(),
            client: client.to_owned(),
            class: CostClass::for_endpoint(endpoint),
            prepared: Prepared {
                key: format!("{endpoint}:test"),
                cost: 0,
                compute: Box::new(|_tier| Ok("{}".to_owned())),
            },
        }
    }

    #[test]
    fn job_ids_round_trip_and_carry_the_node() {
        let id = encode_job_id(3, 41);
        assert_eq!(job_node(id), 3);
        assert_eq!(id & SEQ_MASK, 41);
        let wire = format_job_id(id);
        assert_eq!(wire.len(), 16);
        assert_eq!(parse_job_id(&wire), Some(id));
        assert_eq!(parse_job_id("xyz"), None);
        assert_eq!(parse_job_id("00ff"), None, "short forms are rejected");
        // node indices wrap into NODE_BITS
        assert_eq!(job_node(encode_job_id(0x1_05, 1)), 0x05);
    }

    #[test]
    fn queue_drains_lighter_cost_classes_first() {
        let q = JobQueue::new(JobConfig::default());
        let heavy = q.submit(spec("campaign", "a")).unwrap();
        let medium = q.submit(spec("montecarlo", "a")).unwrap();
        let light = q.submit(spec("evaluate", "a")).unwrap();
        let order: Vec<u64> = (0..3)
            .map(|_| q.next_job(Duration::from_millis(10)).unwrap().0)
            .collect();
        assert_eq!(order, vec![light, medium, heavy]);
        assert!(q.next_job(Duration::from_millis(1)).is_none());
    }

    #[test]
    fn admission_bounds_queue_depth_and_per_client() {
        let q = JobQueue::new(JobConfig {
            queue_depth: 3,
            max_per_client: 2,
            ..JobConfig::default()
        });
        q.submit(spec("evaluate", "a")).unwrap();
        q.submit(spec("evaluate", "a")).unwrap();
        assert_eq!(
            q.submit(spec("evaluate", "a")),
            Err(SubmitError::ClientLimit)
        );
        q.submit(spec("evaluate", "b")).unwrap();
        assert_eq!(q.submit(spec("evaluate", "c")), Err(SubmitError::QueueFull));
        assert_eq!(q.snapshot().rejected, 2);
        // finishing a job releases the client's admission slot
        let (id, _, _) = q.next_job(Duration::from_millis(10)).unwrap();
        q.finish(id, Ok(("{}".to_owned(), false)));
        q.submit(spec("evaluate", "a")).unwrap();
    }

    #[test]
    fn lifecycle_ticks_and_outcome_are_recorded() {
        let q = JobQueue::new(JobConfig::default());
        let id = q.submit(spec("evaluate", "a")).unwrap();
        assert_eq!(q.get(id).unwrap().state, JobState::Queued);
        let (popped, prepared, wait) = q.next_job(Duration::from_millis(10)).unwrap();
        assert_eq!(popped, id);
        assert_eq!(prepared.key, "evaluate:test");
        let rec = q.get(id).unwrap();
        assert_eq!(rec.endpoint, "evaluate");
        assert_eq!(rec.state, JobState::Running);
        assert!(rec.started_micros >= rec.submitted_micros);
        assert_eq!(wait, rec.queue_wait_micros());
        q.finish(id, Ok(("{\"a\":1}".to_owned(), true)));
        let rec = q.get(id).unwrap();
        assert_eq!(rec.state, JobState::Done);
        assert!(rec.finished_micros >= rec.started_micros);
        assert_eq!(rec.result, Some(Ok(("{\"a\":1}".to_owned(), true))));
        let snap = q.snapshot();
        assert_eq!((snap.completed, snap.running, snap.queued), (1, 0, 0));
    }

    #[test]
    fn cancel_only_hits_queued_jobs_and_workers_skip_them() {
        let q = JobQueue::new(JobConfig::default());
        let id = q.submit(spec("campaign", "a")).unwrap();
        q.cancel(id).unwrap();
        assert_eq!(q.get(id).unwrap().state, JobState::Cancelled);
        assert_eq!(
            q.cancel(id),
            Err(CancelError::NotCancellable(JobState::Cancelled))
        );
        assert_eq!(q.cancel(encode_job_id(0, 999)), Err(CancelError::NotFound));
        // the parked id is skipped, not executed
        assert!(q.next_job(Duration::from_millis(1)).is_none());
        let snap = q.snapshot();
        assert_eq!((snap.cancelled, snap.queued), (1, 0));
    }

    #[test]
    fn store_evicts_oldest_done_but_never_live_records() {
        let q = JobQueue::new(JobConfig {
            store_capacity: 2,
            ..JobConfig::default()
        });
        let a = q.submit(spec("evaluate", "a")).unwrap();
        let (id, _, _) = q.next_job(Duration::from_millis(10)).unwrap();
        assert_eq!(id, a);
        q.finish(a, Ok(("{}".to_owned(), false)));
        let b = q.submit(spec("evaluate", "a")).unwrap();
        // store full (a done, b queued): the next submit evicts a
        let c = q.submit(spec("evaluate", "a")).unwrap();
        assert!(q.get(a).is_none(), "oldest done record was evicted");
        assert!(q.get(b).is_some() && q.get(c).is_some());
        // both live records are queued: nothing is evictable
        assert_eq!(q.submit(spec("evaluate", "b")), Err(SubmitError::QueueFull));
        assert_eq!(q.snapshot().evicted, 1);
    }

    #[test]
    fn wait_long_polls_until_terminal() {
        let q = std::sync::Arc::new(JobQueue::new(JobConfig::default()));
        let id = q.submit(spec("evaluate", "a")).unwrap();
        let worker = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let (id, _, _) = q.next_job(Duration::from_secs(1)).unwrap();
                std::thread::sleep(Duration::from_millis(20));
                q.finish(id, Ok(("{}".to_owned(), false)));
            })
        };
        let rec = q.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(rec.state, JobState::Done);
        worker.join().unwrap();
        // a zero-wait poll on an unknown id is just None
        assert!(q.wait(encode_job_id(0, 999), Duration::ZERO).is_none());
    }

    #[test]
    fn close_wakes_workers_and_refuses_new_jobs() {
        let q = std::sync::Arc::new(JobQueue::new(JobConfig::default()));
        let worker = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.next_job(Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(worker.join().unwrap().is_none(), "close wakes the worker");
        assert_eq!(q.submit(spec("evaluate", "a")), Err(SubmitError::Closed));
    }
}
