//! Seeded, valid-only input streams. The seed is the only input: one
//! seed yields byte-identical request and job streams, and every
//! request lies inside the serving limits and the regime its endpoint
//! answers with a 200, so no timed operation fails at a correct
//! program.

use std::collections::BTreeSet;

use raysearch_core::splitmix64;

/// A counter-based generator: draw `n` of stream `(seed, tag)` is a
/// pure function of the three, so streams never depend on call order
/// elsewhere.
#[derive(Debug, Clone)]
pub struct Rng {
    key: u64,
    counter: u64,
}

impl Rng {
    /// The generator for stream `tag` under `seed`.
    #[must_use]
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng {
            key: splitmix64(splitmix64(seed) ^ tag.rotate_left(32)),
            counter: 0,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        splitmix64(self.key ^ splitmix64(self.counter))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// One element of `items`, uniformly.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next_u64() % items.len() as u64) as usize]
    }
}

/// One HTTP request as the load clients send it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Op {
    /// `GET` or `POST`.
    pub method: &'static str,
    /// Path plus query.
    pub target: String,
    /// JSON body, empty for `GET`.
    pub body: String,
}

impl Op {
    fn post(path: &str, body: String) -> Op {
        Op {
            method: "POST",
            target: path.to_owned(),
            body,
        }
    }

    /// The endpoint name (`evaluate`, `montecarlo`, ...).
    #[must_use]
    pub fn endpoint(&self) -> &str {
        let path = self.target.split('?').next().unwrap_or_default();
        path.trim_start_matches('/')
    }

    /// One line naming the request exactly, for stream comparisons.
    #[must_use]
    pub fn line(&self) -> String {
        format!("{} {} {}", self.method, self.target, self.body)
    }
}

/// A searchable-regime fault count for `m` rays and `k` robots:
/// `f < k < m·(f+1)`, i.e. `f ∈ [⌊k/m⌋, k−1]`.
fn searchable_f(rng: &mut Rng, m: u32, k: u32) -> u32 {
    rng.range(k / m, k - 1)
}

/// Horizons of the evaluation requests, shallow to deep.
const HORIZONS: [f64; 4] = [1e4, 1e6, 1e9, 1e12];

/// Experiment ids `/campaign` serves quickly at small `max_k`.
const CAMPAIGN_IDS: [&str; 8] = ["e1", "e2", "e3", "e4", "e6", "e8", "e9", "e10"];

/// Request kinds of the `sync-hot` set with their weights: the count of
/// each kind among the 19 answered requests of the committed smoke tape
/// (`crates/service/tests/fixtures/smoke.tape`, whose 20th request is a
/// deliberate 404). Each weight is the kind's share of the timed stream
/// out of [`SYNC_WEIGHT`], and the distinct set holds
/// [`DISTINCT_PER_WEIGHT`] requests per unit of weight. The shares are
/// fixed, so every seed sends the same mix of endpoints.
const SYNC_MIX: [(&str, u64); 6] = [
    ("closed_form", 4),
    ("lambda", 1),
    ("evaluate", 7),
    ("verdict", 2),
    ("montecarlo", 4),
    ("campaign", 1),
];

/// The sum of the [`SYNC_MIX`] weights.
const SYNC_WEIGHT: u64 = 19;

/// Distinct requests per unit of weight: 15 × 19 = 285, the "few
/// hundred" distinct requests the workload is defined with.
const DISTINCT_PER_WEIGHT: usize = 15;

/// A `GET` of `target`, as the smoke tape sends `/closed_form`.
fn get(target: String) -> Op {
    Op {
        method: "GET",
        target,
        body: String::new(),
    }
}

fn sync_op(rng: &mut Rng, kind: &str) -> Op {
    match kind {
        "closed_form" => {
            let m = rng.range(2, 4);
            let k = rng.range(2, 64);
            let f = searchable_f(rng, m, k);
            get(format!("/closed_form?m={m}&k={k}&f={f}"))
        }
        "lambda" => {
            let eta = 1.0 + f64::from(rng.range(1, 10_000)) / 10_000.0;
            get(format!("/closed_form?eta={eta}"))
        }
        "evaluate" => {
            let m = if rng.unit() < 0.8 { 2 } else { 3 };
            // log-uniform fleet sizes from 2 up to the deep-horizon
            // k ≈ 500 the issue sizes the hot set with
            let k = (2.0f64 * 256f64.powf(rng.unit())).round() as u32;
            let f = searchable_f(rng, m, k);
            let horizon = *rng.pick(&HORIZONS);
            Op::post(
                "/evaluate",
                format!(r#"{{"m":{m},"k":{k},"f":{f},"horizon":{horizon:e}}}"#),
            )
        }
        "verdict" => {
            let k = rng.range(2, 12);
            let f = searchable_f(rng, 2, k);
            Op::post("/verdict", format!(r#"{{"m":2,"k":{k},"f":{f}}}"#))
        }
        "montecarlo" => {
            let k = rng.range(2, 8);
            let f = searchable_f(rng, 2, k);
            let samples = *rng.pick(&[500u32, 1000, 2000]);
            let seed = rng.next_u64() >> 16;
            let faults = *rng.pick(&["uniform", "worst"]);
            Op::post(
                "/montecarlo",
                format!(
                    r#"{{"m":2,"k":{k},"f":{f},"samples":{samples},"seed":{seed},"faults":"{faults}"}}"#
                ),
            )
        }
        "campaign" => {
            let id = *rng.pick(&CAMPAIGN_IDS);
            let max_k = rng.range(2, 6);
            Op::post("/campaign", format!(r#"{{"id":"{id}","max_k":{max_k}}}"#))
        }
        other => unreachable!("no request kind {other}"),
    }
}

/// The `sync-hot` workload's input: a few hundred distinct valid
/// requests over all five synchronous endpoints, and a skewed stream of
/// repeats over them.
#[derive(Debug, Clone)]
pub struct SyncStream {
    seed: u64,
    distinct: Vec<Op>,
    /// Per request kind: its first index in `distinct`, its count, and
    /// the cumulative stream weight up to and including it.
    kinds: Vec<(usize, usize, u64)>,
}

impl SyncStream {
    /// The stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SyncStream {
        let mut rng = Rng::new(seed, 1);
        let mut seen = BTreeSet::new();
        let mut distinct = Vec::new();
        let mut kinds = Vec::new();
        let mut cumulative = 0;
        for (kind, weight) in SYNC_MIX {
            let first = distinct.len();
            let count = DISTINCT_PER_WEIGHT * weight as usize;
            while distinct.len() - first < count {
                let op = sync_op(&mut rng, kind);
                if seen.insert(op.clone()) {
                    distinct.push(op);
                }
            }
            cumulative += weight;
            kinds.push((first, count, cumulative));
        }
        SyncStream {
            seed,
            distinct,
            kinds,
        }
    }

    /// The distinct requests, each sent once during set-up.
    #[must_use]
    pub fn distinct(&self) -> &[Op] {
        &self.distinct
    }

    /// The distinct-set index of operation `i` of the timed stream: a
    /// request kind by its fixed share, then `⌊n·u²⌋` within the kind's
    /// `n` requests for a uniform `u`, so a few requests of each kind
    /// repeat often and the tail rarely. That skew is an assumption: no
    /// recorded traffic in the repository has enough repeats to measure
    /// one.
    #[must_use]
    pub fn index_of(&self, i: u64) -> usize {
        let mut rng = Rng::new(self.seed ^ i.rotate_left(17), 2);
        let pick = rng.next_u64() % SYNC_WEIGHT;
        let &(first, count, _) = self
            .kinds
            .iter()
            .find(|&&(_, _, cumulative)| pick < cumulative)
            .expect("the weights sum to SYNC_WEIGHT");
        let u = rng.unit();
        first + ((count as f64) * u * u) as usize
    }
}

/// What one job computes: the endpoint tag and its synchronous payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// `evaluate` or `montecarlo`.
    pub endpoint: &'static str,
    /// The synchronous endpoint's JSON body (no `endpoint`/`client`).
    pub payload: String,
}

impl Job {
    /// The `POST /jobs` body: the payload with the envelope tags.
    #[must_use]
    pub fn envelope(&self, client: &str) -> String {
        format!(
            r#"{{"endpoint":"{}","client":"{client}",{}"#,
            self.endpoint,
            &self.payload[1..]
        )
    }

    /// The synchronous twin of the job.
    #[must_use]
    pub fn sync_op(&self) -> Op {
        Op::post(&format!("/{}", self.endpoint), self.payload.clone())
    }
}

/// Job `i` of the `jobs` workload's stream under `seed`. Every key is
/// fresh: each evaluate has its own horizon and each Monte-Carlo run its
/// own seed, so no job is a result-cache hit. Evaluate and Monte-Carlo
/// jobs come 7 : 4, their ratio in the smoke tape; both are sized so a
/// job computes for one to a few milliseconds, a few times the job
/// tier's own envelope.
#[must_use]
pub fn job(seed: u64, i: u64) -> Job {
    let mut rng = Rng::new(seed ^ i.rotate_left(23), 3);
    if rng.next_u64() % 11 < 7 {
        // k·m·(f+2) ≥ 2·256·130 clears the 2^16 job cost threshold
        let k = *rng.pick(&[256u32, 320, 384]);
        let f = searchable_f(&mut rng, 2, k);
        // a distinct horizon per job index keeps the key fresh
        let horizon = 1e6 + i as f64;
        Job {
            endpoint: "evaluate",
            payload: format!(r#"{{"m":2,"k":{k},"f":{f},"horizon":{horizon:e}}}"#),
        }
    } else {
        let k = rng.range(4, 16);
        let f = searchable_f(&mut rng, 2, k);
        let samples = rng.range(4, 16) * 1000;
        // the job index in the high bits keeps every seed distinct
        let seed = (i << 24) | (splitmix64(seed) & 0xff_ffff);
        Job {
            endpoint: "montecarlo",
            payload: format!(
                r#"{{"m":2,"k":{k},"f":{f},"samples":{samples},"seed":{seed},"horizon":1e6}}"#
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_stream() {
        let (a, b) = (SyncStream::new(7), SyncStream::new(7));
        assert_eq!(a.distinct(), b.distinct());
        assert!((0..1000).all(|i| a.index_of(i) == b.index_of(i)));
        assert!((0..200).all(|i| job(7, i) == job(7, i)));
        assert_ne!(SyncStream::new(8).distinct(), a.distinct());
        assert_ne!(job(8, 0), job(7, 0));
    }

    #[test]
    fn the_sync_set_is_distinct_and_covers_every_endpoint() {
        let stream = SyncStream::new(1);
        assert_eq!(SYNC_MIX.iter().map(|(_, w)| w).sum::<u64>(), SYNC_WEIGHT);
        let total = DISTINCT_PER_WEIGHT * SYNC_WEIGHT as usize;
        let unique: BTreeSet<_> = stream.distinct().iter().collect();
        assert_eq!(unique.len(), total);
        for endpoint in [
            "closed_form",
            "evaluate",
            "verdict",
            "montecarlo",
            "campaign",
        ] {
            assert!(stream.distinct().iter().any(|op| op.endpoint() == endpoint));
        }
        assert!((0..10_000).all(|i| stream.index_of(i) < total));
    }

    #[test]
    fn job_keys_never_repeat() {
        let payloads: BTreeSet<String> = (0..5000).map(|i| job(3, i).payload).collect();
        assert_eq!(payloads.len(), 5000);
    }
}
