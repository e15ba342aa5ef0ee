//! The dependency-free measurement core of the observability layer:
//! power-of-two log-bucketed latency histograms and the SplitMix64
//! mixer trace ids are minted from.
//!
//! # Why log-bucketed, power-of-two histograms
//!
//! The serving hot path cannot afford to *store* latencies (an
//! unbounded reservoir) or to do float math per request. A
//! [`LatencyHistogram`] is 65 atomic counters: recording a value is one
//! `leading_zeros` plus four relaxed atomic adds — integers only, no
//! locks, no allocation. Bucket `b` covers `[2^(b-1), 2^b - 1]`
//! (bucket 0 holds exact zeros), so any quantile read off the bucket
//! boundaries is correct within a factor of two, and the exact `max` is
//! tracked separately so the tail is never rounded. Snapshots are plain
//! data and *mergeable* — per-shard or per-worker histograms sum into a
//! fleet-wide view without losing quantile fidelity beyond the bucket
//! width, which is what lets the router, the replay harness and the
//! campaign engine share one histogram type.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per bit position of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The SplitMix64 finalizer: a bijective avalanche mix of `x`. Feeding
/// it a counter (0, 1, 2, …) yields a deterministic, well-scattered
/// sequence of 64-bit ids — exactly what trace-id minting wants: ids
/// that look random but replay identically run to run.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The bucket index `value` lands in: 0 for zero, otherwise the bit
/// length of `value` (so bucket `b ≥ 1` covers `[2^(b-1), 2^b - 1]`).
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `index` covers (`0` for bucket 0,
/// `2^index - 1` otherwise, saturating at `u64::MAX`).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A lock-free latency histogram over power-of-two buckets.
///
/// All methods take `&self`; concurrent recorders never contend on a
/// lock. Counts are exact (every recorded value is counted in exactly
/// one bucket); only the quantile *positions* within a bucket are
/// approximated by the bucket's upper bound.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation — integer arithmetic and relaxed atomics
    /// only, safe on the hottest path.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain-data copy of the current counters. Concurrent recording
    /// may make the copy internally torn by a few in-flight
    /// observations; every committed observation is eventually visible.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data histogram state: what [`LatencyHistogram::snapshot`]
/// returns and what merging, quantile reads and report generation work
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturation-free for realistic
    /// microsecond latencies).
    pub sum: u64,
    /// The exact largest observed value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Builds a snapshot directly from a slice of values — the
    /// single-threaded convenience path (campaign cells, tests).
    #[must_use]
    pub fn from_values(values: &[u64]) -> Self {
        let mut snap = HistogramSnapshot::default();
        for &v in values {
            snap.buckets[bucket_index(v)] += 1;
            snap.count += 1;
            snap.sum = snap.sum.saturating_add(v);
            snap.max = snap.max.max(v);
        }
        snap
    }

    /// The commutative, associative merge of two snapshots — the
    /// fleet-wide view is the merge of the per-shard ones.
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// The `p`-th percentile (`0 ..= 100`), integer arithmetic only:
    /// the upper bound of the bucket holding the `⌈count·p/100⌉`-th
    /// smallest observation, clamped to the exact recorded `max`.
    ///
    /// Guarantee: if `x ≥ 1` is the exact value at that rank, the
    /// returned `q` satisfies `x ≤ q < 2x` — within one power-of-two
    /// bucket, never below the truth.
    #[must_use]
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count.saturating_mul(p.min(100))).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random values for the property tests.
    fn pseudo_values(seed: u64, n: usize, spread_bits: u32) -> Vec<u64> {
        (0..n as u64)
            .map(|i| splitmix64(seed.wrapping_add(i)) >> (64 - spread_bits))
            .collect()
    }

    #[test]
    fn splitmix64_is_deterministic_and_scattered() {
        assert_eq!(splitmix64(0), splitmix64(0));
        let ids: Vec<u64> = (0..1000).map(splitmix64).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "counter inputs must not collide");
        // avalanche sanity: consecutive counters differ in many bits
        for w in ids.windows(2) {
            assert!((w[0] ^ w[1]).count_ones() >= 10);
        }
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for b in 1..=63usize {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            // the off-by-one frontier: 2^(b-1)-1 | 2^(b-1) … 2^b-1 | 2^b
            assert_eq!(bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_index(hi), b, "upper edge of bucket {b}");
            if lo > 1 {
                assert_eq!(bucket_index(lo - 1), b - 1, "below bucket {b}");
            }
            if b < 63 {
                assert_eq!(bucket_index(hi + 1), b + 1, "above bucket {b}");
            }
            assert_eq!(bucket_upper_bound(b), hi);
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        assert_eq!(bucket_upper_bound(0), 0);
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025, u64::MAX] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper_bound(b));
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1));
            }
        }
    }

    /// Percentiles read off the histogram bound the exact order
    /// statistics from above, within one power-of-two bucket.
    #[test]
    fn percentile_bounds_the_exact_sorted_data() {
        for (seed, n, bits) in [
            (1u64, 500usize, 12u32),
            (2, 1000, 20),
            (3, 37, 6),
            (4, 1, 10),
        ] {
            let mut values = pseudo_values(seed, n, bits);
            let snap = HistogramSnapshot::from_values(&values);
            values.sort_unstable();
            for p in [0u64, 1, 10, 50, 90, 95, 99, 100] {
                let rank = (snap.count * p).div_ceil(100).max(1) as usize;
                let exact = values[rank - 1];
                let q = snap.percentile(p);
                assert!(
                    q >= exact,
                    "p{p} seed {seed}: histogram {q} below exact {exact}"
                );
                if exact >= 1 {
                    assert!(
                        q < 2 * exact,
                        "p{p} seed {seed}: histogram {q} not within 2x of exact {exact}"
                    );
                } else {
                    // an exact zero at the rank: the bucket answer can
                    // only exceed it if larger values share the count
                    assert!(q <= snap.max);
                }
            }
            assert_eq!(snap.percentile(100), *values.last().unwrap());
            assert_eq!(snap.max, *values.last().unwrap());
        }
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let a = HistogramSnapshot::from_values(&pseudo_values(10, 200, 16));
        let b = HistogramSnapshot::from_values(&pseudo_values(11, 300, 10));
        let c = HistogramSnapshot::from_values(&pseudo_values(12, 50, 30));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        let empty = HistogramSnapshot::default();
        assert_eq!(a.merge(&empty), a, "empty is the merge identity");
    }

    #[test]
    fn merge_equals_recording_the_concatenation() {
        let xs = pseudo_values(20, 150, 14);
        let ys = pseudo_values(21, 250, 14);
        let merged =
            HistogramSnapshot::from_values(&xs).merge(&HistogramSnapshot::from_values(&ys));
        let mut all = xs;
        all.extend(ys);
        assert_eq!(merged, HistogramSnapshot::from_values(&all));
    }

    #[test]
    fn atomic_histogram_agrees_with_from_values() {
        let values = pseudo_values(30, 400, 18);
        let hist = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for chunk in values.chunks(100) {
                let hist = &hist;
                scope.spawn(move || {
                    for &v in chunk {
                        hist.record(v);
                    }
                });
            }
        });
        assert_eq!(hist.count(), values.len() as u64);
        assert_eq!(hist.snapshot(), HistogramSnapshot::from_values(&values));
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let snap = HistogramSnapshot::default();
        for p in [0, 50, 100] {
            assert_eq!(snap.percentile(p), 0);
        }
    }
}
