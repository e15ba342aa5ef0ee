//! A sharded LRU memo cache with hit/miss/eviction counters: the one
//! cache type behind [`CompileMemo`](crate::compiled::CompileMemo) and
//! both of `raysearchd`'s tiers (results and compiled fleets).
//!
//! Each shard is a strict least-recently-used map with its own lock and
//! capacity, and a key hashes to exactly one shard. The lock covers
//! lookup and insert only: a miss installs a pending slot for its key
//! and computes with no lock held, so every other key is served
//! meanwhile, while a concurrent request for the *same* key waits on the
//! slot and reuses the value (request coalescing — the computation runs
//! once per key, never twice). The counters are atomics, which `/stats`
//! reads without a lock and the integration tests use to prove that
//! repeated identical requests are served from cache.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Entries currently resident, summed over shards.
    pub entries: usize,
    /// Total capacity, summed over shards.
    pub capacity: usize,
    /// Number of shards.
    pub shards: usize,
}

/// One LRU shard: a map plus a logical clock ordering recency, and the
/// keys whose miss is computing outside the lock.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    pending: HashSet<K>,
    tick: u64,
    /// This shard's own entry budget; shard budgets sum exactly to the
    /// cache's requested total capacity.
    capacity: usize,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn touch(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            &e.value
        })
    }

    /// Inserts `value`, evicting the least-recently-used entry if the
    /// shard is at capacity. A zero-capacity shard (possible when the
    /// total capacity is below the shard count) retains nothing.
    /// Returns `(evictions, net entry growth)`.
    fn insert(&mut self, key: K, value: V) -> (u64, usize) {
        if self.capacity == 0 {
            return (0, 0);
        }
        self.tick += 1;
        let mut evicted = 0;
        let is_new = !self.map.contains_key(&key);
        if is_new && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                evicted = 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
        (evicted, usize::from(is_new) - evicted as usize)
    }
}

/// A shard behind its lock, and the condvar on which callers wait for
/// one of its pending slots to settle.
#[derive(Debug)]
struct Locked<K, V> {
    shard: Mutex<Shard<K, V>>,
    settled: Condvar,
}

impl<K, V> Locked<K, V> {
    /// Every update under the lock leaves the shard valid, so a lock
    /// poisoned by a panic is recovered.
    fn lock(&self) -> MutexGuard<'_, Shard<K, V>> {
        self.shard.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A miss's pending slot. It is settled with the computed value, or,
/// when the computation returns an error or panics, freed on drop, so
/// the next caller for the key computes it.
struct Pending<'a, K: Hash + Eq + Clone, V> {
    locked: &'a Locked<K, V>,
    key: Option<K>,
}

impl<K: Hash + Eq + Clone, V> Pending<'_, K, V> {
    /// Frees the slot, first storing `value` under its key when there is
    /// one, and wakes the key's waiters. Returns what the insert
    /// returned: `(evictions, net entry growth)`.
    fn settle(&mut self, value: Option<V>) -> (u64, usize) {
        let Some(key) = self.key.take() else {
            return (0, 0);
        };
        let mut shard = self.locked.lock();
        shard.pending.remove(&key);
        let grown = value.map_or((0, 0), |value| shard.insert(key, value));
        drop(shard);
        self.locked.settled.notify_all();
        grown
    }
}

impl<K: Hash + Eq + Clone, V> Drop for Pending<'_, K, V> {
    fn drop(&mut self) {
        self.settle(None);
    }
}

/// A sharded, strictly-LRU memo cache that computes a miss outside its
/// shard lock.
///
/// # Example
///
/// ```
/// use raysearch_core::cache::ShardedLru;
///
/// let cache: ShardedLru<u32, String> = ShardedLru::new(128, 8);
/// let miss = cache.try_get_or_insert_with(7, || Ok::<_, ()>("computed".to_owned()));
/// assert_eq!(miss, Ok(("computed".to_owned(), false)));
/// let hit = cache.try_get_or_insert_with(7, || unreachable!("cached"));
/// assert_eq!(hit, Ok::<_, ()>(("computed".to_owned(), true)));
/// assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
/// ```
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Locked<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Resident entries, maintained atomically so [`Self::stats`] (and
    /// the `/stats` endpoint built on it) never takes a shard lock.
    entries: AtomicUsize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a cache of *exactly* `capacity` total entries split over
    /// `shards` shards: each shard gets `capacity / shards`, with the
    /// remainder spread one entry each over the first shards — so the
    /// budget an operator configures is the budget that is enforced
    /// (and reported by [`Self::stats`]). A capacity of `usize::MAX`
    /// never evicts.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "need a nonzero capacity");
        let base = capacity / shards;
        let remainder = capacity % shards;
        ShardedLru {
            shards: (0..shards)
                .map(|i| Locked {
                    shard: Mutex::new(Shard {
                        map: HashMap::new(),
                        pending: HashSet::new(),
                        tick: 0,
                        capacity: base + usize::from(i < remainder),
                    }),
                    settled: Condvar::new(),
                })
                .collect(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicUsize::new(0),
        }
    }

    /// The shard a key belongs to — stable for the cache's lifetime, so
    /// logically equal keys (see [`crate::canon`]) always meet in the
    /// same shard.
    pub fn shard_index(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Returns the cached value for `key` and whether it was a hit,
    /// computing and inserting it on a miss, with no lock held.
    ///
    /// A concurrent caller for the same key waits for the computation
    /// and then counts a hit, so each key computes once. An `Err` is
    /// propagated and *nothing* is cached, so a failed computation
    /// cannot poison the entry: the slot is freed (also when `compute`
    /// panics), and the next caller computes.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error on a miss.
    pub fn try_get_or_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let locked = &self.shards[self.shard_index(&key)];
        let mut shard = locked
            .settled
            .wait_while(locked.lock(), |shard| shard.pending.contains(&key))
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = shard.touch(&key) {
            let v = v.clone();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((v, true));
        }
        shard.pending.insert(key.clone());
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut pending = Pending {
            locked,
            key: Some(key),
        };
        let value = compute()?;
        let (evicted, grew) = pending.settle(Some(value.clone()));
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        self.entries.fetch_add(grew, Ordering::Relaxed);
        Ok((value, false))
    }

    /// A snapshot of the counters (all atomics — no shard lock is taken).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            capacity: self.capacity,
            shards: self.shards.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    /// A single-shard cache observes strict LRU globally.
    fn single(capacity: usize) -> ShardedLru<u64, u64> {
        ShardedLru::new(capacity, 1)
    }

    /// Looks `key` up, computing `value` on a miss.
    fn fetch(cache: &ShardedLru<u64, u64>, key: u64, value: u64) -> (u64, bool) {
        cache
            .try_get_or_insert_with(key, || Ok::<_, ()>(value))
            .unwrap()
    }

    /// Runs `f` on its own thread and returns its result, failing the
    /// test instead of hanging when `f` blocks.
    fn within_10s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("did not finish within 10s")
    }

    #[test]
    fn capacity_is_enforced() {
        let cache = single(3);
        for k in 0..10 {
            fetch(&cache, k, k * 100);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 7);
        assert_eq!(stats.capacity, 3);
        // the three most recent survive
        assert_eq!(fetch(&cache, 9, 0), (900, true));
        assert_eq!(fetch(&cache, 8, 0), (800, true));
        assert_eq!(fetch(&cache, 7, 0), (700, true));
        assert_eq!(fetch(&cache, 0, 1), (1, false));
    }

    #[test]
    fn eviction_follows_recency_not_insertion() {
        let cache = single(3);
        for k in 1..=3 {
            fetch(&cache, k, k);
        }
        // touch 1 so 2 becomes the LRU entry
        assert_eq!(fetch(&cache, 1, 0), (1, true));
        fetch(&cache, 4, 4);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(fetch(&cache, 1, 0), (1, true));
        assert_eq!(fetch(&cache, 3, 0), (3, true));
        assert_eq!(fetch(&cache, 4, 0), (4, true));
        assert_eq!(fetch(&cache, 2, 0), (0, false), "2 was least recently used");
    }

    #[test]
    fn counters_are_accurate() {
        let cache = single(8);
        assert_eq!(fetch(&cache, 1, 100), (100, false)); // miss + insert
        assert_eq!(fetch(&cache, 1, 0), (100, true)); // hit
        assert_eq!(fetch(&cache, 1, 0), (100, true)); // hit
        let failed = cache.try_get_or_insert_with(2, || Err("no value"));
        assert_eq!(failed, Err("no value")); // miss, nothing cached
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 2, 0));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn shards_partition_the_key_space() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(64, 8);
        assert_eq!(cache.stats().shards, 8);
        // a key's shard is stable call to call
        for k in 0..100 {
            assert_eq!(cache.shard_index(&k), cache.shard_index(&k));
        }
        // and the whole population spreads over more than one shard
        let mut seen = std::collections::HashSet::new();
        for k in 0..100u64 {
            seen.insert(cache.shard_index(&k));
        }
        assert!(seen.len() > 1, "all keys landed in one shard");
    }

    #[test]
    fn parallel_hammering_keeps_counters_consistent() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(1024, 8);
        thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        let key = (t * 1000 + i) % 128;
                        assert_eq!(fetch(cache, key, key * 2).0, key * 2);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4000);
        assert_eq!(stats.misses, 128, "each key computes once");
        assert_eq!(stats.entries, 128);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn total_capacity_is_exactly_as_requested() {
        // 17 over 16 shards must not round up to 32
        let cache: ShardedLru<u64, u64> = ShardedLru::new(17, 16);
        assert_eq!(cache.stats().capacity, 17);
        for k in 0..1000 {
            fetch(&cache, k, k);
        }
        let held = cache.stats().entries;
        assert!(
            held <= 17,
            "cache holds {held} entries over the budget of 17"
        );
        // capacity below the shard count: zero-capacity shards retain
        // nothing, and the total budget still holds
        let tiny: ShardedLru<u64, u64> = ShardedLru::new(2, 8);
        assert_eq!(tiny.stats().capacity, 2);
        for k in 0..100 {
            fetch(&tiny, k, k);
        }
        assert!(tiny.stats().entries <= 2, "tiny cache exceeded its budget");
    }

    #[test]
    fn a_miss_computes_without_blocking_its_shard() {
        let cache = Arc::new(single(8));
        fetch(&cache, 2, 20);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let slow = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache.try_get_or_insert_with(1, || {
                    started_tx.send(()).unwrap();
                    Ok::<u64, ()>(release_rx.recv().unwrap())
                })
            })
        };
        started_rx.recv().unwrap();
        // key 1 is computing: a hit on 2 and a miss on 3 still go ahead
        let others = {
            let cache = Arc::clone(&cache);
            within_10s(move || (fetch(&cache, 2, 0), fetch(&cache, 3, 30)))
        };
        assert_eq!(others, ((20, true), (30, false)));
        // a caller for key 1 waits on its slot, then counts a hit
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || fetch(&cache, 1, 0))
        };
        thread::sleep(Duration::from_millis(50));
        assert!(!waiter.is_finished(), "key 1 has no value yet");
        release_tx.send(10).unwrap();
        assert_eq!(slow.join().unwrap(), Ok((10, false)));
        assert_eq!(waiter.join().unwrap(), (10, true));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 3, 3));
    }

    #[test]
    fn concurrent_callers_for_one_key_compute_it_once() {
        let cache = single(8);
        let computed = AtomicUsize::new(0);
        let start = Barrier::new(8);
        thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    let got = cache.try_get_or_insert_with(4, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        thread::sleep(Duration::from_millis(20));
                        Ok::<u64, ()>(40)
                    });
                    assert_eq!(got.unwrap().0, 40);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (7, 1));
    }

    #[test]
    fn an_error_or_a_panic_frees_the_key() {
        let cache = Arc::new(single(8));
        assert_eq!(
            cache.try_get_or_insert_with(1, || Err("transient")),
            Err("transient")
        );
        let retry = {
            let cache = Arc::clone(&cache);
            within_10s(move || fetch(&cache, 1, 10))
        };
        assert_eq!(retry, (10, false));
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            cache.try_get_or_insert_with(2, || -> Result<u64, ()> { panic!("compute panicked") })
        }));
        assert!(panicked.is_err());
        let retry = {
            let cache = Arc::clone(&cache);
            within_10s(move || fetch(&cache, 2, 20))
        };
        assert_eq!(retry, (20, false));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 4, 2));
    }

    #[test]
    fn an_unbounded_cache_never_evicts() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(usize::MAX, 4);
        for k in 0..1000 {
            fetch(&cache, k, k);
        }
        for k in 0..1000 {
            assert_eq!(fetch(&cache, k, 0), (k, true));
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (1000, 0));
        assert_eq!(stats.capacity, usize::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedLru::<u64, u64>::new(8, 0);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_panics() {
        let _ = ShardedLru::<u64, u64>::new(0, 2);
    }
}
