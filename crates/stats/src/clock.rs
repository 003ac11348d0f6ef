//! [`ClockCache`]: the workspace's one sharded second-chance cache.
//!
//! Every session reuse tier — row answers (`expred_exec::CacheStore`),
//! whole query outcomes (the engine's result memo) and derived group-bys
//! (`expred_table::DerivedCache`) — serves the paper's §4.2 observation
//! that an already-evaluated result "can be simply returned … without
//! re-evaluating". They share this one implementation: lock striping so
//! readers and writers of different keys never contend, a hard capacity
//! bound enforced by second-chance (CLOCK) eviction, and — because the
//! key is a caller-computed *hash* — full-identity verification on every
//! lookup, so a 64-bit collision can never serve one entry's value as
//! another's. Callers whose key *is* the identity use `K = ()`.
//!
//! The invariants are property-tested in isolation
//! (`crates/stats/tests/clock_props.rs`):
//!
//! * **Collision safety** — `get(h, id)` returns a value only if the
//!   stored identity equals `id` exactly; a colliding occupant is
//!   reported as a miss and counted in [`ClockStats::collision_rejects`].
//! * **Capacity** — the number of live entries never exceeds
//!   [`ClockCache::capacity`], under any interleaving of inserts, gets,
//!   and clears; every entry the bound removes is handed back by
//!   [`ClockCache::insert`] exactly once.
//! * **Last-writer-wins** — inserting under an occupied hash replaces the
//!   occupant in place (its ring slot carries over), so two threads
//!   racing to store the same key settle on one entry.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Upper bound on the stripe count [`ClockCache::with_capacity`] picks
/// (actual count is the largest power of two that also keeps each stripe
/// at [`MIN_SHARD_CAPACITY`] slots).
const MAX_SHARDS: usize = 64;

/// Floor on per-stripe slots for [`ClockCache::with_capacity`]: a
/// single-slot stripe cannot grant a CLOCK second chance (evicting always
/// lands on the one occupant), so small capacities take fewer, deeper
/// stripes instead of 64 useless ones.
const MIN_SHARD_CAPACITY: usize = 4;

/// A snapshot of cache-wide statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockStats {
    /// Lookups that returned a verified value.
    pub hits: u64,
    /// Lookups that found nothing under the hash.
    pub misses: u64,
    /// Lookups that found a *different* identity under the hash and
    /// refused to serve it.
    pub collision_rejects: u64,
    /// Values written (including in-place replacements).
    pub insertions: u64,
    /// Entries discarded by the capacity bound.
    pub evictions: u64,
}

impl ClockStats {
    /// The snapshot as named counters, in stable declaration order — the
    /// serialization-ready view the serving `/metrics` endpoint consumes
    /// (render with [`crate::json::counters_to_json`] /
    /// [`crate::json::counters_to_text`]).
    pub fn fields(&self) -> [(&'static str, u64); 5] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("collision_rejects", self.collision_rejects),
            ("insertions", self.insertions),
            ("evictions", self.evictions),
        ]
    }
}

/// The live counters behind [`ClockStats`]. Shareable: caches built with
/// [`ClockCache::with_counters`] over one block report into it together,
/// and the block outlives any one of them.
#[derive(Debug, Default)]
pub struct ClockCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    collision_rejects: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ClockCounters {
    /// The counters' current values.
    pub fn snapshot(&self) -> ClockStats {
        ClockStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            collision_rejects: self.collision_rejects.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn add(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// One stored value, its full identity, and its CLOCK referenced bit
/// (atomic so hits can mark it under a shared read lock).
#[derive(Debug)]
struct Entry<K, V> {
    identity: K,
    value: V,
    referenced: AtomicBool,
}

/// One lock-striped shard: entries plus the CLOCK ring over their hashes.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<u64, Entry<K, V>>,
    ring: VecDeque<u64>,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            ring: VecDeque::new(),
        }
    }
}

/// What one lookup found under its hash.
enum Probe<V> {
    Hit(V),
    Miss,
    Collision,
}

impl<K: PartialEq, V: Clone> Shard<K, V> {
    fn probe(&self, key: u64, identity: &K) -> Probe<V> {
        match self.map.get(&key) {
            Some(entry) if entry.identity == *identity => {
                entry.referenced.store(true, Ordering::Relaxed);
                Probe::Hit(entry.value.clone())
            }
            Some(_) => Probe::Collision,
            None => Probe::Miss,
        }
    }
}

/// A lock-striped, capacity-bounded, collision-verified cache of values
/// keyed by a caller-computed 64-bit hash.
///
/// `Sync` whenever `K` and `V` are `Send + Sync`; all methods take
/// `&self`. See the module docs for the invariants.
#[derive(Debug)]
pub struct ClockCache<K, V> {
    shards: Box<[RwLock<Shard<K, V>>]>,
    mask: u64,
    shard_capacity: usize,
    counters: Arc<ClockCounters>,
}

/// Largest power of two `<= x` (for `x >= 1`).
fn prev_power_of_two(x: usize) -> usize {
    debug_assert!(x >= 1);
    usize::MAX.wrapping_shr(x.leading_zeros()) / 2 + 1
}

impl<K: PartialEq, V: Clone> ClockCache<K, V> {
    /// A cache of `shards` stripes (a power of two) holding at most
    /// `per_shard_capacity` entries each; a per-shard capacity of 0
    /// disables the cache entirely (every get misses, inserts are no-ops).
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        Self::with_counters(shards, per_shard_capacity, Arc::default())
    }

    /// [`ClockCache::new`] reporting into a caller-owned counter block,
    /// which other caches may share and which survives this one.
    pub fn with_counters(
        shards: usize,
        per_shard_capacity: usize,
        counters: Arc<ClockCounters>,
    ) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two"
        );
        Self {
            shards: (0..shards).map(|_| RwLock::default()).collect(),
            mask: (shards - 1) as u64,
            shard_capacity: per_shard_capacity,
            counters,
        }
    }

    /// A cache holding at most `capacity` entries in total. The effective
    /// bound ([`ClockCache::capacity`]) is rounded *down* so the sum of
    /// per-shard budgets never exceeds the request; `capacity == 0`
    /// disables the cache.
    pub fn with_capacity(capacity: usize) -> Self {
        let shards = if capacity == 0 {
            1
        } else {
            prev_power_of_two(MAX_SHARDS.min((capacity / MIN_SHARD_CAPACITY).max(1)))
        };
        Self::new(shards, capacity / shards)
    }

    /// The enforced total entry bound (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Fibonacci-spreads `key` onto a shard index — the single source of
    /// truth for key placement (`get`, `get_many` and `insert` must all
    /// agree). The spread matters: the caller's hash may be weak in its
    /// low bits (row indices are).
    fn shard_index(&self, key: u64) -> usize {
        let spread = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (spread & self.mask) as usize
    }

    fn read(&self, index: usize) -> RwLockReadGuard<'_, Shard<K, V>> {
        self.shards[index].read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self, index: usize) -> RwLockWriteGuard<'_, Shard<K, V>> {
        self.shards[index]
            .write()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// The value stored under `key`, provided its stored identity equals
    /// `identity` exactly. A colliding occupant is a miss (counted as a
    /// [`ClockStats::collision_rejects`]), never served. A hit marks the
    /// entry for a second chance.
    pub fn get(&self, key: u64, identity: &K) -> Option<V> {
        if self.shard_capacity == 0 {
            ClockCounters::add(&self.counters.misses, 1);
            return None;
        }
        let probe = self.read(self.shard_index(key)).probe(key, identity);
        match probe {
            Probe::Hit(value) => {
                ClockCounters::add(&self.counters.hits, 1);
                Some(value)
            }
            Probe::Miss => {
                ClockCounters::add(&self.counters.misses, 1);
                None
            }
            Probe::Collision => {
                ClockCounters::add(&self.counters.collision_rejects, 1);
                None
            }
        }
    }

    /// Batched [`ClockCache::get`]: answers for every `(key, identity)`,
    /// in input order, taking each touched shard's read lock once instead
    /// of once per key. Results and statistics are exactly those of the
    /// equivalent sequence of `get` calls.
    pub fn get_many<'a>(&self, keys: impl IntoIterator<Item = (u64, &'a K)>) -> Vec<Option<V>>
    where
        K: 'a,
    {
        // Group probes by shard so each lock is taken once.
        let mut by_shard: Vec<Vec<(usize, u64, &K)>> = vec![Vec::new(); self.shards.len()];
        let keys = keys.into_iter();
        let mut out = Vec::with_capacity(keys.size_hint().0);
        for (position, (key, identity)) in keys.enumerate() {
            by_shard[self.shard_index(key)].push((position, key, identity));
            out.push(None);
        }
        if self.shard_capacity == 0 {
            ClockCounters::add(&self.counters.misses, out.len() as u64);
            return out;
        }
        let (mut hits, mut misses, mut collisions) = (0u64, 0u64, 0u64);
        for (index, probes) in by_shard.iter().enumerate() {
            if probes.is_empty() {
                continue;
            }
            let guard = self.read(index);
            for &(position, key, identity) in probes {
                match guard.probe(key, identity) {
                    Probe::Hit(value) => {
                        out[position] = Some(value);
                        hits += 1;
                    }
                    Probe::Miss => misses += 1,
                    Probe::Collision => collisions += 1,
                }
            }
        }
        ClockCounters::add(&self.counters.hits, hits);
        ClockCounters::add(&self.counters.misses, misses);
        ClockCounters::add(&self.counters.collision_rejects, collisions);
        out
    }

    /// Stores `value` under `key`, evicting under the capacity bound, and
    /// returns the `(key, identity, value)` of every entry the bound
    /// removed — so the caller can act on them outside the shard lock.
    /// An occupied hash — same key stored twice, or a genuine collision —
    /// is replaced in place, keeps its ring slot, and is marked for a
    /// second chance.
    pub fn insert(&self, key: u64, identity: K, value: V) -> Vec<(u64, K, V)> {
        self.store(key, identity, value, true)
    }

    /// Like [`ClockCache::insert`], but an occupant with an equal identity
    /// is kept untouched (first writer wins): for callers whose racing
    /// writers store the same deterministic value. A colliding occupant is
    /// still replaced.
    pub fn insert_new(&self, key: u64, identity: K, value: V) -> Vec<(u64, K, V)> {
        self.store(key, identity, value, false)
    }

    fn store(&self, key: u64, identity: K, value: V, replace: bool) -> Vec<(u64, K, V)> {
        let mut evicted = Vec::new();
        if self.shard_capacity == 0 {
            return evicted;
        }
        {
            let mut guard = self.write(self.shard_index(key));
            let shard = &mut *guard;
            if let Some(entry) = shard.map.get_mut(&key) {
                if !replace && entry.identity == identity {
                    return evicted;
                }
                entry.identity = identity;
                entry.value = value;
                entry.referenced.store(true, Ordering::Relaxed);
            } else {
                // Second-chance sweep: referenced entries get one more
                // lap, unreferenced ones go. Terminates because every
                // pass-over clears a referenced bit.
                while shard.map.len() >= self.shard_capacity {
                    let Some(candidate) = shard.ring.pop_front() else {
                        break;
                    };
                    match shard.map.get(&candidate) {
                        Some(entry) if entry.referenced.load(Ordering::Relaxed) => {
                            entry.referenced.store(false, Ordering::Relaxed);
                            shard.ring.push_back(candidate);
                        }
                        Some(_) => {
                            if let Some(entry) = shard.map.remove(&candidate) {
                                evicted.push((candidate, entry.identity, entry.value));
                            }
                        }
                        None => {}
                    }
                }
                shard.map.insert(
                    key,
                    Entry {
                        identity,
                        value,
                        referenced: AtomicBool::new(false),
                    },
                );
                shard.ring.push_back(key);
            }
        }
        ClockCounters::add(&self.counters.insertions, 1);
        ClockCounters::add(&self.counters.evictions, evicted.len() as u64);
        evicted
    }

    /// Visits every live entry (per-shard read locks, no global freeze):
    /// concurrent inserts may or may not be visited; every entry present
    /// for the whole walk is. Visiting marks nothing.
    pub fn for_each(&self, mut f: impl FnMut(u64, &K, &V)) {
        for index in 0..self.shards.len() {
            let guard = self.read(index);
            for (&key, entry) in guard.map.iter() {
                f(key, &entry.identity, &entry.value);
            }
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read(i).map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (statistics are preserved, and the dropped
    /// entries are not counted as evictions). Entries being inserted
    /// concurrently by in-flight callers may land after the clear; they
    /// are fresh values, not resurrections of cleared ones.
    pub fn clear(&self) {
        for index in 0..self.shards.len() {
            let mut guard = self.write(index);
            guard.map.clear();
            guard.ring.clear();
        }
    }

    /// Statistics of this cache's counter block (shared with every cache
    /// built over the same block).
    pub fn stats(&self) -> ClockStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_verifies_identity() {
        let cache: ClockCache<&str, u32> = ClockCache::with_capacity(16);
        cache.insert(7, "query-a", 1);
        assert_eq!(cache.get(7, &"query-a"), Some(1));
        // Same hash, different identity: a collision must be refused.
        assert_eq!(cache.get(7, &"query-b"), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.collision_rejects), (1, 0, 1));
    }

    #[test]
    fn colliding_insert_replaces_in_place() {
        let cache: ClockCache<&str, u32> = ClockCache::with_capacity(16);
        cache.insert(7, "a", 1);
        cache.insert(7, "b", 2);
        assert_eq!(cache.get(7, &"a"), None);
        assert_eq!(cache.get(7, &"b"), Some(2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_new_keeps_an_equal_incumbent() {
        let cache: ClockCache<&str, u32> = ClockCache::new(1, 4);
        cache.insert_new(7, "a", 1);
        cache.insert_new(7, "a", 2);
        assert_eq!(cache.get(7, &"a"), Some(1));
        assert_eq!(cache.stats().insertions, 1);
        // A colliding identity is still replaced.
        cache.insert_new(7, "b", 3);
        assert_eq!(cache.get(7, &"b"), Some(3));
    }

    #[test]
    fn capacity_zero_disables() {
        let cache: ClockCache<u64, u64> = ClockCache::with_capacity(0);
        assert_eq!(cache.capacity(), 0);
        assert!(cache.insert(1, 1, 1).is_empty());
        assert_eq!(cache.get(1, &1), None);
        assert_eq!(cache.get_many([(1, &1), (2, &2)]), vec![None, None]);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn len_never_exceeds_capacity() {
        for requested in [1usize, 3, 10, 64, 100, 1024] {
            let cache: ClockCache<u64, u64> = ClockCache::with_capacity(requested);
            assert!(cache.capacity() <= requested);
            assert!(cache.capacity() >= 1);
            for k in 0..2_000u64 {
                cache.insert(k, k, k);
                assert!(cache.len() <= cache.capacity());
            }
        }
    }

    #[test]
    fn second_chance_protects_hot_entries() {
        // >1 entry per stripe: a single-slot shard has no lap to grant.
        let cache: ClockCache<u64, u64> = ClockCache::with_capacity(256);
        cache.insert(0, 0, 42);
        for cold in 1..2_000u64 {
            assert_eq!(cache.get(0, &0), Some(42), "hot entry evicted at {cold}");
            cache.insert(cold, cold, cold);
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn clear_empties_and_keeps_stats() {
        let cache: ClockCache<u64, u64> = ClockCache::with_capacity(8);
        cache.insert(1, 1, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(cache.get(1, &1), None);
    }

    #[test]
    fn shared_counters_outlive_the_cache() {
        let counters = Arc::new(ClockCounters::default());
        {
            let a: ClockCache<(), bool> = ClockCache::with_counters(64, 1, Arc::clone(&counters));
            let b: ClockCache<(), bool> = ClockCache::with_counters(64, 1, Arc::clone(&counters));
            a.insert(1, (), true);
            b.get(1, &());
            a.get(1, &());
        }
        let s = counters.snapshot();
        assert_eq!((s.insertions, s.hits, s.misses), (1, 1, 1));
    }

    #[test]
    fn for_each_visits_every_live_entry() {
        let cache: ClockCache<(), u64> = ClockCache::new(4, 8);
        for k in 0..10u64 {
            cache.insert(k, (), k * 3);
        }
        let mut seen: Vec<(u64, u64)> = Vec::new();
        cache.for_each(|k, _, &v| seen.push((k, v)));
        seen.sort_unstable();
        assert_eq!(seen, (0..10).map(|k| (k, k * 3)).collect::<Vec<_>>());
    }

    #[test]
    fn prev_power_of_two_is_exact() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(10), 8);
        assert_eq!(prev_power_of_two(64), 64);
        assert_eq!(prev_power_of_two(100), 64);
    }

    #[test]
    fn concurrent_access_stays_bounded_and_verified() {
        let cache: ClockCache<u64, u64> = ClockCache::with_capacity(64);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        let k = (t * 1_000 + i) % 300;
                        cache.insert(k, k, k * 2);
                        if let Some(v) = cache.get(k, &k) {
                            assert_eq!(v, k * 2);
                        }
                        assert_eq!(cache.get(k, &(k + 1_000_000)), None);
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
    }
}
