//! Property tests for the workspace's one second-chance cache.
//!
//! The invariants every reuse tier (row answers, whole results, derived
//! group-bys) relies on, checked against reference models under
//! arbitrary operation sequences:
//!
//! * **Collision safety** — `get` never returns a value whose stored
//!   identity differs from the queried one; whatever it does return is
//!   exactly the last value inserted under that hash since the last
//!   clear (eviction may forget, it may never corrupt).
//! * **Capacity** — the live entry count never exceeds the configured
//!   bound at any point in the sequence, including under gets that mark
//!   CLOCK referenced bits and clears that race the ring.
//! * **Batching** — `get_many` is indistinguishable from the equivalent
//!   sequence of `get`s: same answers, same statistics, same referenced
//!   bits (so the same later evictions).
//! * **Eviction hand-back** — every entry the capacity bound removes is
//!   returned by `insert` exactly once, and nothing else ever leaves.
//! * **Second-chance order** — a one-shard cache (the derived-data tier's
//!   setup) evicts exactly the victims a textbook CLOCK ring picks.

use expred_stats::ClockCache;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// One scripted operation: `kind` selects insert/get/wrong-get/clear,
/// `hash` the (deliberately small, collision-prone) key space, `ident`
/// the identity inserted or probed.
fn ops() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..10, 0u64..40, 0u64..5), 1..250)
}

/// A textbook single-ring CLOCK cache: the reference the one-shard
/// [`ClockCache`] must match victim for victim.
struct ModelClock {
    capacity: usize,
    entries: HashMap<u64, (u64, bool)>,
    ring: VecDeque<u64>,
}

impl ModelClock {
    fn get(&mut self, key: u64) -> Option<u64> {
        let (value, referenced) = self.entries.get_mut(&key)?;
        *referenced = true;
        Some(*value)
    }

    fn insert(&mut self, key: u64, value: u64) -> Vec<u64> {
        let mut evicted = Vec::new();
        if self.capacity == 0 {
            return evicted;
        }
        if let Some(entry) = self.entries.get_mut(&key) {
            *entry = (value, true);
            return evicted;
        }
        while self.entries.len() >= self.capacity {
            let candidate = self.ring.pop_front().expect("full ring is non-empty");
            let referenced = &mut self.entries.get_mut(&candidate).unwrap().1;
            if *referenced {
                *referenced = false;
                self.ring.push_back(candidate);
            } else {
                self.entries.remove(&candidate);
                evicted.push(candidate);
            }
        }
        self.entries.insert(key, (value, false));
        self.ring.push_back(key);
        evicted
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memo_is_collision_safe_and_model_consistent(script in ops()) {
        let memo: ClockCache<u64, u64> = ClockCache::with_capacity(16);
        // hash -> (identity, value) of the last insert since last clear.
        let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
        for (i, &(kind, hash, ident)) in script.iter().enumerate() {
            match kind {
                // Rare clear.
                0 => {
                    memo.clear();
                    model.clear();
                }
                // Insert: value encodes (hash, ident) so a cross-served
                // value is detectable.
                1..=4 => {
                    let value = hash * 1_000 + ident;
                    memo.insert(hash, ident, value);
                    model.insert(hash, (ident, value));
                }
                // Probe with an identity that was never inserted: must
                // always miss, even when the hash is occupied.
                5..=6 => {
                    prop_assert_eq!(
                        memo.get(hash, &(ident + 1_000)),
                        None,
                        "op {}: served a foreign identity", i
                    );
                }
                // Probe with a plausible identity: a hit must agree with
                // the model's last insert for that hash, identity and all.
                _ => {
                    if let Some(value) = memo.get(hash, &ident) {
                        prop_assert_eq!(
                            model.get(&hash),
                            Some(&(ident, value)),
                            "op {}: hit disagrees with the reference model", i
                        );
                    }
                }
            }
            prop_assert!(memo.len() <= memo.capacity());
        }
        let stats = memo.stats();
        prop_assert_eq!(
            stats.hits + stats.misses + stats.collision_rejects,
            script.iter().filter(|&&(k, _, _)| k >= 5).count() as u64
        );
    }

    #[test]
    fn memo_never_exceeds_any_capacity(
        capacity in 0usize..40,
        script in prop::collection::vec((0u64..200, 0u64..3), 1..300),
    ) {
        let memo: ClockCache<u64, u64> = ClockCache::with_capacity(capacity);
        prop_assert!(memo.capacity() <= capacity);
        for &(hash, ident) in &script {
            memo.insert(hash, ident, hash ^ ident);
            // Interleave gets so CLOCK referenced bits influence eviction.
            memo.get(hash.wrapping_mul(7) % 200, &ident);
            prop_assert!(
                memo.len() <= memo.capacity(),
                "len {} exceeded capacity {}", memo.len(), memo.capacity()
            );
        }
        if capacity == 0 {
            prop_assert!(memo.is_empty(), "capacity 0 must disable the memo");
        }
    }

    #[test]
    fn get_many_matches_the_equivalent_get_sequence(
        shards_log2 in 0u32..4,
        per_shard in 0usize..6,
        warmup in prop::collection::vec((0u64..60, 0u64..3), 0..80),
        batch in prop::collection::vec((0u64..60, 0u64..3), 0..40),
        tail in prop::collection::vec((0u64..60, 0u64..3), 0..80),
    ) {
        let shards = 1usize << shards_log2;
        let batched: ClockCache<u64, u64> = ClockCache::new(shards, per_shard);
        let single: ClockCache<u64, u64> = ClockCache::new(shards, per_shard);
        for &(hash, ident) in &warmup {
            batched.insert(hash, ident, hash * 10 + ident);
            single.insert(hash, ident, hash * 10 + ident);
        }
        let many = batched.get_many(batch.iter().map(|(hash, ident)| (*hash, ident)));
        let each: Vec<Option<u64>> =
            batch.iter().map(|(hash, ident)| single.get(*hash, ident)).collect();
        prop_assert_eq!(many, each);
        prop_assert_eq!(batched.stats(), single.stats());
        // The batch marked the same referenced bits: identical later
        // inserts evict identical victims.
        for &(hash, ident) in &tail {
            let a = batched.insert(hash, ident, hash + ident);
            let b = single.insert(hash, ident, hash + ident);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(batched.stats(), single.stats());
    }

    #[test]
    fn every_capacity_eviction_is_handed_back_exactly_once(
        shards_log2 in 0u32..4,
        per_shard in 1usize..6,
        script in prop::collection::vec((0u64..10, 0u64..50, 0u64..3), 1..300),
    ) {
        let cache: ClockCache<u64, u64> = ClockCache::new(1 << shards_log2, per_shard);
        // hash -> (identity, value) of every entry that should be live.
        let mut live: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut handed_back = 0u64;
        for (i, &(kind, hash, ident)) in script.iter().enumerate() {
            match kind {
                0 => {
                    cache.clear();
                    live.clear();
                }
                1..=6 => {
                    // Unique values make a double hand-back detectable.
                    let value = i as u64;
                    for (key, identity, value) in cache.insert(hash, ident, value) {
                        prop_assert_eq!(
                            live.remove(&key),
                            Some((identity, value)),
                            "op {}: evicted an entry that was not live", i
                        );
                        prop_assert!(key != hash, "op {}: evicted the entry being stored", i);
                        handed_back += 1;
                    }
                    live.insert(hash, (ident, value));
                }
                _ => {
                    cache.get(hash, &ident);
                }
            }
        }
        // Nothing left the cache without being handed back.
        let mut present: HashMap<u64, (u64, u64)> = HashMap::new();
        cache.for_each(|key, &identity, &value| {
            present.insert(key, (identity, value));
        });
        prop_assert_eq!(present, live);
        prop_assert_eq!(cache.stats().evictions, handed_back);
    }

    #[test]
    fn one_shard_keeps_second_chance_order(
        capacity in 0usize..8,
        script in prop::collection::vec((0u64..3, 0u64..16), 1..300),
    ) {
        let cache: ClockCache<(), u64> = ClockCache::new(1, capacity);
        let mut model = ModelClock {
            capacity,
            entries: HashMap::new(),
            ring: VecDeque::new(),
        };
        for (i, &(kind, key)) in script.iter().enumerate() {
            if kind == 0 {
                prop_assert_eq!(cache.get(key, &()), model.get(key), "op {}: get", i);
            } else {
                let victims: Vec<u64> =
                    cache.insert(key, (), i as u64).into_iter().map(|(k, _, _)| k).collect();
                prop_assert_eq!(victims, model.insert(key, i as u64), "op {}: victims", i);
            }
            prop_assert_eq!(cache.len(), model.entries.len());
        }
    }
}
