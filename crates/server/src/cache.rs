//! Sharded LRU cache for point-to-point distance answers.
//!
//! Serving traffic that repeats itself (commuters, popular POIs) can skip
//! the index: the server consults this cache before a distance request
//! reaches the backend. The key packs the `(source, target)` pair into one
//! `u64`; the value is the distance, including *negative* answers
//! (unreachable pairs), encoded as a sentinel so a miss is never confused
//! with "known unreachable".
//!
//! The map is split into [`NUM_SHARDS`] independently locked shards
//! (selected by a Fibonacci hash of the pair) so concurrent workers rarely
//! contend on the same mutex. Each shard is an exact LRU: a `HashMap` into
//! an arena of entries threaded on an intrusive doubly-linked list, giving
//! O(1) lookup, insert, touch and eviction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ah_graph::NodeId;

/// Number of independently locked shards (power of two).
const NUM_SHARDS: usize = 16;

/// Bits selecting the shard; derived so changing [`NUM_SHARDS`] keeps the
/// selector in range.
const SHARD_BITS: u32 = NUM_SHARDS.trailing_zeros();
const _: () = assert!(NUM_SHARDS.is_power_of_two());

/// Sentinel slot index for "none" in the intrusive list.
const NIL: u32 = u32::MAX;

/// Encoding of `Option<u64>` distances: `u64::MAX` never occurs as a real
/// distance (weights are `u32`, paths are bounded), so it encodes `None`.
const UNREACHABLE: u64 = u64::MAX;

/// The cache key of `(s, t)`: node ids are 32-bit, so the packing is
/// collision-free and keeps direction.
#[inline]
fn pack(s: NodeId, t: NodeId) -> u64 {
    ((s as u64) << 32) | t as u64
}

struct Entry {
    key: u64,
    value: u64,
    prev: u32,
    next: u32,
}

/// One exact-LRU shard.
struct Shard {
    map: HashMap<u64, u32>,
    arena: Vec<Entry>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity),
            arena: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Unlinks slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let e = &self.arena[i as usize];
            (e.prev, e.next)
        };
        if prev != NIL {
            self.arena[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.arena[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links slot `i` at the head (most recently used).
    fn link_front(&mut self, i: u32) {
        let old = self.head;
        {
            let e = &mut self.arena[i as usize];
            e.prev = NIL;
            e.next = old;
        }
        if old != NIL {
            self.arena[old as usize].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        let &i = self.map.get(&key)?;
        self.unlink(i);
        self.link_front(i);
        Some(self.arena[i as usize].value)
    }

    fn insert(&mut self, key: u64, value: u64) {
        if let Some(&i) = self.map.get(&key) {
            self.arena[i as usize].value = value;
            self.unlink(i);
            self.link_front(i);
            return;
        }
        let i = if self.arena.len() < self.capacity {
            self.arena.push(Entry {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            (self.arena.len() - 1) as u32
        } else {
            // Evict the least recently used entry and reuse its slot.
            let i = self.tail;
            debug_assert_ne!(i, NIL, "capacity >= 1");
            self.unlink(i);
            let old_key = self.arena[i as usize].key;
            self.map.remove(&old_key);
            let e = &mut self.arena[i as usize];
            e.key = key;
            e.value = value;
            i
        };
        self.map.insert(key, i);
        self.link_front(i);
    }
}

/// A sharded, exact-LRU `(source, target) → distance` cache.
pub(crate) struct DistanceCache {
    shards: Vec<Mutex<Shard>>,
    /// Bumped by [`DistanceCache::clear`] *before* the shards are wiped,
    /// so an epoch captured earlier can never stamp an entry that
    /// survives the wipe (see [`DistanceCache::put_at`]).
    epoch: AtomicU64,
}

impl DistanceCache {
    /// Creates a cache holding roughly `capacity` entries in total
    /// (distributed over [`NUM_SHARDS`] shards, each at least 1 entry).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(NUM_SHARDS).max(1);
        DistanceCache {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current clear-epoch. Capture it *before* computing an answer
    /// and hand it back to [`DistanceCache::put_at`]: if the cache was
    /// cleared in between (index swap), the stale answer is dropped
    /// instead of poisoning the new generation.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    #[inline]
    fn shard_for(&self, s: NodeId, t: NodeId) -> &Mutex<Shard> {
        // Fibonacci hashing over the mixed pair: cheap and well mixed.
        let packed = s as u64 ^ (t as u64).rotate_left(31);
        let h = packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> (64 - SHARD_BITS)) as usize]
    }

    /// Cached answer for `(s, t)`: `Some(Some(d))` reachable with distance
    /// `d`, `Some(None)` known unreachable, `None` not cached. Hits and
    /// misses are counted by the server's metrics, not here.
    pub fn get(&self, s: NodeId, t: NodeId) -> Option<Option<u64>> {
        let value = self.shard_for(s, t).lock().unwrap().get(pack(s, t))?;
        Some((value != UNREACHABLE).then_some(value))
    }

    /// Records the answer for `(s, t)`, including unreachability, only if
    /// no [`DistanceCache::clear`] happened since `epoch` was captured
    /// (via [`DistanceCache::epoch`]).
    ///
    /// This closes a swap-time race: a worker that read the old index,
    /// computed, and got descheduled could otherwise insert its
    /// old-generation answer *after* the swap cleared the cache. The
    /// epoch is re-checked **under the shard lock**; because `clear`
    /// bumps the epoch before taking any shard lock, a stale writer
    /// either inserts before the wipe (entry is wiped) or sees the new
    /// epoch and drops the answer. Returns whether the entry was stored.
    pub fn put_at(&self, s: NodeId, t: NodeId, distance: Option<u64>, epoch: u64) -> bool {
        let mut shard = self.shard_for(s, t).lock().unwrap();
        if self.epoch.load(Ordering::SeqCst) != epoch {
            return false;
        }
        shard.insert(pack(s, t), distance.unwrap_or(UNREACHABLE));
        true
    }

    /// Drops every cached entry. Used when the index underneath
    /// the cache is swapped: answers computed against the old index must
    /// not leak into the new serving generation.
    ///
    /// The epoch is bumped *before* the first shard is wiped — the
    /// ordering [`DistanceCache::put_at`] relies on.
    pub fn clear(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        for shard in &self.shards {
            let mut s = shard.lock().unwrap();
            s.map.clear();
            s.arena.clear();
            s.head = NIL;
            s.tail = NIL;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DistanceCache {
        /// Entries currently cached, summed over shards.
        fn len(&self) -> usize {
            self.shards.iter().map(|s| s.lock().unwrap().map.len()).sum()
        }
    }

    #[test]
    fn miss_then_hit_roundtrip() {
        let c = DistanceCache::new(64);
        assert_eq!(c.get(1, 2), None);
        c.put_at(1, 2, Some(99), c.epoch());
        assert_eq!(c.get(1, 2), Some(Some(99)));
    }

    #[test]
    fn unreachable_is_cached_distinctly() {
        let c = DistanceCache::new(64);
        c.put_at(3, 4, None, c.epoch());
        assert_eq!(c.get(3, 4), Some(None), "known unreachable, not a miss");
    }

    #[test]
    fn directional_keys_are_distinct() {
        let c = DistanceCache::new(64);
        c.put_at(1, 2, Some(10), c.epoch());
        c.put_at(2, 1, Some(20), c.epoch());
        assert_eq!(c.get(1, 2), Some(Some(10)));
        assert_eq!(c.get(2, 1), Some(Some(20)));
    }

    #[test]
    fn lru_evicts_oldest_within_a_shard() {
        // Capacity 16 → 1 entry per shard. Two keys in the same shard:
        // the second insert evicts the first.
        let c = DistanceCache::new(NUM_SHARDS);
        // Find two keys landing in the same shard by probing.
        let mut same: Option<((u32, u32), (u32, u32))> = None;
        'outer: for a in 0..64u32 {
            for b in 0..64u32 {
                if (a, 0) != (b, 1) {
                    let pa = std::ptr::from_ref(c.shard_for(a, 0));
                    let pb = std::ptr::from_ref(c.shard_for(b, 1));
                    if pa == pb {
                        same = Some(((a, 0), (b, 1)));
                        break 'outer;
                    }
                }
            }
        }
        let (k1, k2) = same.expect("two keys must collide among 4096 probes");
        c.put_at(k1.0, k1.1, Some(1), c.epoch());
        c.put_at(k2.0, k2.1, Some(2), c.epoch());
        assert_eq!(c.get(k2.0, k2.1), Some(Some(2)));
        assert_eq!(c.get(k1.0, k1.1), None, "evicted by LRU");
    }

    #[test]
    fn touch_on_get_protects_hot_entries() {
        let mut shard = Shard::new(2);
        shard.insert(1, 11);
        shard.insert(2, 22);
        assert_eq!(shard.get(1), Some(11)); // touch: 2 is now LRU
        shard.insert(3, 33); // evicts 2
        assert_eq!(shard.get(1), Some(11));
        assert_eq!(shard.get(2), None);
        assert_eq!(shard.get(3), Some(33));
    }

    #[test]
    fn overwrite_updates_value_in_place() {
        let mut shard = Shard::new(2);
        shard.insert(1, 11);
        shard.insert(1, 12);
        assert_eq!(shard.get(1), Some(12));
        assert_eq!(shard.map.len(), 1);
    }

    #[test]
    fn put_at_with_current_epoch_stores() {
        let c = DistanceCache::new(64);
        let e = c.epoch();
        assert!(c.put_at(1, 2, Some(5), e));
        assert_eq!(c.get(1, 2), Some(Some(5)));
    }

    #[test]
    fn put_at_after_clear_drops_the_stale_answer() {
        let c = DistanceCache::new(64);
        let e = c.epoch();
        // The swap happens between compute and insert:
        c.clear();
        assert!(!c.put_at(1, 2, Some(5), e), "stale insert must be refused");
        assert_eq!(c.get(1, 2), None, "nothing leaked into the new epoch");
        // A writer that captured the *new* epoch stores fine.
        assert!(c.put_at(1, 2, Some(7), c.epoch()));
        assert_eq!(c.get(1, 2), Some(Some(7)));
    }

    #[test]
    fn clear_bumps_epoch_monotonically() {
        let c = DistanceCache::new(16);
        let e0 = c.epoch();
        c.clear();
        c.clear();
        assert_eq!(c.epoch(), e0 + 2);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = DistanceCache::new(256);
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let (s, t) = (i % 32, (i + w) % 32);
                        if let Some(v) = c.get(s, t) {
                            // Any cached value must be the canonical one.
                            assert_eq!(v, Some((s as u64) * 1000 + t as u64));
                        }
                        c.put_at(s, t, Some((s as u64) * 1000 + t as u64), c.epoch());
                    }
                });
            }
        });
        assert!(c.len() <= 256 + NUM_SHARDS);
    }
}
