//! Sharded LRU cache for distance and via-detour results.
//!
//! Real serving traffic repeats itself (commuters, popular POIs), so the
//! server consults this cache before touching the index. The key packs a
//! query *kind* tag, the `(source, target)` pair and — for via queries —
//! the POI category into two `u64` words, so distance answers and
//! via-detour answers for the same pair never collide; the value is the
//! query answer, including *negative* answers (unreachable pairs),
//! encoded as a sentinel so a miss is never confused with "known
//! unreachable". Via entries additionally carry the winning POI id in a
//! 32-bit aux word.
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
pub const NUM_SHARDS: usize = 16;

/// Bits selecting the shard; derived so changing [`NUM_SHARDS`] keeps the
/// selector in range.
const SHARD_BITS: u32 = NUM_SHARDS.trailing_zeros();
const _: () = assert!(NUM_SHARDS.is_power_of_two());

/// Sentinel slot index for "none" in the intrusive list.
const NIL: u32 = u32::MAX;

/// Encoding of `Option<u64>` distances: `u64::MAX` never occurs as a real
/// distance (weights are `u32`, paths are bounded), so it encodes `None`.
const UNREACHABLE: u64 = u64::MAX;

/// Key-space tag for plain `(s, t)` distance answers.
const KIND_DISTANCE: u64 = 0;
/// Key-space tag for via-detour answers (`(s, t)` plus POI category).
const KIND_VIA: u64 = 1;

/// Packs a query identity into the two-word cache key: the kind tag
/// shares a word with the source, the sub-key (via's POI category, 0
/// for distances) shares one with the target. Node ids and categories
/// are 32-bit, so the packing is collision-free across kinds.
#[inline]
fn pack(kind: u64, s: NodeId, t: NodeId, sub: u32) -> (u64, u64) {
    ((kind << 32) | s as u64, ((sub as u64) << 32) | t as u64)
}

struct Entry {
    key: (u64, u64),
    value: u64,
    /// Kind-specific payload word (via: the winning POI id).
    aux: u32,
    prev: u32,
    next: u32,
}

/// One exact-LRU shard.
struct Shard {
    map: HashMap<(u64, u64), u32>,
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

    fn get(&mut self, key: (u64, u64)) -> Option<(u64, u32)> {
        let &i = self.map.get(&key)?;
        self.unlink(i);
        self.link_front(i);
        let e = &self.arena[i as usize];
        Some((e.value, e.aux))
    }

    fn insert(&mut self, key: (u64, u64), value: u64, aux: u32) {
        if let Some(&i) = self.map.get(&key) {
            let e = &mut self.arena[i as usize];
            e.value = value;
            e.aux = aux;
            self.unlink(i);
            self.link_front(i);
            return;
        }
        let i = if self.arena.len() < self.capacity {
            self.arena.push(Entry {
                key,
                value,
                aux,
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
            e.aux = aux;
            i
        };
        self.map.insert(key, i);
        self.link_front(i);
    }
}

/// A sharded, exact-LRU `(source, target) → distance` cache.
pub struct DistanceCache {
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
    fn shard_for(&self, key: (u64, u64)) -> &Mutex<Shard> {
        // Fibonacci hashing over the mixed key words: cheap and well mixed.
        let packed = key.0 ^ key.1.rotate_left(31);
        let h = packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> (64 - SHARD_BITS)) as usize]
    }

    /// Raw keyed lookup (hits and misses are counted by the server's
    /// metrics, not here).
    fn get_raw(&self, key: (u64, u64)) -> Option<(u64, u32)> {
        self.shard_for(key).lock().unwrap().get(key)
    }

    /// Raw keyed insert honoring the clear-epoch protocol (see
    /// [`DistanceCache::put_at`]).
    fn put_raw_at(&self, key: (u64, u64), value: u64, aux: u32, epoch: u64) -> bool {
        let mut shard = self.shard_for(key).lock().unwrap();
        if self.epoch.load(Ordering::SeqCst) != epoch {
            return false;
        }
        shard.insert(key, value, aux);
        true
    }

    /// Cached answer for `(s, t)`: `Some(Some(d))` reachable with distance
    /// `d`, `Some(None)` known unreachable, `None` not cached.
    pub fn get(&self, s: NodeId, t: NodeId) -> Option<Option<u64>> {
        match self.get_raw(pack(KIND_DISTANCE, s, t, 0)) {
            Some((UNREACHABLE, _)) => Some(None),
            Some((d, _)) => Some(Some(d)),
            None => None,
        }
    }

    /// Records the answer for `(s, t)`, including unreachability.
    pub fn put(&self, s: NodeId, t: NodeId, distance: Option<u64>) {
        let value = distance.unwrap_or(UNREACHABLE);
        let key = pack(KIND_DISTANCE, s, t, 0);
        self.shard_for(key).lock().unwrap().insert(key, value, 0);
    }

    /// Cached via-detour answer for `(s, t)` through POI category `cat`:
    /// `Some(Some((poi, total)))` a best POI exists, `Some(None)` known
    /// to have no reachable POI, `None` not cached. Lives in a key space
    /// disjoint from plain distances, so a via answer for `(s, t)` never
    /// shadows the point-to-point distance (or vice versa).
    pub fn get_via(&self, s: NodeId, t: NodeId, cat: u32) -> Option<Option<(NodeId, u64)>> {
        match self.get_raw(pack(KIND_VIA, s, t, cat)) {
            Some((UNREACHABLE, _)) => Some(None),
            Some((total, poi)) => Some(Some((poi, total))),
            None => None,
        }
    }

    /// Records the via-detour answer (best POI and total length, or
    /// `None` when no category member connects `s` to `t`) under the
    /// epoch protocol of [`DistanceCache::put_at`].
    pub fn put_via_at(
        &self,
        s: NodeId,
        t: NodeId,
        cat: u32,
        answer: Option<(NodeId, u64)>,
        epoch: u64,
    ) -> bool {
        let (value, aux) = match answer {
            Some((poi, total)) => (total, poi),
            None => (UNREACHABLE, 0),
        };
        self.put_raw_at(pack(KIND_VIA, s, t, cat), value, aux, epoch)
    }

    /// Records the answer for `(s, t)` only if no [`DistanceCache::clear`]
    /// happened since `epoch` was captured (via [`DistanceCache::epoch`]).
    ///
    /// This closes the swap-time race `put` cannot: a worker that read
    /// the old index, computed, and got descheduled could otherwise
    /// insert its old-generation answer *after* the swap cleared the
    /// cache. The epoch is re-checked **under the shard lock**; because
    /// `clear` bumps the epoch before taking any shard lock, a stale
    /// writer either inserts before the wipe (entry is wiped) or sees
    /// the new epoch and drops the answer. Returns whether the entry
    /// was stored.
    pub fn put_at(&self, s: NodeId, t: NodeId, distance: Option<u64>, epoch: u64) -> bool {
        let value = distance.unwrap_or(UNREACHABLE);
        self.put_raw_at(pack(KIND_DISTANCE, s, t, 0), value, 0, epoch)
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

    /// Entries currently cached, summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// Whether no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_roundtrip() {
        let c = DistanceCache::new(64);
        assert_eq!(c.get(1, 2), None);
        c.put(1, 2, Some(99));
        assert_eq!(c.get(1, 2), Some(Some(99)));
    }

    #[test]
    fn unreachable_is_cached_distinctly() {
        let c = DistanceCache::new(64);
        c.put(3, 4, None);
        assert_eq!(c.get(3, 4), Some(None), "known unreachable, not a miss");
    }

    #[test]
    fn directional_keys_are_distinct() {
        let c = DistanceCache::new(64);
        c.put(1, 2, Some(10));
        c.put(2, 1, Some(20));
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
                    let pa = std::ptr::from_ref(c.shard_for(pack(KIND_DISTANCE, a, 0, 0)));
                    let pb = std::ptr::from_ref(c.shard_for(pack(KIND_DISTANCE, b, 1, 0)));
                    if pa == pb {
                        same = Some(((a, 0), (b, 1)));
                        break 'outer;
                    }
                }
            }
        }
        let (k1, k2) = same.expect("two keys must collide among 4096 probes");
        c.put(k1.0, k1.1, Some(1));
        c.put(k2.0, k2.1, Some(2));
        assert_eq!(c.get(k2.0, k2.1), Some(Some(2)));
        assert_eq!(c.get(k1.0, k1.1), None, "evicted by LRU");
    }

    #[test]
    fn touch_on_get_protects_hot_entries() {
        let mut shard = Shard::new(2);
        shard.insert((1, 1), 11, 0);
        shard.insert((2, 2), 22, 0);
        assert_eq!(shard.get((1, 1)), Some((11, 0))); // touch: (2,2) is now LRU
        shard.insert((3, 3), 33, 0); // evicts (2,2)
        assert_eq!(shard.get((1, 1)), Some((11, 0)));
        assert_eq!(shard.get((2, 2)), None);
        assert_eq!(shard.get((3, 3)), Some((33, 0)));
    }

    #[test]
    fn overwrite_updates_value_in_place() {
        let mut shard = Shard::new(2);
        shard.insert((1, 1), 11, 5);
        shard.insert((1, 1), 12, 6);
        assert_eq!(shard.get((1, 1)), Some((12, 6)));
        assert_eq!(shard.map.len(), 1);
    }

    #[test]
    fn via_and_distance_keys_never_collide() {
        let c = DistanceCache::new(64);
        c.put(5, 9, Some(100));
        let e = c.epoch();
        assert!(c.put_via_at(5, 9, 0, Some((42, 250)), e));
        assert!(c.put_via_at(5, 9, 3, Some((77, 300)), e));
        assert_eq!(c.get(5, 9), Some(Some(100)), "distance untouched by via");
        assert_eq!(c.get_via(5, 9, 0), Some(Some((42, 250))));
        assert_eq!(c.get_via(5, 9, 3), Some(Some((77, 300))), "per-category keys");
        assert_eq!(c.get_via(5, 9, 1), None, "other categories miss");
    }

    #[test]
    fn via_negative_answers_cache_distinctly() {
        let c = DistanceCache::new(64);
        assert_eq!(c.get_via(1, 2, 0), None, "cold miss");
        assert!(c.put_via_at(1, 2, 0, None, c.epoch()));
        assert_eq!(c.get_via(1, 2, 0), Some(None), "known no-POI, not a miss");
        c.clear();
        assert!(!c.put_via_at(1, 2, 0, Some((3, 4)), 0), "stale epoch refused");
        assert_eq!(c.get_via(1, 2, 0), None);
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
                        c.put(s, t, Some((s as u64) * 1000 + t as u64));
                    }
                });
            }
        });
        assert!(c.len() <= 256 + NUM_SHARDS);
    }
}
