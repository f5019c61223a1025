//! A sharded, read-through feature cache shared by concurrent threads.
//!
//! The fleet's cross-stream [`crate::BatchScheduler`] keeps one
//! `SharedFeatureCache` behind all of its lanes, so a box that several
//! streams miss is inferred once fleet-wide — the cross-stream analogue of
//! a session's own feature reuse (§IV-B). Each in-flight slot is a
//! once-cell: the first requester of a key computes the feature while
//! concurrent requesters for the same key block briefly and then reuse it,
//! so every distinct key is computed exactly once per cache.
//!
//! ## Two tiers: frozen and live
//!
//! Each shard keeps its entries in two maps:
//!
//! * **frozen** — an immutable `Arc<HashMap<K, Arc<Feature>>>` of settled
//!   features. The hot warm-hit path clones the `Arc` under a briefly-held
//!   read lock and then looks up lock-free; a reader can never block on a
//!   computing writer.
//! * **live** — the mutable once-cell map where misses land and racers
//!   coordinate, exactly the pre-rewrite design.
//!
//! When a shard accumulates `max(16, frozen.len())` computed live entries
//! they are **promoted** into a rebuilt frozen map (geometric schedule, so
//! rebuild work is amortized O(1) per insert). Promotion mutates `frozen`
//! only while holding the `live` write lock, and the miss path re-checks
//! `frozen` under that same lock, so a promotion can never hide a key from
//! a concurrent computer (which would double-compute and double-charge).
//!
//! ## Sizing and telemetry
//!
//! The shard count is configurable ([`SharedFeatureCache::with_shards`],
//! power of two, clamped to 1..=4096); [`SharedFeatureCache::for_fleet_width`]
//! sizes it from the number of concurrently-ingesting streams. Hit/miss/
//! contention counters are kept in relaxed atomics ([`CacheStats`]) and read
//! with [`SharedFeatureCache::stats`]; they never reach `tm-obs`, so
//! deterministic observability goldens are unaffected by cache timing. The
//! `cache_storms` suite of the `perf_trajectory` bench measures this design
//! across shard counts.

use crate::feature::Feature;
use crate::session::BoxKey;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Default shard count (the pre-rewrite fixed value).
const DEFAULT_SHARDS: usize = 16;

/// Promotion threshold floor: a shard promotes once it has this many (or
/// `frozen.len()`, if larger) computed live entries.
const MIN_PROMOTE: usize = 16;

type Slot = Arc<OnceLock<Arc<Feature>>>;
type FrozenMap<K> = Arc<HashMap<K, Arc<Feature>>>;

/// One shard's two-tier storage.
#[derive(Debug)]
struct Shard<K> {
    /// Settled features; replaced wholesale at promotion, read by cloning
    /// the `Arc` under a briefly-held lock.
    frozen: RwLock<FrozenMap<K>>,
    /// In-flight and recently-computed entries.
    live: RwLock<HashMap<K, Slot>>,
    /// Computed (initialized) entries currently in `live`; drives the
    /// promotion schedule without rescanning the map.
    live_filled: AtomicUsize,
}

impl<K> Default for Shard<K> {
    fn default() -> Self {
        Self {
            frozen: RwLock::new(Arc::new(HashMap::new())),
            live: RwLock::new(HashMap::new()),
            live_filled: AtomicUsize::new(0),
        }
    }
}

/// Counter snapshot for one cache (all counters monotonic, relaxed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered lock-free from the frozen tier.
    pub frozen_hits: u64,
    /// Lookups answered from a computed live slot (shard lock held).
    pub slow_hits: u64,
    /// Lookups that found nothing computed.
    pub misses: u64,
    /// Features computed through [`SharedFeatureCache::get_or_compute`].
    pub computed: u64,
    /// Live→frozen promotions performed.
    pub promotions: u64,
    /// Reads that found a shard lock held by a writer (`try_read` failed)
    /// and had to wait — the contention signal the storm bench watches.
    pub contention: u64,
}

/// A concurrent `K → Feature` cache. See the module docs.
///
/// Generic over the key so the per-window pipeline keeps its `BoxKey`
/// (track, frame) identity while the cross-stream fleet scheduler caches by
/// content (`crate::FeatureKey`), where the same box under different track
/// IDs must still share one feature. The key only picks a shard and a map
/// slot — sharding quality affects contention, never results.
#[derive(Debug)]
pub struct SharedFeatureCache<K = BoxKey> {
    shards: Vec<Shard<K>>,
    frozen_hits: AtomicU64,
    slow_hits: AtomicU64,
    misses: AtomicU64,
    computed: AtomicU64,
    promotions: AtomicU64,
    contention: AtomicU64,
}

// Manual impl: `derive(Default)` would demand `K: Default` for no reason.
impl<K> Default for SharedFeatureCache<K> {
    fn default() -> Self {
        Self::sized(DEFAULT_SHARDS)
    }
}

impl<K> SharedFeatureCache<K> {
    fn sized(shards: usize) -> Self {
        debug_assert!(shards.is_power_of_two());
        Self {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            frozen_hits: AtomicU64::new(0),
            slow_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            contention: AtomicU64::new(0),
        }
    }
}

impl<K: Hash + Eq + Copy> SharedFeatureCache<K> {
    /// An empty cache with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with `shards` shards, rounded up to a power of two
    /// and clamped to `1..=4096`. More shards reduce write contention at
    /// the price of per-shard memory overhead; results never depend on the
    /// count.
    pub fn with_shards(shards: usize) -> Self {
        Self::sized(shards.max(1).next_power_of_two().min(4096))
    }

    /// Sizes the cache for `width` concurrently-ingesting sessions
    /// (streams or worker threads): 4 shards per session so the birthday
    /// collision rate on shard locks stays low, floor of
    /// [`DEFAULT_SHARDS`].
    pub fn for_fleet_width(width: usize) -> Self {
        Self::with_shards((width.saturating_mul(4)).max(DEFAULT_SHARDS))
    }

    /// Number of shards actually allocated (power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &K) -> &Shard<K> {
        // SipHash the key, then a SplitMix64-style avalanche so low bits
        // are well mixed before masking down to a shard index.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let mut z = h.finish().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        &self.shards[(z as usize) & (self.shards.len() - 1)]
    }

    /// Clones the shard's frozen map `Arc`, counting contention when the
    /// lock was momentarily writer-held (promotion in progress).
    fn frozen_map(&self, shard: &Shard<K>) -> FrozenMap<K> {
        match shard.frozen.try_read() {
            Ok(g) => Arc::clone(&g),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&shard.frozen.read().expect("cache lock poisoned"))
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("cache lock poisoned"),
        }
    }

    /// The cached feature for `key`, if some session already computed it.
    /// A slot whose computation is still in flight counts as a miss (the
    /// caller will join it through [`SharedFeatureCache::get_or_compute`]).
    pub fn get(&self, key: &K) -> Option<Arc<Feature>> {
        let shard = self.shard(key);
        if let Some(f) = self.frozen_map(shard).get(key) {
            self.frozen_hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(f));
        }
        let found = match shard.live.try_read() {
            Ok(g) => g.get(key).and_then(|slot| slot.get().cloned()),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                shard
                    .live
                    .read()
                    .expect("cache lock poisoned")
                    .get(key)
                    .and_then(|slot| slot.get().cloned())
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("cache lock poisoned"),
        };
        match found {
            Some(f) => {
                self.slow_hits.fetch_add(1, Ordering::Relaxed);
                Some(f)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Read-through lookup: returns the feature for `key`, running
    /// `compute` iff no other session has (or is) computing it. The
    /// returned flag is `true` when *this* call did the work — that caller
    /// owns the simulated inference cost.
    pub fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> Feature,
    ) -> (Arc<Feature>, bool) {
        let shard = self.shard(&key);
        if let Some(f) = self.frozen_map(shard).get(&key) {
            self.frozen_hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(f), false);
        }
        let slot: Slot = {
            // The read guard must drop before the write lock is taken: under
            // the 2021 edition an `if let` scrutinee's temporaries live
            // through the `else` branch, so reading and upgrading in one
            // `if let` self-deadlocks on the first miss. `cloned()` ends the
            // borrow at the end of this statement.
            let found = shard
                .live
                .read()
                .expect("cache lock poisoned")
                .get(&key)
                .cloned();
            match found {
                Some(slot) => slot,
                None => {
                    let mut live = shard.live.write().expect("cache lock poisoned");
                    // Re-check the frozen tier while holding the live write
                    // lock: a promotion may have moved this key out of `live`
                    // after our lookups above. Promotions mutate `frozen`
                    // only while holding `live`'s write lock, so holding it
                    // here excludes one mid-flight — without the re-check a
                    // racer could recompute (and re-charge) a settled
                    // feature.
                    if let Some(f) = self.frozen_map(shard).get(&key) {
                        self.frozen_hits.fetch_add(1, Ordering::Relaxed);
                        return (Arc::clone(f), false);
                    }
                    Arc::clone(live.entry(key).or_default())
                }
            }
        };
        // Outside the shard lock: losers of the race block on the cell,
        // not on the shard, so unrelated keys stay accessible.
        let mut computed = false;
        let feature = slot
            .get_or_init(|| {
                computed = true;
                Arc::new(compute())
            })
            .clone();
        if computed {
            self.computed.fetch_add(1, Ordering::Relaxed);
            let filled = shard.live_filled.fetch_add(1, Ordering::Relaxed) + 1;
            let threshold = MIN_PROMOTE.max(self.frozen_map(shard).len());
            if filled >= threshold {
                self.promote(shard);
            }
        } else {
            self.slow_hits.fetch_add(1, Ordering::Relaxed);
        }
        (feature, computed)
    }

    /// Rebuilds the shard's frozen map from the old one plus every computed
    /// live entry, retaining only still-in-flight slots in `live`. Runs
    /// under the live write lock (see the re-check in `get_or_compute`).
    fn promote(&self, shard: &Shard<K>) {
        let mut live = shard.live.write().expect("cache lock poisoned");
        let old = Arc::clone(&shard.frozen.read().expect("cache lock poisoned"));
        let mut map: HashMap<K, Arc<Feature>> = HashMap::with_capacity(old.len() + live.len());
        map.extend(old.iter().map(|(k, f)| (*k, Arc::clone(f))));
        live.retain(|k, slot| match slot.get() {
            Some(f) => {
                map.insert(*k, Arc::clone(f));
                false
            }
            None => true,
        });
        *shard.frozen.write().expect("cache lock poisoned") = Arc::new(map);
        shard.live_filled.store(0, Ordering::Relaxed);
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of fully-computed features in the cache.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let frozen = s.frozen.read().expect("cache lock poisoned").len();
                let live = s
                    .live
                    .read()
                    .expect("cache lock poisoned")
                    .values()
                    .filter(|slot| slot.get().is_some())
                    .count();
                frozen + live
            })
            .sum()
    }

    /// True when no feature has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cache's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            frozen_hits: self.frozen_hits.load(Ordering::Relaxed),
            slow_hits: self.slow_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            contention: self.contention.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::{FrameIdx, TrackId};

    fn key(t: u64, f: u64) -> BoxKey {
        BoxKey::new(TrackId(t), FrameIdx(f))
    }

    fn feat(x: f64) -> Feature {
        Feature::normalized(vec![x, 1.0])
    }

    #[test]
    fn first_caller_computes_second_reuses() {
        let cache = SharedFeatureCache::new();
        let (f1, computed1) = cache.get_or_compute(key(1, 2), || feat(3.0));
        assert!(computed1);
        let (f2, computed2) = cache.get_or_compute(key(1, 2), || panic!("must reuse"));
        assert!(!computed2);
        assert_eq!(f1, f2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_misses_until_computed() {
        let cache = SharedFeatureCache::new();
        assert!(cache.get(&key(4, 5)).is_none());
        cache.get_or_compute(key(4, 5), || feat(1.0));
        assert!(cache.get(&key(4, 5)).is_some());
    }

    #[test]
    fn distinct_keys_occupy_distinct_slots() {
        let cache = SharedFeatureCache::new();
        for t in 0..50u64 {
            cache.get_or_compute(key(t, t + 1), || feat(t as f64));
        }
        assert_eq!(cache.len(), 50);
        assert!(!cache.is_empty());
    }

    #[test]
    fn concurrent_racers_compute_once() {
        let cache = Arc::new(SharedFeatureCache::new());
        let n_computed = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (_, computed) = cache.get_or_compute(key(9, 9), || {
                        n_computed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        feat(2.0)
                    });
                    let _ = computed;
                });
            }
        });
        assert_eq!(n_computed.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_counts_round_to_powers_of_two() {
        assert_eq!(
            SharedFeatureCache::<BoxKey>::with_shards(0).shard_count(),
            1
        );
        assert_eq!(
            SharedFeatureCache::<BoxKey>::with_shards(1).shard_count(),
            1
        );
        assert_eq!(
            SharedFeatureCache::<BoxKey>::with_shards(5).shard_count(),
            8
        );
        assert_eq!(
            SharedFeatureCache::<BoxKey>::with_shards(1 << 20).shard_count(),
            4096
        );
        assert_eq!(
            SharedFeatureCache::<BoxKey>::for_fleet_width(1).shard_count(),
            16
        );
        assert_eq!(
            SharedFeatureCache::<BoxKey>::for_fleet_width(8).shard_count(),
            32
        );
    }

    #[test]
    fn promotion_moves_entries_without_losing_any() {
        // One shard so every insert lands on the same promotion counter.
        let cache = SharedFeatureCache::with_shards(1);
        for t in 0..200u64 {
            cache.get_or_compute(key(t, 0), || feat(t as f64));
        }
        assert_eq!(cache.len(), 200);
        let stats = cache.stats();
        assert_eq!(stats.computed, 200);
        assert!(
            stats.promotions >= 1,
            "200 single-shard inserts must promote"
        );
        // Every key is still readable, and re-reads after promotion are
        // frozen hits.
        let before = cache.stats().frozen_hits;
        for t in 0..200u64 {
            let (f, computed) = cache.get_or_compute(key(t, 0), || panic!("must reuse"));
            assert!(!computed);
            assert_eq!(f.as_slice().len(), 2);
        }
        assert!(cache.stats().frozen_hits > before);
    }

    #[test]
    fn stats_classify_hits_and_misses() {
        let cache = SharedFeatureCache::with_shards(1);
        assert!(cache.get(&key(1, 1)).is_none());
        assert_eq!(cache.stats().misses, 1);
        cache.get_or_compute(key(1, 1), || feat(1.0));
        // Still in the live tier (below the promotion floor).
        assert!(cache.get(&key(1, 1)).is_some());
        let s = cache.stats();
        assert_eq!(s.computed, 1);
        assert_eq!(s.slow_hits, 1);
        assert_eq!(s.promotions, 0);
    }

    #[test]
    fn concurrent_storm_across_promotions_computes_each_key_once() {
        let cache = Arc::new(SharedFeatureCache::with_shards(2));
        let n_computed = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for worker in 0..4u64 {
                let cache = Arc::clone(&cache);
                let n_computed = &n_computed;
                s.spawn(move || {
                    // Interleaved orders so racers collide on hot keys while
                    // promotions fire underneath them.
                    for round in 0..3 {
                        for t in 0..100u64 {
                            let t = (t + worker * 25) % 100;
                            let (_, computed) = cache.get_or_compute(key(t, round), || {
                                n_computed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                feat(t as f64)
                            });
                            let _ = computed;
                        }
                    }
                });
            }
        });
        // 100 keys × 3 rounds, each computed exactly once despite the storm.
        assert_eq!(n_computed.load(std::sync::atomic::Ordering::Relaxed), 300);
        assert_eq!(cache.len(), 300);
        assert_eq!(cache.stats().computed, 300);
    }
}
