//! Round-1 caches of the serving stack: a generic **single-flight**,
//! epoch-invalidated LRU ([`FlightCache`]) instantiated for built
//! [`ProviderRows`] — per `(epoch, instance, built τ)` in the monolithic
//! executor, per `(epoch, shard, instance, built τ)` in the shard router
//! — and the round-1 **candidate memo** ([`RoundOneCache`]) keyed
//! `(epoch, shard, τ, ψ)` that answers any `k' ≤ k` repeat by prefix
//! slicing.
//!
//! Building an instance's `T̂C` rows is the dominant cost of a cold
//! NetClus query. The rows depend only on the index instance (fixed per
//! epoch) and the threshold they were built at, **not** on `k` or ψ, and
//! rows built at τ' answer every τ ≤ τ' by a per-row prefix
//! ([`ProviderRows::view`]). So the key's τ is the **built τ**, not the
//! query's: callers ask for rows at [`ProviderRows::built_tau_for`] — the
//! top of the instance's τ band — and one entry per `(epoch, instance)`
//! serves every `k`, ψ and τ in the band. Only a τ above the band top
//! (the clamped last instance) keys an entry of its own.
//!
//! **Single flight.** Concurrent misses on the same key coalesce onto one
//! builder: the first thread to miss marks the slot *building* and runs
//! the closure outside the lock; every other thread parks on a condvar
//! and receives the finished `Arc` — N workers racing a cold dashboard
//! burst burn one build, not N. Coalesced waits are counted separately
//! from hits so saturation on cold keys is observable. A build that
//! finishes after its epoch was invalidated is handed to its caller and
//! not retained.
//!
//! **Candidate memo.** By the greedy prefix property (the site chosen at
//! step `i` never depends on `k`), a memoized [`ShardRoundOne`] computed
//! for `k` answers any `k' ≤ k` at the same `(epoch, shard, τ, ψ)` by
//! slicing its first `k'` candidates — coverage rows included, so round 2
//! needs no shard re-contact at all. A larger `k` re-runs and replaces
//! the entry, monotonically growing what the memo can answer.
//!
//! The query's τ is quantized to millimeters ([`netclus::quantize_tau`]
//! — one shared definition for every cache key in the stack) before it
//! reaches the solver *and* the keys, so bitwise-noisy but semantically
//! identical thresholds (`800.0` vs `800.0000001`) share memo entries
//! and cut the same prefix.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use netclus::shard::ShardRoundOne;
use netclus::{PreferenceFunction, ProviderRows};

pub use netclus::quantize_tau;

use crate::cache::preference_key;

/// Keys that carry the epoch of the snapshot their value was built from,
/// so [`FlightCache::invalidate_before`] can purge stale entries.
pub trait EpochKeyed {
    /// Epoch of the snapshot the keyed value was built from.
    fn epoch(&self) -> u64;
}

/// The executor's provider-cache key: epoch + index instance + the bit
/// pattern of the τ the rows were built at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProviderKey {
    /// Epoch of the snapshot the rows were built from.
    pub epoch: u64,
    /// Index instance `p` the rows belong to.
    pub instance: u32,
    /// The built τ, as IEEE-754 bits.
    pub tau_bits: u64,
}

impl ProviderKey {
    /// Builds the key for rows of instance `p` built at `tau` against
    /// `epoch`.
    pub fn new(epoch: u64, instance: usize, tau: f64) -> Self {
        ProviderKey {
            epoch,
            instance: instance as u32,
            tau_bits: tau.to_bits(),
        }
    }
}

impl EpochKeyed for ProviderKey {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The shard router's provider-cache key: one shared cache serves every
/// shard's workers, keyed per shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardProviderKey {
    /// Lockstep epoch of the shard snapshot.
    pub epoch: u64,
    /// Shard id.
    pub shard: u32,
    /// Index instance `p` the rows belong to.
    pub instance: u32,
    /// The built τ, as IEEE-754 bits.
    pub tau_bits: u64,
}

impl ShardProviderKey {
    /// Builds the key for rows of instance `p` built at `tau` on `shard`
    /// at `epoch`.
    pub fn new(epoch: u64, shard: u32, instance: usize, tau: f64) -> Self {
        ShardProviderKey {
            epoch,
            shard,
            instance: instance as u32,
            tau_bits: tau.to_bits(),
        }
    }
}

impl EpochKeyed for ShardProviderKey {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// How a [`FlightCache::get_or_build`] call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The value was resident.
    Hit,
    /// Another thread was already building it; this call waited.
    Coalesced,
    /// This call built the value.
    Miss,
}

/// Point-in-time provider-cache counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProviderCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (each miss is one build of an instance's rows).
    pub misses: u64,
    /// Lookups that waited on another thread's in-flight build instead of
    /// building themselves (single-flight coalescing).
    pub coalesced: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
    /// Entries purged by epoch invalidation.
    pub invalidated: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Ready<V> {
    value: Arc<V>,
    last_used: u64,
}

/// A slot is either a finished value or a build in flight.
enum Slot<V> {
    Building,
    Ready(Ready<V>),
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    tick: u64,
    /// Highest epoch ever passed to `invalidate_before`: a build keyed
    /// below it finished after its epoch was purged and is not retained.
    floor: u64,
}

/// A single-flight, epoch-invalidated LRU cache of `Arc<V>` values.
///
/// A single mutex guards the map — lookups are orders of magnitude
/// cheaper than the builds they elide, and the entry count is small.
/// Builds run **outside** the lock; concurrent misses on the same key
/// coalesce onto the first builder via a condvar, so a cold key is built
/// exactly once no matter how many workers race it.
pub struct FlightCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    done: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    invalidated: AtomicU64,
}

/// The monolithic executor's provider cache.
pub type ProviderCache = FlightCache<ProviderKey, ProviderRows>;

/// The shard router's provider cache, shared by all router workers and
/// keyed per shard.
pub type ShardProviderCache = FlightCache<ShardProviderKey, ProviderRows>;

impl<K: Copy + Eq + Hash + EpochKeyed, V> FlightCache<K, V> {
    /// A cache holding at most `capacity` finished values (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        FlightCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                floor: 0,
            }),
            done: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, building it with `build` on a
    /// miss. Concurrent callers missing the same key wait for the single
    /// in-flight build instead of repeating it; the outcome reports which
    /// path this call took (a caller that waited and then found the slot
    /// gone — evicted or invalidated mid-build — becomes the builder and
    /// reports `Miss`). A value whose key's epoch was invalidated while it
    /// was being built is returned but not inserted: nothing can look it
    /// up again, so caching it would only hold its memory until the next
    /// purge.
    ///
    /// Panic-safe: if `build` unwinds, the in-flight marker is removed
    /// and every waiter is woken (the next caller becomes the builder) —
    /// a panicking build can wedge neither the key nor the waiters.
    pub fn get_or_build<F: FnOnce() -> V>(&self, key: K, build: F) -> (Arc<V>, CacheOutcome) {
        let mut waited = false;
        let mut inner = self.lock();
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key) {
                Some(Slot::Ready(entry)) => {
                    entry.last_used = tick;
                    let value = Arc::clone(&entry.value);
                    let outcome = if waited {
                        CacheOutcome::Coalesced
                    } else {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        CacheOutcome::Hit
                    };
                    return (value, outcome);
                }
                Some(Slot::Building) => {
                    if !waited {
                        waited = true;
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    inner = self.done.wait(inner).expect("provider cache poisoned");
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    inner.map.insert(key, Slot::Building);
                    break;
                }
            }
        }
        drop(inner);

        // Unwind guard: the build runs outside the lock, so a panic in it
        // would otherwise leave `Slot::Building` in the map forever —
        // every future caller of this key (and all current waiters) would
        // park on the condvar, and a parked query holds the router's
        // fan-out read lock, deadlocking updates too.
        let mut cleanup = BuildCleanup {
            cache: self,
            key,
            armed: true,
        };
        let value = Arc::new(build());
        cleanup.armed = false;

        let mut inner = self.lock();
        inner.map.remove(&key);
        if key.epoch() >= inner.floor {
            inner.tick += 1;
            let tick = inner.tick;
            self.evict_to(&mut inner, self.capacity - 1);
            inner.map.insert(
                key,
                Slot::Ready(Ready {
                    value: Arc::clone(&value),
                    last_used: tick,
                }),
            );
        }
        drop(inner);
        self.done.notify_all();
        (value, CacheOutcome::Miss)
    }

    /// Looks `key` up without building, bumping its recency on a hit and
    /// the hit/miss counters either way. An in-flight build counts as a
    /// miss (the caller is free to build redundantly).
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(Slot::Ready(entry)) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a finished value, evicting the least-recently-used entry
    /// if the cache is full.
    pub fn insert(&self, key: K, value: Arc<V>) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) {
            self.evict_to(&mut inner, self.capacity - 1);
        }
        inner.map.insert(
            key,
            Slot::Ready(Ready {
                value,
                last_used: tick,
            }),
        );
        drop(inner);
        self.done.notify_all();
    }

    /// Purges every finished value built from an epoch older than `epoch`
    /// (in-flight builds are left to finish; `get_or_build` hands a stale
    /// one to its caller without caching it). Returns the number of
    /// entries removed.
    pub fn invalidate_before(&self, epoch: u64) -> usize {
        let mut inner = self.lock();
        inner.floor = inner.floor.max(epoch);
        let before = inner.map.len();
        inner
            .map
            .retain(|k, slot| matches!(slot, Slot::Building) || k.epoch() >= epoch);
        let removed = before - inner.map.len();
        self.invalidated
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Current counters and occupancy (finished values only).
    pub fn stats(&self) -> ProviderCacheStats {
        let entries = {
            let inner = self.lock();
            inner
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready(_)))
                .count()
        };
        ProviderCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Evicts LRU finished values until at most `target` remain
    /// (in-flight builds are never evicted).
    fn evict_to(&self, inner: &mut Inner<K, V>, target: usize) {
        loop {
            let ready = inner
                .map
                .iter()
                .filter(|(_, s)| matches!(s, Slot::Ready(_)))
                .count();
            if ready <= target {
                return;
            }
            let victim = inner
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(e) => Some((*k, e.last_used)),
                    Slot::Building => None,
                })
                .min_by_key(|&(_, used)| used)
                .map(|(k, _)| k)
                .expect("ready entry exists");
            inner.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().expect("provider cache poisoned")
    }
}

/// Removes the `Slot::Building` marker and wakes all waiters if the build
/// closure unwinds (disarmed on the normal completion path).
struct BuildCleanup<'a, K: Copy + Eq + Hash + EpochKeyed, V> {
    cache: &'a FlightCache<K, V>,
    key: K,
    armed: bool,
}

impl<K: Copy + Eq + Hash + EpochKeyed, V> Drop for BuildCleanup<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Never panic out of a Drop during an unwind: tolerate a poisoned
        // mutex instead of `expect`ing on it.
        let mut inner = match self.cache.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if matches!(inner.map.get(&self.key), Some(Slot::Building)) {
            inner.map.remove(&self.key);
        }
        drop(inner);
        self.cache.done.notify_all();
    }
}

/// The round-1 candidate-memo key: lockstep epoch, shard, quantized τ and
/// the preference function ψ — everything that determines a shard's local
/// selection sequence except `k`, which the prefix property absorbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RoundKey {
    /// Lockstep epoch of the shard snapshot.
    pub epoch: u64,
    /// Shard id.
    pub shard: u32,
    /// The quantized τ, as IEEE-754 bits.
    pub tau_bits: u64,
    /// Preference function discriminant (same encoding as the result
    /// cache's [`crate::cache::QueryKey`]).
    pub pref_tag: u8,
    /// Preference function parameter, as bits; zero when parameterless.
    pub pref_param_bits: u64,
}

impl RoundKey {
    /// Builds the key for `tau` (already quantized) under `preference` on
    /// `shard` at `epoch`.
    pub fn new(epoch: u64, shard: u32, tau: f64, preference: &PreferenceFunction) -> Self {
        let (pref_tag, pref_param_bits) = preference_key(preference);
        RoundKey {
            epoch,
            shard,
            tau_bits: tau.to_bits(),
            pref_tag,
            pref_param_bits,
        }
    }
}

/// Point-in-time candidate-memo counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundCacheStats {
    /// Lookups answered by prefix-slicing a memoized round.
    pub hits: u64,
    /// Lookups that missed (no entry, or the memoized `k` was smaller).
    pub misses: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
    /// Entries purged by epoch invalidation.
    pub invalidated: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct RoundEntry {
    /// `Arc`-held so a hit clones one pointer under the lock and takes
    /// the prefix (a clone of `k` row views, no pair copied) outside it.
    round: Arc<ShardRoundOne>,
    last_used: u64,
}

struct RoundInner {
    map: HashMap<RoundKey, RoundEntry>,
    tick: u64,
}

/// LRU memo of round-1 answers, keyed `(epoch, shard, τ, ψ)` and holding
/// the **largest-`k`** round seen per key: any `k' ≤` that answers by
/// [`ShardRoundOne::prefix`] (candidates with their coverage rows, so the
/// merge needs no shard re-contact), a larger `k'` re-runs and upgrades
/// the entry.
pub struct RoundOneCache {
    inner: Mutex<RoundInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidated: AtomicU64,
}

impl RoundOneCache {
    /// A memo holding at most `capacity` rounds (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        RoundOneCache {
            inner: Mutex::new(RoundInner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// Answers a `k`-request from the memo if a round computed for some
    /// `k_cached ≥ k` is resident: the returned round is its `k`-prefix.
    ///
    /// A hit copies no pair: the prefix's rows are views into the
    /// memoised round's block ([`netclus::shard::RowView`]), so what a hit
    /// costs is `k` reference-count bumps, taken outside the memo lock.
    pub fn lookup(&self, key: &RoundKey, k: usize) -> Option<ShardRoundOne> {
        let hit: Option<Arc<ShardRoundOne>> = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(key) {
                Some(entry) if entry.round.k >= k => {
                    entry.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(Arc::clone(&entry.round))
                }
                _ => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        };
        hit.map(|round| round.prefix(k))
    }

    /// Memoizes `round` under `key`, keeping whichever of the resident and
    /// offered rounds was computed for the larger `k`.
    pub fn insert(&self, key: RoundKey, round: ShardRoundOne) {
        let round = Arc::new(round);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                if round.k > entry.round.k {
                    entry.round = round;
                }
            }
            None => {
                if inner.map.len() >= self.capacity {
                    if let Some(victim) = inner
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| *k)
                    {
                        inner.map.remove(&victim);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                inner.map.insert(
                    key,
                    RoundEntry {
                        round,
                        last_used: tick,
                    },
                );
            }
        }
    }

    /// Purges every round memoized under an epoch older than `epoch`.
    /// Returns the number of entries removed.
    pub fn invalidate_before(&self, epoch: u64) -> usize {
        let mut inner = self.lock();
        let before = inner.map.len();
        inner.map.retain(|k, _| k.epoch >= epoch);
        let removed = before - inner.map.len();
        self.invalidated
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> RoundCacheStats {
        RoundCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            entries: self.lock().map.len(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RoundInner> {
        self.inner.lock().expect("round memo poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus::prelude::*;
    use netclus_roadnet::{NodeId, Point, RoadNetworkBuilder};
    use netclus_trajectory::{Trajectory, TrajectorySet};

    fn rows() -> ProviderRows {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..6 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..5u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        trajs.add(Trajectory::new((0..4).map(NodeId).collect()));
        let sites: Vec<NodeId> = net.nodes().collect();
        let index = NetClusIndex::build(
            &net,
            &trajs,
            &sites,
            NetClusConfig {
                tau_min: 200.0,
                tau_max: 1_000.0,
                threads: 1,
                ..Default::default()
            },
        );
        ProviderRows::build_with(
            index.instance(index.instance_for(400.0)),
            400.0,
            trajs.id_bound(),
            1,
            &mut ProviderScratch::default(),
        )
    }

    fn round(k: usize, gains: &[f64]) -> ShardRoundOne {
        ShardRoundOne {
            candidates: gains
                .iter()
                .enumerate()
                .map(|(i, &gain)| {
                    netclus::shard::Candidate::from_pairs(
                        NodeId(i as u32),
                        i as u32,
                        gain,
                        vec![(i as u32, gain)],
                    )
                })
                .collect(),
            k,
            instance: 0,
            representatives: gains.len(),
            local_utility: gains.iter().sum(),
            elapsed: std::time::Duration::ZERO,
            solve_us: 0,
            shard_hint: 0,
        }
    }

    #[test]
    fn quantization_is_millimetric_and_shared() {
        // The shared core definition is re-exported here; spot-check the
        // admission/lookup agreement contract at this layer too.
        assert_eq!(quantize_tau(800.000_000_1), 800.0);
        assert_eq!(quantize_tau(0.0), 0.0);
        assert_eq!(quantize_tau(4.9e-4), 0.0);
        for tau in [0.0, 1e-4, 0.001, 800.0006, 99_999.999] {
            assert_eq!(quantize_tau(quantize_tau(tau)), quantize_tau(tau));
        }
    }

    #[test]
    fn keys_separate_epoch_instance_shard_and_tau() {
        let base = ProviderKey::new(1, 2, 800.0);
        assert_eq!(base, ProviderKey::new(1, 2, 800.0));
        assert_ne!(base, ProviderKey::new(2, 2, 800.0));
        assert_ne!(base, ProviderKey::new(1, 3, 800.0));
        assert_ne!(base, ProviderKey::new(1, 2, 800.001));
        assert_eq!(
            ProviderKey::new(1, 2, quantize_tau(800.000_000_1)),
            ProviderKey::new(1, 2, quantize_tau(800.0))
        );
        let sharded = ShardProviderKey::new(1, 0, 2, 800.0);
        assert_eq!(sharded, ShardProviderKey::new(1, 0, 2, 800.0));
        assert_ne!(sharded, ShardProviderKey::new(1, 1, 2, 800.0));
        assert_eq!(sharded.epoch(), 1);
    }

    #[test]
    fn hit_miss_lru_and_invalidation() {
        let cache: ProviderCache = FlightCache::new(2);
        let p = Arc::new(rows());
        let (k1, k2, k3) = (
            ProviderKey::new(0, 0, 400.0),
            ProviderKey::new(0, 0, 600.0),
            ProviderKey::new(0, 1, 800.0),
        );
        assert!(cache.get(&k1).is_none());
        cache.insert(k1, Arc::clone(&p));
        cache.insert(k2, Arc::clone(&p));
        assert!(cache.get(&k1).is_some());
        // k2 is now the LRU victim.
        cache.insert(k3, Arc::clone(&p));
        assert!(cache.get(&k2).is_none());
        assert!(cache.get(&k3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // Epoch invalidation clears everything below the cutoff (k1 was
        // already LRU-evicted to make room, leaving one stale entry).
        cache.insert(ProviderKey::new(3, 0, 400.0), Arc::clone(&p));
        assert_eq!(cache.invalidate_before(3), 1);
        assert!(cache.get(&ProviderKey::new(3, 0, 400.0)).is_some());
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn get_or_build_builds_once_and_reports_outcomes() {
        let cache: ProviderCache = FlightCache::new(4);
        let key = ProviderKey::new(0, 0, 400.0);
        let built = std::sync::atomic::AtomicU64::new(0);
        let (a, outcome) = cache.get_or_build(key, || {
            built.fetch_add(1, Ordering::Relaxed);
            rows()
        });
        assert_eq!(outcome, CacheOutcome::Miss);
        let (b, outcome) = cache.get_or_build(key, || unreachable!("must hit"));
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(built.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (1, 1, 0));
    }

    #[test]
    fn concurrent_misses_coalesce_onto_one_build() {
        use std::sync::atomic::AtomicUsize;
        let cache: Arc<ProviderCache> = Arc::new(FlightCache::new(4));
        let key = ProviderKey::new(0, 0, 400.0);
        let sites = rows().site_count();
        let builds = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(std::sync::Barrier::new(4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    gate.wait();
                    let (value, _) = cache.get_or_build(key, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window so late arrivals coalesce.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        rows()
                    });
                    assert_eq!(value.site_count(), sites);
                });
            }
        });
        assert_eq!(
            builds.load(Ordering::Relaxed),
            1,
            "single flight must build exactly once"
        );
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.coalesced, 3, "stats: {s:?}");
    }

    #[test]
    fn panicking_build_unwedges_the_key_and_wakes_waiters() {
        let cache: Arc<ProviderCache> = Arc::new(FlightCache::new(4));
        let key = ProviderKey::new(0, 0, 400.0);
        // A waiter parks on the in-flight build; the builder panics. The
        // waiter must wake, become the builder and succeed — the key must
        // not stay wedged in the Building state.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                // Give the panicking builder time to claim the slot.
                std::thread::sleep(std::time::Duration::from_millis(10));
                let (value, _) = cache.get_or_build(key, rows);
                value.site_count()
            })
        };
        let panicker = {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                cache.get_or_build(key, || panic!("build exploded"));
            })
        };
        assert!(panicker.join().is_err(), "builder must propagate its panic");
        assert_eq!(
            waiter.join().expect("waiter must not hang or panic"),
            rows().site_count()
        );
        // The retry produced a resident value; the cache stays usable.
        let (_, outcome) = cache.get_or_build(key, || unreachable!("must hit"));
        assert_eq!(outcome, CacheOutcome::Hit);
    }

    #[test]
    fn build_that_outlives_its_epoch_is_returned_but_not_cached() {
        let cache: ProviderCache = FlightCache::new(4);
        let key = ProviderKey::new(1, 0, 400.0);
        let (value, outcome) = cache.get_or_build(key, || {
            // A publish lands while the epoch-1 build is in flight.
            assert_eq!(cache.invalidate_before(2), 0);
            rows()
        });
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(value.built_tau(), 400.0);
        // Keys embed the epoch, so nothing could ever look the value up
        // again: holding it would only pin a whole instance's rows.
        assert_eq!(cache.stats().entries, 0, "stale build was cached");
        // The cache still serves the live epoch.
        let live = ProviderKey::new(2, 0, 400.0);
        cache.get_or_build(live, rows);
        assert_eq!(cache.get_or_build(live, rows).1, CacheOutcome::Hit);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn round_memo_prefix_hits_and_upgrades() {
        let memo = RoundOneCache::new(4);
        let key = RoundKey::new(0, 0, 800.0, &PreferenceFunction::Binary);
        assert!(memo.lookup(&key, 1).is_none());
        memo.insert(key, round(3, &[5.0, 3.0, 1.0]));
        // Any k' ≤ 3 is a prefix hit with the sliced utility.
        let two = memo.lookup(&key, 2).expect("prefix hit");
        assert_eq!(two.k, 2);
        assert_eq!(two.candidates.len(), 2);
        assert_eq!(two.local_utility, 8.0);
        let three = memo.lookup(&key, 3).expect("exact hit");
        assert_eq!(three.candidates.len(), 3);
        // k' = 4 exceeds the memoized run: miss, then upgrade.
        assert!(memo.lookup(&key, 4).is_none());
        memo.insert(key, round(4, &[5.0, 3.0, 1.0, 0.5]));
        assert_eq!(memo.lookup(&key, 4).unwrap().candidates.len(), 4);
        // A smaller re-insert must not downgrade the entry.
        memo.insert(key, round(1, &[5.0]));
        assert_eq!(memo.lookup(&key, 4).unwrap().candidates.len(), 4);
        let s = memo.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 4);
    }

    /// A hit hands out views into the memoised round's storage: were the
    /// prefix to deep-copy its rows again, the pointers below would differ.
    #[test]
    fn round_memo_hit_shares_the_memoised_rows() {
        let memo = RoundOneCache::new(4);
        let key = RoundKey::new(0, 0, 800.0, &PreferenceFunction::Binary);
        let memoised = round(3, &[5.0, 3.0, 1.0]);
        memo.insert(key, memoised.clone());
        for k in [1, 2, 3] {
            let hit = memo.lookup(&key, k).expect("prefix hit");
            assert_eq!(hit.candidates[..], memoised.candidates[..k]);
            for (got, held) in hit.candidates.iter().zip(&memoised.candidates) {
                assert!(got.row.shares_block_with(&held.row), "k={k}: row copied");
                assert_eq!(got.row.ids().as_ptr(), held.row.ids().as_ptr());
                assert_eq!(got.row.dists().as_ptr(), held.row.dists().as_ptr());
            }
        }
    }

    #[test]
    fn round_memo_separates_keys_and_invalidates_by_epoch() {
        let memo = RoundOneCache::new(8);
        let binary = RoundKey::new(1, 0, 800.0, &PreferenceFunction::Binary);
        let linear = RoundKey::new(1, 0, 800.0, &PreferenceFunction::LinearDecay);
        let other_shard = RoundKey::new(1, 1, 800.0, &PreferenceFunction::Binary);
        assert_ne!(binary, linear);
        assert_ne!(binary, other_shard);
        memo.insert(binary, round(2, &[2.0, 1.0]));
        memo.insert(other_shard, round(2, &[4.0, 1.0]));
        assert!(memo.lookup(&linear, 1).is_none());
        assert_eq!(memo.lookup(&binary, 1).unwrap().local_utility, 2.0);
        // Epoch advance purges both epoch-1 entries.
        assert_eq!(memo.invalidate_before(2), 2);
        assert!(memo.lookup(&binary, 1).is_none());
        assert_eq!(memo.stats().invalidated, 2);
    }

    #[test]
    fn round_memo_evicts_lru() {
        let memo = RoundOneCache::new(2);
        let key = |shard| RoundKey::new(0, shard, 800.0, &PreferenceFunction::Binary);
        memo.insert(key(0), round(1, &[1.0]));
        memo.insert(key(1), round(1, &[1.0]));
        assert!(memo.lookup(&key(0), 1).is_some());
        memo.insert(key(2), round(1, &[1.0]));
        assert!(memo.lookup(&key(1), 1).is_none(), "LRU victim survived");
        assert_eq!(memo.stats().evictions, 1);
    }
}
