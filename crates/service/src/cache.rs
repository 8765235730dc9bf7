//! The one cache mechanism of the serving stack — [`EpochLru`], an
//! epoch-keyed, single-flight LRU — and its first instantiation, the
//! result cache keyed on `(k, τ, ψ, variant, epoch)`.
//!
//! Everything the stack remembers is a pure function of a snapshot epoch
//! and some query parameters: a finished answer ([`ResultCache`]), an
//! instance's `T̂C` rows and a shard's round-1 candidates
//! ([`crate::provider_cache`]), the last full answer per query shape (the
//! router's stale fallback). So the key embeds the epoch
//! ([`EpochKeyed`]), an epoch advance makes older keys unreachable, and
//! [`EpochLru::invalidate_before`] reclaims their space eagerly. A value
//! that stays valid across an advance is moved, not purged:
//! `EpochLru::take_where` hands it out and [`EpochLru::upsert`] files it
//! under the new epoch (the provider cache's carried rows).
//!
//! **The purge floor.** The highest epoch ever purged is remembered, and
//! no value keyed below it is retained afterwards: a solve that pinned
//! epoch *e* and finishes after the purge for *e + 1* gets its value back
//! and the cache stays as it was — nothing could look the value up again,
//! so holding it would only occupy capacity until the next publish.
//!
//! **Single flight.** `EpochLru::get_or_build` coalesces concurrent
//! misses on one key onto one builder: the first thread to miss marks the
//! slot *building* and runs the closure outside the lock; every other
//! thread parks on a condvar and receives the finished `Arc` — N workers
//! racing a cold dashboard burst burn one build, not N. Coalesced waits
//! are counted separately from hits so saturation on cold keys is
//! observable. A build that fails (`EpochLru::get_or_try_build`) or
//! panics retains nothing and hands the key to the next waiter.
//!
//! One mutex guards the map and the counters: a lookup holds it for a
//! hash probe and a pointer clone, orders of magnitude less than the
//! solve or build it elides.

#![deny(clippy::too_many_lines)]

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use netclus::{PreferenceFunction, TopsQuery};

use crate::executor::{QueryVariant, ServiceAnswer};

/// The result-cache key: every field that determines a TOPS answer.
///
/// `τ` and the preference parameters are keyed by their IEEE-754 bit
/// patterns, so keys are `Eq + Hash` without float comparisons; two queries
/// hit the same entry exactly when their parameters are bitwise identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Number of sites requested.
    pub k: usize,
    /// Coverage threshold `τ`, as bits.
    pub tau_bits: u64,
    /// Preference function discriminant.
    pub pref_tag: u8,
    /// Preference function parameter (λ, α or the normalizer), as bits;
    /// zero for parameterless variants.
    pub pref_param_bits: u64,
    /// Algorithm variant (Inc-Greedy or FM, with the FM parameters).
    pub variant: VariantKey,
    /// Epoch of the snapshot the answer must come from.
    pub epoch: u64,
}

/// The hashable form of [`QueryVariant`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VariantKey {
    /// Inc-Greedy over cluster representatives.
    Greedy,
    /// FM-sketch greedy with `(copies, seed)`.
    Fm(usize, u64),
}

/// The hashable `(tag, parameter bits)` form of a [`PreferenceFunction`] —
/// shared by the result-cache key and the round-1 candidate-memo key so
/// every cache in the stack agrees on ψ identity.
pub(crate) fn preference_key(preference: &PreferenceFunction) -> (u8, u64) {
    match *preference {
        PreferenceFunction::Binary => (0, 0),
        PreferenceFunction::LinearDecay => (1, 0),
        PreferenceFunction::ExponentialDecay { lambda } => (2, lambda.to_bits()),
        PreferenceFunction::ConvexProbability { alpha } => (3, alpha.to_bits()),
        PreferenceFunction::MinInconvenience { normalizer_m } => (4, normalizer_m.to_bits()),
    }
}

impl QueryKey {
    /// Builds the key for `query` answered by `variant` against `epoch`.
    pub fn new(query: &TopsQuery, variant: QueryVariant, epoch: u64) -> Self {
        let (pref_tag, pref_param_bits) = preference_key(&query.preference);
        QueryKey {
            k: query.k,
            tau_bits: query.tau.to_bits(),
            pref_tag,
            pref_param_bits,
            variant: match variant {
                QueryVariant::Greedy => VariantKey::Greedy,
                QueryVariant::Fm { copies, seed } => VariantKey::Fm(copies, seed),
            },
            epoch,
        }
    }

    /// The same key re-targeted at another epoch.
    pub fn at_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }
}

/// Keys that carry the epoch of the snapshot their value was built from,
/// so [`EpochLru::invalidate_before`] can purge stale entries. A key that
/// reports `u64::MAX` is never purged and never refused.
pub trait EpochKeyed {
    /// Epoch of the snapshot the keyed value was built from.
    fn epoch(&self) -> u64;
}

impl EpochKeyed for QueryKey {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// How an [`EpochLru::get_or_build`] call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    /// The value was resident.
    Hit,
    /// Another thread was already building it; this call waited.
    Coalesced,
    /// This call built the value.
    Miss,
}

/// A point-in-time view of one cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (under `EpochLru::get_or_build`, each miss is
    /// one build).
    pub misses: u64,
    /// Lookups that waited on another thread's in-flight build instead of
    /// building themselves (single-flight coalescing).
    pub coalesced: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
    /// Entries purged by epoch invalidation.
    pub invalidated: u64,
    /// Finished values currently resident.
    pub entries: usize,
}

/// A slot is either a finished value or a build in flight.
enum Slot<V> {
    Building,
    Ready { value: Arc<V>, last_used: u64 },
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    capacity: usize,
    tick: u64,
    /// Highest epoch ever passed to `invalidate_before`: a value keyed
    /// below it arrived after its epoch was purged and is not retained.
    floor: u64,
    /// The counters; `entries` is filled in by [`EpochLru::stats`].
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash + EpochKeyed, V> Inner<K, V> {
    /// The finished value under `key` if `pred` accepts it, marked used
    /// now.
    fn touch(&mut self, key: &K, pred: impl Fn(&V) -> bool) -> Option<Arc<V>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(Slot::Ready { value, last_used }) if pred(value) => {
                *last_used = self.tick;
                Some(Arc::clone(value))
            }
            _ => None,
        }
    }

    /// Retains `value` under a key that holds no finished value — unless
    /// the key's epoch is already purged — evicting the least-recently-used
    /// finished value when the cache is full. In-flight builds are neither
    /// counted nor evicted.
    fn store(&mut self, key: K, value: Arc<V>) {
        if key.epoch() < self.floor {
            return;
        }
        if self.map.len() >= self.capacity {
            // One O(capacity) pass counts the finished values and finds the
            // oldest — fine at ≤ ~1 000 entries beside the solve or build
            // every insert follows; revisit (a tick-ordered index) before
            // raising capacities by orders of magnitude.
            let mut ready = 0;
            let finished = self.map.iter().filter_map(|(k, slot)| match slot {
                Slot::Ready { last_used, .. } => Some((k, *last_used)),
                Slot::Building => None,
            });
            let oldest = finished
                .inspect(|_| ready += 1)
                .min_by_key(|&(_, used)| used);
            if let Some(victim) = oldest.filter(|_| ready >= self.capacity).map(|(k, _)| *k) {
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.tick += 1;
        let last_used = self.tick;
        self.map.insert(key, Slot::Ready { value, last_used });
    }
}

/// A single-flight, epoch-invalidated LRU cache of `Arc<V>` values.
///
/// Builds run **outside** the lock; concurrent misses on the same key
/// coalesce onto the first builder via a condvar, so a cold key is built
/// exactly once no matter how many workers race it.
pub struct EpochLru<K, V> {
    inner: Mutex<Inner<K, V>>,
    done: Condvar,
}

/// The executor's result cache.
pub type ResultCache = EpochLru<QueryKey, ServiceAnswer>;

impl<K: Copy + Eq + Hash + EpochKeyed, V> EpochLru<K, V> {
    /// A cache holding at most `capacity` finished values (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        EpochLru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                capacity: capacity.max(1),
                tick: 0,
                floor: 0,
                stats: CacheStats::default(),
            }),
            done: Condvar::new(),
        }
    }

    /// Looks `key` up, bumping its recency on a hit and the hit/miss
    /// counters either way. An in-flight build counts as a miss.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.get_where(key, |_| true)
    }

    /// Like [`EpochLru::get`], but a resident value `pred` rejects is a
    /// miss (and keeps its recency).
    pub(crate) fn get_where(&self, key: &K, pred: impl Fn(&V) -> bool) -> Option<Arc<V>> {
        let mut inner = self.lock();
        let hit = inner.touch(key, pred);
        match hit {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        hit
    }

    /// Like [`EpochLru::get`] but without touching the hit/miss counters
    /// — for internal re-probes of a request whose first lookup was
    /// already counted. Still bumps recency.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.lock().touch(key, |_| true)
    }

    /// Offers a finished value: a resident one is marked used and replaced
    /// only if `replace_if` says so (`|_| true` is a plain insert); an
    /// absent one is retained under the purge-floor rule, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn upsert(&self, key: K, value: Arc<V>, replace_if: impl FnOnce(&V) -> bool) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        match inner.map.get_mut(&key) {
            Some(Slot::Ready {
                value: held,
                last_used,
            }) => {
                inner.tick += 1;
                *last_used = inner.tick;
                if replace_if(held) {
                    *held = value;
                }
            }
            slot => {
                let racing_a_build = slot.is_some();
                inner.store(key, value);
                drop(guard);
                if racing_a_build {
                    self.done.notify_all();
                }
            }
        }
    }

    /// Returns the cached value for `key`, building it with `build` on a
    /// miss. Concurrent callers missing the same key wait for the single
    /// in-flight build instead of repeating it; the outcome reports which
    /// path this call took (a caller that waited and then found the slot
    /// gone — evicted or invalidated mid-build — becomes the builder and
    /// reports `Miss`). A value whose key's epoch was invalidated while it
    /// was being built is returned but not retained (the purge floor).
    ///
    /// Panic-safe: if `build` unwinds, the in-flight marker is removed
    /// and every waiter is woken (the next caller becomes the builder) —
    /// a panicking build can wedge neither the key nor the waiters.
    pub(crate) fn get_or_build<F: FnOnce() -> V>(
        &self,
        key: K,
        build: F,
    ) -> (Arc<V>, CacheOutcome) {
        let Ok(found) = self.get_or_try_build(key, || Ok::<V, Infallible>(build()));
        found
    }

    /// [`EpochLru::get_or_build`] with a build that may fail. An `Err`
    /// takes the unwind path: nothing is retained, the error goes to this
    /// caller alone, and a waiter parked on the build becomes the next
    /// builder (the miss stays counted).
    pub(crate) fn get_or_try_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, CacheOutcome), E> {
        let mut waited = false;
        let mut inner = self.lock();
        loop {
            if let Some(value) = inner.touch(&key, |_| true) {
                if waited {
                    return Ok((value, CacheOutcome::Coalesced));
                }
                inner.stats.hits += 1;
                return Ok((value, CacheOutcome::Hit));
            }
            if !inner.map.contains_key(&key) {
                inner.stats.misses += 1;
                inner.map.insert(key, Slot::Building);
                break;
            }
            if !waited {
                waited = true;
                inner.stats.coalesced += 1;
            }
            inner = self.done.wait(inner).expect("cache poisoned");
        }
        drop(inner);

        // Unwind guard: the build runs outside the lock, so a panic or an
        // `Err` would otherwise leave `Slot::Building` in the map forever —
        // every future caller of this key (and all current waiters) would
        // park on the condvar, and a parked query holds the router's
        // fan-out read lock, deadlocking updates too.
        let mut cleanup = BuildCleanup {
            cache: self,
            key,
            armed: true,
        };
        let value = Arc::new(build()?);
        cleanup.armed = false;

        let mut inner = self.lock();
        inner.map.remove(&key);
        inner.store(key, Arc::clone(&value));
        drop(inner);
        self.done.notify_all();
        Ok((value, CacheOutcome::Miss))
    }

    /// Purges every finished value built from an epoch older than `epoch`
    /// and raises the purge floor to it (in-flight builds are left to
    /// finish; the floor keeps a stale one from being retained). Returns
    /// the number of entries removed.
    pub fn invalidate_before(&self, epoch: u64) -> usize {
        let mut inner = self.lock();
        inner.floor = inner.floor.max(epoch);
        let before = inner.map.len();
        inner
            .map
            .retain(|k, slot| matches!(slot, Slot::Building) || k.epoch() >= epoch);
        let removed = before - inner.map.len();
        inner.stats.invalidated += removed as u64;
        removed
    }

    /// Removes and returns every finished value whose key `pred` accepts,
    /// for a caller that re-keys them ([`EpochLru::upsert`] under a later
    /// epoch). In-flight builds stay, and no counter moves: the values
    /// were neither looked up nor purged.
    pub(crate) fn take_where(&self, pred: impl Fn(&K) -> bool) -> Vec<(K, Arc<V>)> {
        let mut inner = self.lock();
        let keys: Vec<K> = inner
            .map
            .iter()
            .filter(|(k, slot)| matches!(slot, Slot::Ready { .. }) && pred(k))
            .map(|(k, _)| *k)
            .collect();
        keys.into_iter()
            .filter_map(|k| match inner.map.remove(&k) {
                Some(Slot::Ready { value, .. }) => Some((k, value)),
                _ => None,
            })
            .collect()
    }

    /// Current counters and occupancy (finished values only).
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        let ready = |slot: &&Slot<V>| matches!(slot, Slot::Ready { .. });
        CacheStats {
            entries: inner.map.values().filter(ready).count(),
            ..inner.stats
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().expect("cache poisoned")
    }
}

/// Removes the `Slot::Building` marker and wakes all waiters if the build
/// closure fails or unwinds (disarmed on the normal completion path).
struct BuildCleanup<'a, K: Copy + Eq + Hash + EpochKeyed, V> {
    cache: &'a EpochLru<K, V>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn answer(epoch: u64) -> Arc<ServiceAnswer> {
        Arc::new(ServiceAnswer {
            epoch,
            corpus_len: 0,
            site_count: 0,
            sites: Vec::new(),
            utility: 0.0,
            covered: 0,
            instance: 0,
            representatives: 0,
            compute_time: std::time::Duration::ZERO,
        })
    }

    fn key(k: usize, tau: f64, epoch: u64) -> QueryKey {
        QueryKey::new(&TopsQuery::binary(k, tau), QueryVariant::Greedy, epoch)
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ResultCache::new(16);
        assert!(cache.get(&key(1, 800.0, 0)).is_none());
        cache.upsert(key(1, 800.0, 0), answer(0), |_| true);
        assert!(cache.get(&key(1, 800.0, 0)).is_some());
        // Same parameters, different epoch → different entry.
        assert!(cache.get(&key(1, 800.0, 1)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn distinct_parameters_get_distinct_keys() {
        let base = key(3, 800.0, 0);
        assert_ne!(base, key(4, 800.0, 0));
        assert_ne!(base, key(3, 800.5, 0));
        assert_ne!(base, key(3, 800.0, 1));
        assert_ne!(
            base,
            QueryKey::new(
                &TopsQuery::binary(3, 800.0),
                QueryVariant::Fm {
                    copies: 30,
                    seed: 1
                },
                0
            )
        );
        let graded = TopsQuery {
            k: 3,
            tau: 800.0,
            preference: PreferenceFunction::LinearDecay,
        };
        assert_ne!(base, QueryKey::new(&graded, QueryVariant::Greedy, 0));
    }

    #[test]
    fn peek_finds_entries_without_counting() {
        let cache = ResultCache::new(16);
        cache.upsert(key(1, 800.0, 0), answer(0), |_| true);
        assert!(cache.peek(&key(1, 800.0, 0)).is_some());
        assert!(cache.peek(&key(9, 800.0, 0)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn epoch_invalidation_purges_stale_entries() {
        let cache = ResultCache::new(64);
        for e in 0..4u64 {
            cache.upsert(key(1, 500.0, e), answer(e), |_| true);
            cache.upsert(key(2, 500.0, e), answer(e), |_| true);
        }
        let removed = cache.invalidate_before(2);
        assert_eq!(removed, 4);
        assert!(cache.get(&key(1, 500.0, 1)).is_none());
        assert!(cache.get(&key(1, 500.0, 2)).is_some());
        assert_eq!(cache.stats().invalidated, 4);
        // A worker that pinned epoch 1 finishes after the purge: its
        // answer went to its caller and must not occupy the cache.
        cache.upsert(key(3, 500.0, 1), answer(1), |_| true);
        assert!(cache.peek(&key(3, 500.0, 1)).is_none());
        assert_eq!(cache.stats().entries, 4, "a purged epoch was retained");
        cache.upsert(key(3, 500.0, 2), answer(2), |_| true);
        assert_eq!(cache.stats().entries, 5);
    }

    /// A carried value leaves under its old key and is filed under the
    /// new epoch past the purge that floors the old one; no counter
    /// moves and the same `Arc` comes back.
    #[test]
    fn taken_values_move_to_a_later_epoch_past_the_purge() {
        let cache = ResultCache::new(8);
        for k in 1..=3 {
            cache.upsert(key(k, 500.0, 4), answer(4), |_| true);
        }
        let before = cache.stats();
        let taken = cache.take_where(|q| q.epoch == 4 && q.k != 3);
        assert_eq!(taken.len(), 2);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.invalidate_before(5), 1, "the untaken entry is purged");
        for (q, value) in taken {
            let carried = Arc::clone(&value);
            cache.upsert(q.at_epoch(5), value, |_| true);
            assert!(Arc::ptr_eq(&cache.peek(&q.at_epoch(5)).unwrap(), &carried));
        }
        let after = cache.stats();
        assert_eq!(after.entries, 2);
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));
        assert_eq!(after.invalidated, before.invalidated + 1);
    }

    /// The stale fallback's contract: a key at `u64::MAX` survives every
    /// purge and is never refused by the floor.
    #[test]
    fn a_key_at_the_last_epoch_is_never_purged_or_refused() {
        let cache = ResultCache::new(4);
        cache.upsert(key(1, 500.0, u64::MAX), answer(0), |_| true);
        assert_eq!(cache.invalidate_before(u64::MAX), 0);
        cache.upsert(key(2, 500.0, u64::MAX), answer(0), |_| true);
        assert_eq!(cache.stats().entries, 2);
    }

    /// The path of a builder refused a solve permit or out of budget: a
    /// caller parked on its build wakes, builds itself and reports `Miss`.
    #[test]
    fn a_failed_build_hands_the_key_to_a_waiter() {
        let cache = EpochLru::<Key, u32>::new(4);
        let key = Key(0, 0);
        let (claimed, is_claimed) = std::sync::mpsc::channel();
        let (fail, failing) = std::sync::mpsc::channel::<()>();
        let cache = &cache;
        std::thread::scope(|scope| {
            let builder = scope.spawn(move || {
                cache.get_or_try_build(key, || {
                    claimed.send(()).unwrap();
                    failing.recv().unwrap();
                    Err("refused")
                })
            });
            is_claimed.recv().unwrap();
            let waiter = scope.spawn(move || cache.get_or_try_build(key, || Ok::<_, &str>(7)));
            while cache.stats().coalesced == 0 {
                std::thread::yield_now();
            }
            fail.send(()).unwrap();
            assert_eq!(builder.join().unwrap().unwrap_err(), "refused");
            let (value, outcome) = waiter.join().unwrap().unwrap();
            assert_eq!((*value, outcome), (7, CacheOutcome::Miss));
        });
        let s = cache.stats();
        assert_eq!((s.misses, s.coalesced, s.entries), (2, 1, 1));
    }

    /// The model check's key: a name and the epoch it is keyed at.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct Key(u8, u64);

    impl EpochKeyed for Key {
        fn epoch(&self) -> u64 {
            self.1
        }
    }

    /// What [`EpochLru`] must be indistinguishable from: the finished
    /// values least recently used first, the purge floor, the counters.
    #[derive(Default)]
    struct Model {
        capacity: usize,
        order: Vec<(Key, u32)>,
        floor: u64,
        stats: CacheStats,
    }

    impl Model {
        fn touch(&mut self, key: Key) -> Option<u32> {
            let at = self.order.iter().position(|&(k, _)| k == key)?;
            let entry = self.order.remove(at);
            self.order.push(entry);
            Some(entry.1)
        }

        fn get_where(&mut self, key: Key, pred: impl Fn(u32) -> bool) -> Option<u32> {
            let accepted = self.order.iter().any(|&(k, v)| k == key && pred(v));
            let hit = if accepted { self.touch(key) } else { None };
            match hit {
                Some(_) => self.stats.hits += 1,
                None => self.stats.misses += 1,
            }
            hit
        }

        fn store(&mut self, key: Key, value: u32) {
            if key.1 < self.floor {
                return;
            }
            if self.order.len() == self.capacity {
                self.order.remove(0);
                self.stats.evictions += 1;
            }
            self.order.push((key, value));
        }

        fn purge(&mut self, epoch: u64) -> usize {
            self.floor = self.floor.max(epoch);
            let before = self.order.len();
            self.order.retain(|&(k, _)| k.1 >= epoch);
            self.stats.invalidated += (before - self.order.len()) as u64;
            before - self.order.len()
        }
    }

    impl EpochLru<Key, u32> {
        /// Finished values, least recently used first.
        fn contents(&self) -> Vec<(Key, u32)> {
            let inner = self.lock();
            let mut ready: Vec<_> = inner
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { value, last_used } => Some((*last_used, *k, **value)),
                    Slot::Building => None,
                })
                .collect();
            ready.sort_unstable_by_key(|&(used, ..)| used);
            ready.into_iter().map(|(_, k, v)| (k, v)).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every operation, in any order, at any small capacity, leaves
        /// the cache holding what the model holds in the model's recency
        /// order (so the next victim is the model's too) with the model's
        /// counters — hit, miss, LRU, purge and the purge floor for every
        /// way a value can arrive, including a build that a purge
        /// overtakes — and no in-flight marker outlives its build, failed
        /// builds included.
        #[test]
        fn epoch_lru_is_the_naive_model(
            capacity in 1usize..=8,
            ops in prop::collection::vec((0u8..7, 0u8..6, 0u64..4, any::<u32>(), any::<bool>()), 1..80),
        ) {
            let cache = EpochLru::<Key, u32>::new(capacity);
            let mut model = Model { capacity, ..Default::default() };
            for (op, name, epoch, value, flag) in ops {
                let key = Key(name, epoch);
                match op {
                    0 => prop_assert_eq!(cache.get(&key).map(|v| *v), model.get_where(key, |_| true)),
                    1 => prop_assert_eq!(cache.peek(&key).map(|v| *v), model.touch(key)),
                    2 => prop_assert_eq!(
                        cache.get_where(&key, |v| v % 2 == 0).map(|v| *v),
                        model.get_where(key, |v| v % 2 == 0)
                    ),
                    3 => {
                        cache.upsert(key, Arc::new(value), |_| flag);
                        match model.touch(key) {
                            Some(_) if flag => model.order.last_mut().unwrap().1 = value,
                            Some(_) => {}
                            None => model.store(key, value),
                        }
                    }
                    4 => {
                        // `flag`: a publish overtakes the build.
                        let (got, outcome) = cache.get_or_build(key, || {
                            if flag {
                                cache.invalidate_before(epoch + 1);
                            }
                            value
                        });
                        let want = match model.get_where(key, |_| true) {
                            Some(held) => (held, CacheOutcome::Hit),
                            None => {
                                if flag {
                                    model.purge(epoch + 1);
                                }
                                model.store(key, value);
                                (value, CacheOutcome::Miss)
                            }
                        };
                        prop_assert_eq!((*got, outcome), want);
                    }
                    5 => {
                        // A build that fails retains nothing; `flag`: a
                        // publish overtakes it first.
                        let got = cache.get_or_try_build(key, || {
                            if flag {
                                cache.invalidate_before(epoch + 1);
                            }
                            Err(value)
                        });
                        let want = match model.get_where(key, |_| true) {
                            Some(held) => Ok(held),
                            None => {
                                if flag {
                                    model.purge(epoch + 1);
                                }
                                Err(value)
                            }
                        };
                        prop_assert_eq!(got.map(|(v, _)| *v), want);
                    }
                    _ => prop_assert_eq!(
                        cache.invalidate_before(epoch),
                        model.purge(epoch)
                    ),
                }
                prop_assert_eq!(cache.contents(), model.order.clone());
                let entries = model.order.len();
                let slots = cache.lock().map.len();
                prop_assert_eq!(slots, entries, "an in-flight marker outlived its build");
                prop_assert_eq!(cache.stats(), CacheStats { entries, ..model.stats });
            }
        }
    }
}
