//! The one cache mechanism of the serving stack — [`EpochLru`], an
//! epoch-keyed, single-flight LRU — and its first instantiation, the
//! result cache keyed on `(τ, ψ, epoch)`.
//!
//! Everything the stack remembers is a pure function of a snapshot epoch
//! and some query parameters: a finished answer (`ResultCache`), an
//! instance's `T̂C` rows and a shard's round-1 candidates
//! ([`crate::provider_cache`]), the last full answer per query shape (the
//! router's stale fallback). So the key embeds the epoch
//! ([`EpochKeyed`]), an epoch advance makes older keys unreachable, and
//! [`EpochLru::invalidate_before`] reclaims their space eagerly. A value
//! that stays valid across an advance is moved, not purged:
//! `EpochLru::take_where` hands it out and [`EpochLru::upsert`] files it
//! under the new epoch (the provider cache's carried rows).
//!
//! **Prefix answers.** Inc-Greedy never reads `k` while it chooses, so
//! the answer for `k` is the first `k` picks of any larger-`k` answer at
//! the same `(τ, ψ, epoch)` ([`netclus::Solution::prefix`]). A cache of
//! such values (`Prefix`) keys them without `k`, keeps the largest-`k`
//! value per key and answers every smaller `k` by cutting it; a larger
//! `k` misses, and its value replaces the entry. The router's round-1
//! memo takes the rule through `EpochLru::get_prefix` /
//! `EpochLru::offer`, the result cache through `EpochLru::hit_prefix` /
//! `EpochLru::get_or_try_build_prefix`.
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
//! racing a cold dashboard burst burn one build, not N. Under the prefix
//! rule a caller joins that build only when its `k` covers the caller's;
//! a larger `k` builds beside it, and nobody joins that second build.
//! Coalesced waits are counted separately from hits so saturation on cold
//! keys is observable. A build that fails (`EpochLru::get_or_try_build`)
//! or panics retains nothing and hands the key to the next waiter.
//!
//! One mutex guards an [`EpochLru`]'s map and counters: a lookup holds it
//! for a hash probe and a pointer clone, orders of magnitude less than
//! the solve or build it elides. The result cache, which every served
//! request probes, spreads its keys over `RESULT_STRIPES` such caches
//! by key hash, so concurrent hits on different shapes take different
//! locks.

#![deny(clippy::too_many_lines)]

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use netclus::{PreferenceFunction, Solution, TopsQuery};

use crate::executor::ServiceAnswer;
use crate::metrics::Padded;

/// The result-cache key: every field that determines a TOPS answer except
/// `k`, which the prefix rule absorbs (module docs) — one key per query
/// shape `(τ, ψ)` and epoch, as the round-1 memo's key is.
///
/// `τ` and the preference parameters are keyed by their IEEE-754 bit
/// patterns, so keys are `Eq + Hash` without float comparisons; two queries
/// share an entry exactly when their parameters are bitwise identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Coverage threshold `τ`, as bits.
    pub tau_bits: u64,
    /// Preference function discriminant.
    pub pref_tag: u8,
    /// Preference function parameter (λ, α or the normalizer), as bits;
    /// zero for parameterless variants.
    pub pref_param_bits: u64,
    /// Epoch of the snapshot the answer must come from.
    pub epoch: u64,
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
    /// Builds the key for `query` (any `k`) answered against `epoch`.
    pub fn new(query: &TopsQuery, epoch: u64) -> Self {
        let (pref_tag, pref_param_bits) = preference_key(&query.preference);
        QueryKey {
            tau_bits: query.tau.to_bits(),
            pref_tag,
            pref_param_bits,
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

/// A cached value that answers every request up to its own size by a
/// prefix of itself (module docs): a solve's answers, a round-1 run's
/// candidates.
pub trait Prefix {
    /// What a request receives.
    type Cut;
    /// The largest request this value answers.
    fn k(&self) -> usize;
    /// The answer to a request for `k ≤ self.k()`.
    fn cut(&self, k: usize) -> Self::Cut;
    /// Takes over the answers `other` — a value this one replaces or
    /// outlasts under the same key — has made and this one has not, so a
    /// request keeps receiving one answer per `k` while the entry grows.
    fn adopt(&self, _other: &Self) {}
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

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, o: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            coalesced: self.coalesced + o.coalesced,
            evictions: self.evictions + o.evictions,
            invalidated: self.invalidated + o.invalidated,
            entries: self.entries + o.entries,
        }
    }
}

/// What the cache holds under one key: a finished value, a build in
/// flight, or both — a prefix cache serves its value while a build for a
/// larger `k` runs.
struct Slot<V> {
    ready: Option<Ready<V>>,
    /// The build callers join, marked with the largest request it answers
    /// (a plain cache's callers all need 0).
    building: Option<usize>,
}

struct Ready<V> {
    value: Arc<V>,
    last_used: u64,
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
    fn touch(&mut self, key: &K, pred: impl Fn(&V) -> bool) -> Option<&Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.map.get_mut(key)?;
        let ready = slot.ready.as_mut().filter(|ready| pred(&ready.value))?;
        ready.last_used = tick;
        Some(&ready.value)
    }

    /// Offers a finished value: a resident one is marked used and replaced
    /// only if `replace_if` says so; an absent one is retained — unless the
    /// key's epoch is already purged — evicting the least-recently-used
    /// finished value when the cache is full. In-flight builds are neither
    /// counted nor evicted. Returns whether a build is marked under `key`:
    /// its waiters may now be answered.
    fn put(&mut self, key: K, value: Arc<V>, replace_if: impl FnOnce(&V) -> bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let building = match self.map.get_mut(&key) {
            Some(Slot {
                ready: Some(ready),
                building,
            }) => {
                ready.last_used = tick;
                if replace_if(&ready.value) {
                    ready.value = value;
                }
                return building.is_some();
            }
            slot => slot.is_some_and(|slot| slot.building.is_some()),
        };
        if key.epoch() < self.floor {
            return building;
        }
        if self.map.len() >= self.capacity {
            self.evict_oldest();
        }
        let slot = self.map.entry(key).or_insert(Slot {
            ready: None,
            building: None,
        });
        slot.ready = Some(Ready {
            value,
            last_used: tick,
        });
        building
    }

    /// Drops the least-recently-used finished value if `capacity` are
    /// resident.
    fn evict_oldest(&mut self) {
        // One O(capacity) pass counts the finished values and finds the
        // oldest — fine at ≤ ~1 000 entries beside the solve or build
        // every insert follows; revisit (a tick-ordered index) before
        // raising capacities by orders of magnitude.
        let mut ready = 0;
        let finished = self
            .map
            .iter()
            .filter_map(|(k, slot)| slot.ready.as_ref().map(|r| (k, r.last_used)));
        let oldest = finished
            .inspect(|_| ready += 1)
            .min_by_key(|&(_, used)| used);
        if let Some(victim) = oldest.filter(|_| ready >= self.capacity).map(|(k, _)| *k) {
            self.take_ready(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Removes the finished value under `key`, and its slot unless a build
    /// is marked there.
    fn take_ready(&mut self, key: &K) -> Option<Arc<V>> {
        let slot = self.map.get_mut(key)?;
        let ready = slot.ready.take()?;
        if slot.building.is_none() {
            self.map.remove(key);
        }
        Some(ready.value)
    }

    /// Marks `key`'s build, which answers requests up to `need`, as the
    /// one later callers join.
    fn start_build(&mut self, key: K, need: usize) {
        let slot = self.map.entry(key).or_insert(Slot {
            ready: None,
            building: None,
        });
        slot.building = Some(need);
    }

    /// Removes the mark of `key`'s build.
    fn end_build(&mut self, key: &K) {
        let Some(slot) = self.map.get_mut(key) else {
            return;
        };
        slot.building = None;
        if slot.ready.is_none() {
            self.map.remove(key);
        }
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
        let hit = inner.touch(key, pred).cloned();
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
        self.lock().touch(key, |_| true).cloned()
    }

    /// Offers a finished value: a resident one is marked used and replaced
    /// only if `replace_if` says so (`|_| true` is a plain insert); an
    /// absent one is retained under the purge-floor rule, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn upsert(&self, key: K, value: Arc<V>, replace_if: impl FnOnce(&V) -> bool) {
        let racing_a_build = self.lock().put(key, value, replace_if);
        if racing_a_build {
            self.done.notify_all();
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
        let rule = Rule {
            need: 0,
            covers: |_: &V| true,
            replace_if: |_: &V, _: &V| true,
            take: Arc::clone,
        };
        self.single_flight(key, rule, build)
    }

    /// The single-flight path under both rules: a resident value the rule
    /// `covers` is a hit; a caller needing no more than the key's marked
    /// build answers waits for it; any other caller builds — marked, when
    /// no build is — and its value replaces a resident one
    /// `replace_if(resident, built)` accepts. What
    /// the caller receives is `take` of the value resident once it is
    /// served — the built one only if it was not retained — taken under
    /// the lock.
    fn single_flight<E, R>(
        &self,
        key: K,
        rule: Rule<impl Fn(&V) -> bool, impl FnOnce(&V, &V) -> bool, impl Fn(&Arc<V>) -> R>,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(R, CacheOutcome), E> {
        let Rule {
            need,
            covers,
            replace_if,
            take,
        } = rule;
        let mut waited = false;
        let mut inner = self.lock();
        let marked = loop {
            if let Some(taken) = inner.touch(&key, &covers).map(&take) {
                if waited {
                    return Ok((taken, CacheOutcome::Coalesced));
                }
                inner.stats.hits += 1;
                return Ok((taken, CacheOutcome::Hit));
            }
            let building = inner.map.get(&key).and_then(|slot| slot.building);
            if building.is_none_or(|cover| cover < need) {
                inner.stats.misses += 1;
                if building.is_none() {
                    inner.start_build(key, need);
                }
                break building.is_none();
            }
            if !waited {
                waited = true;
                inner.stats.coalesced += 1;
            }
            inner = self.done.wait(inner).expect("cache poisoned");
        };
        drop(inner);

        // Unwind guard: the build runs outside the lock, so a panic or an
        // `Err` would otherwise leave its marker in the map forever —
        // every future caller of this key (and all current waiters) would
        // park on the condvar, and a parked query holds the router's
        // fan-out read lock, deadlocking updates too.
        let mut cleanup = BuildCleanup {
            cache: self,
            key,
            armed: marked,
        };
        let value = Arc::new(build()?);
        cleanup.armed = false;

        let mut inner = self.lock();
        if marked {
            inner.end_build(&key);
        }
        inner.put(key, Arc::clone(&value), |held| replace_if(held, &value));
        let taken = inner.touch(&key, &covers).map(&take);
        drop(inner);
        self.done.notify_all();
        Ok((taken.unwrap_or_else(|| take(&value)), CacheOutcome::Miss))
    }

    /// Purges every finished value built from an epoch older than `epoch`
    /// and raises the purge floor to it (in-flight builds are left to
    /// finish; the floor keeps a stale one from being retained). Returns
    /// the number of entries removed.
    pub fn invalidate_before(&self, epoch: u64) -> usize {
        let mut inner = self.lock();
        inner.floor = inner.floor.max(epoch);
        let mut removed = 0;
        inner.map.retain(|k, slot| {
            if k.epoch() < epoch && slot.ready.take().is_some() {
                removed += 1;
            }
            slot.ready.is_some() || slot.building.is_some()
        });
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
            .filter(|(k, slot)| slot.ready.is_some() && pred(k))
            .map(|(k, _)| *k)
            .collect();
        keys.into_iter()
            .filter_map(|k| inner.take_ready(&k).map(|value| (k, value)))
            .collect()
    }

    /// Current counters and occupancy (finished values only).
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.values().filter(|s| s.ready.is_some()).count(),
            ..inner.stats
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().expect("cache poisoned")
    }
}

/// The prefix rule (module docs): a value answers every request up to its
/// own `k`, and a larger value replaces a smaller one.
impl<K: Copy + Eq + Hash + EpochKeyed, V: Prefix> EpochLru<K, V> {
    /// The answer for `k` if a value covering it is resident, counted as a
    /// hit or a miss. The cut is taken outside the lock.
    pub fn get_prefix(&self, key: &K, k: usize) -> Option<V::Cut> {
        self.get_where(key, |held| held.k() >= k)
            .map(|held| held.cut(k))
    }

    /// Retains `value` unless the resident value answers as much.
    pub fn offer(&self, key: K, value: Arc<V>) {
        let offered = Arc::clone(&value);
        self.upsert(key, value, |held| replaces(held, &offered));
    }

    /// The answer for `k` if a value covering it is resident, counted as a
    /// hit and cut under the lock (no reference count on the value moves).
    /// A miss is not counted: it is left to the
    /// [`EpochLru::get_or_try_build_prefix`] call that follows it.
    pub(crate) fn hit_prefix(&self, key: &K, k: usize) -> Option<V::Cut> {
        let mut inner = self.lock();
        let cut = inner.touch(key, |held| held.k() >= k)?.cut(k);
        inner.stats.hits += 1;
        Some(cut)
    }

    /// [`EpochLru::get_or_try_build`] under the prefix rule: a resident
    /// value answering `k` is a hit, a build in flight for at least `k`
    /// is joined, and anything else builds for `k` — and the built value
    /// replaces a resident one that answers less. The answer is cut under
    /// the lock, so while the key lives every caller of one `k` receives
    /// one answer.
    pub(crate) fn get_or_try_build_prefix<E>(
        &self,
        key: K,
        k: usize,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V::Cut, CacheOutcome), E> {
        let rule = Rule {
            need: k,
            covers: |held: &V| held.k() >= k,
            replace_if: replaces,
            take: |value: &Arc<V>| value.cut(k),
        };
        self.single_flight(key, rule, build)
    }
}

/// How [`EpochLru::single_flight`] treats a request (its docs).
struct Rule<C, P, T> {
    need: usize,
    covers: C,
    replace_if: P,
    take: T,
}

/// Whether `offered` replaces `held` under the prefix rule: it answers
/// more. The value kept takes over what the other made.
fn replaces<V: Prefix>(held: &V, offered: &V) -> bool {
    let larger = held.k() < offered.k();
    if larger {
        offered.adopt(held);
    } else {
        held.adopt(offered);
    }
    larger
}

/// Removes the mark of `key`'s build and wakes all waiters if the build
/// closure fails or unwinds (disarmed on the normal completion path, and
/// never armed for an unmarked build).
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
        inner.end_build(&self.key);
        drop(inner);
        self.cache.done.notify_all();
    }
}

/// The [`EpochLru`]s the result cache spreads its keys over: two clients
/// hitting different shapes meet in one about once in 64 hits.
const RESULT_STRIPES: usize = 64;

/// The shapes one result-cache stripe holds: 1 024 in all, each entry one
/// solve that answers every `k` up to the largest asked.
const SHAPES_PER_STRIPE: usize = 16;

/// The executor's result cache: one [`ShapeAnswers`] per `(τ, ψ, epoch)`,
/// in `RESULT_STRIPES` [`EpochLru`]s chosen by a hash of the shape, so
/// hits on different shapes take different locks. LRU order is kept per
/// stripe.
pub(crate) struct ResultCache {
    /// Padded: neighbouring stripes' locks would share a line otherwise.
    stripes: Box<[Padded<EpochLru<QueryKey, ShapeAnswers>>]>,
}

impl ResultCache {
    /// An empty cache of `RESULT_STRIPES` × `SHAPES_PER_STRIPE` shapes.
    pub(crate) fn new() -> Self {
        ResultCache {
            stripes: (0..RESULT_STRIPES)
                .map(|_| Padded(EpochLru::new(SHAPES_PER_STRIPE)))
                .collect(),
        }
    }

    /// The stripe of `key`'s shape: the epoch is left out of the hash, so
    /// a shape keeps its stripe across publishes.
    fn stripe(&self, key: &QueryKey) -> &EpochLru<QueryKey, ShapeAnswers> {
        let shape = key.tau_bits
            ^ key.pref_param_bits.rotate_left(21)
            ^ u64::from(key.pref_tag).rotate_left(42);
        // The product's top bits: a multiplication carries every bit of
        // the shape into them (its low bits would keep only the shape's
        // low bits, which are zero for a whole-metre τ).
        let mixed = shape.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
        &self.stripes[mixed as usize % self.stripes.len()].0
    }

    /// The answer for `k` if the shape's entry covers it (a counted hit);
    /// `None` is not counted.
    pub(crate) fn hit(&self, key: &QueryKey, k: usize) -> Option<Arc<ServiceAnswer>> {
        self.stripe(key).hit_prefix(key, k)
    }

    /// [`EpochLru::get_or_try_build_prefix`] on the shape's stripe.
    pub(crate) fn get_or_try_build<E>(
        &self,
        key: QueryKey,
        k: usize,
        build: impl FnOnce() -> Result<ShapeAnswers, E>,
    ) -> Result<(Arc<ServiceAnswer>, CacheOutcome), E> {
        self.stripe(&key).get_or_try_build_prefix(key, k, build)
    }

    /// [`EpochLru::invalidate_before`] on every stripe.
    pub(crate) fn invalidate_before(&self, epoch: u64) -> usize {
        self.stripes
            .iter()
            .map(|s| s.0.invalidate_before(epoch))
            .sum()
    }

    /// The stripes' counters, summed.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stripes
            .iter()
            .map(|s| s.0.stats())
            .fold(CacheStats::default(), |a, b| a + b)
    }
}

/// One solve's answers: the solve ran for `k` at one `(τ, ψ, epoch)` and
/// answers every `k' ≤ k` by its first `k'` picks, under
/// [`Solution::prefix`]'s rule. Each `k'` answer is made on its first
/// request and kept, so a repeat allocates nothing.
pub(crate) struct ShapeAnswers {
    k: usize,
    solution: Solution,
    /// The fields every `k'` shares (its sites are empty).
    shared: ServiceAnswer,
    /// `cuts[i]`: the answer after `i` picks.
    cuts: Box<[OnceLock<Arc<ServiceAnswer>>]>,
}

impl ShapeAnswers {
    /// The answers of `solution`, solved for `k`; `shared` holds the
    /// fields that do not depend on `k`.
    pub(crate) fn new(k: usize, solution: Solution, shared: ServiceAnswer) -> Self {
        let cuts = solution.steps.iter().map(|_| OnceLock::new()).collect();
        let answers = ShapeAnswers {
            k,
            solution,
            shared,
            cuts,
        };
        // The solve's own answer is made before the entry can be looked
        // up, so every caller that joined the solve receives this one
        // `Arc`, even once a larger solve has replaced the entry.
        answers.cut(k);
        answers
    }
}

impl Prefix for ShapeAnswers {
    type Cut = Arc<ServiceAnswer>;

    fn k(&self) -> usize {
        self.k
    }

    fn adopt(&self, other: &Self) {
        for (mine, made) in self.cuts.iter().zip(&other.cuts) {
            if let Some(answer) = made.get() {
                // A racing first request may have made ours already.
                let _ = mine.set(Arc::clone(answer));
            }
        }
    }

    fn cut(&self, k: usize) -> Arc<ServiceAnswer> {
        let (picks, utility, covered) = self.solution.at(k);
        let answer = self.cuts[picks].get_or_init(|| {
            Arc::new(ServiceAnswer {
                sites: self.solution.sites[..picks].to_vec(),
                utility,
                covered,
                ..self.shared.clone()
            })
        });
        Arc::clone(answer)
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

    /// The result cache's key over plain answers: the mechanism's tests
    /// need no solve behind a value.
    type Answers = EpochLru<QueryKey, ServiceAnswer>;

    fn key(k: usize, tau: f64, epoch: u64) -> QueryKey {
        QueryKey::new(&TopsQuery::binary(k, tau), epoch)
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = Answers::new(16);
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
        // k is not part of the key: every k of a shape shares one entry.
        assert_eq!(base, key(4, 800.0, 0));
        assert_ne!(base, key(3, 800.5, 0));
        assert_ne!(base, key(3, 800.0, 1));
        let graded = TopsQuery {
            k: 3,
            tau: 800.0,
            preference: PreferenceFunction::LinearDecay,
        };
        assert_ne!(base, QueryKey::new(&graded, 0));
    }

    /// The benchmark's 72 hot shapes — τ = 450 + 115·t m for t < 24, under
    /// three ψ — spread over the result cache's 64 stripes. A hash that
    /// kept the product's low bits put them in one stripe (a whole-metre
    /// τ has zero low bits).
    #[test]
    fn hot_shapes_spread_over_the_stripes() {
        let cache = ResultCache::new();
        let mut load: HashMap<*const EpochLru<QueryKey, ShapeAnswers>, usize> = HashMap::new();
        for preference in [
            PreferenceFunction::Binary,
            PreferenceFunction::LinearDecay,
            PreferenceFunction::ConvexProbability { alpha: 2.0 },
        ] {
            for t in 0..24 {
                let tau = crate::provider_cache::quantize_tau(450.0 + 115.0 * f64::from(t));
                let shape = TopsQuery {
                    preference,
                    ..TopsQuery::binary(1, tau)
                };
                let key = QueryKey::new(&shape, 0);
                *load
                    .entry(std::ptr::from_ref(cache.stripe(&key)))
                    .or_default() += 1;
            }
        }
        let fullest = load.values().max().copied();
        assert!(
            load.len() >= 40,
            "{} stripes, fullest {fullest:?}",
            load.len()
        );
    }

    #[test]
    fn peek_finds_entries_without_counting() {
        let cache = Answers::new(16);
        cache.upsert(key(1, 800.0, 0), answer(0), |_| true);
        assert!(cache.peek(&key(1, 800.0, 0)).is_some());
        assert!(cache.peek(&key(1, 900.0, 0)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn epoch_invalidation_purges_stale_entries() {
        let cache = Answers::new(64);
        for e in 0..4u64 {
            cache.upsert(key(1, 500.0, e), answer(e), |_| true);
            cache.upsert(key(1, 600.0, e), answer(e), |_| true);
        }
        let removed = cache.invalidate_before(2);
        assert_eq!(removed, 4);
        assert!(cache.get(&key(1, 500.0, 1)).is_none());
        assert!(cache.get(&key(1, 500.0, 2)).is_some());
        assert_eq!(cache.stats().invalidated, 4);
        // A worker that pinned epoch 1 finishes after the purge: its
        // answer went to its caller and must not occupy the cache.
        cache.upsert(key(1, 700.0, 1), answer(1), |_| true);
        assert!(cache.peek(&key(1, 700.0, 1)).is_none());
        assert_eq!(cache.stats().entries, 4, "a purged epoch was retained");
        cache.upsert(key(1, 700.0, 2), answer(2), |_| true);
        assert_eq!(cache.stats().entries, 5);
    }

    /// A carried value leaves under its old key and is filed under the
    /// new epoch past the purge that floors the old one; no counter
    /// moves and the same `Arc` comes back.
    #[test]
    fn taken_values_move_to_a_later_epoch_past_the_purge() {
        let cache = Answers::new(8);
        for tau in [500.0, 600.0, 700.0] {
            cache.upsert(key(1, tau, 4), answer(4), |_| true);
        }
        let before = cache.stats();
        let taken = cache.take_where(|q| q.epoch == 4 && q.tau_bits != 700f64.to_bits());
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
        let cache = Answers::new(4);
        cache.upsert(key(1, 500.0, u64::MAX), answer(0), |_| true);
        assert_eq!(cache.invalidate_before(u64::MAX), 0);
        cache.upsert(key(1, 600.0, u64::MAX), answer(0), |_| true);
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
                .filter_map(|(k, slot)| {
                    let ready = slot.ready.as_ref()?;
                    Some((ready.last_used, *k, *ready.value))
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
