//! Round-1 instantiations of the stack's one cache mechanism
//! ([`EpochLru`]): built [`ProviderRows`] per `(epoch, shard, instance,
//! built τ)` ([`ShardProviderCache`], looked up through `rows_for` by
//! both serving cores — the monolithic executor is shard 0) and the
//! round-1 **candidate memo** ([`RoundOneCache`]) keyed `(epoch, shard, τ,
//! ψ)` that answers any `k' ≤ k` repeat by prefix slicing.
//!
//! Building an instance's `T̂C` rows is the dominant cost of a cold
//! NetClus query. The rows depend only on the index instance (fixed per
//! epoch) and the threshold they were built at, **not** on `k` or ψ, and
//! rows built at τ' answer every τ ≤ τ' by a per-row prefix
//! ([`ProviderRows::view`]). So the key's τ is the **built τ**, not the
//! query's: `rows_for` asks for rows at [`ProviderRows::built_tau_for`]
//! — the top of the instance's τ band — and one entry per `(epoch, shard,
//! instance)` serves every `k`, ψ and τ in the band. Only a τ above the
//! band top (the clamped last instance) keys an entry of its own.
//!
//! **Rows survive a publish.** Every apply site — the executor, the shard
//! router for each in-process shard (under its update lock, so the first
//! reader of the new epoch already finds them) and a shard server's
//! `Apply` — hands the new epoch to [`carry_rows`]. When the batch applied
//! only trajectory adds and removes, each resident `(shard, instance,
//! built τ)` entry is patched in place into the new epoch
//! ([`ProviderRows::patch`], bit-identical to a rebuild) instead of being
//! purged; a batch that applied a site op purges them, because a
//! representative may have moved. The entries are patched side by side,
//! one run per core ([`netclus::par::chunked`]), so a publish that carries
//! sixteen row sets on two cores pays about eight patches, not sixteen.
//! The candidate memo is purged on every publish either way.
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

use std::sync::Arc;
use std::time::Instant;

use netclus::index::num_threads_default;
use netclus::shard::ShardRoundOne;
use netclus::{par, PreferenceFunction, ProviderRows, ProviderScratch};

pub use netclus::quantize_tau;

use crate::cache::{preference_key, CacheOutcome, EpochKeyed, EpochLru, Prefix};
use crate::metrics::LatencyHistogram;
use crate::snapshot::Snapshot;

/// The provider-cache key: one cache serves every shard's workers, keyed
/// per shard (the monolithic executor is shard 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardProviderKey {
    /// Epoch of the snapshot the rows were built from.
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

/// The provider cache: the executor's, and the one a shard router or a
/// shard server shares between its workers.
pub type ShardProviderCache = EpochLru<ShardProviderKey, ProviderRows>;

/// The rows that answer `tau` on `snap`: instance `p` of the ladder, its
/// rows built at the top of its τ band — resident, awaited from the
/// worker already building them, or built here (one `build_hist` sample
/// per build) — and which of the three it was. Any `k`, ψ and variant and
/// any τ in the band shares the entry and cuts a prefix view of it.
pub(crate) fn rows_for(
    snap: &Snapshot,
    tau: f64,
    shard: u32,
    providers: &ShardProviderCache,
    build_threads: usize,
    scratch: &mut ProviderScratch,
    build_hist: &LatencyHistogram,
) -> (usize, Arc<ProviderRows>, CacheOutcome) {
    let p = snap.index().instance_for(tau);
    let instance = snap.index().instance(p);
    let built_tau = ProviderRows::built_tau_for(instance, tau);
    let key = ShardProviderKey::new(snap.epoch(), shard, p, built_tau);
    let (rows, outcome) = providers.get_or_build(key, || {
        let build_start = Instant::now();
        let bound = snap.trajs().id_bound();
        let built = ProviderRows::build_with(instance, built_tau, bound, build_threads, scratch);
        build_hist.record(build_start.elapsed());
        built
    });
    (p, rows, outcome)
}

/// Moves the provider cache to `epoch` after a publish: each shard's rows
/// at `epoch - 1` are carried across when `shards` lists that shard with
/// its snapshot at `epoch` and the snapshot records a
/// `TrajectoryDelta` — taken out,
/// patched in place ([`ProviderRows::patch`]; an entry a reader still
/// holds is copied first) and filed under `epoch` — and everything else
/// below `epoch` is purged.
///
/// The taken row sets are patched side by side, one contiguous run of
/// them per worker through [`netclus::par::chunked`], on as many workers
/// as the machine has logical CPUs (never more than there are row sets).
/// Each patch reads only its own rows and its shard's snapshot, so the
/// width changes no bit of the result.
///
/// Carried rows are the rows a build at `epoch` would make, so a reader
/// of the new epoch finds them as a hit; a batch that applied a site op
/// records no delta and its shard's rows are rebuilt on demand.
pub fn carry_rows(providers: &ShardProviderCache, epoch: u64, shards: &[(u32, Arc<Snapshot>)]) {
    carry_rows_on(providers, epoch, shards, num_threads_default());
}

/// [`carry_rows`] on at most `workers` workers.
pub(crate) fn carry_rows_on(
    providers: &ShardProviderCache,
    epoch: u64,
    shards: &[(u32, Arc<Snapshot>)],
    workers: usize,
) {
    let patchable = |shard: u32| {
        shards.iter().find_map(|(s, snap)| {
            let delta = snap.trajectory_delta()?;
            (*s == shard && snap.epoch() == epoch).then_some((snap, delta))
        })
    };
    let taken = providers.take_where(|k| k.epoch + 1 == epoch && patchable(k.shard).is_some());
    providers.invalidate_before(epoch);
    let (keys, mut rows): (Vec<ShardProviderKey>, Vec<ProviderRows>) = taken
        .into_iter()
        .map(|(key, rows)| (key, Arc::unwrap_or_clone(rows)))
        .unzip();
    // One `&mut` run of rows per worker, cut where `chunked` cuts `keys`;
    // a worker past the last run gets an empty one and stays idle.
    let workers = workers.clamp(1, keys.len().max(1));
    let mut parts: Vec<&mut [ProviderRows]> = rows
        .chunks_mut(par::chunk_len(keys.len(), workers))
        .collect();
    parts.resize_with(workers, Default::default);
    par::chunked(&keys, &mut parts, |keys, part, _| {
        assert_eq!(keys.len(), part.len(), "a run of rows per chunk of keys");
        for (key, rows) in keys.iter().zip(part.iter_mut()) {
            let (snap, delta) = patchable(key.shard).expect("taken only when patchable");
            let instance = snap.index().instance(key.instance as usize);
            rows.patch(instance, snap.trajs(), &delta.added, &delta.removed);
        }
    });
    for (key, rows) in keys.into_iter().zip(rows) {
        providers.upsert(ShardProviderKey { epoch, ..key }, Arc::new(rows), |_| true);
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

impl EpochKeyed for RoundKey {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// LRU memo of round-1 answers, keyed `(epoch, shard, τ, ψ)` and holding
/// the **largest-`k`** round seen per key under the cache's prefix rule
/// (`EpochLru::get_prefix` / `EpochLru::offer`): any `k' ≤` that answers
/// by [`ShardRoundOne::prefix`] (candidates with their coverage rows, so
/// the merge needs no shard re-contact), a larger `k'` re-runs and
/// upgrades the entry.
pub type RoundOneCache = EpochLru<RoundKey, ShardRoundOne>;

/// A hit copies no pair: the prefix's rows are views into the memoised
/// round's block ([`netclus::shard::RowView`]), so what a hit costs is `k`
/// reference-count bumps, taken outside the memo lock.
impl Prefix for ShardRoundOne {
    type Cut = ShardRoundOne;

    fn k(&self) -> usize {
        self.k
    }

    fn cut(&self, k: usize) -> ShardRoundOne {
        self.prefix(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus::prelude::*;
    use netclus_roadnet::{NodeId, Point, RoadNetworkBuilder};
    use netclus_trajectory::{Trajectory, TrajectorySet};
    use std::sync::atomic::Ordering;

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
        let base = ShardProviderKey::new(1, 0, 2, 800.0);
        assert_eq!(base, ShardProviderKey::new(1, 0, 2, 800.0));
        assert_ne!(base, ShardProviderKey::new(2, 0, 2, 800.0));
        assert_ne!(base, ShardProviderKey::new(1, 1, 2, 800.0));
        assert_ne!(base, ShardProviderKey::new(1, 0, 3, 800.0));
        assert_ne!(base, ShardProviderKey::new(1, 0, 2, 800.001));
        assert_eq!(
            ShardProviderKey::new(1, 0, 2, quantize_tau(800.000_000_1)),
            ShardProviderKey::new(1, 0, 2, quantize_tau(800.0))
        );
        assert_eq!(base.epoch(), 1);
    }

    #[test]
    fn hit_miss_lru_and_invalidation() {
        let cache = ShardProviderCache::new(2);
        let p = Arc::new(rows());
        let (k1, k2, k3) = (
            ShardProviderKey::new(0, 0, 0, 400.0),
            ShardProviderKey::new(0, 0, 0, 600.0),
            ShardProviderKey::new(0, 0, 1, 800.0),
        );
        assert!(cache.get(&k1).is_none());
        cache.upsert(k1, Arc::clone(&p), |_| true);
        cache.upsert(k2, Arc::clone(&p), |_| true);
        assert!(cache.get(&k1).is_some());
        // k2 is now the LRU victim.
        cache.upsert(k3, Arc::clone(&p), |_| true);
        assert!(cache.get(&k2).is_none());
        assert!(cache.get(&k3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // Epoch invalidation clears everything below the cutoff (k1 was
        // already LRU-evicted to make room, leaving one stale entry).
        cache.upsert(
            ShardProviderKey::new(3, 0, 0, 400.0),
            Arc::clone(&p),
            |_| true,
        );
        assert_eq!(cache.invalidate_before(3), 1);
        assert!(cache.get(&ShardProviderKey::new(3, 0, 0, 400.0)).is_some());
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn get_or_build_builds_once_and_reports_outcomes() {
        let cache = ShardProviderCache::new(4);
        let key = ShardProviderKey::new(0, 0, 0, 400.0);
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
        let cache = Arc::new(ShardProviderCache::new(4));
        let key = ShardProviderKey::new(0, 0, 0, 400.0);
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
        let cache = Arc::new(ShardProviderCache::new(4));
        let key = ShardProviderKey::new(0, 0, 0, 400.0);
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
        let cache = ShardProviderCache::new(4);
        let key = ShardProviderKey::new(1, 0, 0, 400.0);
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
        let live = ShardProviderKey::new(2, 0, 0, 400.0);
        cache.get_or_build(live, rows);
        assert_eq!(cache.get_or_build(live, rows).1, CacheOutcome::Hit);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn round_memo_prefix_hits_and_upgrades() {
        let memo = RoundOneCache::new(4);
        let key = RoundKey::new(0, 0, 800.0, &PreferenceFunction::Binary);
        assert!(memo.get_prefix(&key, 1).is_none());
        memo.offer(key, Arc::new(round(3, &[5.0, 3.0, 1.0])));
        // Any k' ≤ 3 is a prefix hit with the sliced utility.
        let two = memo.get_prefix(&key, 2).expect("prefix hit");
        assert_eq!(two.k, 2);
        assert_eq!(two.candidates.len(), 2);
        assert_eq!(two.local_utility, 8.0);
        let three = memo.get_prefix(&key, 3).expect("exact hit");
        assert_eq!(three.candidates.len(), 3);
        // k' = 4 exceeds the memoized run: miss, then upgrade.
        assert!(memo.get_prefix(&key, 4).is_none());
        memo.offer(key, Arc::new(round(4, &[5.0, 3.0, 1.0, 0.5])));
        assert_eq!(memo.get_prefix(&key, 4).unwrap().candidates.len(), 4);
        // A smaller re-insert must not downgrade the entry.
        memo.offer(key, Arc::new(round(1, &[5.0])));
        assert_eq!(memo.get_prefix(&key, 4).unwrap().candidates.len(), 4);
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
        memo.offer(key, Arc::new(memoised.clone()));
        for k in [1, 2, 3] {
            let hit = memo.get_prefix(&key, k).expect("prefix hit");
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
        memo.offer(binary, Arc::new(round(2, &[2.0, 1.0])));
        memo.offer(other_shard, Arc::new(round(2, &[4.0, 1.0])));
        assert!(memo.get_prefix(&linear, 1).is_none());
        assert_eq!(memo.get_prefix(&binary, 1).unwrap().local_utility, 2.0);
        // Epoch advance purges both epoch-1 entries.
        assert_eq!(memo.invalidate_before(2), 2);
        assert!(memo.get_prefix(&binary, 1).is_none());
        assert_eq!(memo.stats().invalidated, 2);
        // A round resolved on epoch 1 that lands after the purge went to
        // its caller and must not occupy the memo.
        memo.offer(binary, Arc::new(round(2, &[2.0, 1.0])));
        assert_eq!(memo.stats().entries, 0, "a purged epoch was memoized");
        let live = RoundKey::new(2, 0, 800.0, &PreferenceFunction::Binary);
        memo.offer(live, Arc::new(round(2, &[2.0, 1.0])));
        assert_eq!(memo.stats().entries, 1);
    }
}
