//! The update path: [`ShardRouter::apply_updates`] is route → ship →
//! reconcile → carry, and [`ShardRouter::resync_replica`] catches a
//! replica that missed a batch back up. Both hold the update lock's write
//! side, so no query overlaps them.
//!
//! A publish costs its slowest shard, not the sum of its shards: the ship
//! applies the shards' slices side by side and the carry patches the
//! resident row sets side by side
//! ([`carry_rows`](crate::provider_cache::carry_rows)), each through the
//! workspace's one fan-out, [`netclus::par::chunked`], on the machine's
//! logical CPUs. Route and reconcile stay on the caller: together they
//! take a fraction of a millisecond.

#![deny(clippy::too_many_lines)]

use std::time::Instant;

use netclus::index::num_threads_default;
use netclus::par;
use netclus_trajectory::TrajId;

use super::*;
use crate::fault::ShardFailure;
use crate::provider_cache::carry_rows;
use crate::snapshot::{RoutedOp, Snapshot, UpdateBatch};

/// Where one batch op's routed copies landed — `(shard, index in that
/// shard's slice)` — so shard acks map back to per-op outcomes.
enum Placed {
    /// Failed router-side validation (off-network node).
    Rejected,
    Add(Vec<(usize, usize)>),
    Remove(Vec<(usize, usize)>),
    Site(usize, usize),
}

impl ShardRouter {
    /// Applies an update batch: trajectory adds receive router-assigned
    /// global ids and are shipped to exactly the shards they touch,
    /// removes are broadcast (ownership lives shard-side — a remote
    /// shard's corpus is not visible here); every shard publishes the
    /// next epoch (possibly from an empty batch) so epochs stay in
    /// lockstep. Receipts and replication bookkeeping are reconstructed
    /// from the per-op acks each shard returns, so they are exact over
    /// both transports. A shard whose apply RPC fails outright misses
    /// the batch and falls behind the lockstep epoch; its answers are
    /// demoted to [`ShardFailure::EpochSkew`] until it catches up.
    pub fn apply_updates(&self, batch: UpdateBatch) -> UpdateReceipt {
        let inner = &*self.inner;
        let t = Instant::now();
        let mut state = write_recover(&inner.update_lock);
        let (routed, placements) = inner.route(batch, &mut state.next_id);
        let (acks, epoch) = inner.ship(&routed, state.epoch);
        state.epoch = epoch;
        let (applied, rejected) = reconcile(placements, &acks, &mut state.replication);
        // The new lockstep epoch makes every older cache key unreachable:
        // each in-process shard's rows are carried across it from a
        // replica that published it, the rest and every round are purged.
        // Still under the update lock, so no reader sees the gap.
        if let Some(providers) = &inner.providers {
            let published: Vec<(u32, Arc<Snapshot>)> = inner
                .shards
                .iter()
                .enumerate()
                .filter_map(|(s, set)| {
                    let stores = set.transports.iter().filter_map(|t| t.local_store());
                    let snap = stores
                        .map(SnapshotStore::load)
                        .find(|snap| snap.epoch() == epoch)?;
                    Some((s as u32, snap))
                })
                .collect();
            carry_rows(providers, epoch, &published);
        }
        if let Some(rounds) = &inner.rounds {
            rounds.invalidate_before(epoch);
        }
        let metrics = &inner.clock.metrics;
        metrics.update_latency.record(t.elapsed());
        metrics.epoch_advances.fetch_add(1, Ordering::Relaxed);
        metrics
            .updates_applied
            .fetch_add(applied as u64, Ordering::Relaxed);
        UpdateReceipt {
            epoch,
            applied,
            rejected,
        }
    }

    /// Catches replica `replica` of shard `s` up to the live lockstep
    /// epoch: under the update write lock (no applies or queries can
    /// interleave), a healthy sibling at the lockstep epoch serves its
    /// full corpus snapshot and the lagging replica installs it
    /// wholesale, adopting the snapshot's epoch. Index construction is
    /// deterministic in the corpus, so the rejoined replica serves
    /// **bit-identical** round-1 answers from the first query after the
    /// resync. Returns the epoch the replica was synced to.
    ///
    /// # Errors
    /// [`ShardFailure::Unreachable`] when no healthy sibling at the
    /// lockstep epoch exists (or the target transport cannot install —
    /// remote replicas rejoin via `netclus-shardd --join` instead), or
    /// the sibling's fetch failure.
    ///
    /// # Panics
    /// When `s` or `replica` is out of range.
    pub fn resync_replica(&self, s: usize, replica: usize) -> Result<u64, ShardFailure> {
        let inner = &*self.inner;
        let state = write_recover(&inner.update_lock);
        let set = &inner.shards[s];
        let target = &set.transports[replica];
        let mut last = ShardFailure::Unreachable;
        for (src, source) in set.walk() {
            if src as usize == replica || source.epoch() != state.epoch {
                continue;
            }
            match source.fetch_resync() {
                Ok(snap) => {
                    debug_assert_eq!(snap.epoch, state.epoch, "source pinned under write lock");
                    target.install_resync(&snap)?;
                    inner.faultc.resyncs.fetch_add(1, Ordering::Relaxed);
                    return Ok(snap.epoch);
                }
                Err(failure) => last = failure,
            }
        }
        Err(last)
    }
}

impl RouterInner {
    /// Splits a batch into per-shard slices, assigning global trajectory
    /// ids from `next_id`. Per-shard slices stay in batch order, so
    /// sequenced semantics (remove a site, re-add it; add a trajectory,
    /// remove it) match the monolithic store's.
    fn route(&self, batch: UpdateBatch, next_id: &mut u64) -> (Vec<Vec<RoutedOp>>, Vec<Placed>) {
        let lanes = self.shards.len();
        let mut routed: Vec<Vec<RoutedOp>> = (0..lanes).map(|_| Vec::new()).collect();
        let mut placements: Vec<Placed> = Vec::new();
        let on_net = |v: &NodeId| v.index() < self.net.node_count();
        let site_slot = |routed: &mut Vec<Vec<RoutedOp>>, v, op: RoutedOp| {
            let s = self.partition.shard_of(v) as usize;
            routed[s].push(op);
            Placed::Site(s, routed[s].len() - 1)
        };
        for op in batch {
            let placed = match op {
                UpdateOp::AddTrajectory(traj) => {
                    if !traj.nodes().iter().all(on_net) {
                        Placed::Rejected
                    } else {
                        let owners = netclus::shards_of_trajectory(&self.partition, &traj);
                        let id = TrajId(*next_id as u32);
                        *next_id += 1;
                        let mut slots = Vec::with_capacity(owners.len());
                        for &s in &owners {
                            slots.push((s as usize, routed[s as usize].len()));
                            routed[s as usize].push(RoutedOp::AddTrajectoryAt(id, traj.clone()));
                        }
                        Placed::Add(slots)
                    }
                }
                UpdateOp::RemoveTrajectory(id) => {
                    let mut slots = Vec::with_capacity(lanes);
                    for (s, ops) in routed.iter_mut().enumerate() {
                        slots.push((s, ops.len()));
                        ops.push(RoutedOp::RemoveTrajectory(id));
                    }
                    Placed::Remove(slots)
                }
                UpdateOp::AddSite(v) | UpdateOp::RemoveSite(v) if !on_net(&v) => Placed::Rejected,
                UpdateOp::AddSite(v) => site_slot(&mut routed, v, RoutedOp::AddSite(v)),
                UpdateOp::RemoveSite(v) => site_slot(&mut routed, v, RoutedOp::RemoveSite(v)),
            };
            placements.push(placed);
        }
        (routed, placements)
    }

    /// Ships every slice — empty ones too, lockstep epochs advance on
    /// every batch — to **every replica** of every shard, and collects
    /// the per-op acks and the new lockstep epoch. Replicas hold
    /// bit-identical corpora, so the first successful replica's ack
    /// vector is authoritative for the receipt; a replica whose apply
    /// fails misses the batch and falls behind the lockstep epoch, which
    /// excludes it from primary selection until it resyncs
    /// ([`ShardRouter::resync_replica`] or `netclus-shardd --join`).
    ///
    /// Shards apply side by side, one contiguous run of them per worker
    /// through [`netclus::par::chunked`], on as many workers as the
    /// machine has logical CPUs (never more than there are shards); a
    /// shard's replicas apply in replica order. Shards share no state, so
    /// the acks, in shard order, and the epoch, the largest any replica
    /// published, are what a one-by-one ship returns.
    fn ship(&self, routed: &[Vec<RoutedOp>], mut epoch: u64) -> (Vec<Vec<bool>>, u64) {
        let workers = num_threads_default().clamp(1, self.shards.len().max(1));
        let runs = par::chunked(&self.shards, &mut vec![(); workers], |sets, _, first| {
            sets.iter()
                .zip(&routed[first..])
                .map(|(set, ops)| self.ship_to(set, ops))
                .collect::<Vec<_>>()
        });
        let mut acks = Vec::with_capacity(routed.len());
        for (shard_acks, published) in runs.into_iter().flatten() {
            acks.push(shard_acks);
            epoch = epoch.max(published);
        }
        (acks, epoch)
    }

    /// One shard's slice to each of its replicas in turn: the first
    /// successful replica's acks and the largest epoch a replica
    /// published (0 when none did).
    fn ship_to(&self, set: &ReplicaSet, ops: &[RoutedOp]) -> (Vec<bool>, u64) {
        let (mut shard_acks, mut epoch): (Option<Vec<bool>>, u64) = (None, 0);
        for transport in &set.transports {
            match transport.apply(ops) {
                Ok(outcome) => {
                    epoch = epoch.max(outcome.epoch);
                    if shard_acks.is_none() {
                        let mut results = outcome.results;
                        // Defensive against a short remote ack vector: a
                        // missing ack reads as "not applied".
                        results.resize(ops.len(), false);
                        shard_acks = Some(results);
                    }
                }
                Err(_) => {
                    self.faultc.shard_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        (shard_acks.unwrap_or_else(|| vec![false; ops.len()]), epoch)
    }
}

/// Reconstructs the receipt's `(applied, rejected)` and the replication
/// gauges from the acks. The per-shard counts stay exact under partial
/// failure (they track actual acks — what the degraded-answer bound
/// needs); the global trajectory/boundary figures are exact whenever
/// every owner acked, which is always the case in-process.
fn reconcile(
    placements: Vec<Placed>,
    acks: &[Vec<bool>],
    replication: &mut ReplicationStats,
) -> (usize, usize) {
    let acked = |slots: &[(usize, usize)]| -> Vec<usize> {
        slots
            .iter()
            .filter(|&&(s, i)| acks[s][i])
            .map(|&(s, _)| s)
            .collect()
    };
    let mut applied = 0usize;
    for placed in &placements {
        match placed {
            Placed::Rejected => {}
            Placed::Add(slots) => {
                let acked = acked(slots);
                if !acked.is_empty() && acked.len() == slots.len() {
                    applied += 1;
                }
                if !acked.is_empty() {
                    replication.trajectories += 1;
                    replication.replicas += acked.len();
                    if acked.len() >= 2 {
                        replication.boundary += 1;
                    }
                    for s in acked {
                        replication.per_shard[s] += 1;
                    }
                }
            }
            Placed::Remove(slots) => {
                let acked = acked(slots);
                if !acked.is_empty() {
                    applied += 1;
                    // Saturating: a remote-connected router seeds the
                    // global gauges from hello handshakes, which carry
                    // per-shard live counts but not the boundary
                    // split — removing a cross-shard trajectory must
                    // not underflow the best-effort figures.
                    let r = &mut *replication;
                    r.trajectories = r.trajectories.saturating_sub(1);
                    r.replicas = r.replicas.saturating_sub(acked.len());
                    if acked.len() >= 2 {
                        r.boundary = r.boundary.saturating_sub(1);
                    }
                    for s in acked {
                        r.per_shard[s] = r.per_shard[s].saturating_sub(1);
                    }
                }
            }
            Placed::Site(s, i) => applied += usize::from(acks[*s][*i]),
        }
    }
    (applied, placements.len() - applied)
}
