//! Epoch-based snapshot store: readers never block, writers publish
//! atomically.
//!
//! The paper's dynamic-update machinery (Sec. 6) mutates the index in
//! place, which is fine for a single-threaded harness but unusable under
//! concurrent queries. Here the index and corpus are immutable behind an
//! [`Arc`]; a writer clones them, applies a whole `UpdateBatch` to the
//! private copy, and publishes the result as the next [`Snapshot`] with a
//! single pointer swap. The clone copies no list: cluster geometry, every
//! `T L(g)` list, every trajectory and every node bucket are shared
//! between epochs, and an op replaces only the lists it edits (the road
//! network itself is fixed, as in the paper, and shared whole). Readers
//! pin a snapshot with one `Arc` clone and keep answering from it even
//! while newer epochs are published — every answer is therefore
//! internally consistent with exactly one epoch, never a torn mix of two.
//! A replaced epoch is freed by whoever drops its last pin, never under
//! the store's lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use netclus::NetClusIndex;
use netclus_roadnet::NodeId;
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};

/// One immutable published state of the service: the road network, the
/// trajectory corpus and the NetClus index, all as of one epoch.
#[derive(Clone, Debug)]
pub struct Snapshot {
    epoch: u64,
    net: Arc<netclus_roadnet::RoadNetwork>,
    trajs: Arc<TrajectorySet>,
    index: Arc<NetClusIndex>,
    delta: Option<TrajectoryDelta>,
}

/// How a snapshot's corpus differs from its predecessor's (one epoch
/// earlier) when the batch that published it applied no site op: what a
/// cache needs to carry rows across the publish
/// ([`netclus::ProviderRows::patch`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct TrajectoryDelta {
    /// Ids the batch added and did not remove again, in batch order.
    pub added: Vec<TrajId>,
    /// Ids the batch removed that were live before it, in batch order.
    pub removed: Vec<TrajId>,
}

impl Snapshot {
    /// The epoch this snapshot was published under (0 = initial state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The (fixed) road network.
    pub fn net(&self) -> &netclus_roadnet::RoadNetwork {
        &self.net
    }

    /// A shared handle to the (fixed) road network. The network never
    /// changes across epochs, so long-lived holders (e.g. the ingest
    /// pipeline's map-match workers) can keep this without pinning a whole
    /// snapshot — and with it an old trajectory corpus — alive.
    pub(crate) fn net_shared(&self) -> Arc<netclus_roadnet::RoadNetwork> {
        Arc::clone(&self.net)
    }

    /// The trajectory corpus as of this epoch.
    pub fn trajs(&self) -> &TrajectorySet {
        &self.trajs
    }

    /// The NetClus index as of this epoch.
    pub fn index(&self) -> &NetClusIndex {
        &self.index
    }

    /// The trajectory adds and removes that turned the previous epoch's
    /// state into this one — `None` for epoch 0, an installed snapshot
    /// and a batch that applied a site op.
    pub(crate) fn trajectory_delta(&self) -> Option<&TrajectoryDelta> {
        self.delta.as_ref()
    }
}

/// One mutation of the served state.
#[derive(Clone, Debug)]
pub enum UpdateOp {
    /// Adds a trajectory to the corpus and indexes it (paper Sec. 6.1).
    AddTrajectory(Trajectory),
    /// Removes a trajectory by id; a no-op if the id is dead or unknown.
    RemoveTrajectory(TrajId),
    /// Flags an existing network vertex as a candidate site (Sec. 6.2).
    AddSite(NodeId),
    /// Unflags a candidate site; a no-op if it was not one.
    RemoveSite(NodeId),
}

/// A batch of updates applied and published as one epoch.
pub(crate) type UpdateBatch = Vec<UpdateOp>;

/// A shard-routed update operation: like [`UpdateOp`], but trajectory
/// additions carry an explicit, router-assigned **global** id. A shard
/// only receives the trajectories that touch it, so its local id sequence
/// has gaps — the explicit id (applied via
/// [`TrajectorySet::insert_at`]) keeps every shard's id space aligned
/// with the global one, which is what lets round-2 merges mix coverage
/// rows from different shards.
#[derive(Clone, Debug, PartialEq)]
pub enum RoutedOp {
    /// Adds a trajectory under a pre-assigned global id.
    AddTrajectoryAt(TrajId, Trajectory),
    /// Removes a trajectory by id; a no-op if dead or unknown.
    RemoveTrajectory(TrajId),
    /// Flags an existing network vertex as a candidate site.
    AddSite(NodeId),
    /// Unflags a candidate site.
    RemoveSite(NodeId),
}

/// What a published batch did.
#[derive(Clone, Copy, Debug)]
pub struct UpdateReceipt {
    /// The epoch the batch was published under.
    pub epoch: u64,
    /// Operations that changed state.
    pub applied: usize,
    /// Operations rejected or no-ops (out-of-network site, dead id,
    /// double add/remove).
    pub rejected: usize,
}

/// The `Arc`-swapped store. `load` is wait-free for practical purposes (a
/// read-lock held only for one `Arc` clone); writers serialize among
/// themselves and never block readers while rebuilding. The published
/// epoch is also kept in an atomic, so [`SnapshotStore::epoch`] takes no
/// lock and touches no reference count.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
    /// `current`'s epoch, stored while the write lock is held.
    live_epoch: AtomicU64,
    /// Serializes writers so batches publish in a total epoch order.
    writer: Mutex<()>,
}

impl SnapshotStore {
    /// Creates a store publishing `(net, trajs, index)` as epoch 0.
    pub fn new(
        net: netclus_roadnet::RoadNetwork,
        trajs: TrajectorySet,
        index: NetClusIndex,
    ) -> Self {
        Self::with_shared_net(Arc::new(net), trajs, index)
    }

    /// [`SnapshotStore::new`] over an already-shared road network — the
    /// sharded-serving constructor, where every per-shard store serves the
    /// same full network without duplicating it.
    pub fn with_shared_net(
        net: Arc<netclus_roadnet::RoadNetwork>,
        trajs: TrajectorySet,
        index: NetClusIndex,
    ) -> Self {
        let snapshot = Snapshot {
            epoch: 0,
            net,
            trajs: Arc::new(trajs),
            index: Arc::new(index),
            delta: None,
        };
        SnapshotStore {
            current: RwLock::new(Arc::new(snapshot)),
            live_epoch: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// Pins the current snapshot. The returned `Arc` stays valid (and
    /// internally consistent) however many epochs are published after it.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// The currently published epoch: a snapshot loaded after this call
    /// is at this epoch or a later one.
    pub fn epoch(&self) -> u64 {
        self.live_epoch.load(Ordering::Acquire)
    }

    /// Applies `batch` to a private copy of the current state and publishes
    /// it as the next epoch. Readers keep answering from older pinned
    /// snapshots until they next call [`SnapshotStore::load`].
    ///
    /// An empty batch still publishes a new (identical) epoch, which can be
    /// used to force cache invalidation.
    pub fn apply(&self, batch: &[UpdateOp]) -> UpdateReceipt {
        self.apply_with(batch.iter().map(|op| match op {
            UpdateOp::AddTrajectory(t) => GenericOp::AddTrajectory(None, t),
            UpdateOp::RemoveTrajectory(id) => GenericOp::RemoveTrajectory(*id),
            UpdateOp::AddSite(v) => GenericOp::AddSite(*v),
            UpdateOp::RemoveSite(v) => GenericOp::RemoveSite(*v),
        }))
        .0
    }

    /// The shard-routed variant of [`SnapshotStore::apply`]: trajectory
    /// additions land under their pre-assigned global ids. An empty batch
    /// still publishes a new epoch — the shard router leans on this to
    /// keep every shard store's epoch in lockstep even when a batch
    /// touches only some shards.
    pub fn apply_routed(&self, ops: &[RoutedOp]) -> UpdateReceipt {
        self.apply_routed_results(ops).0
    }

    /// Like [`SnapshotStore::apply_routed`], additionally returning the
    /// per-op outcome (`true` = applied) in batch order. The shard-server
    /// protocol ships these acks back so a remote router can reconstruct
    /// exact receipts and replication bookkeeping without a second round
    /// trip.
    pub(crate) fn apply_routed_results(&self, ops: &[RoutedOp]) -> (UpdateReceipt, Vec<bool>) {
        self.apply_with(ops.iter().map(|op| match op {
            RoutedOp::AddTrajectoryAt(id, t) => GenericOp::AddTrajectory(Some(*id), t),
            RoutedOp::RemoveTrajectory(id) => GenericOp::RemoveTrajectory(*id),
            RoutedOp::AddSite(v) => GenericOp::AddSite(*v),
            RoutedOp::RemoveSite(v) => GenericOp::RemoveSite(*v),
        }))
    }

    /// Replaces the published state wholesale with `(trajs, index)` at
    /// exactly `epoch` — the resync catch-up path, where a lagging or
    /// restarted replica installs a snapshot transferred from a healthy
    /// sibling instead of replaying the update batches it missed. The
    /// road network is fixed across epochs and is carried over from the
    /// current snapshot. Readers holding older pinned snapshots are
    /// unaffected; the next [`SnapshotStore::load`] sees the new state.
    pub fn install(&self, epoch: u64, trajs: TrajectorySet, index: NetClusIndex) {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.load();
        self.publish(Snapshot {
            epoch,
            net: Arc::clone(&base.net),
            trajs: Arc::new(trajs),
            index: Arc::new(index),
            delta: None,
        });
    }

    /// Swaps `next` in as the current snapshot. The replaced one is
    /// dropped after the lock is released, so freeing an unpinned epoch
    /// never stalls a [`SnapshotStore::load`].
    fn publish(&self, next: Snapshot) {
        let epoch = next.epoch;
        let mut current = self.current.write().expect("snapshot lock poisoned");
        let old = std::mem::replace(&mut *current, Arc::new(next));
        self.live_epoch.store(epoch, Ordering::Release);
        drop(current);
        drop(old);
    }

    /// The single writer path behind [`SnapshotStore::apply`] and
    /// [`SnapshotStore::apply_routed`]: copy-on-write clone (reference
    /// counts only), sequential op application, atomic publish of the next
    /// epoch with the batch's net [`TrajectoryDelta`] (none once a site op
    /// applied).
    fn apply_with<'a, I>(&self, ops: I) -> (UpdateReceipt, Vec<bool>)
    where
        I: Iterator<Item = GenericOp<'a>>,
    {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.load();
        // Private copies sharing every list with `base`; the network is
        // fixed and shared.
        let mut trajs = (*base.trajs).clone();
        let mut index = (*base.index).clone();
        let mut applied = 0usize;
        let mut rejected = 0usize;
        let mut results = Vec::new();
        let mut delta = Some(TrajectoryDelta::default());
        for op in ops {
            let site_op = matches!(op, GenericOp::AddSite(_) | GenericOp::RemoveSite(_));
            let ok = match op {
                GenericOp::AddTrajectory(id, t) => {
                    if t.nodes().iter().any(|v| v.index() >= base.net.node_count()) {
                        false
                    } else {
                        // Router-assigned global id: refuse occupied slots
                        // instead of silently relabeling.
                        let id = match id {
                            Some(id) => trajs.insert_at(id, t.clone()).then_some(id),
                            None => Some(trajs.add(t.clone())),
                        };
                        if let Some(id) = id {
                            index.add_trajectory(id, t);
                            if let Some(delta) = &mut delta {
                                delta.added.push(id);
                            }
                        }
                        id.is_some()
                    }
                }
                GenericOp::RemoveTrajectory(id) => match trajs.remove(id) {
                    Some(t) => {
                        index.remove_trajectory(id, &t);
                        if let Some(delta) = &mut delta {
                            // An id this batch added leaves no trace;
                            // any other was live before the batch.
                            match delta.added.iter().position(|&a| a == id) {
                                Some(pos) => {
                                    delta.added.remove(pos);
                                }
                                None => delta.removed.push(id),
                            }
                        }
                        true
                    }
                    None => false,
                },
                GenericOp::AddSite(v) => {
                    v.index() < base.net.node_count() && index.add_site(&trajs, v)
                }
                GenericOp::RemoveSite(v) => {
                    v.index() < base.net.node_count() && index.remove_site(&trajs, v)
                }
            };
            if ok && site_op {
                delta = None;
            }
            results.push(ok);
            if ok {
                applied += 1;
            } else {
                rejected += 1;
            }
        }
        let epoch = base.epoch + 1;
        self.publish(Snapshot {
            epoch,
            net: Arc::clone(&base.net),
            trajs: Arc::new(trajs),
            index: Arc::new(index),
            delta,
        });
        (
            UpdateReceipt {
                epoch,
                applied,
                rejected,
            },
            results,
        )
    }
}

/// Where an update publisher (the ingest pipeline) lands its batches: a
/// monolithic [`SnapshotStore`] or a replicated
/// [`crate::shard_router::ShardRouter`] fanning every batch out to every
/// replica of every shard. The publisher's contract is identical over
/// both: batches publish sequential epochs, trajectory ids are dense and
/// predictable from `traj_id_bound`, and the road network is fixed.
pub trait UpdateSink: Send + Sync {
    /// The currently published (for a router: lockstep) epoch.
    fn sink_epoch(&self) -> u64;
    /// The shared, epoch-invariant road network new batches are matched
    /// and validated against.
    fn sink_net(&self) -> Arc<netclus_roadnet::RoadNetwork>;
    /// The current trajectory id bound — the next dense id a publisher's
    /// id prediction will assign.
    fn sink_traj_id_bound(&self) -> usize;
    /// Applies `ops` as one batch publishing the next epoch.
    fn apply_batch(&self, ops: &[UpdateOp]) -> UpdateReceipt;
}

impl UpdateSink for SnapshotStore {
    fn sink_epoch(&self) -> u64 {
        self.epoch()
    }

    fn sink_net(&self) -> Arc<netclus_roadnet::RoadNetwork> {
        self.load().net_shared()
    }

    fn sink_traj_id_bound(&self) -> usize {
        self.load().trajs().id_bound()
    }

    fn apply_batch(&self, ops: &[UpdateOp]) -> UpdateReceipt {
        self.apply(ops)
    }
}

/// The union of [`UpdateOp`] and [`RoutedOp`] the single writer path works
/// on: a trajectory add either predicts the next dense id (`None`) or
/// carries a router-assigned one (`Some`).
enum GenericOp<'a> {
    AddTrajectory(Option<TrajId>, &'a Trajectory),
    RemoveTrajectory(TrajId),
    AddSite(NodeId),
    RemoveSite(NodeId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus::prelude::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};

    fn fixture() -> SnapshotStore {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..10 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..9u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        trajs.add(Trajectory::new((0..5).map(NodeId).collect()));
        let sites: Vec<NodeId> = net.nodes().collect();
        let index = NetClusIndex::build(
            &net,
            &trajs,
            &sites,
            NetClusConfig {
                tau_min: 200.0,
                tau_max: 2_000.0,
                threads: 1,
                ..Default::default()
            },
        );
        SnapshotStore::new(net, trajs, index)
    }

    #[test]
    fn epochs_advance_and_old_snapshots_stay_pinned() {
        let store = fixture();
        let pinned = store.load();
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.trajs().len(), 1);

        let r = store.apply(&[UpdateOp::AddTrajectory(Trajectory::new(
            (5..9).map(NodeId).collect(),
        ))]);
        assert_eq!(r.epoch, 1);
        assert_eq!((r.applied, r.rejected), (1, 0));

        // The pinned snapshot is untouched; a fresh load sees the new epoch.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.trajs().len(), 1);
        let fresh = store.load();
        assert_eq!(fresh.epoch(), 1);
        assert_eq!(fresh.trajs().len(), 2);
    }

    /// A published epoch records the batch's net trajectory delta: an id
    /// added and removed in the batch leaves no trace, a remove of a live
    /// id stays, rejected ops record nothing — and a site op that applied
    /// (unlike one that was rejected) records none at all.
    #[test]
    fn a_batch_records_its_net_trajectory_delta() {
        let store = fixture();
        assert!(store.load().trajectory_delta().is_none(), "epoch 0");
        let walk = |from: u32| {
            UpdateOp::AddTrajectory(Trajectory::new(vec![NodeId(from), NodeId(from + 1)]))
        };
        store.apply(&[
            walk(1),
            walk(4),
            UpdateOp::RemoveTrajectory(TrajId(1)),
            UpdateOp::RemoveTrajectory(TrajId(0)),
            UpdateOp::RemoveTrajectory(TrajId(9)),
            UpdateOp::AddSite(NodeId(3)),
        ]);
        let delta = store
            .load()
            .trajectory_delta()
            .cloned()
            .expect("no site op applied");
        assert_eq!(delta.added, vec![TrajId(2)]);
        assert_eq!(delta.removed, vec![TrajId(0)]);
        store.apply(&[walk(6), UpdateOp::RemoveSite(NodeId(2))]);
        assert!(
            store.load().trajectory_delta().is_none(),
            "a site op applied"
        );
        store.apply(&[]);
        let empty = store
            .load()
            .trajectory_delta()
            .cloned()
            .expect("an empty batch");
        assert!(empty.added.is_empty() && empty.removed.is_empty());
    }

    #[test]
    fn rejected_ops_are_counted_not_applied() {
        let store = fixture();
        let r = store.apply(&[
            UpdateOp::AddTrajectory(Trajectory::new(vec![NodeId(99)])), // off-network
            UpdateOp::RemoveTrajectory(TrajId(7)),                      // never existed
            UpdateOp::AddSite(NodeId(3)),                               // already a site
            UpdateOp::RemoveSite(NodeId(2)),                            // fine
        ]);
        assert_eq!((r.applied, r.rejected), (1, 3));
        let snap = store.load();
        assert!(!snap.index().is_site(NodeId(2)));
        assert_eq!(snap.trajs().len(), 1);
    }

    #[test]
    fn updated_snapshot_answers_match_a_fresh_rebuild() {
        let store = fixture();
        store.apply(&[
            UpdateOp::AddTrajectory(Trajectory::new((5..9).map(NodeId).collect())),
            UpdateOp::AddTrajectory(Trajectory::new((6..9).map(NodeId).collect())),
        ]);
        let snap = store.load();
        let q = TopsQuery::binary(2, 600.0);
        let served = snap.index().query(snap.trajs(), &q);

        let rebuilt = NetClusIndex::build(
            snap.net(),
            snap.trajs(),
            &snap.net().nodes().collect::<Vec<_>>(),
            *snap.index().config(),
        );
        let fresh = rebuilt.query(snap.trajs(), &q);
        assert_eq!(served.solution.sites, fresh.solution.sites);
        assert!((served.solution.utility - fresh.solution.utility).abs() < 1e-9);
    }

    #[test]
    fn apply_routed_preserves_explicit_ids() {
        let store = fixture();
        // Pretend trajectory ids 1 and 2 were assigned elsewhere; this
        // shard only receives id 2 — the id space must stay aligned.
        let r = store.apply_routed(&[RoutedOp::AddTrajectoryAt(
            TrajId(2),
            Trajectory::new((5..9).map(NodeId).collect()),
        )]);
        assert_eq!((r.applied, r.rejected), (1, 0));
        let snap = store.load();
        assert_eq!(snap.trajs().id_bound(), 3);
        assert!(snap.trajs().get(TrajId(1)).is_none());
        assert!(snap.trajs().get(TrajId(2)).is_some());
        // Occupied slot and off-network nodes are rejected.
        let r = store.apply_routed(&[
            RoutedOp::AddTrajectoryAt(TrajId(2), Trajectory::new(vec![NodeId(0)])),
            RoutedOp::AddTrajectoryAt(TrajId(5), Trajectory::new(vec![NodeId(99)])),
            RoutedOp::RemoveTrajectory(TrajId(2)),
        ]);
        assert_eq!((r.applied, r.rejected), (1, 2));
        // An empty routed batch still advances the epoch (lockstep).
        let r = store.apply_routed(&[]);
        assert_eq!(r.epoch, 3);
    }

    #[test]
    fn a_pinned_epoch_answers_bit_identically_after_publishes_that_edit_it() {
        let store = fixture();
        let pinned = store.load();
        let queries = [
            TopsQuery::binary(1, 400.0),
            TopsQuery::binary(2, 1_200.0),
            TopsQuery {
                preference: PreferenceFunction::LinearDecay,
                ..TopsQuery::binary(2, 800.0)
            },
        ];
        let answers = |snap: &Snapshot| -> Vec<(Vec<NodeId>, Vec<u64>)> {
            queries
                .iter()
                .map(|q| {
                    let s = snap.index().query(snap.trajs(), q).solution;
                    (s.sites, s.gains.iter().map(|g| g.to_bits()).collect())
                })
                .collect()
        };
        let before = answers(&pinned);
        // Every publish adds a trajectory over the pinned corpus's nodes,
        // removes the previous one (the pinned corpus's own first) and
        // removes or re-adds a site inside its clusters.
        for round in 0..8u32 {
            let start = round % 5;
            let r = store.apply(&[
                UpdateOp::AddTrajectory(Trajectory::new((start..start + 5).map(NodeId).collect())),
                UpdateOp::RemoveTrajectory(TrajId(round)),
                if round % 2 == 0 {
                    UpdateOp::RemoveSite(NodeId(round / 2))
                } else {
                    UpdateOp::AddSite(NodeId(round / 2))
                },
            ]);
            assert_eq!((r.applied, r.rejected), (3, 0), "round {round}");
        }
        let now = store.load();
        assert_eq!(now.epoch(), 8);
        assert!(now.trajs().get(TrajId(0)).is_none());
        assert_ne!(
            answers(&now),
            before,
            "the publishes changed nothing visible"
        );
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.trajs().len(), 1);
        assert!(pinned.trajs().get(TrajId(0)).is_some());
        assert_eq!(answers(&pinned), before);
    }

    #[test]
    fn empty_batch_publishes_identical_epoch() {
        let store = fixture();
        let r = store.apply(&[]);
        assert_eq!(r.epoch, 1);
        assert_eq!((r.applied, r.rejected), (0, 0));
        assert_eq!(store.load().trajs().len(), 1);
    }
}
