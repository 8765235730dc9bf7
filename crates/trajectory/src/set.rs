//! Trajectory collections with a node → trajectories inverted index.
//!
//! Inc-Greedy's exact coverage needs "which trajectories pass through node
//! `v`" in O(answer): the core crate's `DetourEngine` reads it at every node
//! of a site's detour ball to build the site's `TC` row. [`TrajectorySet`]
//! maintains that inverted index and supports the dynamic trajectory
//! additions/removals of paper Sec. 6. The NetClus cluster lists `T L(g)`
//! do not read it: the core crate's `map_trajectory` builds them from each
//! trajectory's own node sequence.

use std::sync::Arc;

use netclus_roadnet::{NodeId, RoadNetwork};

use crate::trajectory::{TrajId, Trajectory};

/// A mutable collection of trajectories over one road network.
///
/// Removed trajectories leave a tombstone (ids stay stable); the inverted
/// index is updated eagerly on both insertion and removal.
///
/// Trajectories and node buckets are reference-counted: a clone shares
/// them all, and an edit copies only the buckets it changes, so the next
/// epoch of a served corpus costs what its batch edits.
#[derive(Clone, Debug, Default)]
pub struct TrajectorySet {
    trajs: Vec<Option<Arc<Trajectory>>>,
    /// Inverted index: for each node, the ids of live trajectories whose
    /// node sequence contains it (each id listed once per node).
    node_index: Vec<Arc<Vec<TrajId>>>,
    live: usize,
}

impl TrajectorySet {
    /// Creates an empty set for a network of `node_count` vertices.
    pub fn new(node_count: usize) -> Self {
        TrajectorySet {
            trajs: Vec::new(),
            node_index: vec![Arc::default(); node_count],
            live: 0,
        }
    }

    /// Convenience constructor sized for `net`.
    pub fn for_network(net: &RoadNetwork) -> Self {
        Self::new(net.node_count())
    }

    /// Builds a set from an iterator of trajectories.
    pub fn from_trajectories<I>(node_count: usize, trajs: I) -> Self
    where
        I: IntoIterator<Item = Trajectory>,
    {
        let mut set = Self::new(node_count);
        for t in trajs {
            set.add(t);
        }
        set
    }

    /// Adds a trajectory, returning its stable id.
    pub fn add(&mut self, traj: Trajectory) -> TrajId {
        let id = TrajId::from_index(self.trajs.len());
        self.index_nodes(id, &traj);
        self.trajs.push(Some(Arc::new(traj)));
        self.live += 1;
        id
    }

    /// Inserts a trajectory under an explicit id, padding the id space with
    /// tombstones if `id` lies beyond the current bound. Returns `false`
    /// (and changes nothing) if the slot is already occupied by a live
    /// trajectory.
    ///
    /// This is the sharded-serving write path: a router assigns one global
    /// id per trajectory and replays it into every owning shard's set, so
    /// coverage rows from different shards stay keyed by the same ids.
    pub fn insert_at(&mut self, id: TrajId, traj: Trajectory) -> bool {
        if id.index() < self.trajs.len() {
            if self.trajs[id.index()].is_some() {
                return false;
            }
        } else {
            self.trajs.resize_with(id.index() + 1, || None);
        }
        self.index_nodes(id, &traj);
        self.trajs[id.index()] = Some(Arc::new(traj));
        self.live += 1;
        true
    }

    /// Pads the id space with tombstones until [`TrajectorySet::id_bound`]
    /// is at least `bound`. A no-op when the bound is already reached.
    ///
    /// A shard replica rebuilding its corpus from a resync snapshot uses
    /// this to reproduce the source's exact id bound: the highest live id
    /// on one shard can sit below tombstones left by removes, and the
    /// round-2 merge arena is sized by the max bound across shards — so
    /// the bound is part of the replicated state, not derivable from the
    /// live trajectories alone.
    pub fn align_id_bound(&mut self, bound: usize) {
        if bound > self.trajs.len() {
            self.trajs.resize_with(bound, || None);
        }
    }

    /// The id-preserving subset containing exactly the live trajectories
    /// `keep` accepts: kept trajectories retain their ids (dropped ones
    /// become tombstones), so `id_bound` — and with it every id-indexed
    /// array — matches the parent set. This is how per-shard corpus views
    /// are carved out of a global corpus. The subset shares the parent's
    /// trajectories.
    pub fn subset_where<F>(&self, mut keep: F) -> TrajectorySet
    where
        F: FnMut(TrajId, &Trajectory) -> bool,
    {
        let mut out = TrajectorySet::new(self.node_index.len());
        out.trajs.reserve(self.trajs.len());
        for (i, slot) in self.trajs.iter().enumerate() {
            let id = TrajId::from_index(i);
            match slot {
                Some(t) if keep(id, t) => {
                    out.index_nodes(id, t);
                    out.trajs.push(Some(Arc::clone(t)));
                    out.live += 1;
                }
                _ => out.trajs.push(None),
            }
        }
        out
    }

    /// Removes a trajectory. Returns the removed trajectory, or `None` if it
    /// was already removed or never existed.
    pub fn remove(&mut self, id: TrajId) -> Option<Trajectory> {
        let slot = self.trajs.get_mut(id.index())?;
        let traj = slot.take()?;
        self.live -= 1;
        for v in dedup_nodes(&traj) {
            let bucket = &mut self.node_index[v.index()];
            if let Some(pos) = bucket.iter().position(|&t| t == id) {
                Arc::make_mut(bucket).swap_remove(pos);
            }
        }
        Some(Arc::unwrap_or_clone(traj))
    }

    /// The trajectory with this id, if live.
    #[inline]
    pub fn get(&self, id: TrajId) -> Option<&Trajectory> {
        self.trajs.get(id.index()).and_then(|t| t.as_deref())
    }

    /// Number of live trajectories (`m` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live trajectories remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total id slots ever allocated (live + tombstoned). Useful for sizing
    /// per-trajectory arrays indexed by [`TrajId::index`].
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.trajs.len()
    }

    /// Iterates over `(id, trajectory)` for all live trajectories.
    pub fn iter(&self) -> impl Iterator<Item = (TrajId, &Trajectory)> {
        self.trajs
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_deref().map(|t| (TrajId::from_index(i), t)))
    }

    /// Ids of live trajectories passing through node `v` (each listed once).
    #[inline]
    pub fn trajectories_through(&self, v: NodeId) -> &[TrajId] {
        &self.node_index[v.index()]
    }

    /// Approximate heap footprint in bytes (trajectories + inverted index),
    /// counting each shared allocation in full: its two reference counts,
    /// the value and the value's own heap.
    pub fn heap_size_bytes(&self) -> usize {
        const SHARED: usize = 2 * std::mem::size_of::<usize>();
        let traj_bytes: usize = self
            .trajs
            .iter()
            .map(|t| {
                std::mem::size_of::<Option<Arc<Trajectory>>>()
                    + t.as_deref().map_or(0, |t| {
                        SHARED + std::mem::size_of::<Trajectory>() + t.heap_size_bytes()
                    })
            })
            .sum();
        let index_bytes: usize = self
            .node_index
            .iter()
            .map(|b| {
                std::mem::size_of::<Arc<Vec<TrajId>>>()
                    + SHARED
                    + std::mem::size_of::<Vec<TrajId>>()
                    + b.capacity() * std::mem::size_of::<TrajId>()
            })
            .sum();
        traj_bytes + index_bytes
    }
}

/// Distinct nodes of a trajectory (a node may repeat non-consecutively).
fn dedup_nodes(traj: &Trajectory) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = traj.nodes().to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

impl TrajectorySet {
    /// Indexes the distinct nodes of `traj` under `id`.
    fn index_nodes(&mut self, id: TrajId, traj: &Trajectory) {
        for v in dedup_nodes(traj) {
            assert!(
                v.index() < self.node_index.len(),
                "trajectory references node {v:?} beyond network size {}",
                self.node_index.len()
            );
            Arc::make_mut(&mut self.node_index[v.index()]).push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(nodes: &[u32]) -> Trajectory {
        Trajectory::new(nodes.iter().map(|&n| NodeId(n)).collect())
    }

    #[test]
    fn add_and_query_inverted_index() {
        let mut set = TrajectorySet::new(5);
        let t0 = set.add(t(&[0, 1, 2]));
        let t1 = set.add(t(&[2, 3]));
        assert_eq!(set.len(), 2);
        assert_eq!(set.trajectories_through(NodeId(2)), &[t0, t1]);
        assert_eq!(set.trajectories_through(NodeId(0)), &[t0]);
        assert_eq!(set.trajectories_through(NodeId(4)), &[] as &[TrajId]);
    }

    #[test]
    fn remove_updates_index_and_tombstones() {
        let mut set = TrajectorySet::new(4);
        let t0 = set.add(t(&[0, 1]));
        let t1 = set.add(t(&[1, 2]));
        let removed = set.remove(t0).unwrap();
        assert_eq!(removed.nodes(), &[NodeId(0), NodeId(1)]);
        assert_eq!(set.len(), 1);
        assert!(set.get(t0).is_none());
        assert!(set.get(t1).is_some());
        assert_eq!(set.trajectories_through(NodeId(1)), &[t1]);
        // Double remove is a no-op.
        assert!(set.remove(t0).is_none());
        assert_eq!(set.len(), 1);
        // Ids remain stable after removal.
        let t2 = set.add(t(&[3]));
        assert_eq!(t2.index(), 2);
    }

    #[test]
    fn repeated_node_indexed_once() {
        let mut set = TrajectorySet::new(3);
        // Node 1 appears twice, non-consecutively.
        let id = set.add(t(&[1, 2, 1]));
        assert_eq!(set.trajectories_through(NodeId(1)), &[id]);
        set.remove(id);
        assert!(set.trajectories_through(NodeId(1)).is_empty());
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut set = TrajectorySet::new(3);
        let a = set.add(t(&[0]));
        let b = set.add(t(&[1]));
        set.remove(a);
        let ids: Vec<TrajId> = set.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![b]);
        assert_eq!(set.id_bound(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond network size")]
    fn out_of_range_node_panics() {
        let mut set = TrajectorySet::new(2);
        set.add(t(&[5]));
    }

    #[test]
    fn insert_at_pads_and_preserves_ids() {
        let mut set = TrajectorySet::new(6);
        assert!(set.insert_at(TrajId(3), t(&[0, 1])));
        assert_eq!(set.id_bound(), 4);
        assert_eq!(set.len(), 1);
        assert!(set.get(TrajId(0)).is_none());
        assert_eq!(set.trajectories_through(NodeId(1)), &[TrajId(3)]);
        // Occupied slot refuses.
        assert!(!set.insert_at(TrajId(3), t(&[2])));
        assert_eq!(set.len(), 1);
        // A tombstoned gap slot accepts later.
        assert!(set.insert_at(TrajId(1), t(&[4])));
        assert_eq!(set.trajectories_through(NodeId(4)), &[TrajId(1)]);
        // `add` continues after the padded bound.
        assert_eq!(set.add(t(&[5])), TrajId(4));
    }

    #[test]
    fn edits_on_a_clone_leave_the_original_alone() {
        let mut set = TrajectorySet::new(4);
        let a = set.add(t(&[0, 1]));
        let b = set.add(t(&[1, 2]));
        let mut copy = set.clone();
        assert_eq!(copy.remove(a).unwrap().nodes(), &[NodeId(0), NodeId(1)]);
        let c = copy.add(t(&[2, 3]));
        assert!(copy.insert_at(TrajId(5), t(&[1])));
        // The original: both trajectories, its buckets and its bound.
        assert_eq!((set.len(), set.id_bound()), (2, 2));
        assert_eq!(set.get(a).unwrap().nodes(), &[NodeId(0), NodeId(1)]);
        assert_eq!(set.trajectories_through(NodeId(1)), &[a, b]);
        assert_eq!(set.trajectories_through(NodeId(2)), &[b]);
        assert!(set.trajectories_through(NodeId(3)).is_empty());
        // The copy: its own edits only.
        assert_eq!((copy.len(), copy.id_bound()), (3, 6));
        assert_eq!(copy.trajectories_through(NodeId(1)), &[b, TrajId(5)]);
        assert_eq!(copy.trajectories_through(NodeId(2)), &[b, c]);
        assert!(copy.trajectories_through(NodeId(0)).is_empty());
    }

    #[test]
    fn subset_preserves_ids_and_bound() {
        let mut set = TrajectorySet::new(5);
        let a = set.add(t(&[0, 1]));
        let b = set.add(t(&[1, 2]));
        let c = set.add(t(&[3, 4]));
        set.remove(b);
        let sub = set.subset_where(|id, _| id != a);
        assert_eq!(sub.id_bound(), set.id_bound());
        assert_eq!(sub.len(), 1);
        assert!(sub.get(a).is_none());
        assert!(sub.get(b).is_none());
        assert_eq!(sub.get(c).unwrap().nodes(), set.get(c).unwrap().nodes());
        assert_eq!(sub.trajectories_through(NodeId(1)), &[] as &[TrajId]);
        assert_eq!(sub.trajectories_through(NodeId(3)), &[c]);
        // Ids allocated after the subset stay aligned with the parent.
        let mut sub = sub;
        assert_eq!(sub.add(t(&[0])), TrajId(3));
    }
}
