//! Dynamic updates of the NetClus index (paper Sec. 6).
//!
//! The index absorbs additions/removals of candidate sites and trajectories
//! without rebuilding — the road network itself is assumed fixed, as in the
//! paper. Every operation is applied to **all** index instances:
//!
//! * **Site added** — flag the node, and re-elect the representative of its
//!   cluster: the new site wins if it is the member site nearest the center.
//! * **Site removed** — unflag; if it was a cluster representative, elect a
//!   replacement among the remaining member sites.
//! * **Trajectory added** — map the node sequence to its compressed cluster
//!   sequence per instance (`CC`), append to the affected `T L(g)` lists.
//! * **Trajectory removed** — map it again (the node → cluster maps never
//!   change, so this is the `CC` its addition used) and drop it from the
//!   `T L(g)` of every cluster in it.
//!
//! A representative is the member site nearest its cluster's center, a
//! function of the sites alone, so only a site update moves one.
//!
//! An edited `T L(g)` is a new list; every list an update does not touch
//! stays shared with the clones of the index it was cloned from, so a
//! published epoch costs what its batch edits, not a copy of the index.
//!
//! The caller keeps the companion [`TrajectorySet`] in sync: add there
//! first to obtain the id; remove there first to obtain the trajectory
//! [`NetClusIndex::remove_trajectory`] takes. `tests/` verify that an
//! updated index is observationally identical to a fresh rebuild.

use netclus_roadnet::NodeId;
#[cfg(doc)]
use netclus_trajectory::TrajectorySet;
use netclus_trajectory::{TrajId, Trajectory};

use crate::cluster::choose_representative;
use crate::index::NetClusIndex;

impl NetClusIndex {
    /// Registers `v` (an existing network vertex) as a candidate site.
    /// Returns false if it was already a site.
    pub fn add_site(&mut self, v: NodeId) -> bool {
        assert!(
            v.index() < self.is_site.len(),
            "site {v:?} beyond network size; extend the network offline (Sec. 2 augmentation)"
        );
        if self.is_site[v.index()] {
            return false;
        }
        self.is_site[v.index()] = true;
        for inst in &mut self.instances {
            let ci = inst.node_cluster[v.index()] as usize;
            choose_representative(&mut inst.clusters[ci], &self.is_site);
        }
        true
    }

    /// Removes `v` from the candidate sites. Returns false if it was not a
    /// site.
    pub fn remove_site(&mut self, v: NodeId) -> bool {
        assert!(v.index() < self.is_site.len(), "unknown node {v:?}");
        if !self.is_site[v.index()] {
            return false;
        }
        self.is_site[v.index()] = false;
        for inst in &mut self.instances {
            let ci = inst.node_cluster[v.index()] as usize;
            let cluster = &mut inst.clusters[ci];
            if cluster.representative == Some(v) {
                choose_representative(cluster, &self.is_site);
            }
        }
        true
    }

    /// Indexes a newly added trajectory. `id` must be the id returned by
    /// the companion [`TrajectorySet::add`] call.
    pub fn add_trajectory(&mut self, id: TrajId, traj: &Trajectory) {
        self.add_trajectories(std::iter::once((id, traj)));
    }

    /// Un-indexes a removed trajectory: `traj` is what the companion
    /// [`TrajectorySet::remove`] returned for `id`. A no-op for a
    /// trajectory that was never indexed under `id`.
    pub fn remove_trajectory(&mut self, id: TrajId, traj: &Trajectory) {
        for inst in &mut self.instances {
            inst.remove_trajectory(id, traj);
        }
    }

    /// Applies a batch of trajectory additions (paper Sec. 6 notes batches
    /// are more efficient; here every touched `T L(g)` is rebuilt once per
    /// batch).
    pub fn add_trajectories<'a, I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (TrajId, &'a Trajectory)> + Clone,
    {
        for inst in &mut self.instances {
            inst.add_trajectories(batch.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{NetClusConfig, NetClusIndex};
    use crate::query::TopsQuery;
    use netclus_roadnet::{Point, RoadNetwork, RoadNetworkBuilder};
    use netclus_trajectory::TrajectorySet;

    fn fixture() -> (RoadNetwork, TrajectorySet) {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..16 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..15u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        for s in [0u32, 4, 9] {
            trajs.add(Trajectory::new((s..s + 5).map(NodeId).collect()));
        }
        (net, trajs)
    }

    fn config() -> NetClusConfig {
        NetClusConfig {
            tau_min: 200.0,
            tau_max: 2_000.0,
            threads: 1,
            ..Default::default()
        }
    }

    /// Updated index must equal a fresh rebuild, observationally: same
    /// trajectory lists (as sets) and same representatives.
    fn assert_equivalent(updated: &NetClusIndex, rebuilt: &NetClusIndex) {
        assert_eq!(updated.instances().len(), rebuilt.instances().len());
        for (a, b) in updated.instances().iter().zip(rebuilt.instances()) {
            assert_eq!(a.cluster_count(), b.cluster_count());
            for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
                assert_eq!(ca.center, cb.center);
                assert_eq!(ca.representative, cb.representative);
                assert_eq!(ca.rep_distance, cb.rep_distance);
                let mut la: Vec<_> = ca
                    .traj_list
                    .iter()
                    .map(|&(t, d)| (t, d.to_bits()))
                    .collect();
                let mut lb: Vec<_> = cb
                    .traj_list
                    .iter()
                    .map(|&(t, d)| (t, d.to_bits()))
                    .collect();
                la.sort_unstable();
                lb.sort_unstable();
                assert_eq!(la, lb, "TL mismatch at center {:?}", ca.center);
            }
        }
    }

    #[test]
    fn add_trajectory_equals_rebuild() {
        let (net, mut trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        let t_new = Trajectory::new((11..16).map(NodeId).collect());
        let id = trajs.add(t_new.clone());
        idx.add_trajectory(id, &t_new);
        let rebuilt = NetClusIndex::build(&net, &trajs, &sites, config());
        assert_equivalent(&idx, &rebuilt);
    }

    #[test]
    fn remove_trajectory_equals_rebuild() {
        let (net, mut trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        let removed = trajs.remove(TrajId(1)).unwrap();
        idx.remove_trajectory(TrajId(1), &removed);
        let rebuilt = NetClusIndex::build(&net, &trajs, &sites, config());
        assert_equivalent(&idx, &rebuilt);
        // Removing again is a no-op.
        idx.remove_trajectory(TrajId(1), &removed);
        assert_equivalent(&idx, &rebuilt);
    }

    #[test]
    fn add_site_equals_rebuild() {
        let (net, trajs) = fixture();
        let initial = vec![NodeId(3)];
        let mut idx = NetClusIndex::build(&net, &trajs, &initial, config());
        assert!(idx.add_site(NodeId(8)));
        assert!(!idx.add_site(NodeId(8)), "double add must be no-op");
        let rebuilt = NetClusIndex::build(&net, &trajs, &[NodeId(3), NodeId(8)], config());
        assert_equivalent(&idx, &rebuilt);
        assert_eq!(idx.site_count(), 2);
    }

    #[test]
    fn remove_site_reelects_representative() {
        let (net, trajs) = fixture();
        let sites = vec![NodeId(3), NodeId(4)];
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        assert!(idx.remove_site(NodeId(3)));
        assert!(!idx.remove_site(NodeId(3)));
        let rebuilt = NetClusIndex::build(&net, &trajs, &[NodeId(4)], config());
        assert_equivalent(&idx, &rebuilt);
    }

    #[test]
    fn removing_last_site_leaves_clusters_without_rep() {
        let (net, trajs) = fixture();
        let sites = vec![NodeId(5)];
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        idx.remove_site(NodeId(5));
        assert_eq!(idx.site_count(), 0);
        for inst in idx.instances() {
            assert!(inst.clusters.iter().all(|c| c.representative.is_none()));
        }
    }

    #[test]
    fn updates_affect_query_results() {
        let (net, mut trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        let q = TopsQuery::binary(1, 400.0);
        let before = idx.query(&trajs, &q);
        // Flood one far corner with trajectories: the best site must move.
        let mut batch = Vec::new();
        for _ in 0..10 {
            let t = Trajectory::new(vec![NodeId(14), NodeId(15)]);
            let id = trajs.add(t.clone());
            batch.push((id, t));
        }
        idx.add_trajectories(batch.iter().map(|(id, t)| (*id, t)));
        let after = idx.query(&trajs, &q);
        assert!(after.solution.utility > before.solution.utility);
        let best = after.solution.sites[0];
        assert!(best.0 >= 12, "best site {best:?} ignores the new demand");
    }

    #[test]
    fn batch_add_equals_sequential_adds() {
        let (net, mut trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut idx_batch = NetClusIndex::build(&net, &trajs, &sites, config());
        let mut idx_seq = idx_batch.clone();
        let mut batch = Vec::new();
        for s in [1u32, 6, 10] {
            let t = Trajectory::new((s..s + 4).map(NodeId).collect());
            let id = trajs.add(t.clone());
            batch.push((id, t));
        }
        for (id, t) in &batch {
            idx_seq.add_trajectory(*id, t);
        }
        idx_batch.add_trajectories(batch.iter().map(|(id, t)| (*id, t)));
        assert_equivalent(&idx_batch, &idx_seq);
    }

    #[test]
    #[should_panic(expected = "beyond network size")]
    fn add_site_outside_network_panics() {
        let (net, trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        idx.add_site(NodeId(99));
    }
}
