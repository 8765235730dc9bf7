//! Cluster index instances (paper Sec. 4.2–4.3).
//!
//! A [`ClusterInstance`] is one resolution of the NetClus index: the
//! Greedy-GDSP clusters of radius `R_p`, enriched with everything the online
//! phase needs —
//!
//! 1. cluster center `c_i`,
//! 2. cluster representative `r_i`: the member candidate site nearest
//!    `c_i`, the rule the paper adopts (Sec. 4.2),
//! 3. the trajectory list `T L(g_i)` with round-trip distances to `c_i`,
//! 4. the neighbor list `CL(g_i)`: clusters whose centers are within
//!    round-trip `4R_p(1 + γ)` (the exact bound Sec. 5.1 requires),
//! 5. member nodes with their distances to `c_i`.
//!
//! Trajectories are stored in compressed form: consecutive nodes falling in
//! the same cluster collapse into `CC(T_j)` (the cluster sequence, with one
//! entry per distinct visited cluster holding the minimal distance). `CC`
//! is not stored: the node → cluster maps never change after the build, so
//! `map_trajectory` re-derives a trajectory's row whenever an update
//! (Sec. 6) needs it.
//!
//! Every per-cluster list and both node maps are [`SharedSlice`]s, so a
//! clone of an instance — the next epoch of a served index — shares them
//! all, and an update replaces only the lists it edits.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus_roadnet::{NodeId, RoadNetwork, RoundTripEngine};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};

use crate::gdsp::GdspResult;
use crate::par;

/// An immutable slice shared by every clone that has not replaced it:
/// cloning bumps a reference count, and an edit builds a new slice. The
/// elements sit right behind the reference counts, one pointer hop from
/// the owner.
#[derive(Clone, PartialEq)]
pub struct SharedSlice<T>(Arc<[T]>);

/// Bytes of the two reference counts in front of every shared allocation.
const SHARED_HEADER: usize = 2 * std::mem::size_of::<usize>();

impl<T> SharedSlice<T> {
    /// Whether `a` and `b` are one allocation (neither was replaced since
    /// they were cloned from a common ancestor).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Heap bytes of the allocation: the reference counts plus the
    /// elements.
    pub fn heap_size_bytes(&self) -> usize {
        SHARED_HEADER + std::mem::size_of_val::<[T]>(&self.0)
    }
}

impl<T: Copy> SharedSlice<T> {
    /// A new slice of these elements followed by `items`.
    pub fn appended(&self, items: impl IntoIterator<Item = T>) -> Self {
        self.0.iter().copied().chain(items).collect()
    }

    /// A new slice of these elements without the one at `pos`.
    pub fn removed(&self, pos: usize) -> Self {
        self.0[..pos]
            .iter()
            .chain(&self.0[pos + 1..])
            .copied()
            .collect()
    }
}

impl<T> Default for SharedSlice<T> {
    fn default() -> Self {
        SharedSlice(Arc::from([]))
    }
}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<'a, T> IntoIterator for &'a SharedSlice<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<T> From<Vec<T>> for SharedSlice<T> {
    fn from(v: Vec<T>) -> Self {
        SharedSlice(Arc::from(v))
    }
}

impl<T> FromIterator<T> for SharedSlice<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        SharedSlice(iter.into_iter().collect())
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// One cluster of an index instance.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Cluster center `c_i` (a GDSP-selected vertex).
    pub center: NodeId,
    /// Cluster representative `r_i`: the designated candidate site, if the
    /// cluster contains any site.
    pub representative: Option<NodeId>,
    /// `dr(c_i, r_i)`; 0 when there is no representative.
    pub rep_distance: f64,
    /// Member vertices with `dr(v, c_i)`, ascending (center first). Fixed
    /// after the build.
    pub nodes: SharedSlice<(NodeId, f64)>,
    /// `T L(g_i)`: trajectories passing through the cluster with
    /// `dr(T_j, c_i)` (minimum over their member nodes). An update that
    /// adds or removes one of them replaces the whole slice; clones of the
    /// instance keep theirs.
    pub traj_list: SharedSlice<(TrajId, f64)>,
    /// `CL(g_i)`: neighbor clusters `(index, dr(c_i, c_j))`, ascending by
    /// distance; includes the cluster itself at distance 0. Fixed after
    /// the build.
    pub neighbors: SharedSlice<(u32, f64)>,
}

/// Build statistics of one instance (paper Table 11 row).
#[derive(Clone, Debug, Default)]
pub struct InstanceStats {
    /// Mean dominance-ball size over all vertices.
    pub mean_ball_size: f64,
    /// Mean `|T L(g)|`.
    pub mean_traj_list: f64,
    /// Mean `|CL(g)|` (excluding the self entry, to match the paper).
    pub mean_neighbors: f64,
    /// Wall-clock build time (clustering + enrichment).
    pub build_time: Duration,
}

/// One resolution of the NetClus index.
#[derive(Clone, Debug)]
pub struct ClusterInstance {
    /// Cluster radius `R_p`.
    pub radius: f64,
    /// Neighbor threshold `4·R_p·(1 + γ)` used to build `CL`.
    pub neighbor_limit: f64,
    /// The clusters.
    pub clusters: Vec<Cluster>,
    /// Node → cluster index. Fixed after the build.
    pub node_cluster: SharedSlice<u32>,
    /// Node → round-trip distance to its cluster center (parallel to
    /// `node_cluster`; with it, `map_trajectory` derives the `CC(T_j)`
    /// an added or removed trajectory edits, Sec. 6). Fixed after the
    /// build.
    pub node_center_dist: SharedSlice<f64>,
    /// Build statistics.
    pub stats: InstanceStats,
}

impl ClusterInstance {
    /// Builds an instance from a GDSP clustering.
    ///
    /// `is_site[v]` flags candidate sites; `gamma` fixes the neighbor
    /// threshold.
    pub fn build(
        net: &RoadNetwork,
        trajs: &TrajectorySet,
        is_site: &[bool],
        gdsp: &GdspResult,
        radius: f64,
        gamma: f64,
        threads: usize,
    ) -> ClusterInstance {
        assert!(gamma > 0.0, "γ must be positive, got {gamma}");
        let start = Instant::now();
        let n = net.node_count();
        let neighbor_limit = 4.0 * radius * (1.0 + gamma);

        // Skeleton clusters with members and representatives.
        let mut clusters: Vec<Cluster> = gdsp
            .clusters
            .iter()
            .map(|rc| {
                let mut c = Cluster {
                    center: rc.center,
                    representative: None,
                    rep_distance: 0.0,
                    nodes: rc.members.iter().copied().collect(),
                    traj_list: SharedSlice::default(),
                    neighbors: SharedSlice::default(),
                };
                choose_representative(&mut c, is_site);
                c
            })
            .collect();

        // Node → cluster map.
        let mut node_cluster = vec![u32::MAX; n];
        for (ci, c) in clusters.iter().enumerate() {
            for &(v, _) in &c.nodes {
                node_cluster[v.index()] = ci as u32;
            }
        }
        debug_assert!(node_cluster.iter().all(|&c| c != u32::MAX));

        // Per-node distance to its center (for trajectory mapping).
        let mut node_center_dist = vec![0.0f64; n];
        for c in &clusters {
            for &(v, d) in &c.nodes {
                node_center_dist[v.index()] = d;
            }
        }

        // Neighbor lists: centers within round-trip `neighbor_limit`.
        let centers: Vec<NodeId> = clusters.iter().map(|c| c.center).collect();
        let mut center_of: Vec<u32> = vec![u32::MAX; n];
        for (ci, &c) in centers.iter().enumerate() {
            center_of[c.index()] = ci as u32;
        }
        let neighbor_lists = compute_neighbors(net, &centers, &center_of, neighbor_limit, threads);
        for (c, nb) in clusters.iter_mut().zip(neighbor_lists) {
            c.neighbors = nb;
        }

        let mut instance = ClusterInstance {
            radius,
            neighbor_limit,
            clusters,
            node_cluster: node_cluster.into(),
            node_center_dist: node_center_dist.into(),
            stats: InstanceStats::default(),
        };
        // Trajectory lists: the corpus is one batch of additions.
        instance.add_trajectories(trajs.iter());

        let clusters = &instance.clusters;
        let eta = clusters.len().max(1);
        let mean_traj_list =
            clusters.iter().map(|c| c.traj_list.len()).sum::<usize>() as f64 / eta as f64;
        let mean_neighbors = clusters
            .iter()
            .map(|c| c.neighbors.len().saturating_sub(1))
            .sum::<usize>() as f64
            / eta as f64;
        instance.stats = InstanceStats {
            mean_ball_size: gdsp.mean_ball_size,
            mean_traj_list,
            mean_neighbors,
            build_time: start.elapsed() + gdsp.elapsed,
        };
        instance
    }

    /// Appends every trajectory of `batch` to the `T L(g)` of each cluster
    /// it passes through, in batch order. Each touched list is built once,
    /// straight into its final allocation; untouched ones stay shared.
    pub(crate) fn add_trajectories<'a>(
        &mut self,
        batch: impl IntoIterator<Item = (TrajId, &'a Trajectory)>,
    ) {
        let mut entries: Vec<(u32, (TrajId, f64))> = Vec::new();
        for (id, traj) in batch {
            let cc = map_trajectory(traj, &self.node_cluster, &self.node_center_dist);
            entries.extend(cc.into_iter().map(|(ci, d)| (ci, (id, d))));
        }
        // Stable: a cluster's additions keep batch order.
        entries.sort_by_key(|&(ci, _)| ci);
        for group in entries.chunk_by(|a, b| a.0 == b.0) {
            let list = &mut self.clusters[group[0].0 as usize].traj_list;
            *list = list.appended(group.iter().map(|&(_, entry)| entry));
        }
    }

    /// Drops `id` from the `T L(g)` of every cluster `traj` passes through.
    pub(crate) fn remove_trajectory(&mut self, id: TrajId, traj: &Trajectory) {
        for (ci, _) in map_trajectory(traj, &self.node_cluster, &self.node_center_dist) {
            let list = &mut self.clusters[ci as usize].traj_list;
            if let Some(pos) = list.iter().position(|&(t, _)| t == id) {
                *list = list.removed(pos);
            }
        }
    }

    /// Number of clusters `η_p`.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Heap footprint in bytes of everything this instance stores
    /// (clusters with their members, trajectory and neighbor lists, and the
    /// node maps), counting each shared slice in full.
    pub fn heap_size_bytes(&self) -> usize {
        let clusters: usize = self
            .clusters
            .iter()
            .map(|c| {
                std::mem::size_of::<Cluster>()
                    + c.nodes.heap_size_bytes()
                    + c.traj_list.heap_size_bytes()
                    + c.neighbors.heap_size_bytes()
            })
            .sum();
        clusters + self.node_cluster.heap_size_bytes() + self.node_center_dist.heap_size_bytes()
    }
}

/// Maps a trajectory to its compressed cluster sequence `CC(T_j)`, keeping
/// the minimal center distance per distinct cluster, in first-visit order.
pub(crate) fn map_trajectory(
    traj: &Trajectory,
    node_cluster: &[u32],
    node_center_dist: &[f64],
) -> Vec<(u32, f64)> {
    let mut out: Vec<(u32, f64)> = Vec::new();
    for &v in traj.nodes() {
        let ci = node_cluster[v.index()];
        let d = node_center_dist[v.index()];
        match out.iter_mut().find(|(c, _)| *c == ci) {
            Some((_, best)) => {
                if d < *best {
                    *best = d;
                }
            }
            None => out.push((ci, d)),
        }
    }
    out
}

/// Elects the member site closest to the center (members ascend by
/// distance), the representative rule the paper adopts (Sec. 4.2: "the
/// second alternative is marginally better"); none if no member is a site.
/// It reads sites alone, so only a site update moves a representative.
pub(crate) fn choose_representative(cluster: &mut Cluster, is_site: &[bool]) {
    let rep = cluster.nodes.iter().find(|&&(v, _)| is_site[v.index()]);
    cluster.representative = rep.map(|&(v, _)| v);
    cluster.rep_distance = rep.map_or(0.0, |&(_, d)| d);
}

/// Round-trip balls from every center, filtered to other centers, in
/// center order. Each list is sized to its neighbors, not to the ball it
/// was cut from.
fn compute_neighbors(
    net: &RoadNetwork,
    centers: &[NodeId],
    center_of: &[u32],
    limit: f64,
    threads: usize,
) -> impl Iterator<Item = SharedSlice<(u32, f64)>> {
    let workers = threads.max(1).min(centers.len().max(1));
    par::chunked(centers, &mut vec![(); workers], |chunk, _, _| {
        let mut rt = RoundTripEngine::for_network(net);
        chunk
            .iter()
            .map(|&center| {
                rt.ball(net, center, limit)
                    .into_iter()
                    .filter_map(|(v, d)| {
                        let ci = center_of[v.index()];
                        (ci != u32::MAX).then_some((ci, d))
                    })
                    .collect()
            })
            .collect::<Vec<SharedSlice<(u32, f64)>>>()
    })
    .into_iter()
    .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gdsp::{greedy_gdsp, GdspConfig};
    use netclus_roadnet::{Point, RoadNetworkBuilder};

    /// Two-way line with 100 m edges and trajectories along it.
    fn fixture() -> (RoadNetwork, TrajectorySet) {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..12 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..11u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        for r in [
            &[0u32, 1, 2, 3][..],
            &[4, 5, 6],
            &[8, 9, 10, 11],
            &[2, 3, 4, 5],
        ] {
            trajs.add(Trajectory::new(r.iter().map(|&i| NodeId(i)).collect()));
        }
        (net, trajs)
    }

    fn build_instance(net: &RoadNetwork, trajs: &TrajectorySet, radius: f64) -> ClusterInstance {
        let is_site = vec![true; net.node_count()];
        let gdsp = greedy_gdsp(net, &GdspConfig { radius, threads: 1 });
        ClusterInstance::build(net, trajs, &is_site, &gdsp, radius, 0.75, 1)
    }

    #[test]
    fn instance_invariants() {
        let (net, trajs) = fixture();
        let inst = build_instance(&net, &trajs, 200.0);
        // Every node mapped; every cluster has a representative (all nodes
        // are sites).
        assert!(inst
            .node_cluster
            .iter()
            .all(|&c| (c as usize) < inst.cluster_count()));
        for c in &inst.clusters {
            assert!(c.representative.is_some());
            // With every node a site, the closest site is the center itself.
            assert_eq!(c.representative, Some(c.center));
            assert_eq!(c.rep_distance, 0.0);
            // Self must be the first neighbor at distance 0.
            assert_eq!(c.neighbors[0], (inst.node_cluster[c.center.index()], 0.0));
            // Neighbor distances are within the limit and sorted.
            assert!(c.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
            assert!(c
                .neighbors
                .iter()
                .all(|&(_, d)| d <= inst.neighbor_limit + 1e-9));
        }
    }

    #[test]
    fn trajectory_lists_partition_trajectories() {
        let (net, trajs) = fixture();
        let inst = build_instance(&net, &trajs, 200.0);
        // Each trajectory appears in TL(g) for exactly the clusters in its
        // CC list, with matching distances.
        let mut total_cc = 0;
        for (tj, traj) in trajs.iter() {
            let cc = map_trajectory(traj, &inst.node_cluster, &inst.node_center_dist);
            total_cc += cc.len();
            for (ci, d) in cc {
                assert!(
                    inst.clusters[ci as usize]
                        .traj_list
                        .iter()
                        .any(|&(t, td)| t == tj && td == d),
                    "TL missing {tj:?} in cluster {ci}"
                );
            }
        }
        let total_tl: usize = inst.clusters.iter().map(|c| c.traj_list.len()).sum();
        assert_eq!(total_tl, total_cc);
    }

    #[test]
    fn traj_distance_is_min_over_member_nodes() {
        let (net, trajs) = fixture();
        let inst = build_instance(&net, &trajs, 200.0);
        for (tj, traj) in trajs.iter() {
            for (ci, d) in map_trajectory(traj, &inst.node_cluster, &inst.node_center_dist) {
                let c = &inst.clusters[ci as usize];
                let want = traj
                    .nodes()
                    .iter()
                    .filter_map(|&v| c.nodes.iter().find(|&&(u, _)| u == v).map(|&(_, d)| d))
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(d, want, "cluster {ci} traj {tj:?}");
            }
        }
    }

    #[test]
    fn sparse_sites_leave_clusters_without_reps() {
        let (net, trajs) = fixture();
        let mut is_site = vec![false; net.node_count()];
        is_site[0] = true; // single candidate site at node 0
        let gdsp = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 100.0,
                threads: 1,
            },
        );
        let inst = ClusterInstance::build(&net, &trajs, &is_site, &gdsp, 100.0, 0.75, 1);
        let with_rep = inst
            .clusters
            .iter()
            .filter(|c| c.representative.is_some())
            .count();
        assert_eq!(with_rep, 1);
        let rep_cluster = inst
            .clusters
            .iter()
            .find(|c| c.representative.is_some())
            .unwrap();
        assert_eq!(rep_cluster.representative, Some(NodeId(0)));
    }

    #[test]
    fn parallel_neighbors_match_sequential() {
        let (net, trajs) = fixture();
        let is_site = vec![true; net.node_count()];
        let gdsp = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 150.0,
                threads: 1,
            },
        );
        let seq = ClusterInstance::build(&net, &trajs, &is_site, &gdsp, 150.0, 0.75, 1);
        let par = ClusterInstance::build(&net, &trajs, &is_site, &gdsp, 150.0, 0.75, 4);
        for (a, b) in seq.clusters.iter().zip(par.clusters.iter()) {
            assert_eq!(a.neighbors, b.neighbors);
        }
    }

    #[test]
    fn compressed_mapping_collapses_consecutive() {
        let node_cluster = vec![0u32, 0, 1, 1, 0];
        let dist = vec![5.0, 1.0, 2.0, 0.0, 3.0];
        let traj = Trajectory::new((0..5).map(NodeId).collect());
        let cc = map_trajectory(&traj, &node_cluster, &dist);
        // Clusters 0 and 1, min distances 1.0 and 0.0; cluster 0 revisited
        // keeps a single entry.
        assert_eq!(cc, vec![(0, 1.0), (1, 0.0)]);
    }

    #[test]
    fn shared_slice_edits_leave_every_clone_alone() {
        let a: SharedSlice<u32> = vec![1, 2, 3].into();
        let b = a.clone();
        assert!(SharedSlice::ptr_eq(&a, &b));
        let appended = a.appended([4, 5]);
        let removed = a.removed(1);
        assert_eq!(*appended, [1, 2, 3, 4, 5]);
        assert_eq!(*removed, [1, 3]);
        assert!(!SharedSlice::ptr_eq(&a, &appended) && !SharedSlice::ptr_eq(&a, &removed));
        assert_eq!((&*a, &*b), (&[1, 2, 3][..], &[1, 2, 3][..]));
        assert_eq!(
            a.heap_size_bytes(),
            2 * std::mem::size_of::<usize>() + 3 * 4
        );
        assert_eq!(format!("{a:?}"), "[1, 2, 3]");
        assert!(SharedSlice::<u32>::default().is_empty());
    }

    #[test]
    fn heap_size_is_the_exact_sum_of_the_parts() {
        let (net, trajs) = fixture();
        let inst = build_instance(&net, &trajs, 200.0);
        let (n, eta) = (net.node_count(), inst.cluster_count());
        let header = 2 * std::mem::size_of::<usize>();
        let pair = std::mem::size_of::<(u32, f64)>();
        // Every node is a member of one cluster, every CC entry is one
        // list entry, and on this two-way line with 100 m edges centers
        // `i` and `j` are a round trip of 200·|i − j| m apart.
        let list_pairs: usize = trajs
            .iter()
            .map(|(_, t)| map_trajectory(t, &inst.node_cluster, &inst.node_center_dist).len())
            .sum();
        let neighbor_pairs = inst
            .clusters
            .iter()
            .flat_map(|a| inst.clusters.iter().map(move |b| (a.center.0, b.center.0)))
            .filter(|&(a, b)| 200.0 * f64::from(a.abs_diff(b)) <= inst.neighbor_limit)
            .count();
        let want = eta * (std::mem::size_of::<Cluster>() + 3 * header)
            + (n + list_pairs + neighbor_pairs) * pair
            + 2 * header
            + n * (4 + 8);
        assert_eq!(inst.heap_size_bytes(), want);
    }

    #[test]
    fn heap_size_positive_and_grows_with_data() {
        let (net, trajs) = fixture();
        let small = build_instance(&net, &trajs, 600.0);
        let large = build_instance(&net, &trajs, 100.0);
        assert!(small.heap_size_bytes() > 0);
        // More clusters → more per-cluster overhead.
        assert!(large.heap_size_bytes() >= small.heap_size_bytes());
    }
}
