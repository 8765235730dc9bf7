//! Property test for the dynamic-update invariant ingest correctness
//! rests on: **any** interleaving of `add_trajectory` / `remove_trajectory`
//! / `add_site` / `remove_site`, applied incrementally, leaves the index
//! observationally identical to a from-scratch build over the final state.
//!
//! The `netclus-ingest` write path replays exactly such interleavings from
//! its WAL; if incremental application could drift from the rebuilt truth,
//! recovered state would silently diverge from served state.
//!
//! A second property pins the copy-on-write contract every published
//! epoch relies on: ops applied to a clone never reach the original, and
//! every list they do not edit stays shared with it.

use std::collections::HashSet;

use netclus::cluster::SharedSlice;
use netclus::prelude::*;
use netclus::NetClusIndex;
use netclus_roadnet::{NodeId, Point, RoadNetworkBuilder};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};
use proptest::prelude::*;

const NODES: u32 = 20;

fn network() -> netclus_roadnet::RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    for i in 0..NODES {
        // A line with a zig so clusters are not all collinear.
        b.add_node(Point::new(i as f64 * 120.0, (i % 4) as f64 * 60.0));
    }
    for i in 0..NODES - 1 {
        b.add_two_way(NodeId(i), NodeId(i + 1), 130.0).unwrap();
    }
    // A few shortcuts for alternative routes.
    for &(u, v) in &[(0u32, 5u32), (5, 12), (8, 16)] {
        b.add_two_way(NodeId(u), NodeId(v), 400.0).unwrap();
    }
    b.build().unwrap()
}

fn config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 250.0,
        tau_max: 2_200.0,
        threads: 1,
        ..Default::default()
    }
}

/// One abstract operation, mapped onto concrete ops by `apply`.
type RawOp = (u8, u32, u32);

fn ops_strategy() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0u8..4, 0u32..64, 0u32..64), 0..40)
}

/// Applies a raw op to the live `(trajs, index, site flags)` triple the
/// way the serving layer does (set first, index second). Returns the
/// trajectory the op added or removed, if it did.
fn apply(
    op: RawOp,
    trajs: &mut TrajectorySet,
    index: &mut NetClusIndex,
    sites: &mut [bool],
) -> Option<Trajectory> {
    let (kind, a, b) = op;
    match kind {
        0 => {
            // Add a trajectory: a contiguous run of 2–6 nodes.
            let start = a % (NODES - 2);
            let len = 2 + b % 5;
            let end = (start + len).min(NODES);
            let t = Trajectory::new((start..end).map(NodeId).collect());
            let id = trajs.add(t.clone());
            index.add_trajectory(id, &t);
            return Some(t);
        }
        1 => {
            // Remove an arbitrary (possibly dead) id.
            if trajs.id_bound() > 0 {
                let id = TrajId(a % trajs.id_bound() as u32);
                if let Some(t) = trajs.remove(id) {
                    index.remove_trajectory(id, &t);
                    return Some(t);
                }
            }
        }
        2 => {
            let v = NodeId(a % NODES);
            if index.add_site(v) {
                sites[v.index()] = true;
            }
        }
        _ => {
            let v = NodeId(a % NODES);
            if index.remove_site(v) {
                sites[v.index()] = false;
            }
        }
    }
    None
}

/// The starting state of every case: three trajectories and every
/// `NODES / initial_sites`-th node a site.
fn start(initial_sites: u32) -> (TrajectorySet, NetClusIndex, Vec<bool>) {
    let net = network();
    let mut trajs = TrajectorySet::for_network(&net);
    // A couple of starting trajectories so removals have targets.
    for s in [0u32, 6, 11] {
        trajs.add(Trajectory::new((s..s + 4).map(NodeId).collect()));
    }
    let initial: Vec<NodeId> = (0..NODES)
        .step_by((NODES / initial_sites.min(NODES)).max(1) as usize)
        .map(NodeId)
        .collect();
    let index = NetClusIndex::build(&net, &trajs, &initial, config());
    let mut sites = vec![false; NODES as usize];
    for v in &initial {
        sites[v.index()] = true;
    }
    (trajs, index, sites)
}

/// A built row: its representative, then ids with distance bits.
type Row = (NodeId, Vec<(u32, u64)>);

/// Everything a reader of `index` and `trajs` can observe: per instance the
/// lists and representatives of every cluster and the rows built at the
/// band ceiling, plus the corpus and its node buckets.
#[derive(Debug, PartialEq)]
struct Observed {
    lists: Vec<Vec<(TrajId, u64)>>,
    reps: Vec<(Option<NodeId>, u64)>,
    ceiling_rows: Vec<Vec<Row>>,
    corpus: Vec<(TrajId, Vec<NodeId>)>,
    buckets: Vec<Vec<TrajId>>,
}

fn observe(trajs: &TrajectorySet, index: &NetClusIndex) -> Observed {
    let clusters = || index.instances().iter().flat_map(|inst| &inst.clusters);
    let bits = |row: &[(TrajId, f64)]| row.iter().map(|&(t, d)| (t, d.to_bits())).collect();
    let ceiling_rows = index
        .instances()
        .iter()
        .map(|inst| {
            let view = ClusteredProvider::build(inst, inst.neighbor_limit, trajs.id_bound());
            (0..view.site_count())
                .map(|i| {
                    let row = view.covered(i).iter().map(|(t, d)| (t, d.to_bits()));
                    (view.site_node(i), row.collect())
                })
                .collect()
        })
        .collect();
    Observed {
        lists: clusters().map(|c| bits(&c.traj_list)).collect(),
        reps: clusters()
            .map(|c| (c.representative, c.rep_distance.to_bits()))
            .collect(),
        ceiling_rows,
        corpus: trajs
            .iter()
            .map(|(id, t)| (id, t.nodes().to_vec()))
            .collect(),
        buckets: (0..NODES)
            .map(|v| trajs.trajectories_through(NodeId(v)).to_vec())
            .collect(),
    }
}

/// Observational equality: same clusters, same representatives, same
/// trajectory lists (as sets), same site flags.
fn assert_equivalent(updated: &NetClusIndex, rebuilt: &NetClusIndex) {
    assert_eq!(updated.site_count(), rebuilt.site_count());
    for v in 0..NODES {
        assert_eq!(updated.is_site(NodeId(v)), rebuilt.is_site(NodeId(v)));
    }
    assert_eq!(updated.instances().len(), rebuilt.instances().len());
    for (a, b) in updated.instances().iter().zip(rebuilt.instances()) {
        assert_eq!(a.clusters.len(), b.clusters.len());
        for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
            assert_eq!(ca.center, cb.center);
            assert_eq!(ca.representative, cb.representative);
            assert_eq!(ca.rep_distance.to_bits(), cb.rep_distance.to_bits());
            let mut la: Vec<(TrajId, u64)> = ca
                .traj_list
                .iter()
                .map(|&(t, d)| (t, d.to_bits()))
                .collect();
            let mut lb: Vec<(TrajId, u64)> = cb
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental updates along any interleaving ≡ rebuild on the final
    /// state.
    #[test]
    fn any_interleaving_equals_rebuild(ops in ops_strategy(), initial_sites in 1u32..12) {
        let net = network();
        let (mut trajs, mut index, mut sites) = start(initial_sites);

        for &op in &ops {
            apply(op, &mut trajs, &mut index, &mut sites);
        }

        let final_sites: Vec<NodeId> = (0..NODES)
            .map(NodeId)
            .filter(|v| sites[v.index()])
            .collect();
        let rebuilt = NetClusIndex::build(&net, &trajs, &final_sites, config());
        assert_equivalent(&index, &rebuilt);

        // And the equivalence is observable through queries, end to end.
        for (k, tau) in [(1usize, 400.0f64), (3, 1_000.0)] {
            let q = TopsQuery::binary(k, tau);
            let qa = index.query(&trajs, &q);
            let qb = rebuilt.query(&trajs, &q);
            prop_assert_eq!(&qa.solution.sites, &qb.solution.sites);
            prop_assert!((qa.solution.utility - qb.solution.utility).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ops applied to a clone leave the original observably unchanged,
    /// and the clone still shares every list no op edited: the node maps,
    /// all member and neighbor lists, and the `T L(g)` of every cluster
    /// no added or removed trajectory passes through.
    #[test]
    fn a_clone_shares_every_list_its_ops_leave_alone(
        ops in ops_strategy(),
        initial_sites in 1u32..12,
    ) {
        let (trajs, index, mut sites) = start(initial_sites);
        let before = observe(&trajs, &index);
        let (mut copy_trajs, mut copy) = (trajs.clone(), index.clone());
        let mut edited: Vec<HashSet<u32>> = vec![HashSet::new(); index.instances().len()];
        for &op in &ops {
            if let Some(t) = apply(op, &mut copy_trajs, &mut copy, &mut sites) {
                for (inst, edited) in index.instances().iter().zip(&mut edited) {
                    edited.extend(t.nodes().iter().map(|v| inst.node_cluster[v.index()]));
                }
            }
        }
        prop_assert_eq!(observe(&trajs, &index), before);

        for ((orig, inst), edited) in index.instances().iter().zip(copy.instances()).zip(&edited) {
            prop_assert!(SharedSlice::ptr_eq(&orig.node_cluster, &inst.node_cluster));
            prop_assert!(SharedSlice::ptr_eq(&orig.node_center_dist, &inst.node_center_dist));
            for (ci, (a, b)) in orig.clusters.iter().zip(&inst.clusters).enumerate() {
                prop_assert!(SharedSlice::ptr_eq(&a.nodes, &b.nodes));
                prop_assert!(SharedSlice::ptr_eq(&a.neighbors, &b.neighbors));
                let shared = SharedSlice::ptr_eq(&a.traj_list, &b.traj_list);
                prop_assert_eq!(shared, !edited.contains(&(ci as u32)), "cluster {}", ci);
            }
        }
    }
}
