//! Property tests for the sharding layer (`netclus::shard`).
//!
//! Random multi-region instances: `R` mutually unreachable regions (each a
//! random two-way corridor with chords), random-walk trajectories confined
//! to their region, all sites. The partition assigns region `r` to shard
//! `r % shards`, so the corpora **respect the partition** by construction:
//! a trajectory's coverage can only come from sites of its own (single)
//! shard. Under that premise:
//!
//! 1. **Replication** — every trajectory is replicated to exactly the
//!    shards it touches, each shard copy carries the full node sequence
//!    (so every trajectory edge appears exactly once per owning shard),
//!    and the replication stats add up.
//! 2. **Equivalence** — the two-round distributed greedy returns the
//!    **bit-identical** top-k of the monolithic index, for shard counts
//!    1, 2 and 4 (see `netclus::shard` module docs for why).

use netclus::prelude::*;
use netclus::shard::shards_of_trajectory;
use netclus_roadnet::{NodeId, Point, RegionPartition, RoadNetwork, RoadNetworkBuilder};
use netclus_trajectory::{Trajectory, TrajectorySet};
use proptest::prelude::*;

/// A random multi-region instance description.
#[derive(Clone, Debug)]
struct Instance {
    regions: usize,
    /// Nodes per region.
    n: usize,
    /// Ring edge weights (shared shape across regions, per-region offset).
    ring_w: Vec<f64>,
    /// Chord edges inside each region: `(u, v, w)` in region-local ids.
    chords: Vec<(usize, usize, f64)>,
    /// Random walks: `(region, start, step choices)`.
    walks: Vec<(usize, usize, Vec<usize>)>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..=4, 5usize..14)
        .prop_flat_map(|(regions, n)| {
            let ring = prop::collection::vec(60.0f64..400.0, n);
            let chords = prop::collection::vec((0..n, 0..n, 60.0f64..400.0), 0..n);
            let walks = prop::collection::vec(
                (0..regions, 0..n, prop::collection::vec(0usize..6, 1..8)),
                1..14,
            );
            (Just(regions), Just(n), ring, chords, walks)
        })
        .prop_map(|(regions, n, ring_w, chords, walks)| Instance {
            regions,
            n,
            ring_w,
            chords,
            walks,
        })
}

/// Materializes the instance: regions are identical ring-with-chords
/// graphs placed 1000 km apart (mutually unreachable), walks stay inside
/// their region.
fn build(inst: &Instance) -> (RoadNetwork, TrajectorySet, Vec<u32>) {
    let mut b = RoadNetworkBuilder::new();
    let mut region_of: Vec<u32> = Vec::new();
    for r in 0..inst.regions {
        let base = (r * inst.n) as u32;
        for i in 0..inst.n {
            b.add_node(Point::new(
                r as f64 * 1.0e6 + i as f64 * 90.0,
                (i % 4) as f64 * 70.0,
            ));
            region_of.push(r as u32);
        }
        for i in 0..inst.n {
            let (u, v) = (base + i as u32, base + ((i + 1) % inst.n) as u32);
            b.add_edge(NodeId(u), NodeId(v), inst.ring_w[i]).unwrap();
            b.add_edge(NodeId(v), NodeId(u), inst.ring_w[i] * 1.05)
                .unwrap();
        }
        for &(u, v, w) in &inst.chords {
            if u != v {
                b.add_edge(NodeId(base + u as u32), NodeId(base + v as u32), w)
                    .unwrap();
            }
        }
    }
    let net = b.build().unwrap();
    let mut trajs = TrajectorySet::for_network(&net);
    for (region, start, steps) in &inst.walks {
        let base = (region * inst.n) as u32;
        let mut cur = NodeId(base + *start as u32);
        let mut nodes = vec![cur];
        for &choice in steps {
            let deg = net.out_degree(cur);
            if deg == 0 {
                break;
            }
            let (next, _) = net.out_edges(cur).nth(choice % deg).unwrap();
            nodes.push(next);
            cur = next;
        }
        trajs.add(Trajectory::new(nodes));
    }
    (net, trajs, region_of)
}

fn netclus_config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 200.0,
        tau_max: 2_400.0,
        threads: 1,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Boundary replication: each trajectory lands in exactly the
    /// shards it touches, as a full copy (every edge exactly once per
    /// owning shard), and the stats account for every replica.
    #[test]
    fn replication_covers_every_edge_once_per_owning_shard(
        inst in instance_strategy(),
        shards in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
    ) {
        let (net, trajs, region_of) = build(&inst);
        let assignment: Vec<u32> = region_of.iter().map(|&r| r % shards as u32).collect();
        let partition = RegionPartition::from_assignment(assignment, shards);
        let sites: Vec<NodeId> = net.nodes().collect();
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, netclus_config());

        let mut expected_replicas = 0usize;
        let mut expected_boundary = 0usize;
        for (id, traj) in trajs.iter() {
            let owners = shards_of_trajectory(&partition, traj);
            expected_replicas += owners.len();
            if owners.len() >= 2 {
                expected_boundary += 1;
            }
            for shard in sharded.shards() {
                let copy = shard.trajs.get(id);
                if owners.contains(&shard.id) {
                    // Exactly one full copy: the whole node sequence, so
                    // every trajectory edge appears exactly once here.
                    let copy = copy.expect("owning shard lost a trajectory");
                    prop_assert_eq!(copy.nodes(), traj.nodes());
                } else {
                    prop_assert!(copy.is_none(), "non-owner shard holds a replica");
                }
            }
        }
        let r = sharded.replication();
        prop_assert_eq!(r.trajectories, trajs.len());
        prop_assert_eq!(r.replicas, expected_replicas);
        prop_assert_eq!(r.boundary, expected_boundary);
        prop_assert_eq!(r.per_shard.iter().sum::<usize>(), expected_replicas);
        // Regions are mutually unreachable and walks are region-confined,
        // so nothing can be boundary here.
        prop_assert_eq!(r.boundary, 0);
    }

    /// (b) Sharded top-k equals monolithic top-k on partition-respecting
    /// corpora, for shard counts 1, 2, 4 and the three ψ — sites, per-pick
    /// gains and utility to the last bit: every run is the one solver, and
    /// a gain is a function of the site's row and its trajectories'
    /// utilities, which are the same on either side.
    #[test]
    fn sharded_topk_equals_monolithic_on_respecting_corpora(
        inst in instance_strategy(),
        k in 1usize..6,
        tau in 250.0f64..2_000.0,
    ) {
        let (net, trajs, region_of) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let cfg = netclus_config();
        let mono = NetClusIndex::build(&net, &trajs, &sites, cfg);
        let sharded: Vec<ShardedNetClusIndex> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                let assignment: Vec<u32> =
                    region_of.iter().map(|&r| r % shards as u32).collect();
                let partition = RegionPartition::from_assignment(assignment, shards);
                ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg)
            })
            .collect();
        for preference in [
            PreferenceFunction::Binary,
            PreferenceFunction::LinearDecay,
            PreferenceFunction::ConvexProbability { alpha: 2.0 },
        ] {
            let q = TopsQuery { k, tau, preference };
            let want = mono.query(&trajs, &q);
            let bits = |gains: &[f64]| gains.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
            for sharded in &sharded {
                let shards = sharded.shard_count();
                let got = sharded.query(&q);
                prop_assert_eq!(
                    &got.solution.sites, &want.solution.sites,
                    "shards={} {:?}: {:?} vs {:?}",
                    shards, q, got.solution.sites, want.solution.sites
                );
                prop_assert_eq!(
                    bits(&got.solution.gains), bits(&want.solution.gains),
                    "shards={} {:?}: gains {:?} vs {:?}",
                    shards, q, got.solution.gains, want.solution.gains
                );
                prop_assert_eq!(
                    got.solution.utility.to_bits(), want.solution.utility.to_bits(),
                    "shards={} {:?}: utility {} vs {}",
                    shards, q, got.solution.utility, want.solution.utility
                );
                prop_assert_eq!(got.instance, want.instance);
                prop_assert!(got.candidates <= shards * k);
            }
        }
    }
}
