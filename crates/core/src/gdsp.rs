//! Greedy-GDSP: generalized-dominating-set clustering (paper Sec. 4.1).
//!
//! GDSP asks for a minimum set of centers such that every vertex `v` is
//! *dominated* by some center `u`, i.e. `d(u, v) + d(v, u) ≤ 2R` (Problem 2).
//! It is NP-hard (reduction from DSP); the greedy algorithm repeatedly picks
//! the vertex whose dominance ball `Λ(v)` covers the most still-uncovered
//! vertices, achieving the `(1 + ln n)` bound of Th. 5.
//!
//! **One greedy machine.** That greedy is a max-coverage greedy, so it runs
//! on [`crate::greedy`]'s CELF machine like every TOPS greedy: the `Balls`
//! kernel gains a vertex the uncovered members of `Λ(v)` and turns a pick
//! into a [`RawCluster`]; the `Uncovered` rule ranks by gain, ties to the
//! smaller id, and drops covered vertices, which cannot become centers
//! (paper Sec. 4.1.2). Uncovered counts only fall as centers are picked, so
//! a stale heap entry bounds its vertex's gain.
//!
//! Memory discipline: dominance balls are **not** stored for all vertices
//! (that is `O(Σ|Λ|)`, quadratic at large radii). Phase A streams each ball
//! once to record its size; balls are recomputed on demand during
//! selection — a few Dijkstra pairs per selected center.

use std::cell::Cell;
use std::time::{Duration, Instant};

use netclus_roadnet::{NodeId, RoadNetwork, RoundTripEngine};

use crate::greedy::{celf, Kernel, Rule};
use crate::par;

/// Configuration of one clustering run.
#[derive(Clone, Copy, Debug)]
pub struct GdspConfig {
    /// Cluster radius `R`: members satisfy `dr(v, center) ≤ 2R`.
    pub radius: f64,
    /// Worker threads for the ball-size sweep (0/1 = the caller alone).
    pub threads: usize,
}

/// One raw cluster: a center and its members (with round-trip distances to
/// the center, ascending; the center itself is first with distance 0).
#[derive(Clone, Debug)]
pub struct RawCluster {
    /// The chosen center vertex.
    pub center: NodeId,
    /// Members assigned to this cluster, `(node, dr(node, center))`.
    pub members: Vec<(NodeId, f64)>,
}

/// Result of a clustering run.
#[derive(Clone, Debug)]
pub struct GdspResult {
    /// The clusters, in selection order; they partition the vertex set.
    pub clusters: Vec<RawCluster>,
    /// Mean dominance-ball size `|Λ(v)|` over all vertices (Table 11's
    /// `|Λ|` column input).
    pub mean_ball_size: f64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl GdspResult {
    /// Number of clusters `η`.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }
}

/// Runs Greedy-GDSP over `net` with radius `cfg.radius`.
pub fn greedy_gdsp(net: &RoadNetwork, cfg: &GdspConfig) -> GdspResult {
    assert!(
        cfg.radius.is_finite() && cfg.radius >= 0.0,
        "invalid radius {}",
        cfg.radius
    );
    let start = Instant::now();
    let n = net.node_count();
    let limit = 2.0 * cfg.radius;

    // Phase A: stream every ball once for its size, every vertex's first gain.
    let sizes = ball_sizes(net, limit, cfg.threads);
    let mean_ball_size = sizes.iter().sum::<f64>() / n.max(1) as f64;

    // Phase B: CELF picks centers until every vertex is covered; the heap
    // then holds covered vertices only, which the rule drops.
    let covered = vec![Cell::new(false); n];
    let mut clusters = Vec::new();
    let balls = Balls {
        net,
        limit,
        rt: RoundTripEngine::for_network(net),
        covered: &covered,
        clusters: &mut clusters,
    };
    celf(balls, Uncovered(&covered), &sizes, n, &[], None);

    GdspResult {
        clusters,
        mean_ball_size,
        elapsed: start.elapsed(),
    }
}

/// Every ball size `|Λ(v)|`, computed in parallel, in node order.
fn ball_sizes(net: &RoadNetwork, limit: f64, threads: usize) -> Vec<f64> {
    let workers = threads.max(1).min(net.node_count().max(1));
    // One point per node, so a chunk of points is a range of node ids.
    let parts = par::chunked(net.points(), &mut vec![(); workers], |chunk, _, first| {
        let mut rt = RoundTripEngine::for_network(net);
        (first..first + chunk.len())
            .map(|v| rt.ball(net, NodeId(v as u32), limit).len() as f64)
            .collect::<Vec<_>>()
    });
    parts.concat()
}

/// Greedy-GDSP's kernel: vertex `v` gains the uncovered members of its
/// ball, and picking it covers them as a new cluster.
struct Balls<'a> {
    net: &'a RoadNetwork,
    limit: f64,
    rt: RoundTripEngine,
    covered: &'a [Cell<bool>],
    clusters: &'a mut Vec<RawCluster>,
}

impl Kernel for Balls<'_> {
    fn gain(&mut self, v: usize) -> f64 {
        let ball = self.rt.ball(self.net, NodeId(v as u32), self.limit);
        let uncovered = ball
            .iter()
            .filter(|&&(u, _)| !self.covered[u.index()].get());
        uncovered.count() as f64
    }

    fn select(&mut self, v: usize) -> usize {
        let mut members = self.rt.ball(self.net, NodeId(v as u32), self.limit);
        // Keep the uncovered members, covering each as it is kept.
        members.retain(|&(u, _)| !self.covered[u.index()].replace(true));
        let newly = members.len();
        self.clusters.push(RawCluster {
            center: NodeId(v as u32),
            members,
        });
        newly
    }
}

/// Greedy-GDSP's rule: max gain, ties to the smaller id, and a covered
/// vertex is never a center.
struct Uncovered<'a>(&'a [Cell<bool>]);

impl Rule for Uncovered<'_> {
    fn key(&self, v: usize, gain: f64, _size: f64) -> (f64, f64) {
        (gain, -(v as f64))
    }

    fn admits(&self, v: usize) -> bool {
        !self.0[v].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// The hand-rolled CELF heap Greedy-GDSP ran before it moved onto
    /// [`celf`], kept as the twin the selection is checked against.
    fn exact_selection(net: &RoadNetwork, limit: f64, sizes: &[f64]) -> Vec<RawCluster> {
        #[derive(PartialEq)]
        struct Entry {
            gain: u32,
            node: u32,
            round: u32,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                // Max-heap on gain; ties prefer the smaller node id.
                self.gain.cmp(&o.gain).then_with(|| o.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }

        let n = net.node_count();
        let mut covered = vec![false; n];
        let mut covered_count = 0usize;
        let mut rt = RoundTripEngine::for_network(net);
        let mut heap: BinaryHeap<Entry> = (0..n as u32)
            .map(|v| Entry {
                gain: sizes[v as usize] as u32,
                node: v,
                round: 0,
            })
            .collect();
        let mut clusters = Vec::new();
        let mut round = 0u32;

        while covered_count < n {
            let top = heap
                .pop()
                .expect("uncovered vertices remain ⇒ heap nonempty");
            if covered[top.node as usize] {
                continue; // covered vertices cannot become centers (paper 4.1.2)
            }
            if top.round != round {
                // Stale: refresh the gain and re-insert.
                let ball = rt.ball(net, NodeId(top.node), limit);
                let gain = ball.iter().filter(|&&(u, _)| !covered[u.index()]).count() as u32;
                heap.push(Entry {
                    gain,
                    node: top.node,
                    round,
                });
                continue;
            }
            // Fresh top: select it.
            let ball = rt.ball(net, NodeId(top.node), limit);
            let members: Vec<(NodeId, f64)> = ball
                .into_iter()
                .filter(|&(u, _)| !covered[u.index()])
                .collect();
            debug_assert!(!members.is_empty(), "center itself must be uncovered");
            for &(u, _) in &members {
                covered[u.index()] = true;
            }
            covered_count += members.len();
            clusters.push(RawCluster {
                center: NodeId(top.node),
                members,
            });
            round += 1;
        }
        clusters
    }

    fn gdsp(net: &RoadNetwork, radius: f64) -> GdspResult {
        greedy_gdsp(net, &GdspConfig { radius, threads: 1 })
    }

    fn line(n: u32, w: f64) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64 * w, 0.0));
        }
        for i in 0..n - 1 {
            b.add_two_way(NodeId(i), NodeId(i + 1), w).unwrap();
        }
        b.build().unwrap()
    }

    /// Random networks of 1–24 nodes over whole-metre edges (equal ball
    /// sizes and equal refreshed gains are common), about a quarter of
    /// them one-way, some nodes isolated.
    fn random_network() -> impl Strategy<Value = RoadNetwork> {
        (1usize..25)
            .prop_flat_map(|n| {
                let edge = (0..n, 0..n, 1u32..=20, 0u8..4);
                (Just(n), prop::collection::vec(edge, 0..3 * n))
            })
            .prop_map(|(n, edges)| {
                let mut b = RoadNetworkBuilder::new();
                for i in 0..n {
                    b.add_node(Point::new(i as f64, 0.0));
                }
                for (a, c, w, lane) in edges {
                    let (a, c) = (NodeId(a as u32), NodeId(c as u32));
                    if a == c {
                        continue;
                    }
                    if lane == 0 {
                        b.add_edge(a, c, f64::from(w)).unwrap();
                    } else {
                        b.add_two_way(a, c, f64::from(w)).unwrap();
                    }
                }
                b.build().unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Greedy-GDSP on CELF ≡ the hand-rolled heap it replaced: the same
        /// centers in the same order with the same member lists, bit for
        /// bit, at radius 0, two whole-metre radii, and a radius past every
        /// round trip, with the size sweep on 1 and 4 threads.
        #[test]
        fn celf_equals_exact_selection_twin(
            net in random_network(),
            radii in (1u32..=40, 1u32..=200),
        ) {
            for radius in [0.0, f64::from(radii.0), f64::from(radii.1), 1e9] {
                let limit = 2.0 * radius;
                let twin = exact_selection(&net, limit, &ball_sizes(&net, limit, 1));
                for threads in [1, 4] {
                    let got = greedy_gdsp(&net, &GdspConfig { radius, threads }).clusters;
                    prop_assert_eq!(got.len(), twin.len(), "R {} threads {}", radius, threads);
                    for (a, b) in got.iter().zip(&twin) {
                        prop_assert_eq!(a.center, b.center, "R {} threads {}", radius, threads);
                        let bits = |c: &RawCluster| -> Vec<(NodeId, u64)> {
                            c.members.iter().map(|&(v, d)| (v, d.to_bits())).collect()
                        };
                        prop_assert_eq!(bits(a), bits(b), "R {} threads {}", radius, threads);
                    }
                }
            }
        }
    }

    fn check_partition(net: &RoadNetwork, result: &GdspResult) {
        let mut seen = vec![false; net.node_count()];
        for c in &result.clusters {
            for &(v, _) in &c.members {
                assert!(!seen[v.index()], "{v:?} assigned twice");
                seen[v.index()] = true;
            }
            // Center must be among its own members at distance 0.
            assert!(c.members.iter().any(|&(v, d)| v == c.center && d == 0.0));
        }
        assert!(seen.iter().all(|&s| s), "some vertex left unclustered");
    }

    fn check_radius(result: &GdspResult, radius: f64) {
        for c in &result.clusters {
            for &(_, d) in &c.members {
                assert!(
                    d <= 2.0 * radius + 1e-9,
                    "member at {d} exceeds 2R = {}",
                    2.0 * radius
                );
            }
        }
    }

    #[test]
    fn exact_partition_and_radius_on_line() {
        // 10-node line, 100 m edges, R = 100 → 2R = 200 m round trip means
        // only adjacent nodes dominate each other (rt = 200).
        let net = line(10, 100.0);
        let r = gdsp(&net, 100.0);
        check_partition(&net, &r);
        check_radius(&r, 100.0);
        // Each ball has ≤ 3 nodes (v−1, v, v+1): at least ⌈10/3⌉ clusters.
        assert!(r.cluster_count() >= 4);
        assert!(r.mean_ball_size > 1.0 && r.mean_ball_size <= 3.0);
    }

    #[test]
    fn radius_zero_gives_singletons() {
        let net = line(5, 100.0);
        let r = gdsp(&net, 0.0);
        assert_eq!(r.cluster_count(), 5);
        check_partition(&net, &r);
    }

    #[test]
    fn huge_radius_gives_one_cluster() {
        let net = line(8, 100.0);
        let r = gdsp(&net, 1e6);
        assert_eq!(r.cluster_count(), 1);
        assert_eq!(r.clusters[0].members.len(), 8);
        check_partition(&net, &r);
    }

    #[test]
    fn greedy_picks_densest_ball_first() {
        // Star: center 0 connected to 6 leaves; leaves not interconnected.
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        for i in 1..=6 {
            b.add_node(Point::new(i as f64 * 10.0, 10.0));
        }
        for i in 1..=6u32 {
            b.add_two_way(NodeId(0), NodeId(i), 50.0).unwrap();
        }
        let net = b.build().unwrap();
        // 2R = 100 → center dominates all leaves.
        let r = gdsp(&net, 50.0);
        assert_eq!(r.cluster_count(), 1);
        assert_eq!(r.clusters[0].center, NodeId(0));
    }

    #[test]
    fn cluster_count_decreases_with_radius() {
        let net = line(40, 100.0);
        let mut last = usize::MAX;
        for radius in [50.0, 150.0, 400.0, 1200.0] {
            let r = gdsp(&net, radius);
            check_partition(&net, &r);
            check_radius(&r, radius);
            assert!(
                r.cluster_count() <= last,
                "η grew from {last} to {} at R={radius}",
                r.cluster_count()
            );
            last = r.cluster_count();
        }
        assert!(last < 40);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let net = line(30, 100.0);
        let seq = gdsp(&net, 250.0);
        let par = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 250.0,
                threads: 4,
            },
        );
        assert_eq!(seq.cluster_count(), par.cluster_count());
        let centers =
            |r: &GdspResult| -> Vec<NodeId> { r.clusters.iter().map(|c| c.center).collect() };
        assert_eq!(centers(&seq), centers(&par));
        assert_eq!(seq.mean_ball_size, par.mean_ball_size);
    }

    #[test]
    fn directed_reachability_respected() {
        // One-way pair: 0 -> 1 only. No round trip ⇒ singletons regardless
        // of radius.
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(10.0, 0.0));
        b.add_edge(NodeId(0), NodeId(1), 10.0).unwrap();
        let net = b.build().unwrap();
        let r = gdsp(&net, 1e9);
        assert_eq!(r.cluster_count(), 2);
    }

    #[test]
    fn members_sorted_by_distance() {
        let net = line(15, 100.0);
        let r = gdsp(&net, 300.0);
        for c in &r.clusters {
            assert!(c.members.windows(2).all(|w| w[0].1 <= w[1].1));
            assert_eq!(c.members[0].0, c.center);
        }
    }
}
