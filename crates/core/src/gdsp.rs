//! Greedy-GDSP: generalized-dominating-set clustering (paper Sec. 4.1).
//!
//! GDSP asks for a minimum set of centers such that every vertex `v` is
//! *dominated* by some center `u`, i.e. `d(u, v) + d(v, u) ≤ 2R` (Problem 2).
//! It is NP-hard (reduction from DSP); the greedy algorithm repeatedly picks
//! the vertex whose dominance ball `Λ(v)` covers the most still-uncovered
//! vertices, achieving the `(1 + ln n)` bound of Th. 5.
//!
//! Two engines, selectable via [`GdspMode`]:
//!
//! * **Exact** — a CELF-style lazy-greedy: stale gains are upper bounds by
//!   submodularity, so a popped candidate is re-evaluated and re-inserted
//!   until the top survives its own refresh.
//! * **Fm** — the paper's FM-sketch variant (Sec. 4.1.2): one sketch of
//!   `Λ(v)` per vertex; marginal gains estimated with O(f) word-wise ORs
//!   against the running covered-set sketch, scanning candidates in
//!   descending solo-estimate order with upper-bound pruning.
//!
//! Memory discipline: dominance balls are **not** stored for all vertices
//! (that is `O(Σ|Λ|)`, quadratic at large radii). Phase A streams each ball
//! once to record its size (and sketch, in FM mode); balls are recomputed
//! on demand during selection — a few Dijkstra pairs per selected center.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use netclus_roadnet::{NodeId, RoadNetwork, RoundTripEngine};
use netclus_sketch::{FmSketch, FmSketchFamily};

use crate::par;

/// Which gain oracle drives the greedy selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GdspMode {
    /// Exact uncovered counts with lazy (CELF) re-evaluation.
    Exact,
    /// FM-sketch estimated counts (paper Sec. 4.1.2).
    Fm {
        /// Number of sketch copies `f`.
        copies: usize,
        /// Hash seed.
        seed: u64,
    },
}

/// Configuration of one clustering run.
#[derive(Clone, Copy, Debug)]
pub struct GdspConfig {
    /// Cluster radius `R`: members satisfy `dr(v, center) ≤ 2R`.
    pub radius: f64,
    /// Gain oracle.
    pub mode: GdspMode,
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

    // Phase A: stream every ball once for sizes (and sketches in FM mode).
    let family = match cfg.mode {
        GdspMode::Fm { copies, seed } => Some(FmSketchFamily::new(copies.max(1), seed)),
        GdspMode::Exact => None,
    };
    let (sizes, sketches) = ball_sweep(net, limit, family.as_ref(), cfg.threads);
    let mean_ball_size = sizes.iter().map(|&s| s as f64).sum::<f64>() / n.max(1) as f64;

    // Phase B: greedy center selection.
    let clusters = match (&family, sketches) {
        (Some(fam), Some(sk)) => fm_selection(net, limit, &sizes, fam, &sk),
        _ => exact_selection(net, limit, &sizes),
    };

    GdspResult {
        clusters,
        mean_ball_size,
        elapsed: start.elapsed(),
    }
}

/// Computes all ball sizes (and optional sketches) in parallel, in node
/// order.
fn ball_sweep(
    net: &RoadNetwork,
    limit: f64,
    family: Option<&FmSketchFamily>,
    threads: usize,
) -> (Vec<u32>, Option<Vec<FmSketch>>) {
    let workers = threads.max(1).min(net.node_count().max(1));
    // One point per node, so a chunk of points is a range of node ids.
    let parts = par::chunked(net.points(), &mut vec![(); workers], |chunk, _, first| {
        let mut rt = RoundTripEngine::for_network(net);
        let mut sizes = Vec::with_capacity(chunk.len());
        let mut sketches = Vec::new();
        for v in first..first + chunk.len() {
            let ball = rt.ball(net, NodeId(v as u32), limit);
            sizes.push(ball.len() as u32);
            if let Some(f) = family {
                let mut s = f.empty();
                for &(u, _) in &ball {
                    f.insert(&mut s, u.0 as u64);
                }
                sketches.push(s);
            }
        }
        (sizes, sketches)
    });
    let (sizes, sketches): (Vec<Vec<u32>>, Vec<Vec<FmSketch>>) = parts.into_iter().unzip();
    let sketches = family.map(|_| sketches.into_iter().flatten().collect());
    (sizes.concat(), sketches)
}

/// CELF lazy-greedy with exact uncovered counts.
fn exact_selection(net: &RoadNetwork, limit: f64, sizes: &[u32]) -> Vec<RawCluster> {
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
            gain: sizes[v as usize],
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

/// FM-sketch selection with descending-estimate pruning (paper Sec. 4.1.2 /
/// 3.5). Covered flags stay exact (assigned on selection), only the *gain
/// comparisons* are estimated.
fn fm_selection(
    net: &RoadNetwork,
    limit: f64,
    sizes: &[u32],
    family: &FmSketchFamily,
    sketches: &[FmSketch],
) -> Vec<RawCluster> {
    let n = net.node_count();
    let solo: Vec<f64> = sketches.iter().map(|s| family.estimate(s)).collect();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        solo[b as usize]
            .total_cmp(&solo[a as usize])
            .then_with(|| a.cmp(&b))
    });

    let mut covered = vec![false; n];
    let mut covered_count = 0usize;
    let mut rt = RoundTripEngine::for_network(net);
    let mut running = family.empty();
    let mut run_est = 0.0f64;
    let mut clusters = Vec::new();
    let _ = sizes;

    while covered_count < n {
        let mut best: Option<(u32, f64)> = None;
        let mut first_uncovered: Option<u32> = None;
        for &v in &order {
            if covered[v as usize] {
                continue;
            }
            if first_uncovered.is_none() {
                first_uncovered = Some(v);
            }
            if let Some((_, bg)) = best {
                if bg >= solo[v as usize] {
                    break; // pruning: solo estimates bound marginals
                }
            }
            let est = family.union_estimate(&running, &sketches[v as usize]) - run_est;
            if best.is_none_or(|(_, bg)| est > bg) {
                best = Some((v, est));
            }
        }
        // Estimation noise can drive all marginals to ~0 while vertices
        // remain; fall back to the best-ranked uncovered vertex.
        let center = match best {
            Some((v, est)) if est > 0.0 => v,
            _ => first_uncovered.expect("loop invariant: uncovered vertices remain"),
        };

        let ball = rt.ball(net, NodeId(center), limit);
        let members: Vec<(NodeId, f64)> = ball
            .into_iter()
            .filter(|&(u, _)| !covered[u.index()])
            .collect();
        for &(u, _) in &members {
            covered[u.index()] = true;
        }
        covered_count += members.len();
        running.union_with(&sketches[center as usize]);
        run_est = family.estimate(&running);
        clusters.push(RawCluster {
            center: NodeId(center),
            members,
        });
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};

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
        let r = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 100.0,
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
        check_partition(&net, &r);
        check_radius(&r, 100.0);
        // Each ball has ≤ 3 nodes (v−1, v, v+1): at least ⌈10/3⌉ clusters.
        assert!(r.cluster_count() >= 4);
        assert!(r.mean_ball_size > 1.0 && r.mean_ball_size <= 3.0);
    }

    #[test]
    fn radius_zero_gives_singletons() {
        let net = line(5, 100.0);
        let r = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 0.0,
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
        assert_eq!(r.cluster_count(), 5);
        check_partition(&net, &r);
    }

    #[test]
    fn huge_radius_gives_one_cluster() {
        let net = line(8, 100.0);
        let r = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 1e6,
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
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
        let r = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 50.0, // 2R = 100 → center dominates all leaves
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
        assert_eq!(r.cluster_count(), 1);
        assert_eq!(r.clusters[0].center, NodeId(0));
    }

    #[test]
    fn cluster_count_decreases_with_radius() {
        let net = line(40, 100.0);
        let mut last = usize::MAX;
        for radius in [50.0, 150.0, 400.0, 1200.0] {
            let r = greedy_gdsp(
                &net,
                &GdspConfig {
                    radius,
                    mode: GdspMode::Exact,
                    threads: 1,
                },
            );
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
        let seq = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 250.0,
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
        let par = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 250.0,
                mode: GdspMode::Exact,
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
    fn fm_mode_produces_valid_partition() {
        let net = line(30, 100.0);
        let r = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 250.0,
                mode: GdspMode::Fm {
                    copies: 30,
                    seed: 5,
                },
                threads: 1,
            },
        );
        check_partition(&net, &r);
        check_radius(&r, 250.0);
        // FM estimates may pick slightly worse centers but the cluster
        // count should stay in the same ballpark as exact.
        let exact = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 250.0,
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
        assert!(r.cluster_count() <= exact.cluster_count() * 3 + 2);
    }

    #[test]
    fn fm_mode_is_deterministic() {
        let net = line(20, 100.0);
        let cfg = GdspConfig {
            radius: 200.0,
            mode: GdspMode::Fm {
                copies: 10,
                seed: 42,
            },
            threads: 1,
        };
        let a = greedy_gdsp(&net, &cfg);
        let b = greedy_gdsp(&net, &cfg);
        let centers =
            |r: &GdspResult| -> Vec<NodeId> { r.clusters.iter().map(|c| c.center).collect() };
        assert_eq!(centers(&a), centers(&b));
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
        let r = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 1e9,
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
        assert_eq!(r.cluster_count(), 2);
    }

    #[test]
    fn members_sorted_by_distance() {
        let net = line(15, 100.0);
        let r = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 300.0,
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
        for c in &r.clusters {
            assert!(c.members.windows(2).all(|w| w[0].1 <= w[1].1));
            assert_eq!(c.members[0].0, c.center);
        }
    }
}
