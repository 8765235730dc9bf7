//! Synthetic city road-network generators.
//!
//! The paper evaluates on the Beijing OSM network plus three MNTG-generated
//! city workloads whose *topologies* drive Fig. 11: New York (star), Atlanta
//! (mesh), Bangalore (polycentric). These generators synthesize strongly
//! connected networks with exactly those geometric properties:
//!
//! * [`grid_city`] — a jittered Manhattan mesh with random street removals
//!   (Atlanta-like; also the local fabric of the other generators);
//! * [`star_city`] — a dense core with radial corridors and ladder side
//!   streets (New York-like);
//! * [`polycentric_city`] — several mesh sub-centers joined by arterials
//!   (Bangalore-like);
//! * `ring_radial_city` — a mesh overlaid with concentric ring roads and
//!   radial avenues (Beijing-like).
//!
//! Each generator returns a [`City`]: the network plus suggested workload
//! hotspots matching its topology. All randomness flows through the caller's
//! seeded RNG; generation is deterministic given the seed.

use netclus_roadnet::{
    strongly_connected_components, NodeId, Point, RoadNetwork, RoadNetworkBuilder,
};
use rand::RngExt;

/// An origin/destination attraction zone for workload generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hotspot {
    /// Zone center.
    pub center: Point,
    /// Gaussian spread of trip endpoints around the center, meters.
    pub radius: f64,
    /// Relative sampling weight.
    pub weight: f64,
}

/// A generated city: network plus topology-appropriate hotspots.
#[derive(Clone, Debug)]
pub struct City {
    /// Generator label (e.g. `"grid"`, `"star"`).
    pub name: String,
    /// The strongly connected road network.
    pub net: RoadNetwork,
    /// Suggested OD hotspots for [`crate::workload`].
    pub hotspots: Vec<Hotspot>,
}

/// Configuration for [`grid_city`].
#[derive(Clone, Copy, Debug)]
pub struct GridCityConfig {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Nominal block edge length, meters.
    pub spacing_m: f64,
    /// Node position jitter as a fraction of spacing (0 = perfect grid).
    pub jitter: f64,
    /// Fraction of two-way street segments randomly removed (the survivors'
    /// largest strongly connected component is kept).
    pub removal_fraction: f64,
}

impl Default for GridCityConfig {
    fn default() -> Self {
        GridCityConfig {
            rows: 40,
            cols: 40,
            spacing_m: 150.0,
            jitter: 0.25,
            removal_fraction: 0.08,
        }
    }
}

/// Generates an Atlanta-like jittered mesh.
///
/// Trips in a mesh city are spread evenly, so the suggested hotspots are a
/// single city-wide uniform zone.
pub fn grid_city<R: RngExt>(cfg: &GridCityConfig, rng: &mut R) -> City {
    let net = grid_patch(cfg, Point::new(0.0, 0.0), rng);
    let bb = net.bounding_box();
    let center = Point::new((bb.min.x + bb.max.x) / 2.0, (bb.min.y + bb.max.y) / 2.0);
    let radius = bb.width().max(bb.height()) / 2.0;
    City {
        name: "grid".to_string(),
        net,
        hotspots: vec![Hotspot {
            center,
            radius,
            weight: 1.0,
        }],
    }
}

/// Configuration for [`star_city`].
#[derive(Clone, Copy, Debug)]
pub struct StarCityConfig {
    /// Rows/cols of the dense core mesh.
    pub core_size: usize,
    /// Core block spacing, meters.
    pub core_spacing_m: f64,
    /// Number of radial corridors.
    pub spokes: usize,
    /// Nodes per corridor.
    pub spoke_len: usize,
    /// Spacing between corridor nodes, meters.
    pub spoke_spacing_m: f64,
}

impl Default for StarCityConfig {
    fn default() -> Self {
        StarCityConfig {
            core_size: 14,
            core_spacing_m: 150.0,
            spokes: 7,
            spoke_len: 60,
            spoke_spacing_m: 160.0,
        }
    }
}

/// Generates a New York-like star city: dense core, radial corridors with
/// ladder side streets. Hotspots: one strong core zone plus one zone at each
/// corridor end — trips funnel through the center.
pub fn star_city<R: RngExt>(cfg: &StarCityConfig, rng: &mut R) -> City {
    let core_cfg = GridCityConfig {
        rows: cfg.core_size,
        cols: cfg.core_size,
        spacing_m: cfg.core_spacing_m,
        jitter: 0.2,
        removal_fraction: 0.04,
    };
    let core_extent = (cfg.core_size - 1) as f64 * cfg.core_spacing_m;
    let core_origin = Point::new(-core_extent / 2.0, -core_extent / 2.0);
    let mut b = builder_of(grid_patch(&core_cfg, core_origin, rng));

    let mut hotspots = vec![Hotspot {
        center: Point::new(0.0, 0.0),
        radius: core_extent / 2.0,
        weight: 3.0,
    }];

    let core_radius = core_extent / 2.0;
    for s in 0..cfg.spokes {
        let angle = s as f64 / cfg.spokes as f64 * std::f64::consts::TAU;
        let (dx, dy) = (angle.cos(), angle.sin());
        // Attach the corridor to the closest existing node to its base.
        let base_pt = Point::new(dx * core_radius, dy * core_radius);
        let base = nearest_builder_node(&b, base_pt);
        let mut prev = base;
        for i in 1..=cfg.spoke_len {
            let r = core_radius + i as f64 * cfg.spoke_spacing_m;
            let jitter = cfg.spoke_spacing_m * 0.15;
            let p = Point::new(
                dx * r + rng.random_range(-jitter..jitter),
                dy * r + rng.random_range(-jitter..jitter),
            );
            let v = b.add_node(p);
            b.add_two_way(prev, v, dist(&b, prev, v))
                .expect("valid corridor edge");
            // Ladder rib every 3rd corridor node: a short perpendicular
            // street pair hanging off the corridor.
            if i % 3 == 0 {
                let (px, py) = (-dy, dx);
                for side in [-1.0, 1.0] {
                    let q = Point::new(
                        p.x + px * side * cfg.spoke_spacing_m * 0.6,
                        p.y + py * side * cfg.spoke_spacing_m * 0.6,
                    );
                    let u = b.add_node(q);
                    b.add_two_way(v, u, dist(&b, v, u)).expect("rib edge");
                }
            }
            prev = v;
        }
        let end_r = core_radius + cfg.spoke_len as f64 * cfg.spoke_spacing_m;
        hotspots.push(Hotspot {
            center: Point::new(dx * end_r, dy * end_r),
            radius: cfg.spoke_spacing_m * 4.0,
            weight: 1.0,
        });
    }

    City {
        name: "star".to_string(),
        net: b.build().expect("nonempty star city"),
        hotspots,
    }
}

/// Configuration for [`polycentric_city`].
#[derive(Clone, Copy, Debug)]
pub struct PolycentricCityConfig {
    /// Number of sub-centers (≥ 2).
    pub centers: usize,
    /// Rows/cols of each sub-center mesh.
    pub center_size: usize,
    /// Block spacing inside sub-centers, meters.
    pub spacing_m: f64,
    /// Distance of outer sub-centers from the city middle, meters.
    pub layout_radius_m: f64,
}

impl Default for PolycentricCityConfig {
    fn default() -> Self {
        PolycentricCityConfig {
            centers: 5,
            center_size: 16,
            spacing_m: 140.0,
            layout_radius_m: 4200.0,
        }
    }
}

/// Generates a Bangalore-like polycentric city: `centers` mesh patches (one
/// central, the rest on a ring) joined by two-way arterials between adjacent
/// centers and to the middle. Hotspots: one per sub-center.
pub fn polycentric_city<R: RngExt>(cfg: &PolycentricCityConfig, rng: &mut R) -> City {
    assert!(cfg.centers >= 2, "polycentric city needs ≥ 2 centers");
    let patch_cfg = GridCityConfig {
        rows: cfg.center_size,
        cols: cfg.center_size,
        spacing_m: cfg.spacing_m,
        jitter: 0.25,
        removal_fraction: 0.06,
    };
    let extent = (cfg.center_size - 1) as f64 * cfg.spacing_m;

    let mut centers = vec![Point::new(0.0, 0.0)];
    for i in 0..cfg.centers - 1 {
        let angle = i as f64 / (cfg.centers - 1) as f64 * std::f64::consts::TAU;
        centers.push(Point::new(
            angle.cos() * cfg.layout_radius_m,
            angle.sin() * cfg.layout_radius_m,
        ));
    }

    let mut b = RoadNetworkBuilder::new();
    let mut patch_nodes: Vec<Vec<NodeId>> = Vec::new();
    for c in &centers {
        let origin = Point::new(c.x - extent / 2.0, c.y - extent / 2.0);
        let patch = grid_patch(&patch_cfg, origin, rng);
        let offset = b.node_count() as u32;
        let mut ids = Vec::with_capacity(patch.node_count());
        for v in patch.nodes() {
            ids.push(b.add_node(patch.point(v)));
        }
        for v in patch.nodes() {
            for (u, w) in patch.out_edges(v) {
                b.add_edge(NodeId(v.0 + offset), NodeId(u.0 + offset), w)
                    .expect("patch edge");
            }
        }
        patch_nodes.push(ids);
    }

    // Arterials: center-0 to every ring center, plus consecutive ring pairs.
    let mut links: Vec<(usize, usize)> = (1..cfg.centers).map(|i| (0, i)).collect();
    for i in 1..cfg.centers {
        let j = if i + 1 < cfg.centers { i + 1 } else { 1 };
        if j != i {
            links.push((i, j));
        }
    }
    for (i, j) in links {
        let (a, bnode) = closest_pair(&b, &patch_nodes[i], &patch_nodes[j]);
        let w = dist(&b, a, bnode);
        b.add_two_way(a, bnode, w).expect("arterial");
    }

    let hotspots = centers
        .iter()
        .map(|&c| Hotspot {
            center: c,
            radius: extent / 2.0,
            weight: 1.0,
        })
        .collect();

    City {
        name: "polycentric".to_string(),
        net: b.build().expect("nonempty polycentric city"),
        hotspots,
    }
}

/// Configuration for [`multi_region_city`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct MultiRegionCityConfig {
    /// Number of city cores (≥ 2), laid out left to right.
    pub regions: usize,
    /// Rows/cols of each core's mesh.
    pub region_size: usize,
    /// Block spacing inside cores, meters.
    pub spacing_m: f64,
    /// Gap between adjacent core bounding boxes, meters (bridged by a
    /// corridor road).
    pub gap_m: f64,
    /// Spacing between corridor nodes, meters.
    pub corridor_spacing_m: f64,
}

impl Default for MultiRegionCityConfig {
    fn default() -> Self {
        MultiRegionCityConfig {
            regions: 4,
            region_size: 12,
            spacing_m: 150.0,
            gap_m: 6_000.0,
            corridor_spacing_m: 400.0,
        }
    }
}

/// Generates a multi-region city: `regions` mesh cores in a row, adjacent
/// cores joined by a single two-way corridor road (a chain of nodes across
/// the gap). The shape is built for **sharded serving**: a spatial
/// partitioner splits cleanly between cores, intra-core trips stay inside
/// one shard, and corridor trips (core `i` → core `j`) become the
/// boundary trajectories that exercise cross-shard replication.
///
/// Hotspots: one per core (equal weight), so a hotspot-pair workload
/// produces a natural mix of intra- and inter-core traffic.
pub(crate) fn multi_region_city<R: RngExt>(cfg: &MultiRegionCityConfig, rng: &mut R) -> City {
    assert!(cfg.regions >= 2, "multi-region city needs ≥ 2 regions");
    let patch_cfg = GridCityConfig {
        rows: cfg.region_size,
        cols: cfg.region_size,
        spacing_m: cfg.spacing_m,
        jitter: 0.25,
        removal_fraction: 0.06,
    };
    let extent = (cfg.region_size - 1) as f64 * cfg.spacing_m;
    let pitch = extent + cfg.gap_m;

    let mut b = RoadNetworkBuilder::new();
    let mut region_nodes: Vec<Vec<NodeId>> = Vec::new();
    let mut hotspots = Vec::new();
    for r in 0..cfg.regions {
        let origin = Point::new(r as f64 * pitch, 0.0);
        let patch = grid_patch(&patch_cfg, origin, rng);
        let offset = b.node_count() as u32;
        let mut ids = Vec::with_capacity(patch.node_count());
        for v in patch.nodes() {
            ids.push(b.add_node(patch.point(v)));
        }
        for v in patch.nodes() {
            for (u, w) in patch.out_edges(v) {
                b.add_edge(NodeId(v.0 + offset), NodeId(u.0 + offset), w)
                    .expect("patch edge");
            }
        }
        region_nodes.push(ids);
        hotspots.push(Hotspot {
            center: Point::new(r as f64 * pitch + extent / 2.0, extent / 2.0),
            radius: extent / 2.0,
            weight: 1.0,
        });
    }

    // Corridors: chain the closest node pair of each adjacent core pair.
    for r in 0..cfg.regions - 1 {
        let (a, c) = closest_pair(&b, &region_nodes[r], &region_nodes[r + 1]);
        let (pa, pc) = (builder_point(&b, a), builder_point(&b, c));
        let gap = pa.distance(&pc);
        let hops = (gap / cfg.corridor_spacing_m).ceil().max(1.0) as usize;
        let mut prev = a;
        for h in 1..hops {
            let p = pa.lerp(&pc, h as f64 / hops as f64);
            let v = b.add_node(p);
            b.add_two_way(prev, v, dist(&b, prev, v))
                .expect("corridor edge");
            prev = v;
        }
        b.add_two_way(prev, c, dist(&b, prev, c))
            .expect("corridor closure");
    }

    City {
        name: "multi-region".to_string(),
        net: b.build().expect("nonempty multi-region city"),
        hotspots,
    }
}

/// Configuration for [`ring_radial_city`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct RingRadialCityConfig {
    /// Underlying mesh configuration.
    pub mesh: GridCityConfig,
    /// Number of concentric ring roads.
    pub rings: usize,
    /// Number of radial avenues.
    pub radials: usize,
}

impl Default for RingRadialCityConfig {
    fn default() -> Self {
        RingRadialCityConfig {
            mesh: GridCityConfig {
                rows: 48,
                cols: 48,
                spacing_m: 160.0,
                jitter: 0.25,
                removal_fraction: 0.08,
            },
            rings: 4,
            radials: 8,
        }
    }
}

/// Generates a Beijing-like city: a large mesh overlaid with concentric ring
/// roads and radial avenues (direct long edges between mesh nodes near the
/// ring/radial alignments). Hotspots: the center plus zones on the middle
/// ring, mimicking Beijing's polycentric ring structure.
pub(crate) fn ring_radial_city<R: RngExt>(cfg: &RingRadialCityConfig, rng: &mut R) -> City {
    let net = grid_patch(&cfg.mesh, Point::new(0.0, 0.0), rng);
    let bb = net.bounding_box();
    let center = Point::new((bb.min.x + bb.max.x) / 2.0, (bb.min.y + bb.max.y) / 2.0);
    let max_r = bb.width().min(bb.height()) / 2.0;

    let mut b = builder_of(net);

    // Ring roads: connect consecutive nodes near each ring circle.
    for ring in 1..=cfg.rings {
        let r = max_r * ring as f64 / (cfg.rings as f64 + 0.5);
        let steps = (r * std::f64::consts::TAU / (cfg.mesh.spacing_m * 2.0)).ceil() as usize;
        let mut prev: Option<NodeId> = None;
        let mut first: Option<NodeId> = None;
        for s in 0..steps {
            let angle = s as f64 / steps as f64 * std::f64::consts::TAU;
            let p = Point::new(center.x + r * angle.cos(), center.y + r * angle.sin());
            let v = nearest_builder_node(&b, p);
            if let Some(u) = prev {
                if u != v {
                    let w = dist(&b, u, v);
                    b.add_two_way(u, v, w).expect("ring edge");
                }
            } else {
                first = Some(v);
            }
            prev = Some(v);
        }
        if let (Some(u), Some(v)) = (prev, first) {
            if u != v {
                let w = dist(&b, u, v);
                b.add_two_way(u, v, w).expect("ring closure");
            }
        }
    }

    // Radial avenues: chains of long edges from center outward.
    for s in 0..cfg.radials {
        let angle = s as f64 / cfg.radials as f64 * std::f64::consts::TAU;
        let mut prev = nearest_builder_node(&b, center);
        let step = cfg.mesh.spacing_m * 3.0;
        let mut r = step;
        while r < max_r {
            let p = Point::new(center.x + r * angle.cos(), center.y + r * angle.sin());
            let v = nearest_builder_node(&b, p);
            if v != prev {
                let w = dist(&b, prev, v);
                b.add_two_way(prev, v, w).expect("radial edge");
                prev = v;
            }
            r += step;
        }
    }

    let mut hotspots = vec![Hotspot {
        center,
        radius: max_r * 0.25,
        weight: 3.0,
    }];
    let mid_r = max_r * 0.6;
    for i in 0..5 {
        let angle = i as f64 / 5.0 * std::f64::consts::TAU;
        hotspots.push(Hotspot {
            center: Point::new(
                center.x + mid_r * angle.cos(),
                center.y + mid_r * angle.sin(),
            ),
            radius: max_r * 0.18,
            weight: 1.0,
        });
    }

    City {
        name: "ring-radial".to_string(),
        net: b.build().expect("nonempty ring-radial city"),
        hotspots,
    }
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

/// Builds a jittered mesh patch with `cfg` whose south-west corner sits at
/// `origin`, returning the largest strongly connected component.
fn grid_patch<R: RngExt>(cfg: &GridCityConfig, origin: Point, rng: &mut R) -> RoadNetwork {
    assert!(cfg.rows >= 2 && cfg.cols >= 2, "mesh needs ≥ 2x2 nodes");
    assert!(
        (0.0..0.5).contains(&cfg.removal_fraction),
        "removal_fraction must be in [0, 0.5)"
    );
    let mut b = RoadNetworkBuilder::with_capacity(cfg.rows * cfg.cols, cfg.rows * cfg.cols * 4);
    let j = cfg.spacing_m * cfg.jitter;
    for y in 0..cfg.rows {
        for x in 0..cfg.cols {
            let jx = if j > 0.0 {
                rng.random_range(-j..j)
            } else {
                0.0
            };
            let jy = if j > 0.0 {
                rng.random_range(-j..j)
            } else {
                0.0
            };
            b.add_node(Point::new(
                origin.x + x as f64 * cfg.spacing_m + jx,
                origin.y + y as f64 * cfg.spacing_m + jy,
            ));
        }
    }
    let id = |x: usize, y: usize| NodeId((y * cfg.cols + x) as u32);
    for y in 0..cfg.rows {
        for x in 0..cfg.cols {
            if x + 1 < cfg.cols && rng.random::<f64>() >= cfg.removal_fraction {
                let (u, v) = (id(x, y), id(x + 1, y));
                let w = dist(&b, u, v);
                b.add_two_way(u, v, w).expect("mesh edge");
            }
            if y + 1 < cfg.rows && rng.random::<f64>() >= cfg.removal_fraction {
                let (u, v) = (id(x, y), id(x, y + 1));
                let w = dist(&b, u, v);
                b.add_two_way(u, v, w).expect("mesh edge");
            }
        }
    }
    let net = b.build().expect("mesh nonempty");
    largest_scc_subgraph(&net)
}

/// Extracts the induced subgraph on the largest strongly connected
/// component, relabeling nodes densely.
pub(crate) fn largest_scc_subgraph(net: &RoadNetwork) -> RoadNetwork {
    let scc = strongly_connected_components(net);
    let keep = scc.largest_component();
    if keep.len() == net.node_count() {
        return net.clone();
    }
    let mut map = vec![u32::MAX; net.node_count()];
    let mut b = RoadNetworkBuilder::with_capacity(keep.len(), keep.len() * 4);
    for &v in &keep {
        map[v.index()] = b.add_node(net.point(v)).0;
    }
    for &v in &keep {
        for (u, w) in net.out_edges(v) {
            if map[u.index()] != u32::MAX {
                b.add_edge(NodeId(map[v.index()]), NodeId(map[u.index()]), w)
                    .expect("induced edge");
            }
        }
    }
    b.build().expect("largest SCC nonempty")
}

/// Reopens a frozen network for further construction.
fn builder_of(net: RoadNetwork) -> RoadNetworkBuilder {
    let mut b = RoadNetworkBuilder::with_capacity(net.node_count(), net.edge_count());
    for v in net.nodes() {
        b.add_node(net.point(v));
    }
    for v in net.nodes() {
        for (u, w) in net.out_edges(v) {
            b.add_edge(v, u, w).expect("copied edge");
        }
    }
    b
}

/// Euclidean distance between two builder nodes, floored at 1 m so edge
/// weights stay valid even when jitter places nodes on top of each other.
fn dist(b: &RoadNetworkBuilder, u: NodeId, v: NodeId) -> f64 {
    builder_point(b, u).distance(&builder_point(b, v)).max(1.0)
}

/// Nearest builder node to `p` by linear scan (generation-time only).
fn nearest_builder_node(b: &RoadNetworkBuilder, p: Point) -> NodeId {
    let mut best = (NodeId(0), f64::INFINITY);
    for i in 0..b.node_count() {
        let v = NodeId(i as u32);
        let d = builder_point(b, v).distance_sq(&p);
        if d < best.1 {
            best = (v, d);
        }
    }
    best.0
}

/// Closest pair of nodes between two groups (squared-distance scan).
fn closest_pair(b: &RoadNetworkBuilder, xs: &[NodeId], ys: &[NodeId]) -> (NodeId, NodeId) {
    let mut best = (xs[0], ys[0], f64::INFINITY);
    for &x in xs {
        let px = builder_point(b, x);
        for &y in ys {
            let d = px.distance_sq(&builder_point(b, y));
            if d < best.2 {
                best = (x, y, d);
            }
        }
    }
    (best.0, best.1)
}

fn builder_point(b: &RoadNetworkBuilder, v: NodeId) -> Point {
    b.point(v).expect("node exists in builder")
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::is_strongly_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_city_is_strongly_connected() {
        let mut rng = StdRng::seed_from_u64(1);
        let city = grid_city(
            &GridCityConfig {
                rows: 12,
                cols: 12,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(is_strongly_connected(&city.net));
        assert!(city.net.node_count() > 100);
        assert_eq!(city.hotspots.len(), 1);
    }

    #[test]
    fn grid_city_is_deterministic() {
        let cfg = GridCityConfig {
            rows: 8,
            cols: 8,
            ..Default::default()
        };
        let a = grid_city(&cfg, &mut StdRng::seed_from_u64(5));
        let b = grid_city(&cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.net.node_count(), b.net.node_count());
        assert_eq!(a.net.edge_count(), b.net.edge_count());
        let c = grid_city(&cfg, &mut StdRng::seed_from_u64(6));
        // Different seed ⇒ (almost surely) different jitter, possibly same counts.
        assert_eq!(a.net.node_count() > 0, c.net.node_count() > 0);
    }

    #[test]
    fn star_city_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = StarCityConfig {
            core_size: 6,
            spokes: 4,
            spoke_len: 10,
            ..Default::default()
        };
        let city = star_city(&cfg, &mut rng);
        assert!(is_strongly_connected(&city.net));
        // Core + spokes + one hotspot per spoke end + core hotspot.
        assert_eq!(city.hotspots.len(), 5);
        // Spoke ends are far from the core.
        let bb = city.net.bounding_box();
        assert!(bb.width() > cfg.spoke_len as f64 * cfg.spoke_spacing_m);
    }

    #[test]
    fn polycentric_city_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PolycentricCityConfig {
            centers: 4,
            center_size: 6,
            ..Default::default()
        };
        let city = polycentric_city(&cfg, &mut rng);
        assert!(is_strongly_connected(&city.net));
        assert_eq!(city.hotspots.len(), 4);
    }

    #[test]
    fn multi_region_city_shape() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = MultiRegionCityConfig {
            regions: 3,
            region_size: 6,
            ..Default::default()
        };
        let city = multi_region_city(&cfg, &mut rng);
        assert!(is_strongly_connected(&city.net));
        assert_eq!(city.hotspots.len(), 3);
        // Cores sit far apart: the bounding box spans ≥ 2 gaps.
        let bb = city.net.bounding_box();
        assert!(bb.width() > 2.0 * cfg.gap_m);
        // Deterministic given the seed.
        let again = multi_region_city(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(city.net.node_count(), again.net.node_count());
        assert_eq!(city.net.edge_count(), again.net.edge_count());
    }

    #[test]
    fn ring_radial_city_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = RingRadialCityConfig {
            mesh: GridCityConfig {
                rows: 14,
                cols: 14,
                ..Default::default()
            },
            rings: 2,
            radials: 4,
        };
        let city = ring_radial_city(&cfg, &mut rng);
        assert!(is_strongly_connected(&city.net));
        assert!(city.hotspots.len() >= 2);
        // Ring/radial overlay adds edges on top of the mesh.
        let mesh_only = grid_patch(
            &cfg.mesh,
            Point::new(0.0, 0.0),
            &mut StdRng::seed_from_u64(4),
        );
        assert!(city.net.edge_count() > mesh_only.edge_count());
    }

    #[test]
    fn largest_scc_extraction() {
        // Two islands: triangle (0,1,2) and pair (3,4).
        let mut b = RoadNetworkBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            b.add_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        b.add_two_way(NodeId(3), NodeId(4), 1.0).unwrap();
        let net = b.build().unwrap();
        let sub = largest_scc_subgraph(&net);
        assert_eq!(sub.node_count(), 3);
        assert!(is_strongly_connected(&sub));
    }
}
