//! Ready-made evaluation scenarios mirroring the paper's datasets (Table 6).
//!
//! | Paper dataset | Preset | Topology | Default size (scale = 1) |
//! |---------------|--------|----------|--------------------------|
//! | Beijing-Small (1k traj, 50 sites) | [`beijing_small`] | mesh | ~400 nodes, 1,000 traj, 50 sites |
//! | Beijing (123k traj, 270k sites)   | [`beijing_like`]  | ring-radial | ~25k nodes, 20k traj, all-node sites |
//! | New York (9,950 traj)             | [`new_york_like`] | star | ~17k nodes, 9,950 traj |
//! | Atlanta (9,950 traj)              | [`atlanta_like`]  | mesh | ~19k nodes, 9,950 traj |
//! | Bangalore (9,950 traj)            | [`bangalore_like`]| polycentric | ~3k nodes, 9,950 traj |
//!
//! The real corpora are not redistributable; these presets generate
//! topology-matched synthetic equivalents, scaled so that every experiment
//! of the benchmark harness completes on one machine.
//! The `scale` knob multiplies both node and trajectory counts; `--full`
//! in the harness requests paper scale.

use netclus_roadnet::{GridIndex, NodeId, RoadNetwork};
use netclus_trajectory::TrajectorySet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::city::{
    grid_city, multi_region_city, polycentric_city, ring_radial_city, star_city, City,
    GridCityConfig, Hotspot, MultiRegionCityConfig, PolycentricCityConfig, RingRadialCityConfig,
    StarCityConfig,
};
use crate::sites::{select_sites, SiteSelection};
use crate::workload::{WorkloadConfig, WorkloadGenerator};

/// Scenario sizing and seeding knobs.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Master RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Multiplies node and trajectory counts (1.0 = harness default scale).
    pub scale: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0x4E45_5443,
            scale: 1.0,
        }
    }
}

impl ScenarioConfig {
    /// A scenario config with the default seed and the given scale.
    pub fn with_scale(scale: f64) -> Self {
        ScenarioConfig {
            scale,
            ..Default::default()
        }
    }
}

/// A fully materialized evaluation scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable label (e.g. `"beijing-like"`).
    pub name: String,
    /// The road network.
    pub net: RoadNetwork,
    /// Spatial index over the network vertices.
    pub grid: GridIndex,
    /// The trajectory corpus `T`.
    pub trajectories: TrajectorySet,
    /// The candidate sites `S`, sorted by node id.
    pub sites: Vec<NodeId>,
    /// The hotspots the workload was drawn from.
    pub hotspots: Vec<Hotspot>,
}

impl Scenario {
    /// `m`: number of trajectories.
    pub fn trajectory_count(&self) -> usize {
        self.trajectories.len()
    }

    /// `n`: number of candidate sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// One-line summary for harness logs.
    pub fn summary(&self) -> String {
        format!(
            "{}: N={} nodes, |E|={}, m={} trajectories, n={} sites",
            self.name,
            self.net.node_count(),
            self.net.edge_count(),
            self.trajectory_count(),
            self.site_count()
        )
    }
}

/// Side length of a mesh targeting ≈ `nodes` vertices.
fn mesh_dim(nodes: f64) -> usize {
    (nodes.max(64.0).sqrt().round() as usize).max(8)
}

fn materialize(
    name: &str,
    city: City,
    traj_count: usize,
    site_selection: SiteSelection,
    grid_cell_m: f64,
    workload: WorkloadConfig,
    seed: u64,
) -> Scenario {
    let grid = GridIndex::build(&city.net, grid_cell_m);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5745_4C4C);
    let mut gen = WorkloadGenerator::new(&city.net, &grid, &city.hotspots);
    let cfg = WorkloadConfig {
        count: traj_count,
        ..workload
    };
    let trajs = gen.generate(&cfg, &mut rng);
    let trajectories = TrajectorySet::from_trajectories(city.net.node_count(), trajs);
    let mut site_rng = StdRng::seed_from_u64(seed ^ 0x5349_5445);
    let sites = select_sites(&city.net, site_selection, &mut site_rng);
    Scenario {
        name: name.to_string(),
        net: city.net,
        grid,
        trajectories,
        sites,
        hotspots: city.hotspots,
    }
}

/// Beijing-Small analogue (paper Sec. 8.1): a small fixed-area mesh with
/// 1,000 trajectories and 50 random candidate sites — small enough for the
/// exact solver of Fig. 4.
pub fn beijing_small(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let city = grid_city(
        &GridCityConfig {
            rows: 20,
            cols: 20,
            spacing_m: 150.0,
            jitter: 0.25,
            removal_fraction: 0.06,
        },
        &mut rng,
    );
    materialize(
        "beijing-small",
        city,
        1_000,
        SiteSelection::Random(50),
        250.0,
        WorkloadConfig::default(),
        seed,
    )
}

/// Beijing-like scenario: ring-radial topology, ≈ `25k·scale` nodes,
/// `20k·scale` trajectories, every node a candidate site.
pub fn beijing_like(cfg: &ScenarioConfig) -> Scenario {
    let dim = mesh_dim(25_000.0 * cfg.scale);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let city = ring_radial_city(
        &RingRadialCityConfig {
            mesh: GridCityConfig {
                rows: dim,
                cols: dim,
                spacing_m: 160.0,
                jitter: 0.25,
                removal_fraction: 0.08,
            },
            rings: 4,
            radials: 8,
        },
        &mut rng,
    );
    let traj_count = (20_000.0 * cfg.scale).round().max(16.0) as usize;
    materialize(
        "beijing-like",
        city,
        traj_count,
        SiteSelection::AllNodes,
        320.0,
        WorkloadConfig::default(),
        cfg.seed,
    )
}

/// New York-like scenario: star topology (paper Fig. 11 "NYK"); most trips
/// funnel through the core.
pub fn new_york_like(cfg: &ScenarioConfig) -> Scenario {
    // Star parameters sized so core + spokes ≈ 17k·scale nodes at scale 1.
    let core = mesh_dim(6_000.0 * cfg.scale);
    let spoke_len = ((11_000.0 * cfg.scale / 7.0) / (1.0 + 2.0 / 3.0))
        .round()
        .max(6.0) as usize;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4E59_4B00);
    let city = star_city(
        &StarCityConfig {
            core_size: core,
            core_spacing_m: 140.0,
            spokes: 7,
            spoke_len,
            spoke_spacing_m: 170.0,
        },
        &mut rng,
    );
    let traj_count = (9_950.0 * cfg.scale).round().max(16.0) as usize;
    materialize(
        "new-york-like",
        city,
        traj_count,
        SiteSelection::AllNodes,
        300.0,
        WorkloadConfig {
            uniform_fraction: 0.1,
            ..Default::default()
        },
        cfg.seed ^ 0x4E59_4B00,
    )
}

/// Atlanta-like scenario: uniform mesh topology (paper Fig. 11 "ATL");
/// trips spread over the whole city, yielding the lowest coverage utility.
pub fn atlanta_like(cfg: &ScenarioConfig) -> Scenario {
    let dim = mesh_dim(19_000.0 * cfg.scale);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4154_4C00);
    let city = grid_city(
        &GridCityConfig {
            rows: dim,
            cols: dim,
            spacing_m: 170.0,
            jitter: 0.3,
            removal_fraction: 0.10,
        },
        &mut rng,
    );
    let traj_count = (9_950.0 * cfg.scale).round().max(16.0) as usize;
    materialize(
        "atlanta-like",
        city,
        traj_count,
        SiteSelection::AllNodes,
        340.0,
        WorkloadConfig {
            uniform_fraction: 0.9,
            ..Default::default()
        },
        cfg.seed ^ 0x4154_4C00,
    )
}

/// Bangalore-like scenario: polycentric topology (paper Fig. 11 "BNG") on a
/// much smaller network, concentrating trips between sub-centers.
pub fn bangalore_like(cfg: &ScenarioConfig) -> Scenario {
    let center_size = mesh_dim(3_000.0 * cfg.scale / 5.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x424E_4700);
    let city = polycentric_city(
        &PolycentricCityConfig {
            centers: 5,
            center_size,
            spacing_m: 150.0,
            layout_radius_m: 3_800.0,
        },
        &mut rng,
    );
    let traj_count = (9_950.0 * cfg.scale).round().max(16.0) as usize;
    materialize(
        "bangalore-like",
        city,
        traj_count,
        SiteSelection::AllNodes,
        300.0,
        WorkloadConfig {
            uniform_fraction: 0.1,
            ..Default::default()
        },
        cfg.seed ^ 0x424E_4700,
    )
}

/// Multi-region scenario for sharded serving: `regions` distinct city
/// cores (≈ `1500·scale` nodes each) joined by inter-city corridors, with
/// one hotspot per core. Endpoint pairs are drawn independently across
/// hotspots, so roughly `(regions−1)/regions` of the trips cross a
/// corridor — the boundary trajectories a region partitioner must
/// replicate.
pub fn multi_region(cfg: &ScenarioConfig, regions: usize) -> Scenario {
    let region_size = mesh_dim(1_500.0 * cfg.scale).max(6);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4D52_4547);
    let city = multi_region_city(
        &MultiRegionCityConfig {
            regions,
            region_size,
            spacing_m: 150.0,
            gap_m: 5_000.0,
            corridor_spacing_m: 400.0,
        },
        &mut rng,
    );
    let traj_count = (4_000.0 * cfg.scale).round().max(32.0) as usize;
    materialize(
        &format!("multi-region-{regions}"),
        city,
        traj_count,
        SiteSelection::AllNodes,
        300.0,
        WorkloadConfig {
            uniform_fraction: 0.05,
            waypoint_probability: 0.2,
            ..Default::default()
        },
        cfg.seed ^ 0x4D52_4547,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::is_strongly_connected;

    fn tiny() -> ScenarioConfig {
        ScenarioConfig {
            seed: 7,
            scale: 0.02,
        }
    }

    #[test]
    fn beijing_small_matches_paper_shape() {
        let s = beijing_small(3);
        assert_eq!(s.trajectory_count(), 1000);
        assert_eq!(s.site_count(), 50);
        assert!(is_strongly_connected(&s.net));
        assert!(s.summary().contains("beijing-small"));
    }

    #[test]
    fn beijing_like_scales() {
        let s = beijing_like(&tiny());
        assert!(s.net.node_count() >= 300, "got {}", s.net.node_count());
        assert_eq!(s.trajectory_count(), 400);
        assert_eq!(s.site_count(), s.net.node_count());
        assert!(is_strongly_connected(&s.net));
    }

    #[test]
    fn city_presets_are_distinct_topologies() {
        let cfg = tiny();
        let ny = new_york_like(&cfg);
        let atl = atlanta_like(&cfg);
        let bng = bangalore_like(&cfg);
        for s in [&ny, &atl, &bng] {
            assert!(is_strongly_connected(&s.net), "{} disconnected", s.name);
            assert!(s.trajectory_count() > 0);
        }
        // Bangalore is by far the smallest network (paper Table 6).
        assert!(bng.net.node_count() < atl.net.node_count());
        assert!(bng.net.node_count() < ny.net.node_count());
    }

    #[test]
    fn multi_region_has_cross_region_traffic() {
        use netclus_roadnet::RegionPartition;
        let s = multi_region(&tiny(), 4);
        assert!(is_strongly_connected(&s.net));
        assert_eq!(s.hotspots.len(), 4);
        // A 4-way spatial partition must see a healthy share of
        // shard-crossing (boundary) trajectories.
        let partition = RegionPartition::build(&s.net, 4);
        let mut boundary = 0usize;
        for (_, t) in s.trajectories.iter() {
            let mut shards: Vec<u32> = t.nodes().iter().map(|&v| partition.shard_of(v)).collect();
            shards.sort_unstable();
            shards.dedup();
            if shards.len() >= 2 {
                boundary += 1;
            }
        }
        let frac = boundary as f64 / s.trajectory_count() as f64;
        assert!(
            frac > 0.2,
            "expected plenty of corridor trips, got {boundary}/{}",
            s.trajectory_count()
        );
        assert!(frac < 0.95, "intra-core trips vanished ({frac:.2})");
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = beijing_small(11);
        let b = beijing_small(11);
        assert_eq!(a.net.node_count(), b.net.node_count());
        assert_eq!(a.sites, b.sites);
        assert_eq!(a.trajectory_count(), b.trajectory_count());
        let ta: Vec<_> = a.trajectories.iter().map(|(_, t)| t.clone()).collect();
        let tb: Vec<_> = b.trajectories.iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(ta, tb);
    }
}
