//! Synthetic trajectory workloads.
//!
//! Substitutes the paper's T-Drive taxi corpus and MNTG traffic traces:
//! trips are sampled between hotspot zones (or uniformly), routed on the
//! network with optional waypoint deviations — real commuters do *not*
//! follow exact shortest paths, a point the paper stresses against prior
//! work — and optionally filtered into route-length classes (Fig. 12).
//! A GPS synthesizer turns generated routes back into noisy traces so the
//! full map-matching pipeline (paper Fig. 2) can be exercised end to end.

use netclus_roadnet::{DijkstraEngine, GridIndex, NodeId, Point, RoadNetwork};
use netclus_trajectory::{GpsPoint, GpsTrace, Trajectory};
use rand::RngExt;

use crate::city::Hotspot;

/// Configuration for trajectory workload generation.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of trajectories to generate.
    pub count: usize,
    /// Fraction of trip endpoints drawn uniformly from the whole extent
    /// instead of from hotspots (0 = pure hotspot traffic).
    pub uniform_fraction: f64,
    /// Probability that a trip routes via a random intermediate waypoint,
    /// deviating from the pure shortest path.
    pub waypoint_probability: f64,
    /// Radius around the OD midpoint from which waypoints are drawn,
    /// as a fraction of the OD distance.
    pub waypoint_spread: f64,
    /// Minimum accepted route length, meters (0 = unbounded).
    pub min_route_m: f64,
    /// Maximum accepted route length, meters (`f64::INFINITY` = unbounded).
    pub max_route_m: f64,
    /// Attempts per trajectory before giving up on the length constraint.
    pub max_attempts: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            count: 1000,
            uniform_fraction: 0.2,
            waypoint_probability: 0.35,
            waypoint_spread: 0.35,
            min_route_m: 0.0,
            max_route_m: f64::INFINITY,
            max_attempts: 40,
        }
    }
}

impl WorkloadConfig {
    /// Restricts generated routes to `[min_km, max_km)` kilometers.
    pub fn with_length_class_km(mut self, min_km: f64, max_km: f64) -> Self {
        self.min_route_m = min_km * 1000.0;
        self.max_route_m = max_km * 1000.0;
        self
    }
}

/// Generates trajectory workloads over one network.
pub struct WorkloadGenerator<'a> {
    net: &'a RoadNetwork,
    grid: &'a GridIndex,
    hotspots: Vec<Hotspot>,
    hotspot_cdf: Vec<f64>,
    dijkstra: DijkstraEngine,
}

impl<'a> WorkloadGenerator<'a> {
    /// Creates a generator; `hotspots` may be empty (pure uniform traffic).
    pub fn new(net: &'a RoadNetwork, grid: &'a GridIndex, hotspots: &[Hotspot]) -> Self {
        let total: f64 = hotspots.iter().map(|h| h.weight).sum();
        let mut cdf = Vec::with_capacity(hotspots.len());
        let mut acc = 0.0;
        for h in hotspots {
            acc += h.weight / total.max(f64::MIN_POSITIVE);
            cdf.push(acc);
        }
        let mut dijkstra = DijkstraEngine::new(net.node_count());
        dijkstra.set_track_parents(true);
        WorkloadGenerator {
            net,
            grid,
            hotspots: hotspots.to_vec(),
            hotspot_cdf: cdf,
            dijkstra,
        }
    }

    /// Generates up to `cfg.count` trajectories (fewer only if the length
    /// constraints are infeasible within the attempt budget).
    pub fn generate<R: RngExt>(&mut self, cfg: &WorkloadConfig, rng: &mut R) -> Vec<Trajectory> {
        let mut out = Vec::with_capacity(cfg.count);
        let budget = cfg.count.saturating_mul(cfg.max_attempts).max(cfg.count);
        let mut attempts = 0usize;
        while out.len() < cfg.count && attempts < budget {
            attempts += 1;
            if let Some(t) = self.try_one(cfg, rng) {
                out.push(t);
            }
        }
        out
    }

    /// One trip attempt; `None` if OD sampling, routing, or the length
    /// constraint failed.
    fn try_one<R: RngExt>(&mut self, cfg: &WorkloadConfig, rng: &mut R) -> Option<Trajectory> {
        let target_len = if cfg.max_route_m.is_finite() {
            Some((cfg.min_route_m + cfg.max_route_m) / 2.0)
        } else {
            None
        };
        let origin = self.sample_endpoint(cfg, rng)?;
        let dest = match target_len {
            // Bias the destination search so the straight-line OD distance
            // roughly matches the target route length (circuity ≈ 1.3).
            Some(t) => self.sample_endpoint_near(origin, t / 1.3, rng)?,
            None => self.sample_endpoint(cfg, rng)?,
        };
        if origin == dest {
            return None;
        }

        let route = if rng.random::<f64>() < cfg.waypoint_probability {
            let waypoint = self.sample_waypoint(origin, dest, cfg.waypoint_spread, rng)?;
            let leg1 = self.shortest_path(origin, waypoint)?;
            let leg2 = self.shortest_path(waypoint, dest)?;
            let mut nodes = leg1;
            nodes.extend_from_slice(&leg2[1..]);
            nodes
        } else {
            self.shortest_path(origin, dest)?
        };

        let traj = Trajectory::new(route);
        let len = traj.route_length(self.net);
        if len < cfg.min_route_m || len >= cfg.max_route_m {
            return None;
        }
        Some(traj)
    }

    fn sample_endpoint<R: RngExt>(&self, cfg: &WorkloadConfig, rng: &mut R) -> Option<NodeId> {
        let bb = self.net.bounding_box();
        let p = if self.hotspots.is_empty() || rng.random::<f64>() < cfg.uniform_fraction {
            Point::new(
                rng.random_range(bb.min.x..=bb.max.x),
                rng.random_range(bb.min.y..=bb.max.y),
            )
        } else {
            let u: f64 = rng.random();
            let idx = self
                .hotspot_cdf
                .iter()
                .position(|&c| u <= c)
                .unwrap_or(self.hotspots.len() - 1);
            let h = &self.hotspots[idx];
            let (gx, gy) = gaussian_pair(rng);
            Point::new(h.center.x + gx * h.radius, h.center.y + gy * h.radius)
        };
        self.grid.nearest(self.net, p).map(|(v, _)| v)
    }

    /// Samples a node at straight-line distance ≈ `radius` from `origin`.
    fn sample_endpoint_near<R: RngExt>(
        &self,
        origin: NodeId,
        radius: f64,
        rng: &mut R,
    ) -> Option<NodeId> {
        let o = self.net.point(origin);
        let angle = rng.random_range(0.0..std::f64::consts::TAU);
        let r = radius * rng.random_range(0.9..1.1);
        let p = Point::new(o.x + r * angle.cos(), o.y + r * angle.sin());
        self.grid.nearest(self.net, p).map(|(v, _)| v)
    }

    fn sample_waypoint<R: RngExt>(
        &self,
        origin: NodeId,
        dest: NodeId,
        spread: f64,
        rng: &mut R,
    ) -> Option<NodeId> {
        let (o, d) = (self.net.point(origin), self.net.point(dest));
        let mid = o.lerp(&d, rng.random_range(0.3..0.7));
        let s = o.distance(&d) * spread;
        let (gx, gy) = gaussian_pair(rng);
        let p = Point::new(mid.x + gx * s, mid.y + gy * s);
        self.grid.nearest(self.net, p).map(|(v, _)| v)
    }

    fn shortest_path(&mut self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        self.dijkstra
            .run_bounded_until(self.net.forward(), from, f64::INFINITY, |v, _| v == to);
        self.dijkstra.path_to(to)
    }
}

/// Standard-normal pair via Box–Muller (keeps `rand` the only RNG dep).
fn gaussian_pair<R: RngExt>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Samples one standard-normal value.
pub(crate) fn gaussian<R: RngExt>(rng: &mut R) -> f64 {
    gaussian_pair(rng).0
}

/// Synthesizes a noisy GPS trace from a route: the vehicle moves along the
/// route polyline at `speed_mps`, emitting a fix every `interval_s` seconds
/// with isotropic Gaussian noise of `noise_sigma_m` meters.
pub fn synthesize_gps<R: RngExt>(
    net: &RoadNetwork,
    traj: &Trajectory,
    speed_mps: f64,
    interval_s: f64,
    noise_sigma_m: f64,
    rng: &mut R,
) -> GpsTrace {
    assert!(speed_mps > 0.0 && interval_s > 0.0);
    let nodes = traj.nodes();
    let cum = traj.cumulative_distances(net);
    let total = *cum.last().unwrap();
    let mut fixes = Vec::new();
    let mut t = 0.0f64;
    loop {
        let along = (t * speed_mps).min(total);
        // Locate the segment containing `along`.
        let seg = match cum.binary_search_by(|c| c.total_cmp(&along)) {
            Ok(i) => i.min(nodes.len().saturating_sub(2)),
            Err(i) => i.saturating_sub(1).min(nodes.len().saturating_sub(2)),
        };
        let pos = if nodes.len() == 1 {
            net.point(nodes[0])
        } else {
            let seg_len = (cum[seg + 1] - cum[seg]).max(f64::MIN_POSITIVE);
            let frac = ((along - cum[seg]) / seg_len).clamp(0.0, 1.0);
            net.point(nodes[seg]).lerp(&net.point(nodes[seg + 1]), frac)
        };
        let (gx, gy) = gaussian_pair(rng);
        fixes.push(GpsPoint::new(
            Point::new(pos.x + gx * noise_sigma_m, pos.y + gy * noise_sigma_m),
            t,
        ));
        if along >= total {
            break;
        }
        t += interval_s;
    }
    GpsTrace::new(fixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::{grid_city, GridCityConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_city() -> crate::city::City {
        let mut rng = StdRng::seed_from_u64(11);
        grid_city(
            &GridCityConfig {
                rows: 15,
                cols: 15,
                spacing_m: 200.0,
                jitter: 0.2,
                removal_fraction: 0.05,
            },
            &mut rng,
        )
    }

    #[test]
    fn generates_requested_count() {
        let city = small_city();
        let grid = GridIndex::build(&city.net, 300.0);
        let mut gen = WorkloadGenerator::new(&city.net, &grid, &city.hotspots);
        let mut rng = StdRng::seed_from_u64(1);
        let trajs = gen.generate(
            &WorkloadConfig {
                count: 50,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(trajs.len(), 50);
        for t in &trajs {
            assert!(t.len() >= 2, "trivial trajectory generated");
            // Consecutive nodes must be connected (valid routes).
            for w in t.nodes().windows(2) {
                assert!(city.net.edge_weight(w[0], w[1]).is_some());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let city = small_city();
        let grid = GridIndex::build(&city.net, 300.0);
        let cfg = WorkloadConfig {
            count: 20,
            ..Default::default()
        };
        let a = WorkloadGenerator::new(&city.net, &grid, &city.hotspots)
            .generate(&cfg, &mut StdRng::seed_from_u64(99));
        let b = WorkloadGenerator::new(&city.net, &grid, &city.hotspots)
            .generate(&cfg, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    fn length_class_constraint_is_respected() {
        let city = small_city();
        let grid = GridIndex::build(&city.net, 300.0);
        let mut gen = WorkloadGenerator::new(&city.net, &grid, &city.hotspots);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = WorkloadConfig {
            count: 20,
            ..Default::default()
        }
        .with_length_class_km(1.0, 2.0);
        let trajs = gen.generate(&cfg, &mut rng);
        assert!(!trajs.is_empty());
        for t in &trajs {
            let len = t.route_length(&city.net);
            assert!((1000.0..2000.0).contains(&len), "length {len}");
        }
    }

    #[test]
    fn waypoints_deviate_from_shortest_path() {
        let city = small_city();
        let grid = GridIndex::build(&city.net, 300.0);
        let mut rng = StdRng::seed_from_u64(5);
        // All trips via waypoints...
        let mut gen = WorkloadGenerator::new(&city.net, &grid, &city.hotspots);
        let wp = gen.generate(
            &WorkloadConfig {
                count: 30,
                waypoint_probability: 1.0,
                ..Default::default()
            },
            &mut rng,
        );
        // ...must on average be longer than the direct shortest path.
        let mut engine = DijkstraEngine::new(city.net.node_count());
        let mut longer = 0usize;
        let mut total = 0usize;
        for t in &wp {
            let (o, d) = (t.origin(), t.destination());
            if o == d {
                continue;
            }
            engine.run_bounded_until(city.net.forward(), o, f64::INFINITY, |v, _| v == d);
            if let Some(direct) = engine.distance(d) {
                total += 1;
                if t.route_length(&city.net) > direct + 1.0 {
                    longer += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            longer * 3 >= total,
            "waypoint trips should often exceed the shortest path ({longer}/{total})"
        );
    }

    #[test]
    fn gps_synthesis_and_sanity() {
        let city = small_city();
        let grid = GridIndex::build(&city.net, 300.0);
        let mut gen = WorkloadGenerator::new(&city.net, &grid, &city.hotspots);
        let mut rng = StdRng::seed_from_u64(7);
        let traj = gen
            .generate(
                &WorkloadConfig {
                    count: 1,
                    ..Default::default()
                },
                &mut rng,
            )
            .pop()
            .unwrap();
        let trace = synthesize_gps(&city.net, &traj, 10.0, 5.0, 15.0, &mut rng);
        assert!(trace.len() >= 2);
        // Duration should match route length / speed (± one interval).
        let expect = traj.route_length(&city.net) / 10.0;
        assert!((trace.duration() - expect).abs() <= 5.0 + 1e-9);
        // First fix near the origin.
        let d0 = trace.points()[0]
            .pos
            .distance(&city.net.point(traj.origin()));
        assert!(d0 < 100.0, "first fix {d0} m from origin");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn static_single_node_gps() {
        let city = small_city();
        let traj = Trajectory::new(vec![NodeId(0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let trace = synthesize_gps(&city.net, &traj, 10.0, 5.0, 0.0, &mut rng);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.points()[0].pos, city.net.point(NodeId(0)));
    }
}
