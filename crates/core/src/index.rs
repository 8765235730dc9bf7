//! The multi-resolution NetClus index (paper Sec. 4.4).
//!
//! NetClus maintains `t` clustering instances `I_0 … I_{t−1}` with radii
//! `R_p = (1 + γ)^p · R_0`, `R_0 = τ_min / 4`. Instance `I_p` serves query
//! thresholds `τ ∈ [4R_p, 4R_p(1 + γ))`: below `4R_p` coverage through the
//! cluster would not be guaranteed; above `4R_p(1+γ)` a coarser instance
//! processes fewer clusters. The number of instances is
//! `t = ⌊log_{1+γ}(τ_max / τ_min)⌋ + 1`.
//!
//! Out-of-range thresholds clamp to the extreme instances, matching the
//! paper's analysis: `τ < τ_min` degenerates toward per-site clusters and
//! `τ ≥ τ_max` makes any `k` sites equivalent.

use std::time::{Duration, Instant};

use netclus_roadnet::{DijkstraEngine, NodeId, RoadNetwork};
use netclus_trajectory::TrajectorySet;

use crate::cluster::ClusterInstance;
use crate::gdsp::{greedy_gdsp, GdspConfig, GdspResult};

/// Configuration of a NetClus index build.
#[derive(Clone, Copy, Debug)]
pub struct NetClusConfig {
    /// Index resolution parameter `γ ∈ (0, 1]` (paper default 0.75,
    /// Table 7).
    pub gamma: f64,
    /// Smallest supported coverage threshold (paper: minimum round-trip
    /// distance between two sites; see [`estimate_tau_range`]).
    pub tau_min: f64,
    /// Largest supported coverage threshold (exclusive ladder end).
    pub tau_max: f64,
    /// Worker threads for the offline phase.
    pub threads: usize,
}

impl Default for NetClusConfig {
    fn default() -> Self {
        NetClusConfig {
            gamma: 0.75,
            tau_min: 400.0,
            tau_max: 8_000.0,
            threads: num_threads_default(),
        }
    }
}

/// Default parallelism: the machine's logical CPU count.
pub fn num_threads_default() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl NetClusConfig {
    /// Number of index instances `t` for this configuration.
    pub fn instance_count(&self) -> usize {
        assert!(self.gamma > 0.0, "γ must be positive");
        assert!(
            self.tau_min > 0.0 && self.tau_max >= self.tau_min,
            "need 0 < τ_min ≤ τ_max"
        );
        ((self.tau_max / self.tau_min).ln() / (1.0 + self.gamma).ln()).floor() as usize + 1
    }

    /// Cluster radius of instance `p`.
    pub fn radius(&self, p: usize) -> f64 {
        (self.tau_min / 4.0) * (1.0 + self.gamma).powi(p as i32)
    }
}

/// The corpus-independent half of a NetClus index build: the Greedy-GDSP
/// clustering of the road network at every resolution of the ladder.
///
/// Clustering depends only on the network and the `(γ, τ_min, τ_max)`
/// parameters — not on trajectories or candidate sites — so a
/// sharded deployment computes it **once** and shares it across every
/// per-shard [`NetClusIndex::build_clustered`] call. Shard indexes built
/// from the same clustering agree on cluster identities (cluster `i` of
/// instance `p` is the same ball of vertices everywhere), which is what
/// makes cross-shard candidate merging well-defined.
#[derive(Clone, Debug)]
pub struct NetworkClustering {
    gamma: f64,
    tau_min: f64,
    tau_max: f64,
    gdsp: Vec<GdspResult>,
    build_time: Duration,
}

impl NetworkClustering {
    /// Runs Greedy-GDSP at every radius of `config`'s instance ladder.
    pub fn build(net: &RoadNetwork, config: &NetClusConfig) -> NetworkClustering {
        let start = Instant::now();
        let gdsp = (0..config.instance_count())
            .map(|p| {
                greedy_gdsp(
                    net,
                    &GdspConfig {
                        radius: config.radius(p),
                        threads: config.threads,
                    },
                )
            })
            .collect();
        NetworkClustering {
            gamma: config.gamma,
            tau_min: config.tau_min,
            tau_max: config.tau_max,
            gdsp,
            build_time: start.elapsed(),
        }
    }

    /// Number of clustering instances (the ladder height `t`).
    pub fn instance_count(&self) -> usize {
        self.gdsp.len()
    }

    /// The raw clustering of instance `p`.
    pub fn gdsp(&self, p: usize) -> &GdspResult {
        &self.gdsp[p]
    }

    /// Wall-clock time of the clustering sweep.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Whether `config` would reproduce this ladder (same γ/τ-range, so
    /// same radii and instance count).
    pub fn matches(&self, config: &NetClusConfig) -> bool {
        self.gamma == config.gamma
            && self.tau_min == config.tau_min
            && self.tau_max == config.tau_max
            && self.gdsp.len() == config.instance_count()
    }
}

/// The NetClus index: all instances plus the candidate-site flags
/// (mutable via the dynamic-update API in [`crate::update`]).
#[derive(Clone, Debug)]
pub struct NetClusIndex {
    pub(crate) config: NetClusConfig,
    pub(crate) instances: Vec<ClusterInstance>,
    pub(crate) is_site: Vec<bool>,
    build_time: Duration,
}

impl NetClusIndex {
    /// Builds the full multi-resolution index (the offline phase of paper
    /// Fig. 2).
    pub fn build(
        net: &RoadNetwork,
        trajs: &TrajectorySet,
        sites: &[NodeId],
        config: NetClusConfig,
    ) -> NetClusIndex {
        let clustering = NetworkClustering::build(net, &config);
        Self::build_clustered(net, trajs, sites, config, &clustering)
    }

    /// Builds the index from a precomputed [`NetworkClustering`]. The
    /// clustering is corpus- and site-independent, so sharded deployments
    /// run the expensive GDSP sweep once and enrich it per shard.
    ///
    /// # Panics
    /// Panics if `clustering` was built for different ladder parameters.
    pub fn build_clustered(
        net: &RoadNetwork,
        trajs: &TrajectorySet,
        sites: &[NodeId],
        config: NetClusConfig,
        clustering: &NetworkClustering,
    ) -> NetClusIndex {
        assert!(
            clustering.matches(&config),
            "clustering ladder does not match the index configuration"
        );
        let start = Instant::now();
        let t = config.instance_count();
        let mut is_site = vec![false; net.node_count()];
        for &s in sites {
            is_site[s.index()] = true;
        }
        let instances: Vec<ClusterInstance> = (0..t)
            .map(|p| {
                ClusterInstance::build(
                    net,
                    trajs,
                    &is_site,
                    clustering.gdsp(p),
                    config.radius(p),
                    config.gamma,
                    config.threads,
                )
            })
            .collect();
        NetClusIndex {
            config,
            instances,
            is_site,
            build_time: start.elapsed() + clustering.build_time(),
        }
    }

    /// The instance index serving threshold `tau`:
    /// `p = ⌊log_{1+γ}(τ / τ_min)⌋`, clamped into `[0, t)`.
    pub fn instance_for(&self, tau: f64) -> usize {
        assert!(tau.is_finite() && tau > 0.0, "invalid τ: {tau}");
        let raw = (tau / self.config.tau_min).ln() / (1.0 + self.config.gamma).ln();
        let p = raw.floor().max(0.0) as usize;
        p.min(self.instances.len() - 1)
    }

    /// All instances, finest first.
    pub fn instances(&self) -> &[ClusterInstance] {
        &self.instances
    }

    /// Instance `p`.
    pub fn instance(&self, p: usize) -> &ClusterInstance {
        &self.instances[p]
    }

    /// The build configuration.
    pub fn config(&self) -> &NetClusConfig {
        &self.config
    }

    /// Whether `v` is currently flagged as a candidate site.
    pub fn is_site(&self, v: NodeId) -> bool {
        self.is_site[v.index()]
    }

    /// Current number of candidate sites.
    pub fn site_count(&self) -> usize {
        self.is_site.iter().filter(|&&s| s).count()
    }

    /// Total offline build time.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Approximate heap footprint in bytes over all instances — the
    /// quantity reported for NetClus in the paper's Table 9
    /// (`O(Σ_p η_p(ξ_p + λ_p))`, Th. 9).
    pub fn heap_size_bytes(&self) -> usize {
        self.instances
            .iter()
            .map(ClusterInstance::heap_size_bytes)
            .sum::<usize>()
            + self.is_site.capacity()
    }
}

/// Estimates `[τ_min, τ_max)` from the data as the paper prescribes
/// (Sec. 4.4: the minimum and maximum round-trip distances between any two
/// sites), via sampling: for `samples` random sites, the round-trip
/// distance to the nearest other site (→ `τ_min` as the minimum observed)
/// and to the farthest reachable site (→ `τ_max` as the maximum observed).
///
/// Exact extremes would need all-pairs distances; sampling under-estimates
/// `τ_max` slightly, which only costs one extra clamp at query time.
pub fn estimate_tau_range(
    net: &RoadNetwork,
    sites: &[NodeId],
    samples: usize,
    seed: u64,
) -> (f64, f64) {
    assert!(sites.len() >= 2, "need at least two sites");
    let mut fwd = DijkstraEngine::new(net.node_count());
    let mut bwd = DijkstraEngine::new(net.node_count());
    let mut is_site = vec![false; net.node_count()];
    for &s in sites {
        is_site[s.index()] = true;
    }

    // Deterministic sample: a simple LCG over the site list (no rand dep).
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % sites.len()
    };

    let mut tau_min = f64::INFINITY;
    let mut tau_max: f64 = 0.0;
    for _ in 0..samples.max(1) {
        let s = sites[next()];
        fwd.run(net.forward(), s);
        bwd.run(net.backward(), s);
        let mut nearest = f64::INFINITY;
        let mut farthest: f64 = 0.0;
        for &v in fwd.reached() {
            if v == s || !is_site[v.index()] {
                continue;
            }
            let (Some(df), Some(db)) = (fwd.distance(v), bwd.distance(v)) else {
                continue;
            };
            let rt = df + db;
            nearest = nearest.min(rt);
            farthest = farthest.max(rt);
        }
        if nearest.is_finite() {
            tau_min = tau_min.min(nearest);
        }
        tau_max = tau_max.max(farthest);
    }
    assert!(
        tau_min.is_finite() && tau_max > 0.0,
        "sampled sites are mutually unreachable"
    );
    (tau_min, tau_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};
    use netclus_trajectory::Trajectory;

    fn fixture() -> (RoadNetwork, TrajectorySet, Vec<NodeId>) {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..20 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..19u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        for s in 0..10u32 {
            trajs.add(Trajectory::new((s..s + 8).map(NodeId).collect()));
        }
        let sites: Vec<NodeId> = net.nodes().collect();
        (net, trajs, sites)
    }

    fn config() -> NetClusConfig {
        NetClusConfig {
            gamma: 0.75,
            tau_min: 200.0,
            tau_max: 3_000.0,
            threads: 1,
        }
    }

    #[test]
    fn ladder_shape() {
        let cfg = config();
        // t = floor(ln(15)/ln(1.75)) + 1 = floor(4.84) + 1 = 5.
        assert_eq!(cfg.instance_count(), 5);
        assert_eq!(cfg.radius(0), 50.0);
        assert!((cfg.radius(1) - 87.5).abs() < 1e-9);
        // Radii grow by exactly (1 + γ).
        for p in 0..4 {
            assert!((cfg.radius(p + 1) / cfg.radius(p) - 1.75).abs() < 1e-12);
        }
    }

    #[test]
    fn build_produces_all_instances_with_decreasing_clusters() {
        let (net, trajs, sites) = fixture();
        let idx = NetClusIndex::build(&net, &trajs, &sites, config());
        assert_eq!(idx.instances().len(), 5);
        for w in idx.instances().windows(2) {
            assert!(
                w[0].cluster_count() >= w[1].cluster_count(),
                "cluster count must fall with radius"
            );
        }
        assert_eq!(idx.site_count(), 20);
        assert!(idx.heap_size_bytes() > 0);
    }

    #[test]
    fn instance_selection_brackets_tau() {
        let (net, trajs, sites) = fixture();
        let idx = NetClusIndex::build(&net, &trajs, &sites, config());
        let cfg = idx.config();
        for tau in [200.0, 280.0, 350.0, 700.0, 1500.0, 2999.0] {
            let p = idx.instance_for(tau);
            let r = cfg.radius(p);
            // The paper's invariant: 4R_p ≤ τ < 4R_p(1+γ) whenever τ is in
            // the supported range.
            assert!(4.0 * r <= tau + 1e-9, "τ={tau}: 4R={:.1} too big", 4.0 * r);
            if p + 1 < idx.instances().len() {
                assert!(
                    tau < 4.0 * r * (1.0 + cfg.gamma) + 1e-9,
                    "τ={tau} should have used a coarser instance"
                );
            }
        }
        // Clamping below and above the supported range.
        assert_eq!(idx.instance_for(1.0), 0);
        assert_eq!(idx.instance_for(1e9), idx.instances().len() - 1);
    }

    #[test]
    #[should_panic(expected = "invalid τ")]
    fn instance_for_rejects_nonpositive() {
        let (net, trajs, sites) = fixture();
        let idx = NetClusIndex::build(&net, &trajs, &sites, config());
        idx.instance_for(0.0);
    }

    #[test]
    fn tau_range_estimation_on_line() {
        let (net, _, sites) = fixture();
        let (tmin, tmax) = estimate_tau_range(&net, &sites, 10, 7);
        // Adjacent sites are 100 m apart → nearest round trip 200 m.
        assert_eq!(tmin, 200.0);
        // Farthest pair is ≤ 19 edges → ≤ 3800 m round trip.
        assert!((2_000.0..=3_800.0).contains(&tmax), "τ_max {tmax}");
    }

    #[test]
    fn build_clustered_matches_direct_build() {
        let (net, trajs, sites) = fixture();
        let cfg = config();
        let direct = NetClusIndex::build(&net, &trajs, &sites, cfg);
        let clustering = NetworkClustering::build(&net, &cfg);
        assert!(clustering.matches(&cfg));
        assert_eq!(clustering.instance_count(), cfg.instance_count());
        let shared = NetClusIndex::build_clustered(&net, &trajs, &sites, cfg, &clustering);
        assert_eq!(direct.instances().len(), shared.instances().len());
        for (a, b) in direct.instances().iter().zip(shared.instances()) {
            assert_eq!(a.cluster_count(), b.cluster_count());
            for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
                assert_eq!(ca.center, cb.center);
                assert_eq!(ca.representative, cb.representative);
                assert_eq!(ca.traj_list, cb.traj_list);
                assert_eq!(ca.neighbors, cb.neighbors);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn build_clustered_rejects_mismatched_ladder() {
        let (net, trajs, sites) = fixture();
        let clustering = NetworkClustering::build(&net, &config());
        let other = NetClusConfig {
            tau_max: 6_000.0,
            ..config()
        };
        NetClusIndex::build_clustered(&net, &trajs, &sites, other, &clustering);
    }

    #[test]
    fn is_site_flags_match_input() {
        let (net, trajs, _) = fixture();
        let sites = vec![NodeId(2), NodeId(7)];
        let idx = NetClusIndex::build(&net, &trajs, &sites, config());
        assert!(idx.is_site(NodeId(2)));
        assert!(idx.is_site(NodeId(7)));
        assert!(!idx.is_site(NodeId(0)));
        assert_eq!(idx.site_count(), 2);
    }
}
