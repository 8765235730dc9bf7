//! Candidate-site selection and attribute assignment.
//!
//! The paper takes the candidate set `S ⊆ V` as an application input
//! (Sec. 2) and, for the TOPS-COST / TOPS-CAPACITY extensions (Sec. 7),
//! draws per-site costs and capacities from normal distributions. This
//! module reproduces those inputs.

use netclus_roadnet::{NodeId, RoadNetwork};
use rand::RngExt;

use crate::workload::gaussian;

/// How to choose the candidate sites from the vertex set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum SiteSelection {
    /// Every vertex is a candidate (the paper's default: "the number of
    /// candidate sites is the same as the number of nodes", Sec. 8.1).
    AllNodes,
    /// A uniform random sample of exactly `n` vertices (without
    /// replacement).
    Random(usize),
}

/// Selects candidate sites, sorted by node id (deterministic given the RNG).
pub(crate) fn select_sites<R: RngExt>(
    net: &RoadNetwork,
    selection: SiteSelection,
    rng: &mut R,
) -> Vec<NodeId> {
    let n = net.node_count();
    match selection {
        SiteSelection::AllNodes => net.nodes().collect(),
        SiteSelection::Random(k) => {
            assert!(k >= 1 && k <= n, "cannot select {k} sites from {n} nodes");
            sample_without_replacement(n, k, rng)
        }
    }
}

/// Floyd's algorithm: uniform k-subset of `0..n`, returned sorted.
fn sample_without_replacement<R: RngExt>(n: usize, k: usize, rng: &mut R) -> Vec<NodeId> {
    use std::collections::BTreeSet;
    let mut chosen: BTreeSet<usize> = BTreeSet::new();
    for j in (n - k)..n {
        let t = rng.random_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().map(NodeId::from_index).collect()
}

/// Draws per-site costs from `N(mean, std)` clamped below at `floor`
/// (the paper's Fig. 7a/9 setup: mean 1.0, σ ∈ [0, 1], floor 0.1).
pub fn assign_costs_normal<R: RngExt>(
    count: usize,
    mean: f64,
    std: f64,
    floor: f64,
    rng: &mut R,
) -> Vec<f64> {
    assert!(std >= 0.0 && floor >= 0.0);
    (0..count)
        .map(|_| (mean + gaussian(rng) * std).max(floor))
        .collect()
}

/// Draws per-site capacities from `N(mean, std)` clamped below at 0
/// and rounded (the paper's Fig. 7b setup: mean ∈ [0.1%, 100%] of `m`,
/// σ = 10% of the mean).
pub fn assign_capacities_normal<R: RngExt>(
    count: usize,
    mean: f64,
    std: f64,
    rng: &mut R,
) -> Vec<u64> {
    assert!(std >= 0.0);
    (0..count)
        .map(|_| (mean + gaussian(rng) * std).max(0.0).round() as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(n: u32) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0));
        }
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn all_nodes_selection() {
        let net = net(10);
        let mut rng = StdRng::seed_from_u64(0);
        let sites = select_sites(&net, SiteSelection::AllNodes, &mut rng);
        assert_eq!(sites.len(), 10);
        assert_eq!(sites[0], NodeId(0));
        assert_eq!(sites[9], NodeId(9));
    }

    #[test]
    fn random_selection_is_exact_sorted_unique() {
        let net = net(100);
        let mut rng = StdRng::seed_from_u64(1);
        let sites = select_sites(&net, SiteSelection::Random(30), &mut rng);
        assert_eq!(sites.len(), 30);
        assert!(sites.windows(2).all(|w| w[0] < w[1]));
        assert!(sites.iter().all(|s| s.index() < 100));
    }

    #[test]
    fn random_selection_covers_range_uniformly() {
        let net = net(50);
        let mut hits = vec![0usize; 50];
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            for s in select_sites(&net, SiteSelection::Random(10), &mut rng) {
                hits[s.index()] += 1;
            }
        }
        // Each node expected 40 times; all nodes must be selectable.
        assert!(hits.iter().all(|&h| h > 5), "biased sampling: {hits:?}");
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn oversized_selection_panics() {
        let net = net(5);
        let mut rng = StdRng::seed_from_u64(0);
        select_sites(&net, SiteSelection::Random(6), &mut rng);
    }

    #[test]
    fn costs_respect_floor_and_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let costs = assign_costs_normal(20_000, 1.0, 0.5, 0.1, &mut rng);
        assert!(costs.iter().all(|&c| c >= 0.1));
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        // Clamping shifts the mean slightly upward.
        assert!((0.95..1.15).contains(&mean), "mean {mean}");
    }

    #[test]
    fn zero_std_costs_are_constant() {
        let mut rng = StdRng::seed_from_u64(4);
        let costs = assign_costs_normal(10, 2.0, 0.0, 0.1, &mut rng);
        assert!(costs.iter().all(|&c| c == 2.0));
    }

    #[test]
    fn capacities_are_nonnegative_and_centered() {
        let mut rng = StdRng::seed_from_u64(5);
        let caps = assign_capacities_normal(10_000, 100.0, 10.0, &mut rng);
        let mean = caps.iter().sum::<u64>() as f64 / caps.len() as f64;
        assert!((95.0..105.0).contains(&mean), "mean {mean}");
    }
}
