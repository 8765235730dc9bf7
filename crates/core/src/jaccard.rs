//! Jaccard-similarity clustering baseline (paper Appendix B.1, Table 12).
//!
//! The alternative NetClus rejected: cluster candidate sites by the Jaccard
//! distance of their trajectory covers `TC(s)`. Because `TC` depends on the
//! query threshold `τ`, this clustering can only happen after the full
//! `O(mn)` coverage sets exist — the paper's Table 12 documents the
//! resulting time and memory blow-up (out of memory at τ = 2.4 km on
//! Beijing), which is why distance-based clustering won. This module exists
//! to reproduce that comparison.

use std::time::{Duration, Instant};

use crate::coverage::CoverageProvider;

/// Configuration of the Jaccard clustering baseline.
#[derive(Clone, Copy, Debug)]
pub struct JaccardConfig {
    /// Jaccard-distance threshold `α`: a site joins a cluster when
    /// `J_d(center, site) ≤ α` (paper used α = 0.8).
    pub alpha: f64,
}

/// One Jaccard cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct JaccardCluster {
    /// Provider index of the center site (the highest-weight unclustered
    /// site at creation time).
    pub center: usize,
    /// Provider indices of all member sites (center included).
    pub members: Vec<usize>,
}

/// Result of the baseline clustering.
#[derive(Clone, Debug)]
pub struct JaccardClustering {
    /// Clusters in creation order.
    pub clusters: Vec<JaccardCluster>,
    /// Wall-clock clustering time (excluding coverage construction).
    pub elapsed: Duration,
    /// Scratch memory for the sorted id sets, in bytes (on top of the
    /// coverage index itself).
    pub scratch_bytes: usize,
}

impl JaccardClustering {
    /// Number of clusters produced.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }
}

/// Runs the greedy Jaccard clustering of Appendix B.1 over the coverage
/// sets of `provider`.
pub fn jaccard_clustering<P: CoverageProvider>(
    provider: &P,
    cfg: &JaccardConfig,
) -> JaccardClustering {
    assert!(
        (0.0..=1.0).contains(&cfg.alpha),
        "α must be in [0, 1], got {}",
        cfg.alpha
    );
    let start = Instant::now();
    let n = provider.site_count();

    // Sorted trajectory-id set per site (for linear-merge intersection).
    let id_sets: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            let mut ids: Vec<u32> = provider.covered(i).ids.to_vec();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect();
    let scratch_bytes: usize = id_sets
        .iter()
        .map(|s| std::mem::size_of::<Vec<u32>>() + s.capacity() * 4)
        .sum();

    // Site weight = covered count (binary weight; the appendix uses the
    // preference-score sum, which reduces to this for the binary instance
    // that Table 12 measures).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        id_sets[b]
            .len()
            .cmp(&id_sets[a].len())
            .then_with(|| a.cmp(&b))
    });

    let mut clustered = vec![false; n];
    let mut clusters = Vec::new();
    for &center in &order {
        if clustered[center] {
            continue;
        }
        clustered[center] = true;
        let mut members = vec![center];
        for cand in 0..n {
            if clustered[cand] {
                continue;
            }
            if jaccard_distance(&id_sets[center], &id_sets[cand]) <= cfg.alpha {
                clustered[cand] = true;
                members.push(cand);
            }
        }
        clusters.push(JaccardCluster { center, members });
    }

    JaccardClustering {
        clusters,
        elapsed: start.elapsed(),
        scratch_bytes,
    }
}

/// `1 − |A ∩ B| / |A ∪ B|` over sorted, deduplicated id slices. Two empty
/// sets have distance 0 (identical coverage).
pub(crate) fn jaccard_distance(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    1.0 - inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::ReferenceProvider;

    #[test]
    fn jaccard_distance_cases() {
        assert_eq!(jaccard_distance(&[], &[]), 0.0);
        assert_eq!(jaccard_distance(&[1, 2], &[1, 2]), 0.0);
        assert_eq!(jaccard_distance(&[1, 2], &[3, 4]), 1.0);
        assert!((jaccard_distance(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard_distance(&[1], &[]), 1.0);
    }

    #[test]
    fn identical_covers_cluster_together() {
        let p = ReferenceProvider::binary(
            6,
            vec![
                vec![0, 1, 2],
                vec![0, 1, 2], // duplicate of site 0
                vec![3, 4, 5],
            ],
        );
        let r = jaccard_clustering(&p, &JaccardConfig { alpha: 0.2 });
        assert_eq!(r.cluster_count(), 2);
        let c0 = &r.clusters[0];
        let mut m0 = c0.members.clone();
        m0.sort_unstable();
        assert_eq!(m0, vec![0, 1]);
    }

    #[test]
    fn alpha_one_collapses_everything() {
        let p = ReferenceProvider::binary(4, vec![vec![0], vec![1], vec![2], vec![3]]);
        let r = jaccard_clustering(&p, &JaccardConfig { alpha: 1.0 });
        assert_eq!(r.cluster_count(), 1);
        assert_eq!(r.clusters[0].members.len(), 4);
    }

    #[test]
    fn alpha_zero_merges_only_identical() {
        let p = ReferenceProvider::binary(4, vec![vec![0, 1], vec![0, 1], vec![0], vec![2, 3]]);
        let r = jaccard_clustering(&p, &JaccardConfig { alpha: 0.0 });
        assert_eq!(r.cluster_count(), 3);
    }

    #[test]
    fn centers_picked_by_weight() {
        // Site 1 has the largest cover; it must be the first center.
        let p = ReferenceProvider::binary(5, vec![vec![0], vec![0, 1, 2, 3], vec![4]]);
        let r = jaccard_clustering(&p, &JaccardConfig { alpha: 0.5 });
        assert_eq!(r.clusters[0].center, 1);
    }

    #[test]
    fn clusters_partition_sites() {
        let p = ReferenceProvider::binary(
            8,
            vec![vec![0, 1], vec![1, 2], vec![5, 6], vec![5, 6, 7], vec![3]],
        );
        let r = jaccard_clustering(&p, &JaccardConfig { alpha: 0.6 });
        let mut seen = [false; 5];
        for c in &r.clusters {
            for &mmb in &c.members {
                assert!(!seen[mmb], "site {mmb} clustered twice");
                seen[mmb] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(r.scratch_bytes > 0);
    }
}
