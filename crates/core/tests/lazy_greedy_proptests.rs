//! Property tests pinning the solver behind `inc_greedy` (the CELF lazy
//! evaluation) to the paper's Algorithm 1 (`algorithm1_greedy`, the eager
//! reference) **site for site** — what makes every served answer the
//! paper's Inc-Greedy answer, tie-breaking included.
//!
//! Two value regimes make the assertions exact rather than
//! approximately-equal:
//!
//! * **binary ψ** — scores are 0/1, so every weight, marginal and gain is
//!   a small integer: Algorithm 1's incremental marginal maintenance and
//!   the solver's from-scratch recomputation produce *identical*
//!   floating-point values, and any selection divergence is a real
//!   tie-breaking bug, not rounding noise;
//! * **dyadic linear decay** — detours are multiples of ¼ against
//!   τ = 1024, so `ψ = 1 − d/τ` carries at most 12 fractional bits and
//!   every sum/difference the two compute stays exactly representable.
//!   Graded scores exercise the `max-weight` tie-break with real-valued
//!   gains, still bit-for-bit.
//!
//! A third group checks the **greedy prefix property** (the `k'`-run is
//! literally the first `k'` steps of the `k`-run) — the invariant the
//! serving layer's round-1 candidate memo slices on — and a fourth replays
//! the equivalence on the rows of real [`ClusteredProvider`] and
//! [`MergedCandidateProvider`] instances, the two provider shapes the
//! query paths actually run on. Those carry no `SC`, so the Algorithm 1
//! side runs on a [`ReferenceProvider`] holding a copy of their rows.

use netclus::prelude::*;
use netclus::shard::{local_candidates, MergedCandidateProvider};
use netclus::solution::Solution;
use netclus_roadnet::{NodeId, Point, RoadNetworkBuilder};
use netclus_trajectory::{Trajectory, TrajectorySet};
use proptest::prelude::*;

/// A random coverage instance: `m` trajectories, per-site rows of
/// `(trajectory, quarter-meter detour)` pairs (deduplicated, sorted by
/// distance as providers guarantee).
#[derive(Clone, Debug)]
struct Instance {
    m: usize,
    rows: Vec<Vec<(u32, f64)>>,
}

const TAU: f64 = 1024.0;

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (1usize..24, 1usize..16)
        .prop_flat_map(|(m, n)| {
            let row = prop::collection::vec((0..m as u32, 0u32..=4 * 1024 + 64), 0..m.min(10));
            (Just(m), prop::collection::vec(row, n))
        })
        .prop_map(|(m, raw)| {
            let rows = raw
                .into_iter()
                .map(|mut row| {
                    row.sort_unstable();
                    row.dedup_by_key(|&mut (tj, _)| tj);
                    // Quarter-meter detours keep LinearDecay scores dyadic
                    // (≤ 12 fractional bits against τ = 1024): all sums
                    // below are exact in f64.
                    let mut row: Vec<(u32, f64)> = row
                        .into_iter()
                        .map(|(tj, q)| (tj, q as f64 * 0.25))
                        .collect();
                    row.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
                    row
                })
                .collect();
            Instance { m, rows }
        })
}

fn provider(inst: &Instance) -> ReferenceProvider {
    ReferenceProvider::new(inst.m, inst.rows.clone())
}

fn cfg(k: usize, preference: PreferenceFunction) -> GreedyConfig {
    GreedyConfig {
        k,
        tau: TAU,
        preference,
    }
}

/// The rows and site nodes of `p`, copied into the provider Algorithm 1
/// can run on.
fn reference_copy<P: CoverageProvider>(p: &P) -> ReferenceProvider {
    let n = p.site_count();
    ReferenceProvider::with_nodes(
        p.traj_id_bound(),
        (0..n).map(|i| p.covered(i).to_pairs()).collect(),
        (0..n).map(|i| p.site_node(i)).collect(),
    )
}

/// Bitwise equality of two greedy runs: same sites in the same order,
/// same per-step gains, same utility, same coverage count.
fn assert_identical(a: &Solution, b: &Solution, what: &str) {
    assert_eq!(a.site_indices, b.site_indices, "{what}: site order");
    assert_eq!(a.gains.len(), b.gains.len(), "{what}: gain count");
    for (i, (x, y)) in a.gains.iter().zip(&b.gains).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: gain {i} drifted");
    }
    assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "{what}: utility");
    assert_eq!(a.covered, b.covered, "{what}: covered");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lazy ≡ eager on random instances, binary and dyadic-linear ψ.
    #[test]
    fn lazy_equals_eager_site_for_site(inst in instance_strategy(), k in 1usize..8) {
        let p = provider(&inst);
        for pref in [PreferenceFunction::Binary, PreferenceFunction::LinearDecay] {
            let eager = algorithm1_greedy(&p, &cfg(k, pref), &[], None);
            let lazy = inc_greedy(&p, &cfg(k, pref));
            assert_identical(&eager, &lazy, "plain");
        }
    }

    /// Lazy ≡ eager through `inc_greedy_from` (existing services fold
    /// their coverage in before the k iterations).
    #[test]
    fn lazy_equals_eager_with_existing_sites(
        inst in instance_strategy(),
        k in 1usize..6,
        existing_seed in prop::collection::vec(0usize..64, 0..4),
    ) {
        let p = provider(&inst);
        // Unique in-range existing indices.
        let mut existing: Vec<usize> = existing_seed
            .into_iter()
            .map(|e| e % inst.rows.len())
            .collect();
        existing.sort_unstable();
        existing.dedup();
        for pref in [PreferenceFunction::Binary, PreferenceFunction::LinearDecay] {
            let eager = algorithm1_greedy(&p, &cfg(k, pref), &existing, None);
            let lazy = inc_greedy_from(&p, &cfg(k, pref), &existing);
            assert_identical(&eager, &lazy, "existing");
        }
    }

    /// Lazy ≡ eager through `inc_greedy_seeded` (per-trajectory baseline
    /// utilities), where the two paths' tie-break weights genuinely
    /// differ from the initial marginals.
    #[test]
    fn lazy_equals_eager_with_seed_utilities(
        inst in instance_strategy(),
        k in 1usize..6,
        seed_64ths in prop::collection::vec(0u32..=64, 24),
    ) {
        let p = provider(&inst);
        // Dyadic seeds in [0, 1] (multiples of 1/64): exact arithmetic.
        let seed: Vec<f64> = (0..inst.m)
            .map(|j| seed_64ths[j % seed_64ths.len()] as f64 / 64.0)
            .collect();
        for pref in [PreferenceFunction::Binary, PreferenceFunction::LinearDecay] {
            let eager = algorithm1_greedy(&p, &cfg(k, pref), &[], Some(&seed));
            let lazy = inc_greedy_seeded(&p, &cfg(k, pref), &seed);
            assert_identical(&eager, &lazy, "seeded");
        }
    }

    /// The greedy prefix property, solver and reference: the `k'`-run is
    /// exactly the first `k'` steps of the `k`-run. This is what lets a
    /// memoized round-1 answer every smaller-`k` repeat by slicing.
    #[test]
    fn greedy_prefix_property(inst in instance_strategy(), k in 2usize..8) {
        let p = provider(&inst);
        for pref in [PreferenceFunction::Binary, PreferenceFunction::LinearDecay] {
            let solver = |k| inc_greedy(&p, &cfg(k, pref));
            let reference = |k| algorithm1_greedy(&p, &cfg(k, pref), &[], None);
            let runs: [(&str, &dyn Fn(usize) -> Solution); 2] =
                [("solver", &solver), ("reference", &reference)];
            for (who, run) in runs {
                let full = run(k);
                for k_small in 1..k {
                    let small = run(k_small);
                    let keep = k_small.min(full.site_indices.len());
                    prop_assert_eq!(
                        &small.site_indices,
                        &full.site_indices[..keep].to_vec(),
                        "{}: prefix k'={} of k={}",
                        who,
                        k_small,
                        k
                    );
                    for (i, (x, y)) in small.gains.iter().zip(&full.gains).enumerate() {
                        prop_assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{}: prefix gain {}",
                            who,
                            i
                        );
                    }
                }
            }
        }
    }
}

/// A random corridor network with bundles of trajectories, the shape the
/// sharded round 1 actually solves on.
#[derive(Clone, Debug)]
struct NetInstance {
    nodes: usize,
    walks: Vec<(usize, usize)>,
}

fn net_instance_strategy() -> impl Strategy<Value = NetInstance> {
    (8usize..28)
        .prop_flat_map(|nodes| {
            let walk = (0..nodes.saturating_sub(2), 2usize..8);
            (Just(nodes), prop::collection::vec(walk, 1..10))
        })
        .prop_map(|(nodes, walks)| NetInstance { nodes, walks })
}

fn build_net(inst: &NetInstance) -> (netclus_roadnet::RoadNetwork, TrajectorySet, Vec<NodeId>) {
    let mut b = RoadNetworkBuilder::new();
    for i in 0..inst.nodes {
        b.add_node(Point::new(i as f64 * 100.0, 0.0));
    }
    for i in 0..inst.nodes as u32 - 1 {
        b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
    }
    let net = b.build().unwrap();
    let mut trajs = TrajectorySet::for_network(&net);
    for &(start, len) in &inst.walks {
        let end = (start + len).min(inst.nodes - 1);
        trajs.add(Trajectory::new(
            (start as u32..=end as u32).map(NodeId).collect(),
        ));
    }
    let sites: Vec<NodeId> = net.nodes().collect();
    (net, trajs, sites)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lazy ≡ eager on the two provider shapes of the query paths: the
    /// [`ClusteredProvider`] (monolithic query, sharded round 1) and the
    /// [`MergedCandidateProvider`] over the round-1 union (round 2).
    /// Binary ψ keeps every value integral, so equality is exact.
    #[test]
    fn lazy_equals_eager_on_shard_providers(
        inst in net_instance_strategy(),
        k in 1usize..6,
        tau_steps in 3u32..24,
    ) {
        let (net, trajs, sites) = build_net(&inst);
        let index = NetClusIndex::build(
            &net,
            &trajs,
            &sites,
            NetClusConfig {
                tau_min: 200.0,
                tau_max: 3_000.0,
                threads: 1,
                ..Default::default()
            },
        );
        let tau = tau_steps as f64 * 100.0;
        let (_, provider) = index.build_provider(tau, trajs.id_bound());
        let q = TopsQuery::binary(k, tau);
        let eager = algorithm1_greedy(&reference_copy(&provider), &q, &[], None);
        let lazy = inc_greedy(&provider, &q);
        assert_identical(&eager, &lazy, "clustered provider");

        // Round 2's provider: the merged candidate union of a round-1 run.
        let mut scratch = ProviderScratch::default();
        let round = local_candidates(&index, &q, trajs.id_bound(), &mut scratch);
        prop_assert_eq!(&round.candidates.iter().map(|c| c.node).collect::<Vec<_>>(),
                        &eager.sites, "round 1 must reproduce the eager selection");
        let merged = MergedCandidateProvider::new(round.candidates, trajs.id_bound());
        let eager_merge = algorithm1_greedy(&reference_copy(&merged), &q, &[], None);
        let lazy_merge = inc_greedy(&merged, &q);
        assert_identical(&eager_merge, &lazy_merge, "merged provider");
    }
}
