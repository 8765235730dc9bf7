//! Property-based tests for the NetClus core on randomized road networks.
//!
//! Each property runs over a random strongly-connected network with random
//! trajectories, checking the invariants the paper's correctness rests on:
//! coverage-set consistency, greedy bounds, clustering radius/partition
//! invariants, index instance selection, and estimate conservativeness.

use netclus::arena::PairArenaBuilder;
use netclus::cluster::{Cluster, ClusterInstance};
use netclus::prelude::*;
use netclus_roadnet::{NodeId, Point, RoadNetwork, RoadNetworkBuilder};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};
use proptest::prelude::*;
use std::sync::Arc;

/// A random strongly-connected network: ring + chords, with edge weights in
/// [50, 500] meters, plus random-walk trajectories.
#[derive(Clone, Debug)]
struct Instance {
    n: usize,
    ring_w: Vec<f64>,
    chords: Vec<(usize, usize, f64)>,
    walks: Vec<(usize, Vec<usize>)>, // (start, step choices)
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (6usize..28)
        .prop_flat_map(|n| {
            let ring = prop::collection::vec(50.0f64..500.0, n);
            let chords = prop::collection::vec((0..n, 0..n, 50.0f64..500.0), 0..n);
            let walks =
                prop::collection::vec((0..n, prop::collection::vec(0usize..8, 1..10)), 1..12);
            (Just(n), ring, chords, walks)
        })
        .prop_map(|(n, ring_w, chords, walks)| Instance {
            n,
            ring_w,
            chords,
            walks,
        })
}

fn build(inst: &Instance) -> (RoadNetwork, TrajectorySet) {
    let mut b = RoadNetworkBuilder::new();
    for i in 0..inst.n {
        b.add_node(Point::new(i as f64 * 100.0, (i % 3) as f64 * 80.0));
    }
    for i in 0..inst.n {
        b.add_edge(
            NodeId(i as u32),
            NodeId(((i + 1) % inst.n) as u32),
            inst.ring_w[i],
        )
        .unwrap();
        // Make it two-way-ish for richer round trips.
        b.add_edge(
            NodeId(((i + 1) % inst.n) as u32),
            NodeId(i as u32),
            inst.ring_w[i] * 1.1,
        )
        .unwrap();
    }
    for &(u, v, w) in &inst.chords {
        if u != v {
            b.add_edge(NodeId(u as u32), NodeId(v as u32), w).unwrap();
        }
    }
    let net = b.build().unwrap();
    let mut trajs = TrajectorySet::for_network(&net);
    for (start, steps) in &inst.walks {
        // Walk along out-edges by index choice.
        let mut nodes = vec![NodeId(*start as u32)];
        let mut cur = NodeId(*start as u32);
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
    (net, trajs)
}

/// The `T̂C` row kernel as it stood before its walk went select-only and
/// its sort integer-keyed: a stamped scratch, a branch per visit, a
/// comparator sort and a staging row. The slow twin the served kernel
/// answers to, bit for bit.
#[derive(Debug, Default)]
struct TwinScratch {
    best: Vec<f64>,
    stamp: Vec<u32>,
    version: u32,
    touched: Vec<u32>,
    row: Vec<(u32, f64)>,
}

impl TwinScratch {
    fn ensure(&mut self, traj_id_bound: usize) {
        if self.best.len() < traj_id_bound {
            self.best.resize(traj_id_bound, f64::INFINITY);
            self.stamp.resize(traj_id_bound, 0);
        }
    }

    fn begin(&mut self) -> u32 {
        if self.version == u32::MAX {
            self.stamp.fill(0);
            self.version = 0;
        }
        self.version += 1;
        self.touched.clear();
        self.version
    }
}

fn twin_tc_shard(
    instance: &ClusterInstance,
    tau: f64,
    traj_id_bound: usize,
    shard: &[u32],
    scratch: &mut TwinScratch,
) -> PairArena {
    scratch.ensure(traj_id_bound);
    let mut b = PairArenaBuilder::with_capacity(shard.len(), 0);
    for &ci in shard {
        let cluster: &Cluster = &instance.clusters[ci as usize];
        let version = scratch.begin();
        for &(cj, d_centers) in &cluster.neighbors {
            let base = d_centers + cluster.rep_distance;
            if base > tau {
                // Neighbors are sorted by distance; all further ones
                // yield only larger estimates.
                break;
            }
            for &(tj, d_traj) in &instance.clusters[cj as usize].traj_list {
                let est = d_traj + base;
                if est > tau {
                    continue;
                }
                let j = tj.index();
                if scratch.stamp[j] != version {
                    scratch.stamp[j] = version;
                    scratch.best[j] = est;
                    scratch.touched.push(tj.0);
                } else if est < scratch.best[j] {
                    scratch.best[j] = est;
                }
            }
        }
        scratch.row.clear();
        for k in 0..scratch.touched.len() {
            let t = scratch.touched[k];
            scratch.row.push((t, scratch.best[t as usize]));
        }
        scratch
            .row
            .sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        b.push_row(scratch.row.iter().copied());
    }
    b.finish()
}

/// The twin's rows of `instance` at `tau`: representatives in cluster
/// order and their `T̂C` rows.
fn twin_rows(
    instance: &ClusterInstance,
    tau: f64,
    traj_id_bound: usize,
) -> (Vec<NodeId>, PairArena) {
    let (reps, shard): (Vec<NodeId>, Vec<u32>) = instance
        .clusters
        .iter()
        .enumerate()
        .filter_map(|(ci, c)| Some((c.representative?, ci as u32)))
        .unzip();
    let rows = twin_tc_shard(
        instance,
        tau,
        traj_id_bound,
        &shard,
        &mut TwinScratch::default(),
    );
    (reps, rows)
}

/// Representatives, `T̂C` ids and distance bits of `provider` equal the
/// twin's at `tau`.
fn assert_equals_twin(
    provider: &ClusteredProvider,
    instance: &ClusterInstance,
    tau: f64,
    traj_id_bound: usize,
    what: &str,
) {
    let (reps, rows) = twin_rows(instance, tau, traj_id_bound);
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(provider.site_count(), reps.len(), "{} τ={}", what, tau);
    prop_assert_eq!(
        provider.pair_count(),
        rows.pair_count(),
        "{} τ={}",
        what,
        tau
    );
    for (i, &rep) in reps.iter().enumerate() {
        prop_assert_eq!(provider.site_node(i), rep, "{} τ={} row {}", what, tau, i);
        let (a, b) = (provider.covered(i), rows.row(i));
        prop_assert_eq!(a.ids, b.ids, "{} τ={} ids row {}", what, tau, i);
        prop_assert_eq!(
            bits(a.dists),
            bits(b.dists),
            "{} τ={} dists row {}",
            what,
            tau,
            i
        );
    }
}

/// Asserts that the provider a cache serves for `tau` on `instance` —
/// rows built at the band ceiling, viewed at `tau` — is the provider the
/// bare path builds at `tau`: same representatives, clusters, `T̂C` ids
/// and distance bits per row, same pair count, and the same Inc-Greedy
/// sites, gains and utility bits under three preference functions.
fn assert_view_equals_build(index: &NetClusIndex, instance: usize, tau: f64, traj_id_bound: usize) {
    let inst = index.instance(instance);
    let rows = Arc::new(ProviderRows::build_with(
        inst,
        ProviderRows::built_tau_for(inst, tau),
        traj_id_bound,
        1,
        &mut ProviderScratch::default(),
    ));
    assert_providers_identical(
        index,
        instance,
        tau,
        &rows.view(tau),
        &ClusteredProvider::build(inst, tau, traj_id_bound),
    )
}

/// Row-for-row and answer-for-answer bit equality of two providers.
fn assert_providers_identical(
    index: &NetClusIndex,
    instance: usize,
    tau: f64,
    a: &ClusteredProvider,
    b: &ClusteredProvider,
) {
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(a.site_count(), b.site_count(), "p{} τ={}", instance, tau);
    prop_assert_eq!(a.pair_count(), b.pair_count(), "p{} τ={}", instance, tau);
    for i in 0..a.site_count() {
        prop_assert_eq!(a.site_node(i), b.site_node(i));
        prop_assert_eq!(a.cluster_of(i), b.cluster_of(i));
        let (ra, rb) = (a.covered(i), b.covered(i));
        prop_assert_eq!(ra.ids, rb.ids, "p{} τ={} T̂C ids row {}", instance, tau, i);
        prop_assert_eq!(
            bits(ra.dists),
            bits(rb.dists),
            "p{} τ={} T̂C dists row {}",
            instance,
            tau,
            i
        );
    }
    for preference in [
        PreferenceFunction::Binary,
        PreferenceFunction::LinearDecay,
        PreferenceFunction::ConvexProbability { alpha: 2.0 },
    ] {
        let q = TopsQuery {
            k: 3,
            tau,
            preference,
        };
        let (sa, sb) = (
            index.query_on(a, instance, &q).solution,
            index.query_on(b, instance, &q).solution,
        );
        prop_assert_eq!(
            &sa.sites,
            &sb.sites,
            "p{} τ={} {:?}",
            instance,
            tau,
            preference
        );
        prop_assert_eq!(
            bits(&sa.gains),
            bits(&sb.gains),
            "p{} τ={} {:?}",
            instance,
            tau,
            preference
        );
        prop_assert_eq!(
            sa.utility.to_bits(),
            sb.utility.to_bits(),
            "p{} τ={} {:?}",
            instance,
            tau,
            preference
        );
    }
}

/// A random walk from `start` along out-edge choices `steps`.
fn walk(net: &RoadNetwork, start: usize, steps: &[usize]) -> Trajectory {
    let mut nodes = vec![NodeId(start as u32)];
    for &choice in steps {
        let cur = *nodes.last().unwrap();
        let deg = net.out_degree(cur);
        nodes.push(net.out_edges(cur).nth(choice % deg).unwrap().0);
    }
    Trajectory::new(nodes)
}

/// Equal estimates on different ids: a uniform ring and trajectories that
/// repeat node for node, added in an order that interleaves the copies.
/// Rows hold runs of equal `d̂r`, which the kernel must order by id
/// exactly as the twin's comparator does.
#[test]
fn equal_estimates_are_ordered_by_id_as_the_twin_orders_them() {
    let paths = [
        (0, vec![0, 0, 0, 0]),
        (4, vec![1, 0, 0]),
        (8, vec![0, 1, 0, 0, 0]),
    ];
    let inst = Instance {
        n: 12,
        ring_w: vec![100.0; 12],
        chords: vec![],
        walks: (0..3).flat_map(|_| paths.iter().rev().cloned()).collect(),
    };
    let (net, trajs) = build(&inst);
    let sites: Vec<NodeId> = net.nodes().collect();
    let index = NetClusIndex::build(
        &net,
        &trajs,
        &sites,
        NetClusConfig {
            tau_min: 400.0,
            tau_max: 4_000.0,
            threads: 1,
            ..Default::default()
        },
    );
    let bound = trajs.id_bound();
    let mut scratch = ProviderScratch::default();
    let mut ties = 0;
    for (p, instance) in index.instances().iter().enumerate() {
        for threads in [1, 2] {
            let tau = instance.neighbor_limit;
            let provider =
                ClusteredProvider::build_with(instance, tau, bound, threads, &mut scratch);
            assert_equals_twin(
                &provider,
                instance,
                tau,
                bound,
                &format!("p{p} threads {threads}"),
            );
            for i in 0..provider.site_count() {
                let row = provider.covered(i);
                ties += (1..row.len())
                    .filter(|&k| row.dists[k - 1] == row.dists[k])
                    .inspect(|&k| assert!(row.ids[k - 1] < row.ids[k]))
                    .count();
            }
        }
    }
    assert!(ties > 0, "the fixture must put equal estimates in one row");
}

/// Pairs with each distance as its bits, for exact comparison.
fn pair_bits<T: Copy>(pairs: &[(T, f64)]) -> Vec<(T, u64)> {
    pairs.iter().map(|&(x, d)| (x, d.to_bits())).collect()
}

/// Asserts two indexes hold the same instances, bit for bit: every
/// cluster's center, members, representative and `rep_distance`, its
/// neighbour and trajectory lists, and the node → cluster maps.
fn assert_same_instances(a: &NetClusIndex, b: &NetClusIndex, what: &str) {
    assert_eq!(a.instances().len(), b.instances().len(), "{what}");
    for (p, (x, y)) in a.instances().iter().zip(b.instances()).enumerate() {
        assert_eq!(x.clusters.len(), y.clusters.len(), "{what} p{p}");
        for (ci, (cx, cy)) in x.clusters.iter().zip(&y.clusters).enumerate() {
            let at = format!("{what} p{p} cluster {ci}");
            assert_eq!(cx.center, cy.center, "{at} center");
            assert_eq!(pair_bits(&cx.nodes), pair_bits(&cy.nodes), "{at} members");
            assert_eq!(cx.representative, cy.representative, "{at} representative");
            assert_eq!(
                cx.rep_distance.to_bits(),
                cy.rep_distance.to_bits(),
                "{at} rep_distance"
            );
            assert_eq!(
                pair_bits(&cx.neighbors),
                pair_bits(&cy.neighbors),
                "{at} CL(g)"
            );
            assert_eq!(
                pair_bits(&cx.traj_list),
                pair_bits(&cy.traj_list),
                "{at} TL(g)"
            );
        }
        assert_eq!(x.node_cluster, y.node_cluster, "{what} p{p} node_cluster");
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&x.node_center_dist),
            bits(&y.node_center_dist),
            "{what} p{p} node_center_dist"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TC/SC are exact inverses, sorted, and within τ.
    #[test]
    fn coverage_sets_are_consistent(inst in instance_strategy(), tau in 100.0f64..2000.0) {
        let (net, trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let cov = CoverageIndex::build(&net, &trajs, &sites, tau, DetourModel::RoundTrip, 1);
        for i in 0..cov.site_count() {
            let list = cov.covered(i);
            prop_assert!(list.dists.windows(2).all(|w| w[0] <= w[1]), "TC not sorted");
            for (tj, d) in list.iter() {
                prop_assert!(d <= tau);
                prop_assert!(cov.covering(TrajId(tj)).iter().any(|(si, d2)| si as usize == i && d2 == d));
            }
        }
    }

    /// Coverage distances are the true round-trip detours (cross-checked
    /// with the unbounded exact engine).
    #[test]
    fn coverage_distances_are_exact(inst in instance_strategy(), tau in 200.0f64..1500.0) {
        let (net, trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().take(6).collect();
        let cov = CoverageIndex::build(&net, &trajs, &sites, tau, DetourModel::RoundTrip, 1);
        let mut eng = DetourEngine::new(&net, DetourModel::RoundTrip);
        for (i, &s) in sites.iter().enumerate() {
            for (tj, d) in cov.covered(i).iter() {
                let exact = eng.detour_exact(trajs.get(TrajId(tj)).unwrap(), s)
                    .expect("covered ⇒ reachable");
                prop_assert!((d - exact).abs() < 1e-9,
                    "site {s:?} traj {tj:?}: coverage {d} vs exact {exact}");
            }
        }
    }

    /// Greedy utility equals independent re-evaluation, and respects the
    /// k/n bound of Lemma 2.
    #[test]
    fn greedy_utility_is_sound(inst in instance_strategy(), k in 1usize..6) {
        let (net, trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let tau = 600.0;
        let cov = CoverageIndex::build(&net, &trajs, &sites, tau, DetourModel::RoundTrip, 1);
        let sol = inc_greedy(&cov, &GreedyConfig::binary(k, tau));
        let eval = evaluate_sites(&net, &trajs, &sol.sites, tau,
            PreferenceFunction::Binary, DetourModel::RoundTrip);
        prop_assert!((sol.utility - eval.utility).abs() < 1e-9,
            "greedy-internal {} vs re-eval {}", sol.utility, eval.utility);
        // Lemma 2: U(Q_k) ≥ (k/n) U(S).
        let all = inc_greedy(&cov, &GreedyConfig::binary(sites.len(), tau));
        prop_assert!(sol.utility >= (k as f64 / sites.len() as f64) * all.utility - 1e-9);
        // Gains non-increasing (submodularity).
        prop_assert!(sol.gains.windows(2).all(|w| w[0] >= w[1] - 1e-9));
    }

    /// GDSP clusters partition V, satisfy the 2R radius bound, and shrink
    /// with growing radius.
    #[test]
    fn gdsp_invariants(inst in instance_strategy(), r1 in 50.0f64..400.0, factor in 1.5f64..4.0) {
        let (net, _) = build(&inst);
        let run = |radius: f64| greedy_gdsp(&net, &GdspConfig {
            radius, threads: 1,
        });
        let small = run(r1);
        let large = run(r1 * factor);
        for result in [&small, &large] {
            let mut seen = vec![false; net.node_count()];
            for c in &result.clusters {
                for &(v, d) in &c.members {
                    prop_assert!(!seen[v.index()]);
                    seen[v.index()] = true;
                    prop_assert!(d <= 2.0 * r1 * factor + 1e-9);
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
        for (c, radius) in [(&small, r1), (&large, r1 * factor)] {
            for cl in &c.clusters {
                for &(_, d) in &cl.members {
                    prop_assert!(d <= 2.0 * radius + 1e-9);
                }
            }
        }
        prop_assert!(large.cluster_count() <= small.cluster_count());
    }

    /// The index serves every τ with the invariant 4R_p ≤ τ (within range),
    /// and cluster counts decrease along the ladder.
    #[test]
    fn index_ladder_invariants(inst in instance_strategy(), tau in 400.0f64..4000.0) {
        let (net, trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let cfg = NetClusConfig {
            tau_min: 400.0, tau_max: 4_000.0, threads: 1, ..Default::default()
        };
        let index = NetClusIndex::build(&net, &trajs, &sites, cfg);
        let p = index.instance_for(tau);
        prop_assert!(4.0 * index.instance(p).radius <= tau + 1e-9);
        if p + 1 < index.instances().len() {
            prop_assert!(tau < 4.0 * index.instance(p).radius * (1.0 + cfg.gamma) + 1e-9);
        }
        for w in index.instances().windows(2) {
            prop_assert!(w[0].cluster_count() >= w[1].cluster_count());
        }
    }

    /// NetClus never claims coverage that exact evaluation refutes, under
    /// any preference in the family.
    #[test]
    fn netclus_estimates_conservative(inst in instance_strategy(), k in 1usize..5, tau in 500.0f64..3000.0) {
        let (net, trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let index = NetClusIndex::build(&net, &trajs, &sites, NetClusConfig {
            tau_min: 400.0, tau_max: 4_000.0, threads: 1, ..Default::default()
        });
        for pref in [PreferenceFunction::Binary, PreferenceFunction::LinearDecay] {
            let answer = index.query(&trajs, &TopsQuery { k, tau, preference: pref });
            let eval = evaluate_sites(&net, &trajs, &answer.solution.sites, tau, pref,
                DetourModel::RoundTrip);
            prop_assert!(answer.solution.utility <= eval.utility + 1e-9,
                "{pref:?}: estimated {} > exact {}", answer.solution.utility, eval.utility);
        }
    }

    /// Dynamic updates commute with rebuilds at the query level.
    #[test]
    fn updates_equal_rebuild(inst in instance_strategy()) {
        let (net, mut trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let cfg = NetClusConfig {
            tau_min: 400.0, tau_max: 2_000.0, threads: 1, ..Default::default()
        };
        let mut index = NetClusIndex::build(&net, &trajs, &sites, cfg);
        // Remove the first trajectory, add a copy of the last.
        let first = trajs.iter().next().map(|(id, _)| id);
        if let Some(id) = first {
            let t = trajs.remove(id).unwrap();
            index.remove_trajectory(id, &t);
            let new_id = trajs.add(t.clone());
            index.add_trajectory(new_id, &t);
        }
        let rebuilt = NetClusIndex::build(&net, &trajs, &sites, cfg);
        let q = TopsQuery::binary(2, 800.0);
        let a = index.query(&trajs, &q);
        let b = rebuilt.query(&trajs, &q);
        prop_assert_eq!(a.solution.sites, b.solution.sites);
        prop_assert!((a.solution.utility - b.solution.utility).abs() < 1e-9);
    }

    /// TOPS-COST with unit costs and budget k equals plain greedy; the
    /// budget is always respected.
    #[test]
    fn cost_variant_reduction(inst in instance_strategy(), k in 1usize..5) {
        let (net, trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let tau = 700.0;
        let cov = CoverageIndex::build(&net, &trajs, &sites, tau, DetourModel::RoundTrip, 1);
        let costs = vec![1.0; sites.len()];
        let cost_sol = tops_cost(&cov, &CostConfig {
            budget: k as f64, tau, preference: PreferenceFunction::Binary,
        }, &costs);
        let greedy_sol = inc_greedy(&cov, &GreedyConfig::binary(k, tau));
        prop_assert!((cost_sol.utility - greedy_sol.utility).abs() < 1e-9);
        prop_assert!(cost_sol.site_indices.len() <= k);
    }

    /// The CSR-arena coverage provider is element-for-element equal to a
    /// reference `Vec<Vec<_>>` build on random corpora — both directions,
    /// bitwise distances — and parallel `CoverageIndex::build` matches.
    #[test]
    fn arena_providers_equal_reference_layout(inst in instance_strategy(), tau in 100.0f64..2500.0) {
        let (net, trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let cov = CoverageIndex::build(&net, &trajs, &sites, tau, DetourModel::RoundTrip, 1);
        // Reference layout built independently from per-site exact queries.
        let mut eng = DetourEngine::new(&net, DetourModel::RoundTrip);
        let rows: Vec<Vec<(u32, f64)>> = sites.iter()
            .map(|&s| eng.site_coverage(&trajs, s, tau)
                .into_iter().map(|(tj, d)| (tj.0, d)).collect())
            .collect();
        let reference = ReferenceProvider::with_nodes(trajs.id_bound(), rows, sites.clone());
        prop_assert_eq!(cov.site_count(), reference.site_count());
        for i in 0..cov.site_count() {
            let (a, b) = (cov.covered(i), reference.covered(i));
            prop_assert_eq!(a.ids, b.ids, "TC ids row {}", i);
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(a.dists), bits(b.dists), "TC dists row {}", i);
        }
        for j in 0..trajs.id_bound() {
            let tj = TrajId(j as u32);
            prop_assert_eq!(cov.covering(tj), reference.covering(tj), "SC row {}", j);
        }
        // Parallel exact-coverage build is bit-identical too.
        for threads in [2usize, 4, 8] {
            let par = CoverageIndex::build(&net, &trajs, &sites, tau, DetourModel::RoundTrip, threads);
            for i in 0..cov.site_count() {
                prop_assert_eq!(cov.covered(i), par.covered(i), "threads {} TC {}", threads, i);
            }
        }
    }

    /// The served row kernel is its slow twin, bit for bit: on every
    /// instance at τ = band floor, mid-band, ceiling and an estimate that
    /// occurs in a row, on 1 and 2 threads — all through one scratch,
    /// builds in random order, with `add_trajectory` growing the id bound
    /// between them.
    #[test]
    fn row_kernel_equals_its_slow_twin(
        inst in instance_strategy(),
        order in prop::collection::vec(any::<u64>(), 64),
        extra in prop::collection::vec((0usize..64, prop::collection::vec(0usize..8, 1..10)), 3),
        band_frac in 0.01f64..0.99,
        pick in 0usize..100_000,
    ) {
        let (net, mut trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut index = NetClusIndex::build(&net, &trajs, &sites, NetClusConfig {
            tau_min: 400.0, tau_max: 4_000.0, threads: 1, ..Default::default()
        });
        let mut builds: Vec<(u64, usize, usize, usize)> = (0..index.instances().len())
            .flat_map(|p| (0..4).flat_map(move |kind| [(p, kind, 1), (p, kind, 2)]))
            .enumerate()
            .map(|(i, (p, kind, threads))| (order[i % order.len()], p, kind, threads))
            .collect();
        builds.sort_unstable();
        let grow_at: Vec<usize> = (1..=extra.len()).map(|e| e * builds.len() / (extra.len() + 1)).collect();
        let mut scratch = ProviderScratch::default();
        for (b, &(_, p, kind, threads)) in builds.iter().enumerate() {
            if let Some(e) = grow_at.iter().position(|&g| g == b) {
                let t = walk(&net, extra[e].0 % inst.n, &extra[e].1);
                let id = trajs.add(t.clone());
                index.add_trajectory(id, &t);
            }
            let bound = trajs.id_bound();
            let instance = index.instance(p);
            let (floor, ceiling) = (4.0 * instance.radius, instance.neighbor_limit);
            let tau = match kind {
                0 => floor,
                1 => floor + band_frac * (ceiling - floor),
                2 => ceiling,
                _ => {
                    let (_, rows) = twin_rows(instance, ceiling, bound);
                    let estimates: Vec<f64> = (0..rows.row_count())
                        .flat_map(|i| rows.row(i).dists.to_vec())
                        .collect();
                    if estimates.is_empty() { ceiling } else { estimates[pick % estimates.len()] }
                }
            };
            let provider = ClusteredProvider::build_with(instance, tau, bound, threads, &mut scratch);
            assert_equals_twin(&provider, instance, tau, bound, &format!("p{p} threads {threads} build {b}"));
        }
    }

    /// Parallel `ClusteredProvider::build` (threads ∈ {1, 2, 4, 8}) is
    /// bit-identical to the sequential build, including under scratch
    /// reuse, and the resulting top-k solutions are identical.
    #[test]
    fn parallel_clustered_provider_is_bit_identical(
        inst in instance_strategy(),
        tau in 400.0f64..4000.0,
        k in 1usize..5,
    ) {
        let (net, trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let index = NetClusIndex::build(&net, &trajs, &sites, NetClusConfig {
            tau_min: 400.0, tau_max: 4_000.0, threads: 1, ..Default::default()
        });
        let p = index.instance_for(tau);
        let seq = ClusteredProvider::build(index.instance(p), tau, trajs.id_bound());
        let mut scratch = ProviderScratch::default();
        for threads in [1usize, 2, 4, 8] {
            let par = ClusteredProvider::build_with(
                index.instance(p), tau, trajs.id_bound(), threads, &mut scratch);
            prop_assert_eq!(seq.site_count(), par.site_count(), "threads {}", threads);
            for i in 0..seq.site_count() {
                prop_assert_eq!(seq.site_node(i), par.site_node(i));
                let (a, b) = (seq.covered(i), par.covered(i));
                prop_assert_eq!(a.ids, b.ids, "threads {} TC ids {}", threads, i);
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(a.dists), bits(b.dists), "threads {} TC dists {}", threads, i);
            }
            let q = TopsQuery::binary(k, tau);
            let a = index.query_on(&seq, p, &q);
            let b = index.query_on(&par, p, &q);
            prop_assert_eq!(a.solution.sites, b.solution.sites, "threads {}", threads);
        }
    }

    /// `NetClusIndex::build` at 1, 2, 4 and 8 threads builds the same
    /// instances: the ball-size sweep, the neighbour balls and the cluster
    /// enrichment do not depend on how their items are split across
    /// workers.
    #[test]
    fn index_build_thread_count_does_not_change_any_instance(
        inst in instance_strategy(),
    ) {
        let (net, trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let config = |threads| NetClusConfig {
            tau_min: 400.0, tau_max: 4_000.0, threads, ..Default::default()
        };
        let one = NetClusIndex::build(&net, &trajs, &sites, config(1));
        for threads in [2usize, 4, 8] {
            let many = NetClusIndex::build(&net, &trajs, &sites, config(threads));
            assert_same_instances(&one, &many, &format!("threads {threads}"));
        }
    }

    /// On every ladder instance, rows built once at the band ceiling and
    /// viewed at τ are the provider built at τ — for τ anywhere in the
    /// band, τ equal to an estimate that occurs in a row (the cut is
    /// inclusive), τ below `τ_min` (served by instance 0), and τ just
    /// under and just over the ceiling.
    #[test]
    fn ceiling_rows_viewed_at_tau_equal_a_build_at_tau(
        inst in instance_strategy(),
        band_frac in 0.01f64..0.99,
        pick in 0usize..100_000,
    ) {
        let (net, trajs) = build(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let index = NetClusIndex::build(&net, &trajs, &sites, NetClusConfig {
            tau_min: 400.0, tau_max: 4_000.0, threads: 1, ..Default::default()
        });
        let bound = trajs.id_bound();
        for p in 0..index.instances().len() {
            let (floor, ceiling) = (4.0 * index.instance(p).radius, index.instance(p).neighbor_limit);
            let in_band = floor + band_frac * (ceiling - floor);
            prop_assert_eq!(index.instance_for(in_band), p, "band of p{} is not [4R, ceiling)", p);
            let mut taus = vec![
                floor,
                in_band,
                ceiling * (1.0 - 1e-9),
                ceiling,
                ceiling * (1.0 + 1e-9),
            ];
            if p == 0 {
                taus.push(floor * (0.25 + 0.7 * band_frac));
            }
            // A positive estimate that occurs in some row at the ceiling.
            let full = ClusteredProvider::build(index.instance(p), ceiling, bound);
            let estimates: Vec<f64> = (0..full.site_count())
                .flat_map(|i| full.covered(i).dists.to_vec())
                .filter(|&d| d > 0.0)
                .collect();
            if !estimates.is_empty() {
                taus.push(estimates[pick % estimates.len()]);
            }
            for tau in taus {
                assert_view_equals_build(&index, p, tau, bound);
            }
        }
    }

    /// After each kind of dynamic update (`add_trajectory`,
    /// `remove_trajectory`, `remove_site`, `add_site`), the rows built on
    /// the incrementally updated index are the rows built on a
    /// from-scratch rebuild of the same state, on every instance — so
    /// rows rebuilt after a publish equal rows of a recovered store.
    #[test]
    fn rows_after_each_update_kind_equal_rows_of_a_rebuild(
        inst in instance_strategy(),
        extra in (0usize..64, prop::collection::vec(0usize..8, 1..10)),
        victim in 0usize..64,
        site in 0usize..64,
    ) {
        let (net, mut trajs) = build(&inst);
        let cfg = NetClusConfig { tau_min: 400.0, tau_max: 4_000.0, threads: 1, ..Default::default() };
        let mut sites: Vec<NodeId> = net.nodes().collect();
        let mut index = NetClusIndex::build(&net, &trajs, &sites, cfg);
        let site = NodeId((site % inst.n) as u32);
        for kind in 0..4 {
            match kind {
                0 => {
                    let mut nodes = vec![NodeId((extra.0 % inst.n) as u32)];
                    for &choice in &extra.1 {
                        let cur = *nodes.last().unwrap();
                        let deg = net.out_degree(cur);
                        nodes.push(net.out_edges(cur).nth(choice % deg).unwrap().0);
                    }
                    let t = Trajectory::new(nodes);
                    let id = trajs.add(t.clone());
                    index.add_trajectory(id, &t);
                }
                1 => {
                    let id = TrajId((victim % trajs.id_bound()) as u32);
                    if let Some(t) = trajs.remove(id) {
                        index.remove_trajectory(id, &t);
                    }
                }
                2 => {
                    prop_assert!(index.remove_site(site));
                    sites.retain(|&v| v != site);
                }
                _ => {
                    prop_assert!(index.add_site(site));
                    sites.push(site);
                }
            }
            let rebuilt = NetClusIndex::build(&net, &trajs, &sites, cfg);
            let bound = trajs.id_bound();
            for p in 0..index.instances().len() {
                let ceiling = index.instance(p).neighbor_limit;
                prop_assert_eq!(ceiling.to_bits(), rebuilt.instance(p).neighbor_limit.to_bits());
                let updated = ClusteredProvider::build(index.instance(p), ceiling, bound);
                let fresh = ClusteredProvider::build(rebuilt.instance(p), ceiling, bound);
                assert_providers_identical(&index, p, ceiling, &updated, &fresh);
                // And the view the serving layer cuts from the updated
                // index's rows is the bare build on the rebuilt one.
                let tau = 4.0 * index.instance(p).radius * 1.3;
                let rows = Arc::new(ProviderRows::build_with(
                    index.instance(p), ceiling, bound, 1, &mut ProviderScratch::default()));
                let bare = ClusteredProvider::build(rebuilt.instance(p), tau, bound);
                assert_providers_identical(&index, p, tau, &rows.view(tau), &bare);
            }
        }
    }

    /// Rows carried by `ProviderRows::patch` across consecutive batches of
    /// trajectory adds and removes are the rows `build_with` builds on the
    /// updated index, bit for bit (ids, distance bits, representatives and
    /// the id bound), on every instance at its band ceiling, at a τ above
    /// the last band and at a τ equal to an estimate in its rows (the
    /// filter is inclusive). Batches mix dense adds, copies of live
    /// trajectories (equal estimates on new ids), adds past the id bound,
    /// removes, the remove of an id the same batch added and the re-add of
    /// a slot the same batch emptied; the delta handed to the patch is the
    /// batch's net one (adds not removed again, every applied remove).
    #[test]
    fn patched_rows_equal_rows_of_a_rebuild(
        inst in instance_strategy(),
        batches in prop::collection::vec(
            prop::collection::vec(
                (0usize..6, 0usize..64, prop::collection::vec(0usize..8, 1..8)),
                1..7,
            ),
            1..5,
        ),
        above in 1.0f64..1.6,
        pick in 0usize..100_000,
    ) {
        let (net, mut trajs) = build(&inst);
        let cfg = NetClusConfig { tau_min: 400.0, tau_max: 4_000.0, threads: 1, ..Default::default() };
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut index = NetClusIndex::build(&net, &trajs, &sites, cfg);
        let last = index.instance(index.instances().len() - 1).neighbor_limit;
        let build_rows = |index: &NetClusIndex, p: usize, tau: f64, bound: usize| {
            ProviderRows::build_with(index.instance(p), tau, bound, 1, &mut ProviderScratch::default())
        };
        let mut carried: Vec<(usize, Arc<ProviderRows>)> = Vec::new();
        for p in 0..index.instances().len() {
            let ceiling = build_rows(&index, p, index.instance(p).neighbor_limit, trajs.id_bound());
            let view = Arc::new(ceiling.clone()).view(ceiling.built_tau());
            let estimates: Vec<f64> =
                (0..view.site_count()).flat_map(|i| view.covered(i).dists.to_vec()).collect();
            if !estimates.is_empty() {
                let tau = estimates[pick % estimates.len()];
                carried.push((p, Arc::new(build_rows(&index, p, tau, trajs.id_bound()))));
            }
            carried.push((p, Arc::new(build_rows(&index, p, last * above, trajs.id_bound()))));
            carried.push((p, Arc::new(ceiling)));
        }
        for batch in &batches {
            let (mut added, mut removed): (Vec<TrajId>, Vec<TrajId>) = (Vec::new(), Vec::new());
            let mut emptied: Vec<TrajId> = Vec::new();
            for (kind, a, steps) in batch {
                let live = trajs.get(TrajId((a % trajs.id_bound()) as u32));
                let t = match live {
                    Some(t) if *kind == 5 => t.clone(),
                    _ => walk(&net, a % inst.n, steps),
                };
                let add = |id: Option<TrajId>, trajs: &mut TrajectorySet, index: &mut NetClusIndex| {
                    let id = match id {
                        Some(id) => trajs.insert_at(id, t.clone()).then_some(id),
                        None => Some(trajs.add(t.clone())),
                    };
                    if let Some(id) = id {
                        index.add_trajectory(id, &t);
                    }
                    id
                };
                let target = match kind {
                    0 | 5 => add(None, &mut trajs, &mut index).map(|id| (id, true)),
                    1 => {
                        let past = TrajId((trajs.id_bound() + a % 5) as u32);
                        add(Some(past), &mut trajs, &mut index).map(|id| (id, true))
                    }
                    2 => Some((TrajId((a % trajs.id_bound()) as u32), false)),
                    3 => added.last().map(|&id| (id, false)),
                    _ => emptied
                        .pop()
                        .and_then(|id| add(Some(id), &mut trajs, &mut index))
                        .map(|id| (id, true)),
                };
                match target {
                    Some((id, true)) => added.push(id),
                    Some((id, false)) => {
                        if let Some(old) = trajs.remove(id) {
                            index.remove_trajectory(id, &old);
                            emptied.push(id);
                            match added.iter().position(|&x| x == id) {
                                Some(pos) => {
                                    added.remove(pos);
                                }
                                None => removed.push(id),
                            }
                        }
                    }
                    None => {}
                }
            }
            let bound = trajs.id_bound();
            for (p, rows) in &mut carried {
                let instance = index.instance(*p);
                Arc::make_mut(rows).patch(instance, &trajs, &added, &removed);
                let tau = rows.built_tau();
                let fresh = Arc::new(ProviderRows::build_with(
                    instance, tau, bound, 1, &mut ProviderScratch::default()));
                prop_assert_eq!(rows.pair_count(), fresh.pair_count(), "p{} τ={}", p, tau);
                let (a, b) = (rows.view(tau), fresh.view(tau));
                prop_assert_eq!(a.rows().traj_id_bound(), bound);
                prop_assert_eq!(b.rows().traj_id_bound(), bound);
                assert_providers_identical(&index, *p, tau, &a, &b);
            }
        }
    }
}
