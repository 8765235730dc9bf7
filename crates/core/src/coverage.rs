//! Query-time coverage sets `TC` / `SC` (paper Sec. 3.2).
//!
//! Given the threshold `τ` (known only at query time), the paper's
//! Inc-Greedy needs, for every candidate site, the trajectories it covers
//! with their detour distances (`TC(s_i)`, ascending), and for every
//! trajectory the sites covering it (`SC(T_j)`). [`CoverageIndex::build`]
//! computes both with one pair of `τ`-bounded Dijkstra runs per site,
//! parallelized across sites. Both directions live in flat [`PairArena`]s
//! (see [`crate::arena`]): `TC` is assembled shard-by-shard and
//! concatenated deterministically; `SC` is derived by a two-pass
//! counting-sort inversion.
//!
//! The memory footprint of these sets is the reason Inc-Greedy fails at
//! city scale (paper Sec. 3.4, Table 9) — [`CoverageIndex::heap_size_bytes`]
//! exposes it, over both directions, so the experiments reproduce that
//! behaviour.
//!
//! Every `TC` row set is one [`Rows`] (rows, site nodes, id bound), owned
//! by the exact [`CoverageIndex`], NetClus's clustered rows, the sharded
//! round-2 merge and the [`ReferenceProvider`] oracle alike. A
//! [`CoverageProvider`] hands out a [`RowsView`] of them — borrowed, `Copy`,
//! optionally cut to each row's within-τ prefix — and that view is what
//! the served solver reads, so the same compiled solver runs on all four.
//! It has **one direction**: every solver that serves queries reads `TC`
//! rows alone. The inverted `SC` rows are the sub-trait
//! [`InvertedCoverage`], required only by the paper's Algorithm 1
//! ([`crate::greedy::algorithm1_greedy`]) and implemented only where that
//! reference runs: the exact [`CoverageIndex`] and the
//! [`ReferenceProvider`] oracle.

use std::time::{Duration, Instant};

use netclus_roadnet::{NodeId, RoadNetwork};
use netclus_trajectory::{TrajId, TrajectorySet};

use crate::arena::{PairArena, PairArenaBuilder, PairSlice};
use crate::detour::{DetourEngine, DetourModel};

/// One owned `TC` row set: row `i` lists the trajectories (ids) site `i`
/// covers with their detour distances, ascending by distance, and
/// `nodes[i]` is the site's network node. Ids are below `traj_id_bound`.
#[derive(Clone, Debug)]
pub struct Rows {
    tc: PairArena,
    nodes: Vec<NodeId>,
    traj_id_bound: usize,
}

impl Rows {
    /// Rows `tc` of the sites at `nodes` (one per row), over
    /// `traj_id_bound` trajectories.
    pub fn new(tc: PairArena, nodes: Vec<NodeId>, traj_id_bound: usize) -> Rows {
        assert_eq!(tc.row_count(), nodes.len(), "one node per row required");
        Rows {
            tc,
            nodes,
            traj_id_bound,
        }
    }

    /// The rows as the solvers read them: whole, or row `i` cut to its
    /// first `cuts[i]` pairs.
    pub fn view<'a>(&'a self, cuts: Option<&'a [u32]>) -> RowsView<'a> {
        assert!(
            cuts.is_none_or(|c| c.len() == self.nodes.len()),
            "one cut per row required"
        );
        RowsView { rows: self, cuts }
    }

    /// Total `(site, trajectory)` pairs.
    pub fn pair_count(&self) -> usize {
        self.tc.pair_count()
    }

    /// Heap bytes by `Vec` capacity: the arena plus the node table.
    pub fn heap_size_bytes(&self) -> usize {
        self.tc.heap_size_bytes() + self.nodes.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Drops the capacity a growing build left, for rows that are kept.
    pub fn shrink_to_fit(&mut self) {
        self.tc.shrink_to_fit();
        self.nodes.shrink_to_fit();
    }
}

/// What every solver reads: borrowed [`Rows`] plus, optionally, how many
/// leading pairs of each row it sees. Cheap to copy.
#[derive(Clone, Copy, Debug)]
pub struct RowsView<'a> {
    rows: &'a Rows,
    /// Prefix length per row; `None` when every row is whole.
    cuts: Option<&'a [u32]>,
}

impl<'a> RowsView<'a> {
    /// Number of candidate sites (rows).
    #[inline]
    pub fn site_count(self) -> usize {
        self.rows.nodes.len()
    }

    /// Exclusive upper bound on trajectory id indices.
    #[inline]
    pub fn traj_id_bound(self) -> usize {
        self.rows.traj_id_bound
    }

    /// Network node of the site at `idx`.
    #[inline]
    pub fn site_node(self, idx: usize) -> NodeId {
        self.rows.nodes[idx]
    }

    /// `TC(s_idx)` as this view sees it.
    #[inline]
    pub fn row(self, idx: usize) -> PairSlice<'a> {
        let row = self.rows.tc.row(idx);
        match self.cuts {
            None => row,
            Some(cuts) => row.prefix(cuts[idx] as usize),
        }
    }

    /// Total pairs this view sees.
    pub fn pair_count(self) -> usize {
        match self.cuts {
            None => self.rows.pair_count(),
            Some(cuts) => cuts.iter().map(|&c| c as usize).sum(),
        }
    }
}

/// A set of candidate sites with covered-trajectory lists: anything that
/// hands out a [`RowsView`].
///
/// Implementors: [`CoverageIndex`] (exact, site-level), the clustered view
/// in [`crate::query`] (cluster representatives with estimated distances),
/// the merged round-2 view in [`crate::shard`], and the
/// differential-testing [`ReferenceProvider`]. The per-site accessors are
/// provided on top of [`CoverageProvider::rows`] for the reference and
/// variant solvers; the served solver takes the view itself.
pub trait CoverageProvider {
    /// The rows, as the solvers read them.
    fn rows(&self) -> RowsView<'_>;

    /// Number of candidate sites (`n`, or `η_p` for the clustered view).
    fn site_count(&self) -> usize {
        self.rows().site_count()
    }

    /// Exclusive upper bound on trajectory id indices.
    fn traj_id_bound(&self) -> usize {
        self.rows().traj_id_bound()
    }

    /// Network node of the site at `idx`.
    fn site_node(&self, idx: usize) -> NodeId {
        self.rows().site_node(idx)
    }

    /// `TC(s_idx)`: covered trajectories (ids) with detour distances,
    /// ascending by distance.
    fn covered(&self, idx: usize) -> PairSlice<'_> {
        self.rows().row(idx)
    }
}

/// A [`CoverageProvider`] that also carries the inverted `SC` rows — the
/// bound of the paper's Algorithm 1, the one solver that walks them.
pub trait InvertedCoverage: CoverageProvider {
    /// `SC(T_j)`: sites covering `tj` as `(site_idx, detour)` pairs,
    /// ascending by site index.
    fn covering(&self, tj: TrajId) -> PairSlice<'_>;
}

/// Exact site-level coverage sets for one `(τ, detour-model)` pair.
#[derive(Clone, Debug)]
pub struct CoverageIndex {
    /// Row `i`: trajectories covered by site `i`, ascending by detour.
    tc: Rows,
    tau: f64,
    model: DetourModel,
    /// `sc` row `j`: sites covering trajectory `j` (site index, detour).
    sc: PairArena,
    build_time: Duration,
}

impl CoverageIndex {
    /// Builds the coverage sets for `sites` under threshold `tau`.
    ///
    /// `threads` bounds the worker count (0 or 1 = sequential). Each worker
    /// owns a [`DetourEngine`] and fills its own arena shard, so peak
    /// scratch memory scales with the thread count while the result is
    /// bit-identical to a sequential build (shards are concatenated in
    /// site order).
    pub fn build(
        net: &RoadNetwork,
        trajs: &TrajectorySet,
        sites: &[NodeId],
        tau: f64,
        model: DetourModel,
        threads: usize,
    ) -> CoverageIndex {
        assert!(tau.is_finite() && tau >= 0.0, "invalid τ: {tau}");
        let start = Instant::now();
        let n = sites.len();

        let workers = threads.max(1).min(n.max(1));
        let tc = if workers <= 1 {
            build_tc_shard(net, trajs, sites, tau, model)
        } else {
            let chunk = n.div_ceil(workers);
            let parts: Vec<PairArena> = std::thread::scope(|scope| {
                let handles: Vec<_> = sites
                    .chunks(chunk)
                    .map(|site_chunk| {
                        scope.spawn(move || build_tc_shard(net, trajs, site_chunk, tau, model))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("coverage worker panicked"))
                    .collect()
            });
            PairArena::concat(parts)
        };

        // Invert TC into SC: counting-sort two-pass, ascending site order.
        let traj_id_bound = trajs.id_bound();
        let sc = tc.invert_threaded(traj_id_bound, workers);

        CoverageIndex {
            tc: Rows::new(tc, sites.to_vec(), traj_id_bound),
            tau,
            model,
            sc,
            build_time: start.elapsed(),
        }
    }

    /// The threshold this index was built for.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The detour model used.
    pub fn model(&self) -> DetourModel {
        self.model
    }

    /// The candidate sites, in provider index order.
    pub fn sites(&self) -> &[NodeId] {
        &self.tc.nodes
    }

    /// Wall-clock time of the build.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Number of trajectories covered by at least one site.
    pub fn coverable_trajectories(&self) -> usize {
        self.sc.nonempty_rows()
    }

    /// Total `(site, trajectory)` coverage pairs — the `O(mn)` quantity that
    /// dominates Inc-Greedy's footprint.
    pub fn pair_count(&self) -> usize {
        self.tc.pair_count()
    }

    /// Approximate heap footprint in bytes: both directions of the coverage
    /// lists (flat arenas: offsets + ids + distances) plus the site table.
    pub fn heap_size_bytes(&self) -> usize {
        self.tc.heap_size_bytes() + self.sc.heap_size_bytes()
    }
}

/// Sequentially builds the TC arena shard for `sites` (helper shared by the
/// sequential path and each parallel worker).
fn build_tc_shard(
    net: &RoadNetwork,
    trajs: &TrajectorySet,
    sites: &[NodeId],
    tau: f64,
    model: DetourModel,
) -> PairArena {
    let mut eng = DetourEngine::new(net, model);
    let mut row: Vec<(TrajId, f64)> = Vec::new();
    let mut b = PairArenaBuilder::with_capacity(sites.len(), 0);
    for &s in sites {
        eng.site_coverage_into(trajs, s, tau, &mut row);
        b.push_row(row.iter().map(|&(tj, d)| (tj.0, d)));
    }
    b.finish()
}

impl CoverageProvider for CoverageIndex {
    fn rows(&self) -> RowsView<'_> {
        self.tc.view(None)
    }
}

impl InvertedCoverage for CoverageIndex {
    fn covering(&self, tj: TrajId) -> PairSlice<'_> {
        self.sc.row(tj.index())
    }
}

/// A provider over plain per-row vectors: the differential-testing oracle
/// the CSR providers are proptested against, the mock provider of the
/// solver unit tests, and — since it derives `SC` from whatever rows it is
/// given — the way to run Algorithm 1 on the rows of a provider that
/// carries no `SC` itself.
#[derive(Clone, Debug)]
pub struct ReferenceProvider {
    tc: Rows,
    sc: Vec<(Vec<u32>, Vec<f64>)>,
}

impl ReferenceProvider {
    /// Builds from per-site `(trajectory id, detour)` rows over
    /// `traj_id_bound` trajectories; `SC` is derived by per-trajectory
    /// pushes. Site `i` reports node `NodeId(i)`.
    pub fn new(traj_id_bound: usize, tc: Vec<Vec<(u32, f64)>>) -> Self {
        let nodes = (0..tc.len() as u32).map(NodeId).collect();
        Self::with_nodes(traj_id_bound, tc, nodes)
    }

    /// Binary provider over `traj_id_bound` trajectories from per-site
    /// covered-id sets (all detours 0) — the shape most solver unit tests
    /// want.
    pub fn binary(traj_id_bound: usize, sets: Vec<Vec<u32>>) -> Self {
        Self::new(
            traj_id_bound,
            sets.into_iter()
                .map(|s| s.into_iter().map(|t| (t, 0.0)).collect())
                .collect(),
        )
    }

    /// [`ReferenceProvider::new`] with explicit site nodes.
    pub fn with_nodes(traj_id_bound: usize, tc: Vec<Vec<(u32, f64)>>, nodes: Vec<NodeId>) -> Self {
        let mut sc: Vec<(Vec<u32>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); traj_id_bound];
        for (i, list) in tc.iter().enumerate() {
            for &(tj, d) in list {
                sc[tj as usize].0.push(i as u32);
                sc[tj as usize].1.push(d);
            }
        }
        ReferenceProvider {
            tc: Rows::new(PairArena::from_rows(&tc), nodes, traj_id_bound),
            sc,
        }
    }
}

impl CoverageProvider for ReferenceProvider {
    fn rows(&self) -> RowsView<'_> {
        self.tc.view(None)
    }
}

impl InvertedCoverage for ReferenceProvider {
    fn covering(&self, tj: TrajId) -> PairSlice<'_> {
        let (ids, dists) = &self.sc[tj.index()];
        PairSlice { ids, dists }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};
    use netclus_trajectory::Trajectory;

    /// Two-way line 0—1—2—3—4 (100 m edges) with three trajectories.
    fn fixture() -> (RoadNetwork, TrajectorySet) {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..4u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        for r in [&[0u32, 1][..], &[1, 2, 3], &[3, 4]] {
            trajs.add(Trajectory::new(r.iter().map(|&i| NodeId(i)).collect()));
        }
        (net, trajs)
    }

    #[test]
    fn tc_and_sc_are_consistent_inverses() {
        let (net, trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let idx = CoverageIndex::build(&net, &trajs, &sites, 200.0, DetourModel::RoundTrip, 1);
        for i in 0..idx.site_count() {
            for (tj, d) in idx.covered(i).iter() {
                assert!(
                    idx.covering(TrajId(tj))
                        .iter()
                        .any(|(si, d2)| si as usize == i && d2 == d),
                    "SC missing inverse of TC[{i}] -> {tj:?}"
                );
            }
        }
        let total_sc: usize = (0..trajs.id_bound())
            .map(|j| idx.covering(TrajId(j as u32)).len())
            .sum();
        assert_eq!(total_sc, idx.pair_count());
    }

    #[test]
    fn coverage_matches_expected_sets() {
        let (net, trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        // τ = 0: a site covers exactly the trajectories passing through it.
        let idx = CoverageIndex::build(&net, &trajs, &sites, 0.0, DetourModel::RoundTrip, 1);
        assert_eq!(idx.covered(1).to_pairs(), vec![(0, 0.0), (1, 0.0)]);
        assert_eq!(idx.covered(3).to_pairs(), vec![(1, 0.0), (2, 0.0)]);
        assert_eq!(idx.covered(0).to_pairs(), vec![(0, 0.0)]);
        // τ = 200 m: site 0 also covers T1 (node 1 at round-trip 200).
        let idx = CoverageIndex::build(&net, &trajs, &sites, 200.0, DetourModel::RoundTrip, 1);
        assert_eq!(idx.covered(0).to_pairs(), vec![(0, 0.0), (1, 200.0)]);
    }

    #[test]
    fn parallel_build_equals_sequential() {
        let (net, trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let seq = CoverageIndex::build(&net, &trajs, &sites, 300.0, DetourModel::RoundTrip, 1);
        let par = CoverageIndex::build(&net, &trajs, &sites, 300.0, DetourModel::RoundTrip, 4);
        for i in 0..sites.len() {
            assert_eq!(seq.covered(i), par.covered(i), "site {i}");
        }
        assert_eq!(seq.pair_count(), par.pair_count());
    }

    #[test]
    fn footprint_grows_with_tau() {
        let (net, trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let small = CoverageIndex::build(&net, &trajs, &sites, 100.0, DetourModel::RoundTrip, 1);
        let large = CoverageIndex::build(&net, &trajs, &sites, 800.0, DetourModel::RoundTrip, 1);
        assert!(large.pair_count() > small.pair_count());
        assert!(large.heap_size_bytes() >= small.heap_size_bytes());
    }

    #[test]
    fn reference_provider_matches_coverage_index() {
        let (net, trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let idx = CoverageIndex::build(&net, &trajs, &sites, 300.0, DetourModel::RoundTrip, 1);
        let rows: Vec<Vec<(u32, f64)>> = (0..idx.site_count())
            .map(|i| idx.covered(i).to_pairs())
            .collect();
        let reference = ReferenceProvider::with_nodes(trajs.id_bound(), rows, sites.clone());
        assert_eq!(reference.site_count(), idx.site_count());
        for i in 0..idx.site_count() {
            assert_eq!(reference.covered(i), idx.covered(i), "TC row {i}");
            assert_eq!(reference.site_node(i), idx.site_node(i));
        }
        for j in 0..trajs.id_bound() {
            let tj = TrajId(j as u32);
            assert_eq!(reference.covering(tj), idx.covering(tj), "SC row {j}");
        }
    }

    #[test]
    fn coverable_trajectories_counts_nonempty_sc() {
        let (net, trajs) = fixture();
        // Only site 0 as candidate; τ = 0 → covers only T0.
        let idx = CoverageIndex::build(&net, &trajs, &[NodeId(0)], 0.0, DetourModel::RoundTrip, 1);
        assert_eq!(idx.coverable_trajectories(), 1);
        assert_eq!(idx.site_count(), 1);
        assert_eq!(idx.site_node(0), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "invalid τ")]
    fn invalid_tau_panics() {
        let (net, trajs) = fixture();
        CoverageIndex::build(
            &net,
            &trajs,
            &[NodeId(0)],
            f64::NAN,
            DetourModel::RoundTrip,
            1,
        );
    }
}
