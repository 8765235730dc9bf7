//! The NetClus online phase: TOPS-Cluster (paper Sec. 5).
//!
//! Given query parameters `(k, τ, ψ)`, the index instance serving `τ` is
//! selected and a site-level problem is built over the **cluster
//! representatives**: for representative `r_i` of cluster `g_i`, the
//! approximate covered set is
//!
//! ```text
//! T̂C(r_i) = { T_j ∈ TC(g_i) : d̂r(T_j, r_i) ≤ τ }
//! d̂r(T_j, r_i) = dr(T_j, c_j) + dr(c_j, c_i) + dr(c_i, r_i)    (Eq. 9)
//! ```
//!
//! where `T_j` ranges over the trajectory lists of `g_i` and its neighbors
//! `CL(g_i)` — examining neighbors is sufficient because `d̂r ≤ τ` forces
//! `dr(c_j, c_i) ≤ 4R_p(1+γ)`, the exact neighbor threshold (Sec. 5.1).
//! Since `d̂r` over-estimates the true detour, `T̂C(r_i) ⊆ TC(r_i)` — the
//! estimate never claims coverage that does not exist.
//!
//! The resulting [`ClusteredProvider`] implements
//! [`CoverageProvider`], so the *same* Inc-Greedy / FM-greedy code that
//! solves exact TOPS solves TOPS-Cluster, exactly as in the paper.
//!
//! ## Rows and views
//!
//! A provider is two things. [`ProviderRows`] are an instance's `T̂C`
//! rows built at some threshold `built_tau`: one [`Rows`] (representatives
//! and a flat [`PairArena`], see [`crate::arena`]) plus each row's cluster
//! id, each row sorted ascending by `(d̂r, trajectory id)`. A
//! [`ClusteredProvider`] is an `Arc` of those rows plus, per row, the
//! length of the prefix with `d̂r ≤ τ` — a view, not a copy.
//! [`ClusteredProvider::build_with`] is "rows at τ, whole-row view";
//! [`ProviderRows::view`] cuts a view at any `τ ≤ built_tau` and is
//! bit-identical to a build at that τ:
//!
//! * the estimate `d_traj + (d_centers + rep_distance)` of a trajectory
//!   through a neighbor is computed from index data alone — τ is not an
//!   operand, so the same pair gets the same bits at every threshold;
//! * a trajectory's `d̂r` is the minimum of its estimates over the
//!   neighbors, and the kernel keeps the minimum over those `≤ built_tau`.
//!   If the true minimum is `≤ τ ≤ built_tau` both thresholds see it; if
//!   it is `> τ` the trajectory is in neither the build at τ nor the
//!   prefix;
//! * rows are totally ordered by `(d̂r, id)`, so the pairs with `d̂r ≤ τ`
//!   are exactly a prefix, in the order a build at τ would sort them, and
//!   the cut is inclusive
//!   (`PairSlice::len_within`) like
//!   the kernel's filter;
//! * the kernel's `break` on `base > τ` only skips neighbors whose every
//!   estimate would fail the filter anyway (neighbors are sorted by center
//!   distance) — an early exit, not a second condition.
//!
//! An instance `I_p` serves the band `τ ∈ [4R_p, 4R_p(1+γ))` and its
//! neighbor lists reach exactly the band top
//! ([`ClusterInstance::neighbor_limit`]), so rows built there once per
//! epoch serve every τ in the band ([`ProviderRows::built_tau_for`]). The
//! serving layers cache rows that way; the bare [`NetClusIndex::query`]
//! family owns no cache and builds at the asked τ.
//!
//! ## Carrying rows across a publish
//!
//! A batch of trajectory adds and removes changes no representative, no
//! neighbour list and no estimate of a trajectory it leaves alone: a row
//! loses exactly the removed ids and gains exactly the added trajectories
//! its neighbour walk reaches within `built_tau`. [`ProviderRows::patch`]
//! applies that difference in place — the estimates of the added
//! trajectories by the build kernel's own expression, then one
//! [`PairArena::patch`] — so a cache keeps its rows across such a publish
//! at the cost of the batch, not of the instance. A site op can move a
//! representative, and rows over it are built afresh.
//!
//! ## Hot-path layout and parallelism
//!
//! Per-representative rows are computed in contiguous chunks of
//! representatives, one per worker, each with its own scratch: the
//! caller's thread builds the first chunk and a scoped thread each other
//! one, and the chunks are concatenated in cluster order, so the rows are
//! the same for every worker count and one worker spawns nothing. There
//! is no inverted `ŜC`: the solvers that run on a provider read `T̂C`
//! alone (see [`crate::coverage`]). Callers answering many queries should
//! reuse a [`ProviderScratch`] across builds so its arrays are allocated
//! once per worker, not per query.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus_roadnet::NodeId;
use netclus_trajectory::{TrajId, TrajectorySet};

use crate::arena::{PairArena, PairArenaBuilder};
use crate::cluster::{map_trajectory, Cluster, ClusterInstance};
use crate::coverage::{CoverageProvider, Rows, RowsView};
use crate::fm_greedy::{fm_greedy, FmGreedyConfig};
use crate::greedy::{inc_greedy, inc_greedy_seeded};
use crate::index::NetClusIndex;
use crate::par;
use crate::preference::PreferenceFunction;
use crate::solution::Solution;

/// A TOPS query `(k, τ, ψ)` — also the whole configuration of a greedy run
/// ([`crate::greedy::GreedyConfig`] is this type).
#[derive(Clone, Copy, Debug)]
pub struct TopsQuery {
    /// Number of service locations to select.
    pub k: usize,
    /// Coverage threshold in meters.
    pub tau: f64,
    /// Preference function.
    pub preference: PreferenceFunction,
}

impl TopsQuery {
    /// A binary query (TOPS1) — the paper's default evaluation setting.
    pub fn binary(k: usize, tau: f64) -> Self {
        TopsQuery {
            k,
            tau,
            preference: PreferenceFunction::Binary,
        }
    }
}

/// Quantizes a query threshold to millimeters — the **one** definition
/// shared by every cache key in the stack (the executor's provider cache,
/// the router's per-shard provider cache and the round-1 candidate memo).
///
/// Serving layers apply this once at admission, so the cache keys and the
/// computation always agree on the effective τ: bitwise-noisy but
/// semantically identical thresholds (`800.0` vs `800.0000001`) share an
/// entry without ever serving a provider built for a different effective
/// τ. Thresholds are meters at city scale — sub-millimeter differences
/// carry no signal, only cache misses. The function is idempotent, so
/// admission-time and lookup-time quantization cannot disagree.
pub fn quantize_tau(tau: f64) -> f64 {
    (tau * 1_000.0).round() / 1_000.0
}

/// Reusable per-worker scratch for [`ClusteredProvider`] builds. One entry
/// per build worker; entries are created (and their arrays sized to the
/// trajectory id bound) on first use and then reused across queries.
#[derive(Debug, Default)]
pub struct ProviderScratch {
    workers: Vec<RepScratch>,
}

impl ProviderScratch {
    fn ensure_workers(&mut self, n: usize) -> &mut [RepScratch] {
        if self.workers.len() < n {
            self.workers.resize_with(n, RepScratch::default);
        }
        &mut self.workers[..n]
    }
}

/// One worker's scratch: minimal `d̂r` per trajectory (`+∞` outside a row),
/// the row's ids and sort keys, and whether a build is in progress.
#[derive(Debug, Default)]
struct RepScratch {
    best: Vec<f64>,
    touched: Vec<u32>,
    keyed: Vec<u128>,
    dirty: bool,
}

impl RepScratch {
    /// Wipes an unwound build's `best`; `touched` is one longer than it.
    fn ensure(&mut self, traj_id_bound: usize) {
        if std::mem::replace(&mut self.dirty, true) {
            self.best.fill(f64::INFINITY);
        }
        if self.best.len() < traj_id_bound {
            self.best.resize(traj_id_bound, f64::INFINITY);
            self.touched.resize(traj_id_bound + 1, 0);
        }
    }
}

/// A pair as one integer ordered as `(d̂r, id)`: the estimate's bits under
/// `f64::total_cmp`'s transform, made unsigned, above the id.
fn row_key(id: u32, d: f64) -> u128 {
    let bits = d.to_bits();
    let key = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
    (u128::from(key) << 32) | u128::from(id)
}

/// One index instance's `T̂C` rows at a built threshold: representatives,
/// their clusters and the row arena — everything about a provider that
/// does not depend on the query's τ beyond "τ ≤ `built_tau`". Shared
/// behind an `Arc` by every [`ClusteredProvider`] viewing it (module
/// docs, "Rows and views").
#[derive(Clone, Debug)]
pub struct ProviderRows {
    /// `T̂C` rows, ascending by `(estimate, trajectory id)`, one per
    /// representative site.
    tc: Rows,
    /// Cluster index behind each provider index.
    rep_cluster: Vec<u32>,
    built_tau: f64,
    build_time: Duration,
}

impl ProviderRows {
    /// The threshold a cache builds `instance`'s rows at so that they
    /// serve `tau`: the top of the instance's τ band
    /// ([`ClusterInstance::neighbor_limit`]), or `tau` itself when it lies
    /// above that (the clamped last instance).
    pub fn built_tau_for(instance: &ClusterInstance, tau: f64) -> f64 {
        instance.neighbor_limit.max(tau)
    }

    /// Builds the rows of `instance` at `built_tau` for retention by a
    /// cache: the [`ClusteredProvider::build_with`] kernel, then sized
    /// exactly (`heap_size_bytes` is `12·pairs + 4·(rows + 1) + 8·rows`).
    pub fn build_with(
        instance: &ClusterInstance,
        built_tau: f64,
        traj_id_bound: usize,
        threads: usize,
        scratch: &mut ProviderScratch,
    ) -> Self {
        let mut rows = Self::build_growing(instance, built_tau, traj_id_bound, threads, scratch);
        rows.tc.shrink_to_fit();
        rows.rep_cluster.shrink_to_fit();
        rows
    }

    /// The one kernel entry: representatives in cluster order, then their
    /// rows at `built_tau` on up to `threads` workers, the caller building
    /// the first chunk of representatives. Vectors keep the capacity they
    /// grew to (a lone chunk's arena is moved, not copied); the bare per-τ
    /// path drops them after one query, so shrinking them would only add a
    /// copy.
    fn build_growing(
        instance: &ClusterInstance,
        built_tau: f64,
        traj_id_bound: usize,
        threads: usize,
        scratch: &mut ProviderScratch,
    ) -> Self {
        let start = Instant::now();

        // Representatives in cluster order (cheap sequential pass).
        let mut reps = Vec::new();
        let mut rep_cluster: Vec<u32> = Vec::new();
        for (ci, cluster) in instance.clusters.iter().enumerate() {
            if let Some(rep) = cluster.representative {
                reps.push(rep);
                rep_cluster.push(ci as u32);
            }
        }

        // At least MIN_REPS_PER_WORKER representatives per chunk — below
        // that, thread spawn costs more than the work it moves off-core.
        const MIN_REPS_PER_WORKER: usize = 16;
        let workers = threads
            .max(1)
            .min(rep_cluster.len().div_ceil(MIN_REPS_PER_WORKER).max(1));
        let parts = par::chunked(
            &rep_cluster,
            scratch.ensure_workers(workers),
            |shard, ws, _| build_tc_shard(instance, built_tau, traj_id_bound, shard, ws),
        );
        let tc = PairArena::concat(parts);

        ProviderRows {
            tc: Rows::new(tc, reps, traj_id_bound),
            rep_cluster,
            built_tau,
            build_time: start.elapsed(),
        }
    }

    /// The provider for `tau ≤ built_tau` over these rows: per row, the
    /// prefix of estimates `≤ tau` — bit-identical to
    /// [`ClusteredProvider::build_with`] at `tau`, computing only the
    /// cuts (`4·rows` bytes).
    ///
    /// # Panics
    /// If `tau > built_tau`: the rows hold no estimate above it.
    pub fn view(self: &Arc<Self>, tau: f64) -> ClusteredProvider {
        assert!(
            tau <= self.built_tau,
            "view at τ={tau} over rows built at τ={}",
            self.built_tau
        );
        let cuts = (tau < self.built_tau).then(|| {
            let rows = self.tc.view(None);
            (0..rows.site_count())
                .map(|i| rows.row(i).len_within(tau) as u32)
                .collect()
        });
        ClusteredProvider {
            rows: Arc::clone(self),
            cuts,
        }
    }

    /// Carries the rows across a batch that only added and removed
    /// trajectories: afterwards they are the rows
    /// [`ProviderRows::build_with`] builds at the same `built_tau` on
    /// `instance`, bit for bit. `instance` and `trajs` are the post-batch
    /// index instance and corpus; `added` are the ids the batch added and
    /// did not remove again, `removed` the ids it removed. Each is listed
    /// once. Representatives are untouched: a representative is the
    /// member site nearest its cluster's center, a function of the sites
    /// alone, so only a site op moves one.
    ///
    /// Only the batch's trajectories are mapped and estimated (module
    /// docs, "Carrying rows across a publish"):
    ///
    /// * **inserts** — an added trajectory's `CC(T_j)` per
    ///   `map_trajectory`, then every row whose neighbour walk reaches one
    ///   of its clusters gets the minimum estimate `d_traj + (d_centers +
    ///   rep_distance)` over those clusters, if it is `≤ built_tau`: the
    ///   walk, expression and filter of the build kernel;
    /// * **patch** — [`PairArena::patch`] drops the removed ids and merges
    ///   each row's inserts in the rows' `(d̂r, id)` order, in place.
    pub fn patch(
        &mut self,
        instance: &ClusterInstance,
        trajs: &TrajectorySet,
        added: &[TrajId],
        removed: &[TrajId],
    ) {
        let tau = self.built_tau;
        // Each added trajectory's clusters, as `(cluster, id, d_traj)`
        // grouped by cluster: `through[starts[c]..starts[c + 1]]`.
        let mut through: Vec<(u32, u32, f64)> = Vec::new();
        for &id in added {
            let traj = trajs.get(id).expect("an added trajectory is live");
            let cc = map_trajectory(traj, &instance.node_cluster, &instance.node_center_dist);
            through.extend(cc.into_iter().map(|(c, d)| (c, id.0, d)));
        }
        through.sort_unstable_by_key(|&(c, id, _)| (c, id));
        let mut starts = vec![0u32; instance.clusters.len() + 1];
        for &(c, ..) in &through {
            starts[c as usize + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }

        let mut inserts = PairArenaBuilder::with_capacity(self.rep_cluster.len(), 0);
        let mut row: Vec<(u32, f64)> = Vec::new();
        for &ci in &self.rep_cluster {
            row.clear();
            let cluster = &instance.clusters[ci as usize];
            if !through.is_empty() {
                for &(cj, d_centers) in &cluster.neighbors {
                    let base = d_centers + cluster.rep_distance;
                    if base > tau {
                        break;
                    }
                    let (lo, hi) = (starts[cj as usize], starts[cj as usize + 1]);
                    for &(_, t, d_traj) in &through[lo as usize..hi as usize] {
                        let est = d_traj + base;
                        if est <= tau {
                            row.push((t, est));
                        }
                    }
                }
            }
            // The minimum estimate per id, then the row order.
            row.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            row.dedup_by_key(|p| p.0);
            row.sort_unstable_by_key(|&(t, d)| row_key(t, d));
            inserts.push_row(row.iter().copied());
        }

        let mut dropped = Vec::new();
        if let Some(top) = removed.iter().map(|id| id.index()).max() {
            dropped.resize(top + 1, false);
            for id in removed {
                dropped[id.index()] = true;
            }
        }
        // No shrink afterwards: the arena keeps its high-water capacity,
        // so a later batch's inserts reuse the room earlier drops left and
        // reallocate only past that mark (`heap_size_bytes` counts it).
        self.tc
            .patch(&dropped, &inserts.finish(), row_key, trajs.id_bound());
    }

    /// The threshold the rows were built at (the largest τ they serve).
    pub fn built_tau(&self) -> f64 {
        self.built_tau
    }

    /// Number of representatives (rows).
    pub fn site_count(&self) -> usize {
        self.rep_cluster.len()
    }

    /// Total `(representative, trajectory)` pairs at `built_tau`.
    pub fn pair_count(&self) -> usize {
        self.tc.pair_count()
    }

    /// Heap footprint in bytes by `Vec` capacity: one flat arena (see
    /// [`crate::arena`]) plus the representative arrays.
    pub fn heap_size_bytes(&self) -> usize {
        self.tc.heap_size_bytes() + self.rep_cluster.capacity() * 4
    }
}

/// The clustered coverage view: cluster representatives with estimated
/// detour distances — shared [`ProviderRows`] plus, per row, how long a
/// prefix of it lies within this provider's τ.
#[derive(Clone, Debug)]
pub struct ClusteredProvider {
    rows: Arc<ProviderRows>,
    /// Prefix length per row; `None` when τ is the rows' `built_tau` and
    /// every row is whole.
    cuts: Option<Box<[u32]>>,
}

impl ClusteredProvider {
    /// Builds the clustered view of `instance` for threshold `tau`,
    /// sequentially with fresh scratch. Prefer
    /// [`ClusteredProvider::build_with`] on the serving path.
    ///
    /// Clusters without a representative (no candidate site among their
    /// members) contribute trajectories only through their neighbors.
    pub fn build(instance: &ClusterInstance, tau: f64, traj_id_bound: usize) -> Self {
        Self::build_with(
            instance,
            tau,
            traj_id_bound,
            1,
            &mut ProviderScratch::default(),
        )
    }

    /// Builds the clustered view with up to `threads` workers, reusing
    /// `scratch` across calls: rows built at `tau`, viewed whole. The
    /// output is bit-identical for every thread count: representatives
    /// are split into contiguous chunks, each worker computes its rows
    /// independently, and the chunks are concatenated in cluster order.
    pub fn build_with(
        instance: &ClusterInstance,
        tau: f64,
        traj_id_bound: usize,
        threads: usize,
        scratch: &mut ProviderScratch,
    ) -> Self {
        Arc::new(ProviderRows::build_growing(
            instance,
            tau,
            traj_id_bound,
            threads,
            scratch,
        ))
        .view(tau)
    }

    /// Cluster index behind provider index `idx`.
    pub fn cluster_of(&self, idx: usize) -> u32 {
        self.rows.rep_cluster[idx]
    }

    /// Time spent building the rows this provider views.
    pub fn build_time(&self) -> Duration {
        self.rows.build_time
    }

    /// Total `(representative, trajectory)` pairs in the clustered view.
    pub fn pair_count(&self) -> usize {
        self.rows().pair_count()
    }

    /// Approximate heap footprint in bytes of what the provider keeps
    /// alive (the query-time working set of NetClus beyond the index
    /// itself): the rows — shared with every other view of them — plus
    /// its own cuts.
    pub fn heap_size_bytes(&self) -> usize {
        self.rows.heap_size_bytes() + self.cuts.as_ref().map_or(0, |c| c.len() * 4)
    }
}

/// Builds the `T̂C` rows of the representatives whose cluster indices are
/// in `shard` at threshold `tau` — the only place estimates are computed
/// (one call per worker's chunk). `tau` enters only as
/// the filter `est ≤ tau`; see the module docs for why that makes the row
/// at a smaller τ a prefix of this one.
///
/// The walk is branch-free: a visit keeps the id it writes to
/// `touched[len]` only if it turned `best` finite. Ids are unique in a row,
/// so the unstable sort by [`row_key`] is the total `(d̂r, id)` order.
fn build_tc_shard(
    instance: &ClusterInstance,
    tau: f64,
    traj_id_bound: usize,
    shard: &[u32],
    scratch: &mut RepScratch,
) -> PairArena {
    scratch.ensure(traj_id_bound);
    let (best, touched, keyed) = (&mut scratch.best, &mut scratch.touched, &mut scratch.keyed);
    let mut b = PairArenaBuilder::with_capacity(shard.len(), 0);
    for &ci in shard {
        let cluster: &Cluster = &instance.clusters[ci as usize];
        let mut len = 0;
        for &(cj, d_centers) in &cluster.neighbors {
            let base = d_centers + cluster.rep_distance;
            if base > tau {
                // Neighbors are sorted by distance; all further ones
                // yield only larger estimates.
                break;
            }
            for &(tj, d_traj) in &instance.clusters[cj as usize].traj_list {
                let est = d_traj + base;
                let old = best[tj.index()];
                let new = if est <= tau && est < old { est } else { old };
                best[tj.index()] = new;
                touched[len] = tj.0;
                len += usize::from((old == f64::INFINITY) & (new != f64::INFINITY));
            }
        }
        keyed.clear();
        keyed.extend(touched[..len].iter().map(|&t| row_key(t, best[t as usize])));
        keyed.sort_unstable();
        b.push_row(keyed.iter().map(|&key| {
            let t = key as u32;
            (t, std::mem::replace(&mut best[t as usize], f64::INFINITY))
        }));
    }
    scratch.dirty = false;
    b.finish()
}

impl CoverageProvider for ClusteredProvider {
    fn rows(&self) -> RowsView<'_> {
        self.rows.tc.view(self.cuts.as_deref())
    }
}

/// A NetClus query answer.
#[derive(Clone, Debug)]
pub struct NetClusAnswer {
    /// The solver solution; `utility` is measured under the estimated
    /// distances `d̂r` (re-evaluate with
    /// [`crate::solution::evaluate_sites`] for exact utility).
    pub solution: Solution,
    /// Which index instance served the query.
    pub instance: usize,
    /// Number of cluster representatives processed (`η_p` bound).
    pub representatives: usize,
    /// Wall-clock time the provider build took **when it was built**.
    /// The one-shot [`NetClusIndex::query`] wrappers fold it into the
    /// total query time; callers answering from a cached provider get the
    /// original build's duration repeated here (use `solution.elapsed`
    /// from [`NetClusIndex::query_on`] for the solver-only cost).
    pub provider_build: Duration,
}

impl NetClusIndex {
    /// Builds the [`ClusteredProvider`] serving `tau` (using the index's
    /// configured thread count) and returns it with its instance index.
    /// Split out of [`NetClusIndex::query`] so serving layers can cache
    /// the provider per `(epoch, instance, τ)` and reuse it across
    /// queries with different `k`/ψ.
    pub fn build_provider(&self, tau: f64, traj_id_bound: usize) -> (usize, ClusteredProvider) {
        self.build_provider_with(
            tau,
            traj_id_bound,
            self.config().threads,
            &mut ProviderScratch::default(),
        )
    }

    /// [`NetClusIndex::build_provider`] with explicit thread count and
    /// reusable scratch (the zero-allocation serving path).
    pub(crate) fn build_provider_with(
        &self,
        tau: f64,
        traj_id_bound: usize,
        threads: usize,
        scratch: &mut ProviderScratch,
    ) -> (usize, ClusteredProvider) {
        let p = self.instance_for(tau);
        let provider =
            ClusteredProvider::build_with(self.instance(p), tau, traj_id_bound, threads, scratch);
        (p, provider)
    }

    /// Answers a TOPS query over an already-built provider (Inc-Greedy
    /// over cluster representatives). `instance` names the index instance
    /// the provider was built from; `Solution::elapsed` covers the solver
    /// only — the caller decides whether the (possibly cached) provider
    /// build counts toward the query.
    pub fn query_on(
        &self,
        provider: &ClusteredProvider,
        instance: usize,
        q: &TopsQuery,
    ) -> NetClusAnswer {
        let solution = inc_greedy(provider, q);
        NetClusAnswer {
            representatives: provider.site_count(),
            instance,
            provider_build: provider.build_time(),
            solution,
        }
    }

    /// Answers a TOPS query with Inc-Greedy over cluster representatives
    /// (the paper's NETCLUS algorithm).
    pub fn query(&self, trajs: &TrajectorySet, q: &TopsQuery) -> NetClusAnswer {
        let (p, provider) = self.build_provider(q.tau, trajs.id_bound());
        let mut answer = self.query_on(&provider, p, q);
        answer.solution.elapsed += provider.build_time();
        answer
    }

    /// Answers a TOPS query in the presence of already-deployed services at
    /// arbitrary network nodes (paper Sec. 7.3): the existing services'
    /// exact coverage is folded into the trajectory utilities first
    /// (`Q_0 = ES`), then Inc-Greedy selects `k` *additional* sites among
    /// the cluster representatives, maximizing the extra utility.
    ///
    /// `net` must be the network the index was built on.
    pub fn query_with_existing(
        &self,
        net: &netclus_roadnet::RoadNetwork,
        trajs: &TrajectorySet,
        q: &TopsQuery,
        existing: &[NodeId],
    ) -> NetClusAnswer {
        use crate::detour::{DetourEngine, DetourModel};
        let (p, provider) = self.build_provider(q.tau, trajs.id_bound());
        // Exact coverage of the deployed services (|ES| bounded searches).
        let mut seed = vec![0.0f64; trajs.id_bound()];
        let mut eng = DetourEngine::new(net, DetourModel::RoundTrip);
        let effective_tau = q.preference.effective_tau(q.tau);
        for &s in existing {
            for (tj, d) in eng.site_coverage(trajs, s, effective_tau) {
                let score = q.preference.score(d, q.tau);
                if score > seed[tj.index()] {
                    seed[tj.index()] = score;
                }
            }
        }
        let mut solution = inc_greedy_seeded(&provider, q, &seed);
        solution.elapsed += provider.build_time();
        NetClusAnswer {
            representatives: provider.site_count(),
            instance: p,
            provider_build: provider.build_time(),
            solution,
        }
    }

    /// Answers a binary TOPS query with the FM-sketch greedy over cluster
    /// representatives (the paper's FM-NETCLUS): `fm`'s sketch copies and
    /// seed, `q.k` sites.
    pub fn query_fm(
        &self,
        trajs: &TrajectorySet,
        q: &TopsQuery,
        fm: &FmGreedyConfig,
    ) -> NetClusAnswer {
        assert!(
            q.preference.is_binary(),
            "FM-NetClus requires the binary preference (paper Sec. 5.1)"
        );
        let (p, provider) = self.build_provider(q.tau, trajs.id_bound());
        let cfg = FmGreedyConfig {
            k: q.k,
            copies: fm.copies,
            seed: fm.seed,
        };
        let mut solution = fm_greedy(&provider, &cfg);
        solution.elapsed += provider.build_time();
        NetClusAnswer {
            representatives: provider.site_count(),
            instance: p,
            provider_build: provider.build_time(),
            solution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detour::DetourModel;
    use crate::index::{NetClusConfig, NetClusIndex};
    use crate::solution::evaluate_sites;
    use netclus_roadnet::{Point, RoadNetwork, RoadNetworkBuilder};
    use netclus_trajectory::{TrajId, Trajectory};

    /// Line network 0..30, 100 m apart, with bundles of trajectories on
    /// two separated segments.
    fn fixture() -> (RoadNetwork, TrajectorySet, Vec<NodeId>) {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..30 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..29u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        // 6 trajectories around nodes 2..8, 4 around nodes 20..26.
        for s in 0..6u32 {
            trajs.add(Trajectory::new(
                (2 + s / 2..8 - s / 3).map(NodeId).collect(),
            ));
        }
        for s in 0..4u32 {
            trajs.add(Trajectory::new((20 + s..26).map(NodeId).collect()));
        }
        let sites: Vec<NodeId> = net.nodes().collect();
        (net, trajs, sites)
    }

    fn index(net: &RoadNetwork, trajs: &TrajectorySet, sites: &[NodeId]) -> NetClusIndex {
        NetClusIndex::build(
            net,
            trajs,
            sites,
            NetClusConfig {
                gamma: 0.75,
                tau_min: 200.0,
                tau_max: 4_000.0,
                threads: 1,
            },
        )
    }

    #[test]
    fn estimates_never_underestimate_coverage() {
        // T̂C(r) ⊆ TC(r): every trajectory the provider claims within τ
        // must truly be within τ of the representative.
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let tau = 800.0;
        let p = idx.instance_for(tau);
        let provider = ClusteredProvider::build(idx.instance(p), tau, trajs.id_bound());
        let mut eng = crate::detour::DetourEngine::new(&net, DetourModel::RoundTrip);
        for i in 0..provider.site_count() {
            let rep = provider.site_node(i);
            let exact: std::collections::BTreeMap<TrajId, f64> =
                eng.site_coverage(&trajs, rep, tau).into_iter().collect();
            for (tj, est) in provider.covered(i).iter() {
                let true_d = exact.get(&TrajId(tj)).copied();
                assert!(
                    true_d.is_some(),
                    "rep {rep:?} claims {tj:?} at d̂r={est} but exact > τ"
                );
                assert!(
                    true_d.unwrap() <= est + 1e-9,
                    "d̂r={est} below true detour {}",
                    true_d.unwrap()
                );
            }
        }
    }

    #[test]
    fn parallel_provider_build_is_bit_identical() {
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        for tau in [300.0, 800.0, 2_500.0] {
            let p = idx.instance_for(tau);
            let seq = ClusteredProvider::build(idx.instance(p), tau, trajs.id_bound());
            let mut scratch = ProviderScratch::default();
            for threads in [2usize, 4, 8] {
                let par = ClusteredProvider::build_with(
                    idx.instance(p),
                    tau,
                    trajs.id_bound(),
                    threads,
                    &mut scratch,
                );
                assert_eq!(seq.site_count(), par.site_count());
                assert_eq!(seq.pair_count(), par.pair_count());
                // Every pair is accounted, at 12 bytes.
                assert!(par.heap_size_bytes() >= 12 * par.pair_count());
                for i in 0..seq.site_count() {
                    assert_eq!(seq.site_node(i), par.site_node(i));
                    assert_eq!(seq.cluster_of(i), par.cluster_of(i));
                    assert_eq!(seq.covered(i), par.covered(i), "τ={tau} row {i}");
                }
            }
        }
    }

    #[test]
    fn cached_rows_are_exact_size_and_a_view_adds_only_its_cuts() {
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let mut scratch = ProviderScratch::default();
        for inst in idx.instances() {
            let ceiling = inst.neighbor_limit;
            let rows = Arc::new(ProviderRows::build_with(
                inst,
                ceiling,
                trajs.id_bound(),
                1,
                &mut scratch,
            ));
            let (pairs, n) = (rows.pair_count(), rows.site_count());
            assert!(pairs > 0 && n > 0);
            assert_eq!(rows.heap_size_bytes(), 12 * pairs + 4 * (n + 1) + 8 * n);
            // The whole-row view shares everything; a cut view owns 4·η.
            assert_eq!(rows.view(ceiling).heap_size_bytes(), rows.heap_size_bytes());
            let view = rows.view(4.0 * inst.radius);
            assert_eq!(view.heap_size_bytes(), rows.heap_size_bytes() + 4 * n);
            assert!(view.pair_count() <= pairs);
        }
    }

    #[test]
    #[should_panic(expected = "rows built at")]
    fn view_above_the_built_tau_is_refused() {
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let rows = Arc::new(ProviderRows::build_with(
            idx.instance(0),
            300.0,
            trajs.id_bound(),
            1,
            &mut ProviderScratch::default(),
        ));
        rows.view(300.001);
    }

    #[test]
    fn a_scratch_left_dirty_mid_row_builds_the_rows_of_a_fresh_one() {
        // A build that unwinds mid-row (here: an id past a too-small
        // bound) leaves finite estimates in `best`; the scratch's next
        // build must not see them.
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let (tau, bound) = (800.0, trajs.id_bound());
        let inst = idx.instance(idx.instance_for(tau));
        let fresh = ClusteredProvider::build(inst, tau, bound);
        let mut dirty_seen = 0;
        for short in 1..bound {
            let mut scratch = ProviderScratch::default();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ClusteredProvider::build_with(inst, tau, short, 1, &mut scratch)
            }));
            assert!(unwound.is_err(), "bound {short} < {bound} must panic");
            let ws = &scratch.workers[0];
            dirty_seen += usize::from(ws.best.iter().any(|d| d.is_finite()));
            assert!(ws.dirty, "an unwound build leaves its scratch dirty");
            let reused = ClusteredProvider::build_with(inst, tau, bound, 1, &mut scratch);
            assert!(!scratch.workers[0].dirty);
            assert!(scratch.workers[0].best.iter().all(|&d| d == f64::INFINITY));
            for i in 0..fresh.site_count() {
                assert_eq!(fresh.covered(i), reused.covered(i), "bound {short} row {i}");
            }
        }
        assert!(
            dirty_seen > 0,
            "no build unwound with estimates left in `best`"
        );
    }

    #[test]
    fn scratch_reuse_across_different_taus_is_clean() {
        // Estimates from a previous τ must never leak coverage into a
        // later build (each row resets the ids it touched).
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let mut scratch = ProviderScratch::default();
        let taus = [3_000.0, 250.0, 1_200.0, 250.0];
        for &tau in &taus {
            let p = idx.instance_for(tau);
            let fresh = ClusteredProvider::build(idx.instance(p), tau, trajs.id_bound());
            let reused = ClusteredProvider::build_with(
                idx.instance(p),
                tau,
                trajs.id_bound(),
                1,
                &mut scratch,
            );
            for i in 0..fresh.site_count() {
                assert_eq!(fresh.covered(i), reused.covered(i), "τ={tau} row {i}");
            }
        }
    }

    #[test]
    fn query_on_matches_query() {
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let q = TopsQuery::binary(2, 800.0);
        let one_shot = idx.query(&trajs, &q);
        let (p, provider) = idx.build_provider(q.tau, trajs.id_bound());
        let split = idx.query_on(&provider, p, &q);
        assert_eq!(one_shot.solution.sites, split.solution.sites);
        assert_eq!(one_shot.instance, split.instance);
        assert!((one_shot.solution.utility - split.solution.utility).abs() < 1e-12);
    }

    #[test]
    fn netclus_solution_quality_close_to_greedy() {
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let q = TopsQuery::binary(2, 800.0);
        let answer = idx.query(&trajs, &q);
        assert_eq!(answer.solution.sites.len(), 2);
        // Exact utility of NetClus's sites: the two bundles are far apart,
        // so 2 well-placed sites cover everything.
        let eval = evaluate_sites(
            &net,
            &trajs,
            &answer.solution.sites,
            q.tau,
            q.preference,
            DetourModel::RoundTrip,
        );
        assert_eq!(eval.utility, 10.0, "NetClus missed a bundle: {answer:?}");
    }

    #[test]
    fn fm_netclus_matches_netclus_on_separated_bundles() {
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let q = TopsQuery::binary(2, 800.0);
        let fm = idx.query_fm(
            &trajs,
            &q,
            &FmGreedyConfig {
                k: 2,
                copies: 50,
                seed: 3,
            },
        );
        let eval = evaluate_sites(
            &net,
            &trajs,
            &fm.solution.sites,
            q.tau,
            q.preference,
            DetourModel::RoundTrip,
        );
        assert_eq!(eval.utility, 10.0);
    }

    #[test]
    #[should_panic(expected = "binary preference")]
    fn fm_netclus_rejects_graded_preference() {
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let q = TopsQuery {
            k: 1,
            tau: 800.0,
            preference: PreferenceFunction::LinearDecay,
        };
        idx.query_fm(&trajs, &q, &FmGreedyConfig::default());
    }

    #[test]
    fn larger_tau_uses_coarser_instance_with_fewer_reps() {
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let fine = idx.query(&trajs, &TopsQuery::binary(2, 250.0));
        let coarse = idx.query(&trajs, &TopsQuery::binary(2, 3_500.0));
        assert!(fine.instance < coarse.instance);
        assert!(fine.representatives >= coarse.representatives);
    }

    #[test]
    fn sparse_sites_restrict_representatives() {
        let (net, trajs, _) = fixture();
        let sites = vec![NodeId(4), NodeId(23)];
        let idx = index(&net, &trajs, &sites);
        let q = TopsQuery::binary(2, 800.0);
        let answer = idx.query(&trajs, &q);
        // Only the two real sites can ever be selected.
        let mut got = answer.solution.sites.clone();
        got.sort_unstable();
        assert_eq!(got, vec![NodeId(4), NodeId(23)]);
    }

    #[test]
    fn query_with_existing_avoids_served_demand() {
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let q = TopsQuery::binary(1, 800.0);
        // Without existing services, k=1 goes to the bigger bundle (nodes
        // 2..8, 6 trajectories).
        let plain = idx.query(&trajs, &q);
        let plain_best = plain.solution.sites[0];
        assert!(
            plain_best.0 <= 10,
            "expected first bundle, got {plain_best:?}"
        );
        // With a service already at node 5 (serving that bundle), the next
        // site must go to the second bundle (nodes 20..26).
        let answer = idx.query_with_existing(&net, &trajs, &q, &[NodeId(5)]);
        let best = answer.solution.sites[0];
        assert!(
            (16..=29).contains(&best.0),
            "existing service ignored; picked {best:?}"
        );
        // Reported utility is the *extra* coverage only (4 trajectories).
        assert!((answer.solution.utility - 4.0).abs() < 1e-9);
    }

    #[test]
    fn query_with_no_existing_matches_plain_query() {
        let (net, trajs, sites) = fixture();
        let idx = index(&net, &trajs, &sites);
        let q = TopsQuery::binary(3, 800.0);
        let plain = idx.query(&trajs, &q);
        let with = idx.query_with_existing(&net, &trajs, &q, &[]);
        assert_eq!(plain.solution.sites, with.solution.sites);
        assert!((plain.solution.utility - with.solution.utility).abs() < 1e-9);
    }

    #[test]
    fn quantize_tau_is_millimetric_idempotent_and_total() {
        assert_eq!(quantize_tau(800.0), 800.0);
        assert_eq!(quantize_tau(800.000_000_1), 800.0);
        assert_eq!(quantize_tau(800.0004), 800.0);
        assert_eq!(quantize_tau(800.0006), 800.001);
        assert_ne!(quantize_tau(800.001), quantize_tau(800.002));
        // τ = 0 and sub-millimeter thresholds quantize to exactly 0.0, so
        // an admission check that rejects non-positive τ after quantizing
        // can never admit a value whose lookup key would round differently.
        assert_eq!(quantize_tau(0.0), 0.0);
        assert_eq!(quantize_tau(1e-4), 0.0);
        assert_eq!(quantize_tau(4.9e-4), 0.0);
        assert_eq!(quantize_tau(5.1e-4), 0.001);
        // Admission-time and lookup-time quantization agree: the function
        // is idempotent for every representative magnitude.
        for tau in [0.0, 1e-4, 0.001, 0.37, 123.456, 99_999.999, 1.0e7] {
            assert_eq!(quantize_tau(quantize_tau(tau)), quantize_tau(tau));
        }
    }
}
