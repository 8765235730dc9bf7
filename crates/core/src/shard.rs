//! Sharded NetClus: per-shard indexes and the two-round distributed
//! greedy (scatter-gather TOPS).
//!
//! The monolithic [`NetClusIndex`] assumes one process holds the whole
//! corpus. At country scale the corpus (and its index ladder) is sharded
//! by road-network region instead (see
//! [`netclus_roadnet::RegionPartition`]):
//!
//! * **Sites** are partitioned disjointly — site `s` belongs to the shard
//!   of its vertex.
//! * **Trajectories** are replicated — a trajectory is assigned to every
//!   shard its nodes touch, so a shard's sites always see the full demand
//!   that passes through their region. Trajectories whose nodes span ≥ 2
//!   shards are *boundary* trajectories; [`ReplicationStats`] reports how
//!   many and at what replication cost.
//! * **Ids are global** — per-shard corpus views are id-preserving subsets
//!   ([`TrajectorySet::subset_where`]), so coverage rows computed on
//!   different shards are keyed by the same trajectory ids and can be
//!   merged without translation.
//!
//! Queries run the GreeDi-style two-round protocol of distributed
//! submodular maximization (Mirzasoleiman et al., NIPS '13):
//!
//! 1. **Scatter** — each shard answers the query locally with
//!    [`inc_greedy`] over its cluster representatives, producing at most
//!    `k` local candidates together with their coverage rows.
//! 2. **Gather** — the same [`inc_greedy`] re-runs over the union of the at
//!    most `shards × k` candidates on the merged coverage view.
//!
//! Both rounds are `(1 − 1/e)`-greedy, so the composition carries the
//! GreeDi `(1 − 1/e)²/ min(√k, #shards)`-flavored worst-case bound; in the
//! benign (and common) case where the corpus *respects the partition* —
//! every trajectory is covered only by sites of the single shard it
//! touches — the sharded answer is **bit-identical** to the monolithic
//! one. The argument: with disjoint per-shard coverage supports, the
//! monolithic greedy's selections inside one shard form a prefix of that
//! shard's local greedy order (gains of a shard's sites never depend on
//! selections elsewhere, and both runs break ties by the paper's
//! max-gain → max-weight → highest-index rule over the same
//! cluster-ordered candidates), so every monolithic pick reaches the
//! round-2 union, where the same tie-breaking reproduces the monolithic
//! sequence. The gains and the utility agree to the last bit as well, for
//! every ψ: all three runs are the one solver, which recomputes a gain
//! from the site's row and the utilities of the trajectories in it, and
//! both are the same on either side. `crates/core/tests/shard_proptests.rs`
//! checks this for shard counts 1, 2 and 4 and the three ψ on random
//! partition-respecting corpora, along with the replication invariants.
//!
//! A round's coverage rows stay **structure-of-arrays from end to end**.
//! [`local_candidates_on`] copies the selected rows' id and detour slices
//! out of the shard's rows into one [`PairArena`] per round, one row per
//! candidate, shared behind an `Arc`; every [`Candidate::row`] is a
//! [`RowView`] — that `Arc` and a row number — so cloning a round, taking
//! its [`ShardRoundOne::prefix`] (what a memo hit does) or moving its
//! candidates into the merge copies no pair; the wire codec writes and
//! reads each row as an id run and a detour run; and
//! [`MergedCandidateProvider`] appends each view's two slices to its
//! [`Rows`].
//!
//! All shards share one [`NetworkClustering`] (the GDSP ladder is corpus-
//! independent), so cluster ids are globally consistent — the round-2
//! candidate ordering sorts by `(instance cluster id, node id)`, exactly
//! the order the monolithic provider enumerates representatives in.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus_roadnet::{NodeId, RegionPartition, RoadNetwork};
use netclus_trajectory::{Trajectory, TrajectorySet};

use crate::arena::{PairArena, PairArenaBuilder, PairSlice};
use crate::codec::{put_f64, put_u32, put_u64};
pub use crate::codec::{ShardCodecError, WireReader};
use crate::coverage::{CoverageProvider, Rows, RowsView};
use crate::greedy::inc_greedy;
use crate::index::{NetClusConfig, NetClusIndex, NetworkClustering};
use crate::query::{ClusteredProvider, ProviderScratch, TopsQuery};
use crate::solution::Solution;

/// Trajectory replication bookkeeping of a sharded build.
#[derive(Clone, Debug, Default)]
pub struct ReplicationStats {
    /// Live trajectories in the global corpus.
    pub trajectories: usize,
    /// Trajectories touching ≥ 2 shards (replicated).
    pub boundary: usize,
    /// Total shard-local copies (`Σ` shards touched per trajectory).
    pub replicas: usize,
    /// Shard-local copies per shard.
    pub per_shard: Vec<usize>,
}

impl ReplicationStats {
    /// Mean copies per trajectory (1.0 = no replication).
    pub fn replication_factor(&self) -> f64 {
        if self.trajectories == 0 {
            1.0
        } else {
            self.replicas as f64 / self.trajectories as f64
        }
    }
}

/// The shards a trajectory touches, ascending and deduplicated.
pub fn shards_of_trajectory(partition: &RegionPartition, traj: &Trajectory) -> Vec<u32> {
    let mut shards: Vec<u32> = traj
        .nodes()
        .iter()
        .map(|&v| partition.shard_of(v))
        .collect();
    shards.sort_unstable();
    shards.dedup();
    shards
}

/// One shard of a [`ShardedNetClusIndex`]: the region's sites, its
/// (replicated-in) corpus view, and the NetClus index over them.
#[derive(Clone, Debug)]
pub struct NetClusShard {
    /// Shard id (= region id of the partition).
    pub id: u32,
    /// Candidate sites owned by this shard, ascending by node id.
    pub sites: Vec<NodeId>,
    /// Id-preserving corpus view: every trajectory touching this shard.
    pub trajs: TrajectorySet,
    /// The shard's NetClus index (built over the full network, this
    /// shard's sites and corpus view).
    pub index: NetClusIndex,
    /// Wall-clock time of this shard's enrichment build (excluding the
    /// shared clustering sweep).
    pub build_time: Duration,
}

/// A sharded NetClus index: one [`NetClusShard`] per partition region plus
/// the shared clustering and replication stats.
#[derive(Clone, Debug)]
pub struct ShardedNetClusIndex {
    partition: RegionPartition,
    shards: Vec<NetClusShard>,
    replication: ReplicationStats,
    traj_id_bound: usize,
    clustering_time: Duration,
    build_time: Duration,
}

impl ShardedNetClusIndex {
    /// Builds per-shard indexes for every region of `partition`.
    ///
    /// The GDSP clustering ladder is computed **once** and shared; shard
    /// enrichment (trajectory lists, representatives, neighbor lists) runs
    /// in parallel across shards on `config.threads` workers. The result
    /// is deterministic for every thread count.
    pub fn build(
        net: &RoadNetwork,
        trajs: &TrajectorySet,
        sites: &[NodeId],
        partition: &RegionPartition,
        config: NetClusConfig,
    ) -> ShardedNetClusIndex {
        let start = Instant::now();
        let shards = partition.shard_count();
        let clustering = NetworkClustering::build(net, &config);

        // Disjoint site partition + replicated corpus views.
        let mut shard_sites: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
        for &s in sites {
            shard_sites[partition.shard_of(s) as usize].push(s);
        }
        let mut replication = ReplicationStats {
            trajectories: trajs.len(),
            per_shard: vec![0; shards],
            ..Default::default()
        };
        // touched[shard][id]: does trajectory `id` touch `shard`?
        let mut touched: Vec<Vec<bool>> = vec![vec![false; trajs.id_bound()]; shards];
        for (id, traj) in trajs.iter() {
            let owners = shards_of_trajectory(partition, traj);
            if owners.len() >= 2 {
                replication.boundary += 1;
            }
            replication.replicas += owners.len();
            for s in owners {
                replication.per_shard[s as usize] += 1;
                touched[s as usize][id.index()] = true;
            }
        }

        // Per-shard enrichment, parallel across shards. Per-shard builds
        // run single-threaded internally to avoid oversubscription; the
        // output is independent of thread placement.
        let shard_config = NetClusConfig {
            threads: 1,
            ..config
        };
        let workers = config.threads.max(1).min(shards);
        let mut built: Vec<Option<NetClusShard>> = (0..shards).map(|_| None).collect();
        let build_one = |s: usize, touched_s: &[bool]| -> NetClusShard {
            let t = Instant::now();
            let view = trajs.subset_where(|id, _| touched_s[id.index()]);
            let index = NetClusIndex::build_clustered(
                net,
                &view,
                &shard_sites[s],
                shard_config,
                &clustering,
            );
            NetClusShard {
                id: s as u32,
                sites: shard_sites[s].clone(),
                trajs: view,
                index,
                build_time: t.elapsed(),
            }
        };
        if workers <= 1 {
            for (s, slot) in built.iter_mut().enumerate() {
                *slot = Some(build_one(s, &touched[s]));
            }
        } else {
            let chunk = shards.div_ceil(workers);
            let touched = &touched;
            let build_one = &build_one;
            std::thread::scope(|scope| {
                for (w, slots) in built.chunks_mut(chunk).enumerate() {
                    scope.spawn(move || {
                        for (off, slot) in slots.iter_mut().enumerate() {
                            let s = w * chunk + off;
                            *slot = Some(build_one(s, &touched[s]));
                        }
                    });
                }
            });
        }

        ShardedNetClusIndex {
            partition: partition.clone(),
            shards: built.into_iter().map(|s| s.expect("shard built")).collect(),
            replication,
            traj_id_bound: trajs.id_bound(),
            clustering_time: clustering.build_time(),
            build_time: start.elapsed(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Decomposes the sharded index into its parts (partition, shards,
    /// replication stats) — the handoff into a serving layer that wants to
    /// own each shard behind its own snapshot store.
    pub fn into_parts(self) -> (RegionPartition, Vec<NetClusShard>, ReplicationStats) {
        (self.partition, self.shards, self.replication)
    }

    /// The shards, in shard-id order.
    pub fn shards(&self) -> &[NetClusShard] {
        &self.shards
    }

    /// The node partition the shards were built from.
    pub fn partition(&self) -> &RegionPartition {
        &self.partition
    }

    /// Trajectory replication statistics.
    pub fn replication(&self) -> &ReplicationStats {
        &self.replication
    }

    /// Global trajectory-id bound shared by every shard view.
    pub fn traj_id_bound(&self) -> usize {
        self.traj_id_bound
    }

    /// Time of the shared GDSP clustering sweep.
    pub fn clustering_time(&self) -> Duration {
        self.clustering_time
    }

    /// Total wall-clock build time (clustering + all shard enrichments).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Answers a TOPS query with the two-round distributed greedy,
    /// scattering round 1 across shards on up to `threads` workers.
    pub fn query(&self, q: &TopsQuery) -> ShardedAnswer {
        self.query_with(q, self.shards.len())
    }

    /// [`ShardedNetClusIndex::query`] with an explicit round-1 thread
    /// count (the answer is identical for every value).
    pub fn query_with(&self, q: &TopsQuery, threads: usize) -> ShardedAnswer {
        let start = Instant::now();
        let bound = self.traj_id_bound;
        let workers = threads.max(1).min(self.shards.len().max(1));
        let mut rounds: Vec<Option<ShardRoundOne>> = (0..self.shards.len()).map(|_| None).collect();
        if workers <= 1 {
            let mut scratch = ProviderScratch::default();
            for (shard, slot) in self.shards.iter().zip(rounds.iter_mut()) {
                *slot = Some(local_candidates(&shard.index, q, bound, &mut scratch));
            }
        } else {
            let chunk = self.shards.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (shards, slots) in self.shards.chunks(chunk).zip(rounds.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        let mut scratch = ProviderScratch::default();
                        for (shard, slot) in shards.iter().zip(slots.iter_mut()) {
                            *slot = Some(local_candidates(&shard.index, q, bound, &mut scratch));
                        }
                    });
                }
            });
        }
        let rounds: Vec<ShardRoundOne> = rounds
            .into_iter()
            .zip(&self.shards)
            .map(|(r, shard)| {
                let mut r = r.expect("round-1 shard answered");
                r.shard_hint = shard.id;
                r
            })
            .collect();

        let merge_start = Instant::now();
        let instance = rounds.first().map_or(0, |r| r.instance);
        // Take the stats, then move the candidate rows out — coverage rows
        // can be large, and the merge consumes them anyway.
        let stats: Vec<ShardRoundStats> = rounds
            .iter()
            .map(|r| ShardRoundStats {
                shard: r.shard_hint,
                candidates: r.candidates.len(),
                representatives: r.representatives,
                local_utility: r.local_utility,
                elapsed: r.elapsed,
            })
            .collect();
        let candidates: Vec<Candidate> = rounds.into_iter().flat_map(|r| r.candidates).collect();
        let (solution, candidate_count, _) = merge_candidates_timed(candidates, q, bound);
        let merge_time = merge_start.elapsed();

        ShardedAnswer {
            solution,
            instance,
            candidates: candidate_count,
            rounds: stats,
            merge_time,
            total_time: start.elapsed(),
        }
    }
}

/// One candidate's `T̂C` row: a row of the arena its round shares (global
/// trajectory ids, estimated detours ascending). Cloning clones a pointer,
/// never a pair — which is what lets a memoised round answer every smaller
/// `k` by [`ShardRoundOne::prefix`] without copying rows. Equality and
/// `Debug` are those of the row's *contents*.
#[derive(Clone)]
pub struct RowView {
    block: Arc<PairArena>,
    row: usize,
}

impl RowView {
    /// A row of its own, from materialized pairs (tests, fixtures).
    pub fn from_pairs(pairs: Vec<(u32, f64)>) -> RowView {
        RowView {
            block: Arc::new(PairArena::from_rows(&[pairs])),
            row: 0,
        }
    }

    /// The trajectory ids of the row.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        self.as_slice().ids
    }

    /// The estimated detours of the row, parallel to [`Self::ids`].
    #[inline]
    pub fn dists(&self) -> &[f64] {
        self.as_slice().dists
    }

    /// Number of pairs in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the row is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The row as the borrowed slice pair the arenas speak.
    #[inline]
    pub fn as_slice(&self) -> PairSlice<'_> {
        self.block.row(self.row)
    }

    /// Materializes the row as a pair vector (tests / debugging).
    pub fn to_pairs(&self) -> Vec<(u32, f64)> {
        self.as_slice().to_pairs()
    }

    /// Whether both rows are rows of the same arena — storage identity,
    /// not content equality.
    pub fn shares_block_with(&self, other: &RowView) -> bool {
        Arc::ptr_eq(&self.block, &other.block)
    }
}

impl PartialEq for RowView {
    fn eq(&self, other: &RowView) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for RowView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice().iter()).finish()
    }
}

/// One round-1 candidate: a locally selected site with its coverage row.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// The candidate site.
    pub node: NodeId,
    /// Global cluster id of the representative's cluster (instances are
    /// built from a shared clustering, so ids agree across shards).
    pub cluster: u32,
    /// The local greedy's marginal gain when this candidate was selected.
    /// Gains are non-increasing along the selection order, so a `k'`-prefix
    /// of the candidate list carries its own local utility (`Σ` of the
    /// first `k'` gains) — what makes [`ShardRoundOne::prefix`] exact.
    pub gain: f64,
    /// `T̂C` row of the candidate, a row of the round's shared arena.
    pub row: RowView,
}

impl Candidate {
    /// A candidate whose row is built from materialized pairs.
    pub fn from_pairs(node: NodeId, cluster: u32, gain: f64, row: Vec<(u32, f64)>) -> Candidate {
        Candidate {
            node,
            cluster,
            gain,
            row: RowView::from_pairs(row),
        }
    }
}

/// A round's candidates: `heads[i]` is `(node, cluster, gain)` of the
/// candidate whose row is row `i` of `block`.
fn round_candidates(
    heads: impl IntoIterator<Item = (NodeId, u32, f64)>,
    block: PairArena,
) -> Vec<Candidate> {
    let block = Arc::new(block);
    heads
        .into_iter()
        .enumerate()
        .map(|(row, (node, cluster, gain))| Candidate {
            node,
            cluster,
            gain,
            row: RowView {
                block: Arc::clone(&block),
                row,
            },
        })
        .collect()
}

/// Result of one shard's round-1 local greedy.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardRoundOne {
    /// The shard's `k` (or fewer) local candidates, in selection order.
    pub candidates: Vec<Candidate>,
    /// The `k` the round was computed for (`candidates.len() ≤ k`; fewer
    /// only when the shard ran out of representatives).
    pub k: usize,
    /// Index instance that served the query.
    pub instance: usize,
    /// Representatives the shard processed.
    pub representatives: usize,
    /// The shard's local greedy utility (under `d̂r`).
    pub local_utility: f64,
    /// Round-1 wall-clock time on this shard.
    pub elapsed: Duration,
    /// Portion of `elapsed` spent in the greedy solver itself,
    /// microseconds; the remainder is candidate extraction (coverage-row
    /// copies). Threaded through so serving layers can attribute round-1
    /// time to stages without re-timing inside the solver.
    pub solve_us: u64,
    /// Shard id for reporting (set by the caller's context; defaults to
    /// the order of computation).
    pub shard_hint: u32,
}

impl ShardRoundOne {
    /// The round-1 answer for a smaller request `k' ≤ self.k`, by slicing.
    ///
    /// Greedy selection is **prefix-stable**: the site chosen at step `i`
    /// depends only on the first `i − 1` selections, never on `k`, so the
    /// `k'`-run's selection sequence is literally the first `k'` entries of
    /// the `k`-run (proptested in
    /// `crates/core/tests/lazy_greedy_proptests.rs`). That makes one
    /// memoized round answer every smaller-`k` query at the same
    /// `(epoch, shard, τ, ψ)` — the basis of the serving layer's round-1
    /// candidate memo.
    ///
    /// `elapsed` (and `solve_us` with it) is zeroed: a sliced answer
    /// costs no solve time, and reporting the original run's duration
    /// would make warm per-shard stats look as slow as the cold solve
    /// they skipped.
    ///
    /// # Panics
    /// Panics if `k > self.k` (a larger request needs a real re-run).
    pub fn prefix(&self, k: usize) -> ShardRoundOne {
        assert!(k <= self.k, "prefix k={k} exceeds computed k={}", self.k);
        let keep = k.min(self.candidates.len());
        // Clones views, not rows: the prefix shares this round's block.
        let candidates: Vec<Candidate> = self.candidates[..keep].to_vec();
        ShardRoundOne {
            local_utility: candidates.iter().map(|c| c.gain).sum(),
            candidates,
            k,
            instance: self.instance,
            representatives: self.representatives,
            elapsed: Duration::ZERO,
            solve_us: 0,
            shard_hint: self.shard_hint,
        }
    }

    /// Serializes the round for the shard wire protocol. Fixed-width
    /// little-endian fields; floats as IEEE-754 bits, so a decoded round
    /// is **bit-identical** to the encoded one and the remote scatter path
    /// merges exactly what an in-process shard would have returned.
    ///
    /// Layout (v2 of the shard protocol): the candidate count, then per
    /// candidate `node | cluster | gain | len | len × id | len × detour` —
    /// a row is an id run followed by a distance run, the
    /// structure-of-arrays shape it has in memory on both ends — then the
    /// round's scalar fields. The encoded length is known up front, so the
    /// buffer grows at most once.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let pairs: usize = self.candidates.iter().map(|c| c.row.len()).sum();
        buf.reserve(
            4 + self.candidates.len() * CANDIDATE_HEAD_BYTES
                + pairs * PAIR_BYTES
                + ROUND_TAIL_BYTES,
        );
        put_u32(buf, self.candidates.len() as u32);
        for c in &self.candidates {
            put_u32(buf, c.node.0);
            put_u32(buf, c.cluster);
            put_f64(buf, c.gain);
            put_u32(buf, c.row.len() as u32);
            let ids = c.row.ids();
            let at = buf.len();
            buf.resize(at + 4 * ids.len(), 0);
            for (dst, id) in buf[at..].chunks_exact_mut(4).zip(ids) {
                dst.copy_from_slice(&id.to_le_bytes());
            }
            let dists = c.row.dists();
            let at = buf.len();
            buf.resize(at + 8 * dists.len(), 0);
            for (dst, d) in buf[at..].chunks_exact_mut(8).zip(dists) {
                dst.copy_from_slice(&d.to_bits().to_le_bytes());
            }
        }
        put_u64(buf, self.k as u64);
        put_u64(buf, self.instance as u64);
        put_u64(buf, self.representatives as u64);
        put_f64(buf, self.local_utility);
        put_u64(buf, self.elapsed.as_nanos() as u64);
        put_u64(buf, self.solve_us);
        put_u32(buf, self.shard_hint);
    }

    /// Decodes a round previously written by [`Self::encode_into`],
    /// consuming from `r`, into one arena shared by its candidates.
    /// `max_candidates` bounds the candidate count, and every count and
    /// row length is checked against the bytes the payload still holds
    /// *before* anything is allocated for it, so a corrupt or hostile
    /// length prefix cannot trigger an allocation the payload could not
    /// fill. Every malformed input returns a typed error — never a panic.
    pub fn decode_from(
        r: &mut WireReader<'_>,
        max_candidates: usize,
    ) -> Result<ShardRoundOne, ShardCodecError> {
        let n = r.count(CANDIDATE_HEAD_BYTES, "candidate count exceeds payload")?;
        if n > max_candidates {
            return Err(ShardCodecError("candidate count exceeds wire cap"));
        }
        // What is left bounds the pairs of the whole round from above.
        let mut block = PairArenaBuilder::with_capacity(n, r.remaining() / PAIR_BYTES);
        let mut heads = Vec::with_capacity(n);
        for _ in 0..n {
            heads.push((NodeId(r.u32()?), r.u32()?, r.f64()?));
            let len = r.count(PAIR_BYTES, "coverage row longer than payload")?;
            let ids = r.bytes(4 * len)?.chunks_exact(4);
            let dists = r.bytes(8 * len)?.chunks_exact(8);
            block.push_runs(
                ids.map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
                dists.map(|c| {
                    f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                }),
            );
        }
        Ok(ShardRoundOne {
            candidates: round_candidates(heads, block.finish()),
            k: r.u64()? as usize,
            instance: r.u64()? as usize,
            representatives: r.u64()? as usize,
            local_utility: r.f64()?,
            elapsed: Duration::from_nanos(r.u64()?),
            solve_us: r.u64()?,
            shard_hint: r.u32()?,
        })
    }
}

/// Encoded bytes of one candidate ahead of its row: node, cluster, gain,
/// row length.
const CANDIDATE_HEAD_BYTES: usize = 4 + 4 + 8 + 4;
/// Encoded bytes of one `(id, detour)` pair.
const PAIR_BYTES: usize = 4 + 8;
/// Encoded bytes of a round's scalar fields, after its candidates.
const ROUND_TAIL_BYTES: usize = 6 * 8 + 4;

/// Per-shard reporting row of a [`ShardedAnswer`].
#[derive(Clone, Copy, Debug)]
pub struct ShardRoundStats {
    /// Shard id.
    pub shard: u32,
    /// Candidates the shard contributed.
    pub candidates: usize,
    /// Representatives processed in round 1.
    pub representatives: usize,
    /// Local greedy utility (under `d̂r`).
    pub local_utility: f64,
    /// Round-1 wall-clock time.
    pub elapsed: Duration,
}

/// A two-round distributed greedy answer.
#[derive(Clone, Debug)]
pub struct ShardedAnswer {
    /// The round-2 solution over the candidate union (sites are global
    /// [`NodeId`]s; `utility` is under `d̂r`, as in the monolithic path).
    pub solution: Solution,
    /// Index instance that served the query.
    pub instance: usize,
    /// Size of the round-2 candidate union (≤ shards × k).
    pub candidates: usize,
    /// Per-shard round-1 statistics, in shard order.
    pub rounds: Vec<ShardRoundStats>,
    /// Round-2 merge + solve time.
    pub merge_time: Duration,
    /// End-to-end scatter-gather time.
    pub total_time: Duration,
}

/// Round 1 on one shard: build the provider serving `q.tau`, run the
/// local greedy, and copy the selected candidates' coverage rows into the
/// round's arena.
///
/// This is the cold path — provider acquisition and the local greedy in
/// one call. Serving layers that cache providers per `(epoch, shard, τ)`
/// should acquire the provider themselves and call
/// [`local_candidates_on`].
pub fn local_candidates(
    index: &NetClusIndex,
    q: &TopsQuery,
    traj_id_bound: usize,
    scratch: &mut ProviderScratch,
) -> ShardRoundOne {
    let (p, provider) = index.build_provider_with(q.tau, traj_id_bound, 1, scratch);
    local_candidates_on(&provider, p, q)
}

/// Round 1 on an already-built shard provider (the hot path): run the
/// local greedy over `provider` and copy the selected candidates' coverage
/// rows — two slices each, ids and detours — into one arena the round's
/// candidates share. `instance` names the index instance the provider was
/// built from; `elapsed` covers the solver + row copies only — the caller
/// decides whether a (possibly cached) provider build counts.
pub fn local_candidates_on(
    provider: &ClusteredProvider,
    instance: usize,
    q: &TopsQuery,
) -> ShardRoundOne {
    let start = Instant::now();
    let solution = inc_greedy(provider, q);
    let solve_us = start.elapsed().as_micros() as u64;
    let picks = &solution.site_indices;
    let mut block = PairArenaBuilder::with_capacity(
        picks.len(),
        picks.iter().map(|&idx| provider.covered(idx).len()).sum(),
    );
    for &idx in picks {
        block.push_slice(provider.covered(idx));
    }
    let heads = picks
        .iter()
        .zip(&solution.gains)
        .map(|(&idx, &gain)| (provider.site_node(idx), provider.cluster_of(idx), gain));
    let candidates = round_candidates(heads, block.finish());
    ShardRoundOne {
        candidates,
        k: q.k,
        instance,
        representatives: provider.site_count(),
        local_utility: solution.utility,
        elapsed: start.elapsed(),
        solve_us,
        shard_hint: 0,
    }
}

/// The merged round-2 coverage view over the candidate union.
///
/// Candidates are ordered by `(cluster id, node id)` — the same relative
/// order the monolithic provider enumerates representatives in — so the
/// greedy's highest-index tie-breaking agrees with the monolithic run on
/// partition-respecting corpora.
#[derive(Debug)]
pub struct MergedCandidateProvider {
    tc: Rows,
}

impl MergedCandidateProvider {
    /// Builds the merged view. Duplicate nodes (the same site selected by
    /// two shards, possible only for multiply-represented clusters) are
    /// collapsed, keeping the first row.
    pub fn new(mut candidates: Vec<Candidate>, traj_id_bound: usize) -> MergedCandidateProvider {
        candidates.sort_by(|a, b| a.cluster.cmp(&b.cluster).then(a.node.cmp(&b.node)));
        candidates.dedup_by(|a, b| a.node == b.node);
        let mut b = PairArenaBuilder::with_capacity(
            candidates.len(),
            candidates.iter().map(|c| c.row.len()).sum(),
        );
        let mut nodes = Vec::with_capacity(candidates.len());
        for c in &candidates {
            nodes.push(c.node);
            b.push_slice(c.row.as_slice());
        }
        MergedCandidateProvider {
            tc: Rows::new(b.finish(), nodes, traj_id_bound),
        }
    }
}

impl CoverageProvider for MergedCandidateProvider {
    fn rows(&self) -> RowsView<'_> {
        self.tc.view(None)
    }
}

/// Wall-clock split of one round-2 merge (see [`merge_candidates_timed`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeTiming {
    /// Building the merged coverage view (sort + dedup + arena).
    pub build_us: u64,
    /// The exact greedy over the merged view.
    pub solve_us: u64,
}

/// Round 2: exact greedy over the candidate union on the merged coverage
/// view. Returns the solution, the union size, and the merge-view build
/// and the round-2 greedy timed separately, so serving layers can
/// attribute round-2 time to stages.
pub fn merge_candidates_timed(
    candidates: Vec<Candidate>,
    q: &TopsQuery,
    traj_id_bound: usize,
) -> (Solution, usize, MergeTiming) {
    let t = Instant::now();
    let provider = MergedCandidateProvider::new(candidates, traj_id_bound);
    let build_us = t.elapsed().as_micros() as u64;
    let n = provider.site_count();
    let t = Instant::now();
    let solution = inc_greedy(&provider, q);
    let solve_us = t.elapsed().as_micros() as u64;
    (solution, n, MergeTiming { build_us, solve_us })
}

/// Outcome of a degraded round-2 merge over a shard *subset* (see
/// [`merge_candidates_subset`]).
#[derive(Clone, Debug)]
pub struct SubsetMerge {
    /// The round-2 solution over the surviving candidate union.
    pub solution: Solution,
    /// Size of the surviving candidate union.
    pub candidates: usize,
    /// Merge-view build / round-2 solve wall-clock split.
    pub timing: MergeTiming,
    /// Conservative lower bound on `solution.utility / U_full`, where
    /// `U_full` is the utility the full fan-out would have achieved. See
    /// [`degraded_utility_bound`] for the guarantee.
    pub utility_bound: f64,
}

/// Conservative lower bound on the degraded-answer quality ratio.
///
/// Let `A` be the surviving shards and `U_full` the round-2 utility over
/// the *full* candidate union. The coverage utility `f` is monotone
/// submodular with `f(∅) = 0`, hence subadditive, so
///
/// ```text
/// U_full ≤ f(∪ᵢ Cᵢ) ≤ Σ_{i∈A} f(Cᵢ) + Σ_{j∉A} f(Cⱼ)
///        ≤ survivor_utility + missing_mass
/// ```
///
/// where `f(Cᵢ) = local_utility` of shard `i` (greedy gains telescope to
/// the value of the selected set, and candidate rows are copied verbatim,
/// so the local value equals the merged-view value), and `f(Cⱼ)` for a
/// missing shard is at most its trajectory mass: every preference score
/// `ψ` is normalized to `[0, 1]` (see [`crate::preference`]), so each of
/// the shard's trajectories contributes at most `1.0`.
///
/// The reported ratio `achieved / (max(achieved, survivor_utility) +
/// missing_mass)` therefore never exceeds the true ratio
/// `achieved / U_full`; it is clamped to `[0, 1]`, and an all-empty
/// degenerate instance (`achieved = denominator = 0`) reports `1.0`
/// (the full answer would have been empty too).
pub fn degraded_utility_bound(achieved: f64, survivor_utility: f64, missing_mass: f64) -> f64 {
    let denom = survivor_utility.max(achieved) + missing_mass.max(0.0);
    if denom <= 0.0 {
        1.0
    } else {
        (achieved / denom).clamp(0.0, 1.0)
    }
}

/// Round 2 over a shard **subset**: the degraded sibling of
/// [`merge_candidates_timed`], used when some shards failed or were
/// skipped. The greedy over the surviving candidates is still a valid
/// greedy (round 2 never assumes the union is complete); what is lost is
/// coverage mass from the missing shards, which
/// [`degraded_utility_bound`] bounds conservatively.
///
/// * `survivor_utility` — `Σ local_utility` over the surviving shards'
///   round-1 answers (the candidates passed in).
/// * `missing_mass` — an upper bound on the missing shards' achievable
///   utility; with `ψ ∈ [0, 1]` the sum of their live trajectory counts
///   (replicas included) is always safe.
pub fn merge_candidates_subset(
    candidates: Vec<Candidate>,
    q: &TopsQuery,
    traj_id_bound: usize,
    survivor_utility: f64,
    missing_mass: f64,
) -> SubsetMerge {
    let (solution, n, timing) = merge_candidates_timed(candidates, q, traj_id_bound);
    let utility_bound = degraded_utility_bound(solution.utility, survivor_utility, missing_mass);
    SubsetMerge {
        solution,
        candidates: n,
        timing,
        utility_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};

    /// Two far-separated two-way lines (regions), trajectories confined to
    /// their region. Partition-respecting by construction.
    fn fixture() -> (RoadNetwork, TrajectorySet, Vec<NodeId>, RegionPartition) {
        let mut b = RoadNetworkBuilder::new();
        for region in 0..2 {
            let x0 = region as f64 * 1_000_000.0;
            let base = b.node_count() as u32;
            for i in 0..12 {
                b.add_node(Point::new(x0 + i as f64 * 100.0, 0.0));
            }
            for i in 0..11u32 {
                b.add_two_way(NodeId(base + i), NodeId(base + i + 1), 100.0)
                    .unwrap();
            }
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        for s in 0..5u32 {
            trajs.add(Trajectory::new((s..s + 6).map(NodeId).collect()));
        }
        for s in 0..3u32 {
            trajs.add(Trajectory::new((12 + s..12 + s + 5).map(NodeId).collect()));
        }
        let sites: Vec<NodeId> = net.nodes().collect();
        let partition = RegionPartition::build(&net, 2);
        (net, trajs, sites, partition)
    }

    fn config() -> NetClusConfig {
        NetClusConfig {
            tau_min: 200.0,
            tau_max: 3_000.0,
            threads: 1,
            ..Default::default()
        }
    }

    #[test]
    fn build_partitions_sites_and_replicates_trajectories() {
        let (net, trajs, sites, partition) = fixture();
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, config());
        assert_eq!(sharded.shard_count(), 2);
        let r = sharded.replication();
        assert_eq!(r.trajectories, 8);
        assert_eq!(r.boundary, 0, "disconnected regions cannot share trips");
        assert_eq!(r.replicas, 8);
        assert_eq!(r.per_shard, vec![5, 3]);
        assert!((r.replication_factor() - 1.0).abs() < 1e-12);
        // Site partition is disjoint and complete.
        let total: usize = sharded.shards().iter().map(|s| s.sites.len()).sum();
        assert_eq!(total, sites.len());
        // Shard corpus views preserve global ids.
        for shard in sharded.shards() {
            assert_eq!(shard.trajs.id_bound(), trajs.id_bound());
        }
        assert_eq!(sharded.shards()[0].trajs.len(), 5);
        assert_eq!(sharded.shards()[1].trajs.len(), 3);
    }

    #[test]
    fn sharded_query_matches_monolithic_on_respecting_corpus() {
        let (net, trajs, sites, partition) = fixture();
        let cfg = config();
        let mono = NetClusIndex::build(&net, &trajs, &sites, cfg);
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg);
        for (k, tau) in [(1, 400.0), (2, 800.0), (3, 600.0), (4, 1_500.0)] {
            let q = TopsQuery::binary(k, tau);
            let want = mono.query(&trajs, &q);
            let got = sharded.query(&q);
            assert_eq!(
                got.solution.sites, want.solution.sites,
                "k={k} τ={tau}: sharded {:?} vs monolithic {:?}",
                got.solution.sites, want.solution.sites
            );
            assert!(
                (got.solution.utility - want.solution.utility).abs() < 1e-12,
                "k={k} τ={tau}: utility drift"
            );
            assert_eq!(got.instance, want.instance);
            assert!(got.candidates <= 2 * k);
        }
    }

    #[test]
    fn query_thread_count_does_not_change_the_answer() {
        let (net, trajs, sites, partition) = fixture();
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, config());
        let q = TopsQuery::binary(3, 700.0);
        let one = sharded.query_with(&q, 1);
        for threads in [2, 4, 8] {
            let multi = sharded.query_with(&q, threads);
            assert_eq!(one.solution.sites, multi.solution.sites);
            assert_eq!(one.candidates, multi.candidates);
        }
    }

    #[test]
    fn build_thread_count_does_not_change_the_shards() {
        let (net, trajs, sites, partition) = fixture();
        let seq = ShardedNetClusIndex::build(
            &net,
            &trajs,
            &sites,
            &partition,
            NetClusConfig {
                threads: 1,
                ..config()
            },
        );
        let par = ShardedNetClusIndex::build(
            &net,
            &trajs,
            &sites,
            &partition,
            NetClusConfig {
                threads: 4,
                ..config()
            },
        );
        for (a, b) in seq.shards().iter().zip(par.shards()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.sites, b.sites);
            assert_eq!(a.trajs.len(), b.trajs.len());
            let q = TopsQuery::binary(2, 800.0);
            let sa = a.index.query(&a.trajs, &q);
            let sb = b.index.query(&b.trajs, &q);
            assert_eq!(sa.solution.sites, sb.solution.sites);
        }
    }

    #[test]
    fn boundary_trajectories_are_replicated_to_all_touched_shards() {
        // A connected line split in two: a middle trajectory spans both.
        let mut b = RoadNetworkBuilder::new();
        for i in 0..20 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..19u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        let left = trajs.add(Trajectory::new((0..5).map(NodeId).collect()));
        let cross = trajs.add(Trajectory::new((8..13).map(NodeId).collect()));
        let right = trajs.add(Trajectory::new((15..19).map(NodeId).collect()));
        let sites: Vec<NodeId> = net.nodes().collect();
        let partition = RegionPartition::build(&net, 2);
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, config());
        let r = sharded.replication();
        assert_eq!(r.boundary, 1);
        assert_eq!(r.replicas, 4);
        assert!(r.replication_factor() > 1.0);
        let s0 = &sharded.shards()[0].trajs;
        let s1 = &sharded.shards()[1].trajs;
        assert!(s0.get(left).is_some() && s0.get(cross).is_some());
        assert!(s0.get(right).is_none());
        assert!(s1.get(cross).is_some() && s1.get(right).is_some());
        assert!(s1.get(left).is_none());
    }

    #[test]
    fn merged_provider_dedups_and_orders() {
        let c = |node: u32, cluster: u32, row: Vec<(u32, f64)>| {
            Candidate::from_pairs(NodeId(node), cluster, 0.0, row)
        };
        let provider = MergedCandidateProvider::new(
            vec![
                c(7, 2, vec![(0, 5.0), (1, 6.0)]),
                c(3, 1, vec![(1, 2.0)]),
                c(7, 2, vec![(0, 9.0)]), // duplicate node, dropped
            ],
            3,
        );
        assert_eq!(provider.site_count(), 2);
        assert_eq!(provider.site_node(0), NodeId(3));
        assert_eq!(provider.site_node(1), NodeId(7));
        assert_eq!(provider.covered(1).to_pairs(), vec![(0, 5.0), (1, 6.0)]);
        assert_eq!(provider.covered(0).to_pairs(), vec![(1, 2.0)]);
        assert_eq!(provider.traj_id_bound(), 3);
    }

    #[test]
    fn subset_merge_bound_is_conservative() {
        let (net, trajs, sites, partition) = fixture();
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, config());
        let bound = sharded.traj_id_bound();
        for (k, tau) in [(1, 400.0), (2, 800.0), (3, 600.0), (4, 1_500.0)] {
            let q = TopsQuery::binary(k, tau);
            let u_full = sharded.query(&q).solution.utility;
            let mut scratch = ProviderScratch::default();
            let rounds: Vec<ShardRoundOne> = sharded
                .shards()
                .iter()
                .map(|s| local_candidates(&s.index, &q, bound, &mut scratch))
                .collect();
            let per_shard = &sharded.replication().per_shard;
            for (missing, &missing_mass) in per_shard.iter().enumerate() {
                let survivor_utility: f64 = rounds
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != missing)
                    .map(|(_, r)| r.local_utility)
                    .sum();
                let candidates: Vec<Candidate> = rounds
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != missing)
                    .flat_map(|(_, r)| r.candidates.clone())
                    .collect();
                let m = merge_candidates_subset(
                    candidates,
                    &q,
                    bound,
                    survivor_utility,
                    missing_mass as f64,
                );
                let true_ratio = if u_full > 0.0 {
                    m.solution.utility / u_full
                } else {
                    1.0
                };
                assert!(
                    (0.0..=1.0).contains(&m.utility_bound),
                    "k={k} τ={tau} missing={missing}: bound {} outside [0,1]",
                    m.utility_bound
                );
                assert!(
                    m.utility_bound <= true_ratio + 1e-9,
                    "k={k} τ={tau} missing={missing}: reported {} > true ratio {true_ratio}",
                    m.utility_bound
                );
                assert!(
                    true_ratio <= 1.0 + 1e-9,
                    "k={k} τ={tau} missing={missing}: subset beat the full merge"
                );
            }
        }
    }

    #[test]
    fn subset_merge_with_all_survivors_matches_full_merge() {
        let (net, trajs, sites, partition) = fixture();
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, config());
        let bound = sharded.traj_id_bound();
        let q = TopsQuery::binary(3, 800.0);
        let full = sharded.query(&q);
        let mut scratch = ProviderScratch::default();
        let rounds: Vec<ShardRoundOne> = sharded
            .shards()
            .iter()
            .map(|s| local_candidates(&s.index, &q, bound, &mut scratch))
            .collect();
        let survivor_utility: f64 = rounds.iter().map(|r| r.local_utility).sum();
        let candidates: Vec<Candidate> = rounds.into_iter().flat_map(|r| r.candidates).collect();
        let m = merge_candidates_subset(candidates, &q, bound, survivor_utility, 0.0);
        assert_eq!(m.solution.sites, full.solution.sites);
        assert!((m.solution.utility - full.solution.utility).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&m.utility_bound));
    }

    #[test]
    fn degraded_bound_handles_degenerate_inputs() {
        // All-empty instance: the full answer would be empty too.
        assert_eq!(degraded_utility_bound(0.0, 0.0, 0.0), 1.0);
        // Achieved above the survivor sum (float noise): still ≤ 1.
        assert!(degraded_utility_bound(5.0, 3.0, 0.0) <= 1.0);
        // Negative mass is treated as zero, not a bonus.
        assert_eq!(degraded_utility_bound(1.0, 1.0, -5.0), 1.0);
        // Huge missing mass drives the bound toward zero.
        assert!(degraded_utility_bound(1.0, 1.0, 1e12) < 1e-6);
    }

    #[test]
    fn single_shard_query_equals_monolithic() {
        let (net, trajs, sites, _) = fixture();
        let partition = RegionPartition::build(&net, 1);
        let cfg = config();
        let mono = NetClusIndex::build(&net, &trajs, &sites, cfg);
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg);
        let q = TopsQuery::binary(2, 900.0);
        let want = mono.query(&trajs, &q);
        let got = sharded.query(&q);
        assert_eq!(got.solution.sites, want.solution.sites);
        assert_eq!(got.rounds.len(), 1);
        assert!(got.candidates <= 2);
    }

    fn wire_round() -> ShardRoundOne {
        ShardRoundOne {
            candidates: vec![
                Candidate::from_pairs(NodeId(7), 3, 2.5, vec![(0, 120.25), (4, 300.5)]),
                // A gain that is not exactly representable: the bit test.
                Candidate::from_pairs(NodeId(11), 3, 1.0 / 3.0, vec![]),
            ],
            k: 2,
            instance: 1,
            representatives: 9,
            local_utility: 2.5 + 1.0 / 3.0,
            elapsed: Duration::from_micros(1234),
            solve_us: 890,
            shard_hint: 1,
        }
    }

    #[test]
    fn round_one_wire_roundtrip_is_bit_identical() {
        let round = wire_round();
        let mut buf = Vec::new();
        round.encode_into(&mut buf);
        let mut r = WireReader::new(&buf);
        let got = ShardRoundOne::decode_from(&mut r, 16).expect("decode");
        assert_eq!(r.remaining(), 0, "decoder must consume the payload");
        assert_eq!(got.candidates.len(), round.candidates.len());
        for (a, b) in got.candidates.iter().zip(&round.candidates) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.cluster, b.cluster);
            assert_eq!(a.gain.to_bits(), b.gain.to_bits());
            assert_eq!(a.row, b.row);
        }
        assert_eq!(got.k, round.k);
        assert_eq!(got.instance, round.instance);
        assert_eq!(got.representatives, round.representatives);
        assert_eq!(got.local_utility.to_bits(), round.local_utility.to_bits());
        assert_eq!(got.elapsed, round.elapsed);
        assert_eq!(got.solve_us, round.solve_us);
        assert_eq!(got.shard_hint, round.shard_hint);
    }

    /// A seeded random round whose rows share one arena, as a shard
    /// builds it: `n` candidates, rows of 0..=`max_row` pairs.
    fn random_round(rng: &mut rand::rngs::StdRng, n: usize, max_row: usize) -> ShardRoundOne {
        use rand::RngExt;
        let mut block = PairArenaBuilder::with_capacity(n, 0);
        let mut heads = Vec::new();
        for _ in 0..n {
            heads.push((
                NodeId(rng.random()),
                rng.random(),
                rng.random::<f64>() * 1e3,
            ));
            let mut d = 0.0;
            let row: Vec<(u32, f64)> = (0..rng.random_range(0..=max_row))
                .map(|_| {
                    d += rng.random::<f64>() * 100.0;
                    (rng.random(), d)
                })
                .collect();
            block.push_row(row);
        }
        let candidates = round_candidates(heads, block.finish());
        ShardRoundOne {
            local_utility: candidates.iter().map(|c| c.gain).sum(),
            candidates,
            k: n + rng.random_range(0..3usize),
            instance: rng.random_range(0..8),
            representatives: rng.random_range(n..n + 500),
            elapsed: Duration::from_nanos(rng.random_range(0..5_000_000)),
            solve_us: rng.random_range(0..5_000),
            shard_hint: rng.random_range(0..16),
        }
    }

    /// The v2 layout written field by field and pair by pair: the slow
    /// twin the bulk writer answers to.
    fn encode_pair_by_pair(round: &ShardRoundOne) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, round.candidates.len() as u32);
        for c in &round.candidates {
            put_u32(&mut buf, c.node.0);
            put_u32(&mut buf, c.cluster);
            put_u64(&mut buf, c.gain.to_bits());
            put_u32(&mut buf, c.row.len() as u32);
            for &id in c.row.ids() {
                put_u32(&mut buf, id);
            }
            for &d in c.row.dists() {
                put_u64(&mut buf, d.to_bits());
            }
        }
        put_u64(&mut buf, round.k as u64);
        put_u64(&mut buf, round.instance as u64);
        put_u64(&mut buf, round.representatives as u64);
        put_u64(&mut buf, round.local_utility.to_bits());
        put_u64(&mut buf, round.elapsed.as_nanos() as u64);
        put_u64(&mut buf, round.solve_us);
        put_u32(&mut buf, round.shard_hint);
        buf
    }

    /// Seeded rounds of every shape the codec meets: no candidates, empty
    /// rows, one-pair rows, long rows, and prefixes of a longer round.
    fn sample_rounds() -> Vec<ShardRoundOne> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let mut rounds = vec![wire_round(), random_round(&mut rng, 0, 0)];
        for n in [1, 2, 5, 20] {
            for max_row in [0, 1, 7, 60] {
                rounds.push(random_round(&mut rng, n, max_row));
            }
        }
        let long = random_round(&mut rng, 20, 40);
        rounds.extend([0, 1, 7, 20].map(|k| long.prefix(k)));
        rounds
    }

    #[test]
    fn decode_of_encode_is_the_round_and_the_bytes_are_the_slow_twins() {
        for round in sample_rounds() {
            let mut buf = vec![0xEE; 5]; // encode_into appends
            round.encode_into(&mut buf);
            assert_eq!(buf[5..], encode_pair_by_pair(&round)[..]);
            let mut r = WireReader::new(&buf[5..]);
            let got = ShardRoundOne::decode_from(&mut r, 64).expect("decode");
            assert_eq!(r.remaining(), 0, "decoder must consume the payload");
            assert_eq!(got, round);
            // `==` on f64 would let -0.0 through as 0.0; the wire may not.
            for (a, b) in got.candidates.iter().zip(&round.candidates) {
                assert_eq!(a.gain.to_bits(), b.gain.to_bits());
                let bits =
                    |row: &RowView| row.dists().iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.row), bits(&b.row));
            }
            // One block per decoded round, whatever the sender's blocks were.
            for c in got.candidates.iter().skip(1) {
                assert!(c.row.shares_block_with(&got.candidates[0].row));
            }
        }
    }

    #[test]
    fn prefix_and_clone_share_the_rounds_block() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let round = random_round(&mut rng, 6, 30);
        let prefix = round.prefix(4);
        assert_eq!(prefix.candidates[..], round.candidates[..4]);
        for (p, c) in prefix.candidates.iter().zip(&round.candidates) {
            assert!(p.row.shares_block_with(&c.row), "prefix copied a row");
            assert_eq!(p.row.ids().as_ptr(), c.row.ids().as_ptr());
            assert_eq!(p.row.dists().as_ptr(), c.row.dists().as_ptr());
        }
        let cloned = round.clone();
        assert!(cloned.candidates[5]
            .row
            .shares_block_with(&round.candidates[0].row));
        // Rows built apart are equal by content, not by storage.
        let apart = Candidate::from_pairs(NodeId(1), 0, 0.0, round.candidates[0].row.to_pairs());
        assert_eq!(apart.row, round.candidates[0].row);
        assert!(!apart.row.shares_block_with(&round.candidates[0].row));
        assert_eq!(
            format!("{:?}", apart.row),
            format!("{:?}", apart.row.to_pairs())
        );
    }

    #[test]
    fn round_one_rows_are_the_providers_rows_in_one_block() {
        let (net, trajs, sites, partition) = fixture();
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, config());
        let index = &sharded.shards()[0].index;
        let q = TopsQuery::binary(3, 800.0);
        let (p, provider) = index.build_provider_with(
            q.tau,
            sharded.traj_id_bound(),
            1,
            &mut ProviderScratch::default(),
        );
        let round = local_candidates_on(&provider, p, &q);
        assert!(round.candidates.len() >= 2, "fixture selects several sites");
        for c in &round.candidates {
            let idx = (0..provider.site_count())
                .find(|&i| provider.site_node(i) == c.node)
                .expect("candidate is a representative");
            assert_eq!(c.row.as_slice(), provider.covered(idx));
            assert!(c.row.shares_block_with(&round.candidates[0].row));
        }
    }

    /// Every truncation of a valid encoding fails with a typed error —
    /// never a panic, never an out-of-bounds read.
    #[test]
    fn round_one_decode_rejects_every_truncation() {
        for round in sample_rounds() {
            let mut buf = Vec::new();
            round.encode_into(&mut buf);
            for cut in 0..buf.len() {
                let mut r = WireReader::new(&buf[..cut]);
                assert!(
                    ShardRoundOne::decode_from(&mut r, 64).is_err(),
                    "truncation at {cut}/{} must fail typed",
                    buf.len()
                );
            }
        }
    }

    /// Byte offsets of every length prefix in `round`'s encoding: the
    /// candidate count, then each candidate's row length.
    fn length_prefix_offsets(round: &ShardRoundOne) -> Vec<usize> {
        let mut at = 4;
        let mut offsets = vec![0];
        for c in &round.candidates {
            offsets.push(at + CANDIDATE_HEAD_BYTES - 4);
            at += CANDIDATE_HEAD_BYTES + c.row.len() * PAIR_BYTES;
        }
        offsets
    }

    #[test]
    fn round_one_decode_rejects_oversized_counts() {
        let round = wire_round();
        let mut buf = Vec::new();
        round.encode_into(&mut buf);
        // Candidate count above the caller's cap: rejected pre-allocation.
        let mut r = WireReader::new(&buf);
        assert_eq!(
            ShardRoundOne::decode_from(&mut r, 1),
            Err(ShardCodecError("candidate count exceeds wire cap"))
        );
        // Under the cap but more candidates than the payload has bytes for.
        let mut forged = buf.clone();
        forged[0..4].copy_from_slice(&4_000u32.to_le_bytes());
        assert_eq!(
            ShardRoundOne::decode_from(&mut WireReader::new(&forged), 4_096),
            Err(ShardCodecError("candidate count exceeds payload"))
        );
        // A coverage-row length the payload cannot hold.
        let mut forged = buf.clone();
        let at = length_prefix_offsets(&round)[1];
        forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ShardRoundOne::decode_from(&mut WireReader::new(&forged), 16),
            Err(ShardCodecError("coverage row longer than payload"))
        );
    }

    /// Any inflation of any length prefix — by one, to just past what the
    /// payload holds, to the maximum — fails typed: the decoder would
    /// otherwise read a neighbour's bytes as pairs or run off the end.
    #[test]
    fn round_one_decode_rejects_every_inflated_length_prefix() {
        for round in sample_rounds() {
            let mut buf = Vec::new();
            round.encode_into(&mut buf);
            for at in length_prefix_offsets(&round) {
                let honest = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
                let past_payload = (buf.len() / PAIR_BYTES) as u32 + 1;
                for forged in [honest + 1, honest + past_payload, u32::MAX] {
                    let mut bad = buf.clone();
                    bad[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                    let mut r = WireReader::new(&bad);
                    // A row grown by one pair can still parse — as a
                    // different message that then falls short of its tail.
                    let decoded = ShardRoundOne::decode_from(&mut r, 64);
                    assert!(
                        decoded.is_err() || r.remaining() != 0 || decoded.as_ref() != Ok(&round),
                        "prefix at {at} forged {honest} -> {forged} decoded as the honest round"
                    );
                    if forged != honest + 1 {
                        assert!(decoded.is_err(), "prefix at {at} forged to {forged}");
                    }
                }
            }
        }
    }
}
