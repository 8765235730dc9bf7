//! # netclus — trajectory-aware top-k service placement
//!
//! A production-quality Rust implementation of **NetClus** (Mitra, Saraf,
//! Sharma, Bhattacharya, Ranu: *NetClus: A Scalable Framework for Locating
//! Top-K Sites for Placement of Trajectory-Aware Services*, ICDE 2017).
//!
//! ## The problem
//!
//! Given a road network, a corpus of user trajectories `T` and candidate
//! sites `S`, the **TOPS** query `(k, τ, ψ)` selects `k` sites maximizing
//! `Σ_j max_{s∈Q} ψ(T_j, s)`, where the preference `ψ` is any
//! non-increasing function of the round-trip *detour* a user must take to
//! reach the site, cut off at the coverage threshold `τ`. TOPS is NP-hard;
//! even the `(1 − 1/e)`-greedy needs `O(mn)` coverage sets and fails at
//! city scale. NetClus answers TOPS queries approximately from a compact
//! multi-resolution clustering index with bounded quality loss, practical
//! latency, dynamic updates, and support for cost/capacity constraints and
//! existing services.
//!
//! ## Module map
//!
//! | Paper concept | Module |
//! |---------------|--------|
//! | Preference family `ψ` (Def. 2, Sec. 7.4) | [`preference`] |
//! | Detour distance `dr(T_j, s_i)` (Sec. 2) | [`detour`] |
//! | Coverage sets `TC`/`SC` (Sec. 3.2) | [`coverage`] |
//! | Inc-Greedy (Sec. 3.3), CELF-evaluated: the one solver of every served path | [`greedy`] |
//! | Algorithm 1 as printed: the reference the solver is tested against | [`greedy::algorithm1_greedy`] |
//! | FM-sketch greedy (Sec. 3.5) | [`mod@fm_greedy`] |
//! | Optimal solver (Sec. 3.1) | [`exact`] |
//! | Greedy-GDSP clustering (Sec. 4.1) | [`gdsp`] |
//! | Index instances & representatives (Sec. 4.2–4.3) | [`cluster`] |
//! | Multi-resolution index (Sec. 4.4) | [`index`] |
//! | Online TOPS-Cluster query (Sec. 5) | [`query`] |
//! | Dynamic updates (Sec. 6) | [`update`] |
//! | TOPS-COST (Sec. 7.1), on the CELF machine of [`greedy`] | [`cost`] |
//! | TOPS-CAPACITY (Sec. 7.2), on the CELF machine | [`capacity`] |
//! | Existing services (Sec. 7.3) | [`greedy::inc_greedy_from`] |
//! | TOPS4 market share (Sec. 7.4), on the CELF machine | `market` |
//! | Jaccard baseline (App. B.1) | `jaccard` |
//! | Memory accounting (Tables 9, 12) | [`memory`] |
//! | Flat CSR coverage arenas (query hot path layout) | [`arena`] |
//! | Sharded indexes + two-round distributed greedy | [`shard`] |
//! | Little-endian field codec under every byte format (RPCs, WAL, GPS records) | [`codec`] |
//! | The one fan-out under every threaded build and the served publish | [`par`] |
//!
//! ## Serving architecture
//!
//! This crate is the single-threaded algorithmic core; the companion
//! `netclus-service` crate turns it into a concurrent in-process query
//! server (the read path) and `netclus-ingest` feeds it durably from raw
//! GPS streams (the write path). The seams:
//!
//! | Serving concept | Where it lives |
//! |-----------------|----------------|
//! | Epoch-based snapshots (`Arc`-swapped `NetClusIndex` + corpus; readers never block) | `netclus_service::snapshot` |
//! | Caller-runs query service: `workers` solve permits, a bounded waiting room, dedup by the result cache's single flight | `netclus_service::executor` |
//! | `EpochLru`, the one LRU under the result cache keyed `(τ, ψ, epoch)` (a smaller `k` is a prefix of the cached solve), the provider cache, the round-1 memo and the stale fallback | `netclus_service::cache` |
//! | Round-1 caches: single-flight provider cache (rows per `(epoch[, shard], instance, built τ)`, any τ in the band by prefix view) + candidate memo (prefix-sliced by `k`) | `netclus_service::provider_cache` |
//! | Latency/throughput/queue/cache + ingest metrics | `netclus_service::metrics` |
//! | Framed GPS record wire format (CRC-32, per-source seq) | `netclus_ingest::record` |
//! | Backpressured intake + parallel map-matching pipeline, published in intake order | `netclus_ingest::pipeline` |
//! | Trajectory lifecycle: id prediction, stream-time TTL | `netclus_ingest::lifecycle` |
//! | Write-ahead log (segments, rotation, fsync batching) | `netclus_ingest::wal` |
//! | Crash recovery: WAL replay to the exact pre-crash epoch | `netclus_ingest::recovery` |
//!
//! Everything the service shares across threads ([`NetClusIndex`],
//! [`netclus_trajectory::TrajectorySet`],
//! [`netclus_roadnet::RoadNetwork`], [`TopsQuery`], solutions) is
//! `Send + Sync` by construction — plain owned data, no interior
//! mutability — and a compile-time audit below pins that guarantee so a
//! future `Rc`/`RefCell` regression fails to build.
//!
//! ## Quick start
//!
//! ```
//! use netclus::prelude::*;
//! use netclus_roadnet::{Point, RoadNetworkBuilder};
//! use netclus_trajectory::{Trajectory, TrajectorySet};
//!
//! // A short two-way corridor with two commuters.
//! let mut b = RoadNetworkBuilder::new();
//! let nodes: Vec<_> = (0..6)
//!     .map(|i| b.add_node(Point::new(i as f64 * 400.0, 0.0)))
//!     .collect();
//! for w in nodes.windows(2) {
//!     b.add_two_way(w[0], w[1], 400.0).unwrap();
//! }
//! let net = b.build().unwrap();
//! let mut trajs = TrajectorySet::for_network(&net);
//! trajs.add(Trajectory::new(nodes[0..4].to_vec()));
//! trajs.add(Trajectory::new(nodes[2..6].to_vec()));
//! let sites: Vec<_> = net.nodes().collect();
//!
//! // Offline: build the index. Online: answer a TOPS query.
//! let index = NetClusIndex::build(
//!     &net,
//!     &trajs,
//!     &sites,
//!     NetClusConfig { tau_min: 800.0, tau_max: 4_000.0, threads: 1, ..Default::default() },
//! );
//! let answer = index.query(&trajs, &TopsQuery::binary(1, 800.0));
//! let eval = evaluate_sites(
//!     &net, &trajs, &answer.solution.sites, 800.0,
//!     PreferenceFunction::Binary, DetourModel::RoundTrip,
//! );
//! assert_eq!(eval.utility, 2.0); // one site covers both commuters
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod capacity;
pub mod cluster;
pub mod codec;
pub mod cost;
pub mod coverage;
pub mod detour;
pub mod exact;
pub mod fm_greedy;
pub mod gdsp;
pub mod greedy;
pub mod index;
pub(crate) mod jaccard;
pub(crate) mod market;
pub mod memory;
pub mod par;
pub mod preference;
pub mod query;
pub mod shard;
pub mod solution;
pub mod update;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::arena::{PairArena, PairSlice};
    pub use crate::capacity::{tops_capacity, CapacityConfig};
    pub use crate::cost::{tops_cost, CostConfig};
    pub use crate::coverage::{
        CoverageIndex, CoverageProvider, InvertedCoverage, ReferenceProvider, Rows, RowsView,
    };
    pub use crate::detour::{DetourEngine, DetourModel};
    pub use crate::exact::{exact_optimal, ExactConfig, ExactResult};
    pub use crate::fm_greedy::{
        build_site_sketches, fm_greedy, fm_greedy_prebuilt, FmGreedyConfig,
    };
    pub use crate::gdsp::{greedy_gdsp, GdspConfig};
    pub use crate::greedy::{
        algorithm1_greedy, inc_greedy, inc_greedy_from, inc_greedy_seeded, GreedyConfig,
    };
    pub use crate::index::{estimate_tau_range, NetClusConfig, NetClusIndex, NetworkClustering};
    pub use crate::jaccard::{jaccard_clustering, JaccardConfig};
    pub use crate::market::{tops_market_share, MarketShareConfig};
    pub use crate::memory::format_bytes;
    pub use crate::preference::PreferenceFunction;
    pub use crate::query::{
        quantize_tau, ClusteredProvider, NetClusAnswer, ProviderRows, ProviderScratch, TopsQuery,
    };
    pub use crate::shard::{
        shards_of_trajectory, NetClusShard, ReplicationStats, ShardedAnswer, ShardedNetClusIndex,
    };
    pub use crate::solution::{evaluate_sites, EvalResult, Solution};
}

pub use prelude::*;

/// Compile-time `Send + Sync` audit of every type the serving layer moves
/// or shares across threads (see "Serving architecture" above). Purely a
/// static check — never called.
#[allow(dead_code)]
fn thread_safety_audit() {
    fn assert_send_sync<T: Send + Sync>() {}
    // Index build inputs and output.
    assert_send_sync::<netclus_roadnet::RoadNetwork>();
    assert_send_sync::<netclus_trajectory::TrajectorySet>();
    assert_send_sync::<netclus_trajectory::Trajectory>();
    assert_send_sync::<index::NetClusIndex>();
    assert_send_sync::<index::NetClusConfig>();
    // Query-side types.
    assert_send_sync::<query::TopsQuery>();
    assert_send_sync::<query::NetClusAnswer>();
    assert_send_sync::<query::ClusteredProvider>();
    assert_send_sync::<query::ProviderRows>();
    assert_send_sync::<preference::PreferenceFunction>();
    assert_send_sync::<solution::Solution>();
    assert_send_sync::<fm_greedy::FmGreedyConfig>();
    // Coverage structures shared by parallel builders.
    assert_send_sync::<coverage::CoverageIndex>();
    assert_send_sync::<coverage::Rows>();
    assert_send_sync::<cluster::ClusterInstance>();
    // Arena layout: provider rows are shared across worker threads (the
    // service-layer provider cache hands out `Arc<ProviderRows>`).
    assert_send_sync::<arena::PairArena>();
}
