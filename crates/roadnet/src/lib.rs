//! # netclus-roadnet — road-network substrate for NetClus
//!
//! Directed, weighted road-network graphs with the shortest-path machinery
//! the NetClus framework (Mitra et al., ICDE 2017) is built on:
//!
//! * [`RoadNetworkBuilder`] / [`RoadNetwork`] — construction (including the
//!   paper's mid-edge candidate-site augmentation) and frozen CSR storage
//!   with forward *and* reverse adjacency.
//! * [`DijkstraEngine`] — reusable, version-stamped single-source Dijkstra
//!   with distance bounds and early exit; `O(ν log ν)` per bounded run.
//! * [`RoundTripEngine`] — round-trip distances `dr(u, v) = d(u,v) + d(v,u)`
//!   and round-trip balls (the `Λ(v)` dominance sets of Greedy-GDSP).
//! * [`GridIndex`] — uniform-grid nearest-vertex / radius queries for map
//!   matching and site placement.
//! * [`strongly_connected_components`] — connectivity checks for generated
//!   networks.
//! * [`RegionPartition`] — region-based vertex partitioning (recursive
//!   median bisection) for sharded index builds and scatter-gather
//!   serving.
//!
//! All coordinates are planar meters (see [`geometry`]); all edge weights
//! are meters of road length.
//!
//! ## Quick example
//! ```
//! use netclus_roadnet::{Point, RoadNetworkBuilder, RoundTripEngine};
//!
//! let mut b = RoadNetworkBuilder::new();
//! let a = b.add_node(Point::new(0.0, 0.0));
//! let c = b.add_node(Point::new(0.0, 800.0));
//! b.add_two_way(a, c, 800.0).unwrap();
//! let net = b.build().unwrap();
//!
//! let mut rt = RoundTripEngine::for_network(&net);
//! assert_eq!(rt.round_trip(&net, a, c), Some(1600.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod csr;
pub mod dijkstra;
pub mod error;
pub mod geometry;
pub mod graph;
pub mod ids;
pub mod partition;
pub mod roundtrip;
pub mod scc;
pub mod spatial;

pub use csr::Csr;
pub use dijkstra::DijkstraEngine;
pub use error::RoadNetError;
pub use geometry::{BoundingBox, Point};
pub use graph::{RoadNetwork, RoadNetworkBuilder};
pub use ids::{EdgeId, NodeId};
pub use partition::{PartitionStats, RegionPartition};
pub use roundtrip::RoundTripEngine;
pub use scc::{is_strongly_connected, strongly_connected_components, SccDecomposition};
pub use spatial::GridIndex;
