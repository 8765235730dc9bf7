//! # netclus-trajectory — trajectory substrate for NetClus
//!
//! User-mobility data structures for the NetClus framework (Mitra et al.,
//! ICDE 2017):
//!
//! * [`Trajectory`] — a map-matched node sequence (`T_j` in the paper);
//!   static users degenerate to single-node trajectories.
//! * [`TrajectorySet`] — a mutable collection with a node → trajectories
//!   inverted index (powering coverage computation and the cluster
//!   trajectory lists `T L(g)`), supporting the dynamic updates of Sec. 6.
//! * [`GpsTrace`] — raw location/time fixes, the pipeline input.
//! * [`MapMatcher`] — HMM/Viterbi map matching turning GPS traces into
//!   trajectories (the first offline stage of paper Fig. 2).
//!
//! ```
//! use netclus_roadnet::{NodeId, Point, RoadNetworkBuilder};
//! use netclus_trajectory::{Trajectory, TrajectorySet};
//!
//! let mut b = RoadNetworkBuilder::new();
//! let a = b.add_node(Point::new(0.0, 0.0));
//! let c = b.add_node(Point::new(100.0, 0.0));
//! b.add_two_way(a, c, 100.0).unwrap();
//! let net = b.build().unwrap();
//!
//! let mut set = TrajectorySet::for_network(&net);
//! let id = set.add(Trajectory::new(vec![a, c]));
//! assert_eq!(set.trajectories_through(a), &[id]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod gps;
pub mod mapmatch;
pub mod set;
pub mod trajectory;

pub use error::MapMatchError;
pub use gps::{GpsPoint, GpsTrace};
pub use mapmatch::MapMatcher;
pub use set::TrajectorySet;
pub use trajectory::{TrajId, Trajectory};
