//! # netclus-datagen — synthetic datasets for the NetClus evaluation
//!
//! The paper evaluates on the T-Drive Beijing taxi corpus and three
//! MNTG-generated city workloads, none of which are redistributable. This
//! crate generates topology-matched synthetic substitutes:
//!
//! * [`city`] — road-network generators: mesh (Atlanta-like), star
//!   (New York-like), polycentric (Bangalore-like), ring-radial
//!   (Beijing-like);
//! * [`workload`] — hotspot-based trip generation with waypoint deviations,
//!   length-class targeting (Fig. 12), and GPS-trace synthesis for the
//!   map-matching pipeline;
//! * [`gps_stream`] — Poisson-arrival raw GPS streams with per-source
//!   sequence numbers, the input of the `netclus-ingest` write path;
//! * [`sites`] — candidate-site selection and cost/capacity assignment
//!   (Sec. 7 extensions);
//! * [`scenario`] — one preset per paper dataset (Table 6), scaled to run
//!   on a single machine;
//! * [`queries`] — TOPS query-stream generation (open/closed-loop arrival
//!   mixes with dashboard-style repetition) for the serving layer.
//!
//! All generation is deterministic given the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod city;
pub mod gps_stream;
pub mod queries;
pub mod scenario;
pub mod sites;
pub mod workload;

pub use city::{
    grid_city, polycentric_city, star_city, City, GridCityConfig, Hotspot, PolycentricCityConfig,
    StarCityConfig,
};
pub use gps_stream::{generate_gps_stream, GpsStreamConfig, GpsStreamEvent};
pub use queries::{generate_query_workload, ArrivalProcess, QueryWorkloadConfig, TimedQuery};
pub use scenario::{
    atlanta_like, bangalore_like, beijing_like, beijing_small, multi_region, new_york_like,
    Scenario, ScenarioConfig,
};
pub use sites::{assign_capacities_normal, assign_costs_normal};
pub use workload::{synthesize_gps, WorkloadConfig, WorkloadGenerator};
