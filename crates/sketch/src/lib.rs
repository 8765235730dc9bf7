//! # netclus-sketch — Flajolet–Martin distinct-counting sketches
//!
//! Probabilistic distinct-counting used by the NetClus framework
//! (Mitra et al., ICDE 2017) to accelerate submodular greedy selection:
//!
//! * Inc-Greedy with binary preference keeps one sketch of covered
//!   trajectories per candidate site; the marginal utility of adding a site
//!   is estimated with a single O(f) word-wise OR (paper Sec. 3.5).
//! * Greedy-GDSP clustering keeps one sketch of dominated vertices per
//!   vertex (paper Sec. 4.1.2).
//!
//! See [`FmSketchFamily`] for construction and estimation, and [`FmSketch`]
//! for the 4·f-byte payload stored per site/vertex.
//!
//! ```
//! use netclus_sketch::FmSketchFamily;
//!
//! let family = FmSketchFamily::new(30, 0xC0FFEE);
//! let covered = family.sketch_of(0..5_000u64);
//! let est = family.estimate(&covered);
//! assert!((est - 5_000.0).abs() / 5_000.0 < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fm;
pub mod hash;

pub use fm::{FmSketch, FmSketchFamily};
