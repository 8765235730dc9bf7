//! # netclus-ingest — durable streaming trajectory ingestion
//!
//! PR 1 gave NetClus its read path (`netclus-service`: snapshot-swapped
//! indexes under concurrent queries). This crate is the **write path**:
//! raw GPS streams in, durably published index epochs out, with a bounded
//! memory footprint and crash recovery. The stages:
//!
//! * [`record`] — the **framed wire format** for raw GPS traces
//!   (length-prefixed, CRC-32-checksummed, per-source sequence numbers),
//!   decodable from any `io::Read` or fed in-process via
//!   [`Ingestor::submit`];
//! * [`queue`] — the **bounded intake queue** with explicit backpressure
//!   (block / drop-oldest / reject) between frame decoding and the slow
//!   matching stage, ticketing each record it hands out;
//! * [`pipeline`] — **parallel map matching**
//!   ([`netclus_trajectory::MapMatcher`] workers) feeding a single
//!   publisher that releases records in ticket order, so publish order is
//!   intake order whatever the worker count;
//! * [`lifecycle`] — **id prediction and stream-time TTL expiry**, turning
//!   matched trajectories into insert+retire
//!   [`UpdateOp`](netclus_service::UpdateOp) batches, published on op
//!   count, on a deadline, or once an [`Ingestor::ingest_reader`]
//!   delivery has matched;
//! * [`wal`] — the **write-ahead log**: append-only CRC-checked segments
//!   with rotation and fsync batching, written *before* each batch is
//!   published via [`SnapshotStore::apply`](netclus_service::SnapshotStore);
//! * [`recovery`] — **replay**: fold the WAL over the base state to
//!   reconstruct the exact pre-crash epoch, corpus and index.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use netclus::prelude::*;
//! use netclus_ingest::{IngestConfig, Ingestor, StreamRecord};
//! use netclus_roadnet::{GridIndex, Point, RoadNetworkBuilder};
//! use netclus_service::{IngestMetrics, SnapshotStore};
//! use netclus_trajectory::{GpsPoint, GpsTrace, TrajectorySet};
//!
//! // A corridor network, an empty corpus, and the index over them.
//! let mut b = RoadNetworkBuilder::new();
//! let nodes: Vec<_> = (0..6)
//!     .map(|i| b.add_node(Point::new(i as f64 * 400.0, 0.0)))
//!     .collect();
//! for w in nodes.windows(2) {
//!     b.add_two_way(w[0], w[1], 400.0).unwrap();
//! }
//! let net = b.build().unwrap();
//! let grid = Arc::new(GridIndex::build(&net, 400.0));
//! let trajs = TrajectorySet::for_network(&net);
//! let index = NetClusIndex::build(
//!     &net,
//!     &trajs,
//!     &net.nodes().collect::<Vec<_>>(),
//!     NetClusConfig { tau_min: 800.0, tau_max: 4_000.0, threads: 1, ..Default::default() },
//! );
//! let store = Arc::new(SnapshotStore::new(net, trajs, index));
//!
//! // Stream one noisy trace through the pipeline.
//! let wal_dir = std::env::temp_dir().join(format!("netclus-wal-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&wal_dir);
//! let ingestor = Ingestor::start_with_sink(
//!     store.clone(),
//!     grid,
//!     IngestConfig::new(&wal_dir),
//!     Arc::new(IngestMetrics::default()),
//! )
//! .unwrap();
//! ingestor.submit(StreamRecord {
//!     source: 1,
//!     seq: 0,
//!     trace: GpsTrace::new(
//!         (0..6)
//!             .map(|i| GpsPoint::new(Point::new(i as f64 * 400.0 + 9.0, -12.0), i as f64 * 30.0))
//!             .collect(),
//!     ),
//! });
//! ingestor.finish(); // drain, publish, fsync
//!
//! let snap = store.load();
//! assert_eq!(snap.epoch(), 1);
//! assert_eq!(snap.trajs().len(), 1);
//! std::fs::remove_dir_all(&wal_dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lifecycle;
pub mod pipeline;
pub mod queue;
pub mod record;
pub mod recovery;
pub mod wal;

pub use netclus_service::framing::crc32;
pub use pipeline::{IngestConfig, Ingestor, IntakeSummary, SubmitOutcome};
pub use queue::BackpressurePolicy;
pub use record::{RecordError, RecordReader, StreamRecord, MAX_RECORD_PAYLOAD};
pub use recovery::{recover_store, RecoveryReport};
pub use wal::{
    decode_batch, encode_batch, read_wal, AppendInfo, ReplayLog, TailRepair, WalBatch, WalConfig,
    WalError, WalWriter,
};

/// Compile-time audit that the types crossing the pipeline's thread
/// boundaries are `Send + Sync`.
#[allow(dead_code)]
fn send_sync_audit() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StreamRecord>();
    assert_send_sync::<queue::BoundedQueue<StreamRecord>>();
    assert_send_sync::<Ingestor>();
    assert_send_sync::<netclus_service::IngestMetrics>();
    fn assert_send<T: Send>() {}
    assert_send::<WalWriter>();
}
