//! Crash recovery: rebuild the exact pre-crash epoch state from the WAL.
//!
//! Recovery is a fold: start from the **base state** (the road network,
//! trajectory corpus and index the crashed process started from — epoch 0
//! of its [`SnapshotStore`]) and re-apply every durable WAL batch in
//! order. Because every pipeline decision that shapes a batch is
//! deterministic (id prediction, stream-time TTL — see
//! [`crate::lifecycle`]), and the batches themselves are replayed
//! verbatim, the recovered store reaches the same epoch with an identical
//! corpus and index as the crashed process had published.
//!
//! The epoch recorded in each frame makes the chain self-verifying:
//! replay fails loudly on a gap instead of silently rebuilding a state
//! that never existed.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use netclus::NetClusIndex;
use netclus_roadnet::RoadNetwork;
use netclus_service::{IngestMetrics, SnapshotStore};
use netclus_trajectory::TrajectorySet;

use crate::wal::{read_wal, repair_tail, TailRepair, WalError};

/// What a recovery run did.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Batches replayed.
    pub batches: u64,
    /// Update operations re-applied.
    pub ops: u64,
    /// Operations the store rejected on replay (no-ops also logged by the
    /// original run, e.g. removing an already-dead trajectory).
    pub rejected_ops: u64,
    /// WAL frame bytes read.
    pub bytes: u64,
    /// True if the log ended in a torn frame (dropped, exactly as the
    /// crashed process never published it) — whether found during the
    /// scan or already truncated away by the pre-replay tail repair.
    pub truncated_tail: bool,
    /// What the pre-replay `repair_tail` pass did to the directory.
    pub tail_repair: TailRepair,
    /// Wall-clock replay time.
    pub replay_time: Duration,
    /// The recovered epoch (= batches, from an epoch-0 base).
    pub epoch: u64,
}

/// Replays the WAL in `wal_dir` over the base state, returning the
/// recovered store. `metrics`, when given, records replay time and batch
/// count for the ingest report.
///
/// Before replaying, the log tail is repaired in place (`repair_tail`):
/// a torn frame left by a mid-append crash is truncated away so it can
/// never end up mid-log — tolerated once, then fatal — on a later run.
pub fn recover_store(
    net: RoadNetwork,
    trajs: TrajectorySet,
    index: NetClusIndex,
    wal_dir: &Path,
    metrics: Option<&IngestMetrics>,
) -> Result<(SnapshotStore, RecoveryReport), WalError> {
    let t = Instant::now();
    let tail_repair = repair_tail(wal_dir)?;
    let log = read_wal(wal_dir)?;
    let store = SnapshotStore::new(net, trajs, index);
    let mut report = RecoveryReport {
        batches: 0,
        ops: 0,
        rejected_ops: 0,
        bytes: log.bytes,
        truncated_tail: log.truncated_tail || tail_repair.repaired(),
        tail_repair,
        replay_time: Duration::ZERO,
        epoch: 0,
    };
    for batch in &log.batches {
        let expected = store.epoch() + 1;
        if batch.epoch != expected {
            return Err(WalError::Malformed(format!(
                "epoch chain broken: frame publishes {} but the store is at {}",
                batch.epoch,
                expected - 1
            )));
        }
        let receipt = store.apply(&batch.ops);
        debug_assert_eq!(receipt.epoch, expected);
        report.batches += 1;
        report.ops += batch.ops.len() as u64;
        report.rejected_ops += receipt.rejected as u64;
    }
    report.epoch = store.epoch();
    report.replay_time = t.elapsed();
    if let Some(m) = metrics {
        m.replay_micros
            .fetch_add(report.replay_time.as_micros() as u64, Ordering::Relaxed);
        m.replay_batches
            .fetch_add(report.batches, Ordering::Relaxed);
    }
    Ok((store, report))
}
