//! Ingestion demo: raw GPS streams flow through the durable write path
//! into a live-queried snapshot store, then the process "crashes" and
//! recovers to the exact pre-crash state from the write-ahead log.
//!
//! Demonstrates the full `netclus-ingest` subsystem:
//!
//! * framed GPS records with per-source sequence numbers, decoded from a
//!   byte stream exactly as they would arrive over a socket, fed one
//!   frame per `ingest_reader` call (each call is one delivery, and a
//!   delivery publishes once it is matched, so no frame here waits out
//!   the batch linger);
//! * parallel map matching with bounded, backpressured intake;
//! * TTL lifecycle turning matched trips into insert+retire batches;
//! * the CRC-checked WAL written before every published epoch;
//! * concurrent top-k queries served throughout from pinned snapshots;
//! * kill-and-recover: WAL replay rebuilds the identical epoch, corpus
//!   and query answers (asserted).
//!
//! Run with: `cargo run --release --example ingestion`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_datagen::{beijing_small, generate_gps_stream, GpsStreamConfig};
use netclus_ingest::{
    recover_store, IngestConfig, Ingestor, StreamRecord, WalConfig, MAX_RECORD_PAYLOAD,
};
use netclus_roadnet::NodeId;
use netclus_service::framing::{FrameHeader, HEADER_BYTES};
use netclus_service::{IngestMetrics, SnapshotStore};
use netclus_trajectory::TrajId;

const TRIPS: usize = 200;
/// The crash comes once this many update ops are durable and visible.
/// Counted in ops, not batches: `max_batch_ops` triggers a publish but
/// does not cap it, so 200 trips can arrive in as few as one batch.
const CRASH_AFTER_OPS: u64 = TRIPS as u64 / 2;
/// Cap on every wait below; a pipeline that stops making progress fails
/// the example with its counters instead of hanging it.
const WAIT_CAP: Duration = Duration::from_secs(30);

fn main() {
    // Offline phase: base dataset and index — the "checkpoint" recovery
    // will fold the WAL over.
    let scenario = beijing_small(7);
    println!("[data ] {}", scenario.summary());
    let t = Instant::now();
    let index = NetClusIndex::build(
        &scenario.net,
        &scenario.trajectories,
        &scenario.sites,
        NetClusConfig {
            tau_min: 400.0,
            tau_max: 3_200.0,
            ..Default::default()
        },
    );
    println!("[index] built in {:?}", t.elapsed());

    // The raw input: Poisson-arrival GPS trips, framed to bytes exactly
    // as a gateway would ship them.
    let events = generate_gps_stream(
        &scenario.net,
        &scenario.grid,
        &scenario.hotspots,
        &GpsStreamConfig {
            trips: TRIPS,
            rate_per_sec: 1.5,
            sources: 8,
            ..Default::default()
        },
        0x16E5_7EED,
    );
    let mut wire = Vec::new();
    for e in &events {
        StreamRecord {
            source: e.source,
            seq: e.seq,
            trace: e.trace.clone(),
        }
        .write_to(&mut wire)
        .unwrap();
    }
    println!(
        "[gps  ] {} trips framed into {} KiB of wire data",
        events.len(),
        wire.len() / 1024
    );

    let wal_dir = std::env::temp_dir().join(format!("netclus-ingestion-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let store = Arc::new(SnapshotStore::new(
        scenario.net.clone(),
        scenario.trajectories.clone(),
        index.clone(),
    ));
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::new(scenario.grid.clone()),
        IngestConfig {
            match_workers: 4,
            max_batch_ops: 16,
            max_batch_delay: Duration::from_millis(20),
            ttl_s: Some(3_600.0),
            wal: WalConfig {
                sync_every_frames: 1, // every batch durable before publish
                ..WalConfig::new(&wal_dir)
            },
            ..IngestConfig::new(&wal_dir)
        },
        Arc::clone(&metrics),
    )
    .expect("open WAL");

    // Live queries race the ingest: a reader thread answers the same
    // top-k query from pinned snapshots while epochs advance underneath.
    let stop_queries = Arc::new(AtomicBool::new(false));
    let query_thread = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop_queries);
        std::thread::spawn(move || {
            let q = TopsQuery::binary(3, 900.0);
            let mut answers = 0u64;
            let mut epochs_seen = std::collections::BTreeSet::new();
            while !stop.load(Ordering::Acquire) {
                let snap = store.load();
                let r = snap.index().query(snap.trajs(), &q);
                assert_eq!(r.solution.sites.len(), 3);
                epochs_seen.insert(snap.epoch());
                answers += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            (answers, epochs_seen.len())
        })
    };

    // Feed the wire bytes until enough batches are durable, then crash.
    let feed = Instant::now();
    let mut fed = 0usize;
    let mut offset = 0usize;
    while offset < wire.len() {
        // Hand the pipeline one frame's worth of bytes at a time. Each
        // call ends a delivery, so each record publishes once it has
        // matched, not on the linger. A call returns once its record is
        // queued, so the whole feed usually ends before `CRASH_AFTER_OPS`
        // ops are published: the crash comes after the last record is
        // fed, while records are still queued and unpublished.
        let header = wire[offset..offset + HEADER_BYTES].try_into().unwrap();
        let frame_len = HEADER_BYTES
            + FrameHeader::decode(header, MAX_RECORD_PAYLOAD)
                .expect("own frame")
                .len;
        let summary = ingestor.ingest_reader(&wire[offset..offset + frame_len]);
        assert_eq!(summary.malformed, 0);
        offset += frame_len;
        fed += 1;
        if metrics.ops_published.load(Ordering::Relaxed) >= CRASH_AFTER_OPS {
            break;
        }
    }
    let waiting = Instant::now();
    while metrics.ops_published.load(Ordering::Relaxed) < CRASH_AFTER_OPS {
        assert!(
            waiting.elapsed() < WAIT_CAP,
            "fewer than {CRASH_AFTER_OPS} ops published after {fed} records and {WAIT_CAP:?}: {}",
            metrics.report(feed.elapsed()).to_json_line()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    println!(
        "[feed ] {} of {} records fed in {:?}; killing the ingestor now",
        fed,
        events.len(),
        feed.elapsed()
    );
    ingestor.abort(); // simulated crash: queued + unappended work is lost

    stop_queries.store(true, Ordering::Release);
    let (answers, distinct_epochs) = query_thread.join().expect("query thread panicked");
    println!("[query] {answers} live answers across {distinct_epochs} distinct epochs");

    // Pre-crash ground truth.
    let pre_epoch = store.epoch();
    let pre_corpus = corpus(&store);
    let pre_panel = panel(&store);
    println!(
        "[crash] died at epoch {pre_epoch} with {} live trajectories",
        pre_corpus.len()
    );

    // Recovery: base state + WAL → identical store.
    let t = Instant::now();
    let (recovered, report) = recover_store(
        scenario.net.clone(),
        scenario.trajectories.clone(),
        index,
        &wal_dir,
        Some(&metrics),
    )
    .expect("WAL replay failed");
    println!(
        "[recov] replayed {} batches ({} ops, {} KiB) in {:?}",
        report.batches,
        report.ops,
        report.bytes / 1024,
        t.elapsed()
    );

    assert_eq!(recovered.epoch(), pre_epoch, "epoch diverged");
    assert_eq!(corpus(&recovered), pre_corpus, "corpus diverged");
    assert_eq!(panel(&recovered), pre_panel, "query answers diverged");
    println!("[recov] epoch, corpus and top-k panel identical to the pre-crash state ✓");

    // Freshness: every published record carries its admission→visible
    // lag. (The abort legitimately strands admitted-but-unpublished
    // records, so `visibility_lag_us` stays non-zero here — recovery,
    // not the publisher, makes them visible again.)
    let report = metrics.report(feed.elapsed());
    assert!(
        report.freshness.count > 0,
        "published records measured freshness"
    );
    println!(
        "[fresh] ingest→visible lag: p50 {:.1} ms, p99 {:.1} ms over {} records",
        report.freshness.p50_micros as f64 / 1e3,
        report.freshness.p99_micros as f64 / 1e3,
        report.freshness.count
    );

    println!("\n[json ] {}", report.to_json_line());
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// The live corpus as comparable data: sorted `(id, node sequence)`.
fn corpus(store: &SnapshotStore) -> Vec<(TrajId, Vec<NodeId>)> {
    let snap = store.load();
    let mut out: Vec<(TrajId, Vec<NodeId>)> = snap
        .trajs()
        .iter()
        .map(|(id, t)| (id, t.nodes().to_vec()))
        .collect();
    out.sort();
    out
}

/// A fixed panel of top-k answers for state-equality checks.
fn panel(store: &SnapshotStore) -> Vec<(Vec<NodeId>, u64)> {
    let snap = store.load();
    [(1usize, 600.0f64), (3, 1_200.0), (5, 2_400.0)]
        .iter()
        .map(|&(k, tau)| {
            let r = snap.index().query(snap.trajs(), &TopsQuery::binary(k, tau));
            (r.solution.sites, r.solution.utility.to_bits())
        })
        .collect()
}
