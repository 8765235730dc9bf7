//! End-to-end pipeline tests: GPS records in, published epochs out, with
//! crash recovery reconstructing the exact pre-crash state.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use netclus::prelude::*;
use netclus_datagen::{
    grid_city, synthesize_gps, GridCityConfig, WorkloadConfig, WorkloadGenerator,
};
use netclus_ingest::{
    recover_store, BackpressurePolicy, IngestConfig, Ingestor, StreamRecord, SubmitOutcome,
    WalConfig,
};
use netclus_roadnet::{GridIndex, NodeId, RegionPartition, RoadNetwork};
use netclus_service::{IngestMetrics, ShardRouter, ShardRouterConfig, SnapshotStore, UpdateSink};
use netclus_trajectory::{GpsPoint, GpsTrace, TrajId, TrajectorySet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Base state shared by the live store and recovery: network, grid, empty
/// corpus, index over all nodes.
struct Fixture {
    net: RoadNetwork,
    grid: Arc<GridIndex>,
    index: NetClusIndex,
    records: Vec<StreamRecord>,
}

fn fixture(seed: u64, trips: usize) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let city = grid_city(
        &GridCityConfig {
            rows: 12,
            cols: 12,
            spacing_m: 200.0,
            jitter: 0.1,
            removal_fraction: 0.0,
        },
        &mut rng,
    );
    let grid = GridIndex::build(&city.net, 250.0);
    let mut gen = WorkloadGenerator::new(&city.net, &grid, &city.hotspots);
    let routes = gen.generate(
        &WorkloadConfig {
            count: trips,
            ..Default::default()
        },
        &mut rng,
    );
    // One record per trip, stream times spaced 60 s apart.
    let records: Vec<StreamRecord> = routes
        .iter()
        .enumerate()
        .map(|(i, route)| {
            let trace = synthesize_gps(&city.net, route, 12.0, 5.0, 8.0, &mut rng);
            StreamRecord {
                source: (i % 4) as u32,
                seq: (i / 4) as u64,
                trace: offset_trace(&trace, i as f64 * 60.0),
            }
        })
        .collect();
    let trajs = TrajectorySet::for_network(&city.net);
    let index = NetClusIndex::build(
        &city.net,
        &trajs,
        &city.net.nodes().collect::<Vec<_>>(),
        NetClusConfig {
            tau_min: 300.0,
            tau_max: 2_500.0,
            threads: 1,
            ..Default::default()
        },
    );
    Fixture {
        net: city.net,
        grid: Arc::new(grid),
        index,
        records,
    }
}

fn offset_trace(trace: &GpsTrace, dt: f64) -> GpsTrace {
    GpsTrace::new(
        trace
            .points()
            .iter()
            .map(|p| GpsPoint::new(p.pos, p.t + dt))
            .collect(),
    )
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netclus-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_store(f: &Fixture) -> Arc<SnapshotStore> {
    Arc::new(SnapshotStore::new(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
    ))
}

/// The live corpus as comparable data: sorted `(id, node sequence)`.
fn corpus_of(store: &SnapshotStore) -> Vec<(TrajId, Vec<NodeId>)> {
    let snap = store.load();
    let mut out: Vec<(TrajId, Vec<NodeId>)> = snap
        .trajs()
        .iter()
        .map(|(id, t)| (id, t.nodes().to_vec()))
        .collect();
    out.sort();
    out
}

/// A fixed panel of top-k answers, for state-equality assertions.
fn query_panel(store: &SnapshotStore) -> Vec<(Vec<NodeId>, u64)> {
    let snap = store.load();
    [(1usize, 500.0f64), (3, 900.0), (5, 1_800.0)]
        .iter()
        .map(|&(k, tau)| {
            let r = snap.index().query(snap.trajs(), &TopsQuery::binary(k, tau));
            (r.solution.sites, r.solution.utility.to_bits())
        })
        .collect()
}

#[test]
fn pipeline_publishes_all_matched_records() {
    let f = fixture(11, 30);
    let store = base_store(&f);
    let dir = wal_dir("basic");
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 3,
            max_batch_ops: 8,
            ..IngestConfig::new(&dir)
        },
        Arc::clone(&metrics),
    )
    .unwrap();
    for r in &f.records {
        assert_eq!(ingestor.submit(r.clone()), SubmitOutcome::Accepted);
    }
    ingestor.finish();

    let matched = metrics.records_matched.load(Ordering::Relaxed);
    let failed = metrics.match_failed.load(Ordering::Relaxed);
    assert_eq!(matched + failed, 30);
    assert!(matched >= 25, "too many match failures: {failed}");
    let snap = store.load();
    assert_eq!(snap.trajs().len() as u64, matched);
    assert!(snap.epoch() >= 1);
    assert_eq!(
        metrics.batches_published.load(Ordering::Relaxed),
        snap.epoch()
    );
    // A graceful drain closed the ingest→visible clock of every published
    // record and left nothing admitted but invisible.
    assert_eq!(metrics.freshness.summary().count, matched);
    assert_eq!(metrics.visibility_lag_us.load(Ordering::Relaxed), 0);
    // The publish side of the report: one op per matched record (no TTL,
    // so every op is an add), one WAL frame, one fsync (the default
    // policy), one publish and one append sample per batch.
    let report = metrics.report(Duration::from_secs(1));
    assert_eq!(report.ops_published, matched);
    assert_eq!(report.match_latency.count, matched);
    assert_eq!(report.records_per_sec, matched as f64);
    let batches = report.batches_published;
    assert_eq!((report.wal_frames, report.wal_syncs), (batches, batches));
    assert!(report.wal_bytes > 0 && report.wal_bytes_per_sec > 0.0);
    assert_eq!(report.publish_latency.count, batches);
    assert_eq!(report.wal_append_latency.count, batches);
    // Every published trajectory is a connected on-network route.
    for (_, t) in snap.trajs().iter() {
        for w in t.nodes().windows(2) {
            assert!(snap.net().edge_weight(w[0], w[1]).is_some());
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_sequence_numbers_are_dropped() {
    let f = fixture(12, 6);
    let store = base_store(&f);
    let dir = wal_dir("dedup");
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig::new(&dir),
        Arc::clone(&metrics),
    )
    .unwrap();
    for r in &f.records {
        ingestor.submit(r.clone());
    }
    // Redeliver everything (at-least-once transport): all duplicates.
    for r in &f.records {
        assert_eq!(ingestor.submit(r.clone()), SubmitOutcome::Duplicate);
    }
    ingestor.finish();
    assert_eq!(metrics.records_duplicate.load(Ordering::Relaxed), 6);
    assert_eq!(metrics.records_in.load(Ordering::Relaxed), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn framed_reader_path_matches_in_process_path() {
    let f = fixture(13, 12);
    let dir_a = wal_dir("framed-a");
    let dir_b = wal_dir("framed-b");

    // Path A: records through the wire format.
    let store_a = base_store(&f);
    let mut bytes = Vec::new();
    for r in &f.records {
        r.write_to(&mut bytes).unwrap();
    }
    // ...and one frame the wire damaged: counted, skipped, and no part
    // of the state the two paths are compared on.
    let damaged = bytes.len() + 12;
    f.records[0].write_to(&mut bytes).unwrap();
    bytes[damaged] ^= 0xFF;
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store_a.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            ..IngestConfig::new(&dir_a)
        },
        Arc::clone(&metrics),
    )
    .unwrap();
    let summary = ingestor.ingest_reader(&bytes[..]);
    assert_eq!(summary.accepted, 12);
    assert_eq!(summary.malformed, 1);
    ingestor.finish();
    let report = metrics.report(Duration::from_secs(1));
    assert_eq!(report.records_malformed, 1);
    assert_eq!(report.decode_latency.count, 13, "one sample per frame read");

    // Path B: the same records in-process.
    let store_b = base_store(&f);
    let ingestor = Ingestor::start_with_sink(
        store_b.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            ..IngestConfig::new(&dir_b)
        },
        Arc::new(IngestMetrics::default()),
    )
    .unwrap();
    for r in &f.records {
        ingestor.submit(r.clone());
    }
    ingestor.finish();

    assert_eq!(corpus_of(&store_a), corpus_of(&store_b));
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn ttl_retires_expired_trajectories() {
    let f = fixture(14, 20);
    let store = base_store(&f);
    let dir = wal_dir("ttl");
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            ttl_s: Some(300.0), // records are 60 s apart → window of ~5
            max_batch_ops: 4,
            ..IngestConfig::new(&dir)
        },
        Arc::clone(&metrics),
    )
    .unwrap();
    for r in &f.records {
        ingestor.submit(r.clone());
    }
    ingestor.finish();

    let matched = metrics.records_matched.load(Ordering::Relaxed);
    let retired = metrics.trajs_retired.load(Ordering::Relaxed);
    assert!(retired > 0, "TTL produced no retirements");
    let snap = store.load();
    assert_eq!(snap.trajs().len() as u64, matched - retired);
    assert!(
        snap.trajs().len() <= 6,
        "sliding window too large: {}",
        snap.trajs().len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance-criteria test: stream batches, kill the ingestor
/// mid-stream (after fsync), replay the WAL into a fresh store, and the
/// recovered epoch, trajectory set and a fixed panel of top-k answers are
/// identical to the pre-crash snapshot.
#[test]
fn crash_recovery_reconstructs_exact_pre_crash_state() {
    let f = fixture(15, 40);
    let store = base_store(&f);
    let dir = wal_dir("crash");
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 2,
            max_batch_ops: 4,
            ttl_s: Some(600.0),
            wal: WalConfig {
                segment_max_bytes: 512, // force rotation mid-run
                sync_every_frames: 1,   // every batch durable before publish
                ..WalConfig::new(&dir)
            },
            ..IngestConfig::new(&dir)
        },
        Arc::clone(&metrics),
    )
    .unwrap();

    // Feed until at least five batches are durably published, then kill
    // the pipeline — genuinely mid-stream.
    for r in &f.records {
        ingestor.submit(r.clone());
        if metrics.batches_published.load(Ordering::Relaxed) >= 5 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while metrics.batches_published.load(Ordering::Relaxed) < 5 {
        assert!(std::time::Instant::now() < deadline, "no batches published");
        std::thread::sleep(Duration::from_millis(2));
    }
    ingestor.abort(); // crash: queued + pending-but-unappended work is lost

    let pre_epoch = store.epoch();
    let pre_corpus = corpus_of(&store);
    let pre_panel = query_panel(&store);
    assert!(pre_epoch >= 5);
    assert!(!pre_corpus.is_empty());

    // Recover from the base state + WAL alone.
    let (recovered, report) = recover_store(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
        &dir,
        Some(&metrics),
    )
    .unwrap();
    assert_eq!(report.epoch, pre_epoch);
    assert_eq!(report.batches, pre_epoch);
    assert!(!report.truncated_tail, "abort happens between batches");
    assert_eq!(recovered.epoch(), pre_epoch);
    assert_eq!(corpus_of(&recovered), pre_corpus);
    assert_eq!(query_panel(&recovered), pre_panel);
    assert_eq!(metrics.replay_batches.load(Ordering::Relaxed), pre_epoch);
    let replay_micros = metrics.replay_micros.load(Ordering::Relaxed);
    assert!(
        replay_micros > 0,
        "replaying {pre_epoch} batches took no time"
    );
    assert_eq!(replay_micros, report.replay_time.as_micros() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A restarted pipeline continues the epoch chain in the same WAL
/// directory, and a full replay from the base reproduces the final state.
#[test]
fn restart_continues_the_epoch_chain() {
    let f = fixture(16, 16);
    let dir = wal_dir("restart");

    // First run: half the records.
    let store = base_store(&f);
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            ..IngestConfig::new(&dir)
        },
        Arc::new(IngestMetrics::default()),
    )
    .unwrap();
    for r in &f.records[..8] {
        ingestor.submit(r.clone());
    }
    ingestor.finish();
    let mid_epoch = store.epoch();
    assert!(mid_epoch >= 1);

    // Restart: recover, then ingest the rest into the recovered store.
    let (recovered, report) = recover_store(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
        &dir,
        None,
    )
    .unwrap();
    assert_eq!(report.epoch, mid_epoch);
    let recovered = Arc::new(recovered);
    let ingestor = Ingestor::start_with_sink(
        recovered.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            ..IngestConfig::new(&dir)
        },
        Arc::new(IngestMetrics::default()),
    )
    .unwrap();
    for r in &f.records[8..] {
        ingestor.submit(r.clone());
    }
    ingestor.finish();
    let final_corpus = corpus_of(&recovered);
    let final_epoch = recovered.epoch();
    assert!(final_epoch > mid_epoch);

    // A cold replay of the whole log reproduces the final state.
    let (replayed, report) = recover_store(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
        &dir,
        None,
    )
    .unwrap();
    assert_eq!(report.epoch, final_epoch);
    assert_eq!(corpus_of(&replayed), final_corpus);
    assert_eq!(query_panel(&replayed), query_panel(&recovered));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The highest-index segment file in a WAL directory (zero-padded names
/// sort lexicographically).
fn last_segment(dir: &std::path::Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs.pop().expect("no WAL segments")
}

/// Dedup watermarks are durable: after a restart from the WAL, an
/// at-least-once transport redelivering everything it ever sent must not
/// duplicate the corpus.
#[test]
fn dedup_watermarks_survive_restart() {
    let f = fixture(19, 10);
    let dir = wal_dir("dedup-restart");
    let store = base_store(&f);
    let metrics1 = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            ..IngestConfig::new(&dir)
        },
        Arc::clone(&metrics1),
    )
    .unwrap();
    for r in &f.records {
        assert_eq!(ingestor.submit(r.clone()), SubmitOutcome::Accepted);
    }
    ingestor.finish();
    let failed1 = metrics1.match_failed.load(Ordering::Relaxed);
    let pre_epoch = store.epoch();
    let pre_corpus = corpus_of(&store);
    assert!(pre_epoch >= 1);

    // Restart from the base state + WAL alone, then redeliver everything.
    let (recovered, _) = recover_store(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
        &dir,
        None,
    )
    .unwrap();
    let recovered = Arc::new(recovered);
    let metrics2 = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        recovered.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            ..IngestConfig::new(&dir)
        },
        Arc::clone(&metrics2),
    )
    .unwrap();
    for r in &f.records {
        assert_ne!(ingestor.submit(r.clone()), SubmitOutcome::Shed);
    }
    ingestor.finish();

    // Every durably published record is recognized as a duplicate. Only
    // records that never reached the WAL (match failures) may be
    // re-admitted — and they fail identically, changing nothing.
    let readmitted = metrics2.records_in.load(Ordering::Relaxed);
    let duplicates = metrics2.records_duplicate.load(Ordering::Relaxed);
    assert_eq!(duplicates + readmitted, 10);
    assert!(
        readmitted <= failed1,
        "a published record was re-admitted after the restart"
    );
    assert_eq!(metrics2.match_failed.load(Ordering::Relaxed), readmitted);
    assert_eq!(metrics2.batches_published.load(Ordering::Relaxed), 0);
    assert_eq!(recovered.epoch(), pre_epoch, "redelivery forked the chain");
    assert_eq!(corpus_of(&recovered), pre_corpus, "corpus was duplicated");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// TTL lifecycle state is durable: trajectories ingested before a restart
/// still expire afterwards — the sliding window keeps sliding.
#[test]
fn ttl_window_keeps_sliding_across_restart() {
    let f = fixture(20, 12);
    let dir = wal_dir("ttl-restart");
    let store = base_store(&f);
    let cfg = || IngestConfig {
        match_workers: 1,
        max_batch_ops: 2,
        ttl_s: Some(3_000.0),
        ..IngestConfig::new(&dir)
    };
    let metrics1 = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        cfg(),
        Arc::clone(&metrics1),
    )
    .unwrap();
    for r in &f.records[..6] {
        ingestor.submit(r.clone());
    }
    ingestor.finish();
    let matched1 = metrics1.records_matched.load(Ordering::Relaxed);
    assert!(matched1 > 0, "run 1 matched nothing");
    assert_eq!(
        metrics1.trajs_retired.load(Ordering::Relaxed),
        0,
        "the 3000 s TTL must not lapse within run 1's ~600 s of stream time"
    );

    let (recovered, _) = recover_store(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
        &dir,
        None,
    )
    .unwrap();
    let recovered = Arc::new(recovered);
    let metrics2 = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        recovered.clone(),
        Arc::clone(&f.grid),
        cfg(),
        Arc::clone(&metrics2),
    )
    .unwrap();
    // The same trips far in the stream future, from a fresh source:
    // every pre-restart trajectory's TTL lapses as they arrive.
    for (i, r) in f.records[..6].iter().enumerate() {
        ingestor.submit(StreamRecord {
            source: 40,
            seq: i as u64,
            trace: offset_trace(&r.trace, 100_000.0),
        });
    }
    ingestor.finish();
    let matched2 = metrics2.records_matched.load(Ordering::Relaxed);
    assert_eq!(matched2, matched1, "same traces must match identically");
    // Without the recovered expiry heap these retirements never happen
    // and the pre-restart trajectories live forever.
    assert_eq!(metrics2.trajs_retired.load(Ordering::Relaxed), matched1);
    assert_eq!(recovered.load().trajs().len() as u64, matched2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn WAL tail (crash mid-append) must stay survivable forever: the
/// restart truncates it, later runs append cleanly, and cold replays keep
/// working — it must never turn into mid-log corruption.
#[test]
fn torn_wal_tail_survives_restart_and_recovery() {
    let f = fixture(21, 12);
    let dir = wal_dir("torn-e2e");
    let store = base_store(&f);
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            max_batch_ops: 2,
            ..IngestConfig::new(&dir)
        },
        Arc::new(IngestMetrics::default()),
    )
    .unwrap();
    for r in &f.records {
        ingestor.submit(r.clone());
    }
    ingestor.finish();
    let epoch1 = store.epoch();
    assert!(epoch1 >= 2);

    // Tear the last durable frame, as a crash mid-append would.
    let seg = last_segment(&dir);
    let data = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &data[..data.len() - 3]).unwrap();

    // Recovery repairs the tail and lands one epoch short — the torn
    // batch was never durable.
    let (recovered, report) = recover_store(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
        &dir,
        None,
    )
    .unwrap();
    assert!(report.truncated_tail);
    assert!(report.tail_repair.truncated_bytes > 0);
    assert_eq!(report.epoch, epoch1 - 1);

    // The restarted pipeline keeps publishing on the repaired log…
    let recovered = Arc::new(recovered);
    let ingestor = Ingestor::start_with_sink(
        recovered.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            ..IngestConfig::new(&dir)
        },
        Arc::new(IngestMetrics::default()),
    )
    .unwrap();
    for (i, r) in f.records[..4].iter().enumerate() {
        ingestor.submit(StreamRecord {
            source: 50,
            seq: i as u64,
            trace: r.trace.clone(),
        });
    }
    ingestor.finish();
    let final_epoch = recovered.epoch();
    assert!(final_epoch > epoch1 - 1);

    // …and a cold replay of the whole log reproduces the final state.
    let (replayed, report2) = recover_store(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
        &dir,
        None,
    )
    .unwrap();
    assert!(!report2.truncated_tail);
    assert_eq!(report2.epoch, final_epoch);
    assert_eq!(corpus_of(&replayed), corpus_of(&recovered));
    assert_eq!(query_panel(&replayed), query_panel(&recovered));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With parallel match workers, one source's records can finish matching
/// out of order. The publisher must still publish them in admission
/// order — otherwise a WAL mark could cover a still-in-flight lower seq
/// and a crash would drop that record's retry as a duplicate. Observable
/// invariant: the marks a single source leaves across WAL batches are
/// strictly increasing.
#[test]
fn parallel_workers_preserve_per_source_admission_order() {
    use netclus_ingest::read_wal;
    let f = fixture(24, 30);
    let dir = wal_dir("order");
    let store = base_store(&f);
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 4,
            max_batch_ops: 4,
            ..IngestConfig::new(&dir)
        },
        Arc::new(IngestMetrics::default()),
    )
    .unwrap();
    // One source, dense seqs — maximum opportunity for worker races.
    for (i, r) in f.records.iter().enumerate() {
        ingestor.submit(StreamRecord {
            source: 0,
            seq: i as u64,
            trace: r.trace.clone(),
        });
    }
    ingestor.finish();

    let log = read_wal(&dir).unwrap();
    let marks: Vec<u64> = log
        .batches
        .iter()
        .flat_map(|b| b.marks.iter().filter(|&&(s, _)| s == 0).map(|&(_, q)| q))
        .collect();
    assert!(!marks.is_empty());
    assert!(
        marks.windows(2).all(|w| w[0] < w[1]),
        "marks must be strictly increasing across batches, got {marks:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `trace` with `factor − 1` fixes linearly interpolated (position and
/// time) between each consecutive pair: the same route, `factor`× the
/// matching work.
fn densify(trace: &GpsTrace, factor: usize) -> GpsTrace {
    let points = trace.points();
    let mut dense = Vec::with_capacity(points.len() * factor);
    for w in points.windows(2) {
        for i in 0..factor {
            let frac = i as f64 / factor as f64;
            let pos = w[0].pos.lerp(&w[1].pos, frac);
            dense.push(GpsPoint::new(pos, w[0].t + (w[1].t - w[0].t) * frac));
        }
    }
    dense.extend(points.last().copied());
    GpsTrace::new(dense)
}

/// Publish order is intake order, whatever the worker count: the same
/// submits publish the same trajectory ids through 1 worker and through
/// 4. Record 0 is made slow to match, so with 4 workers every other
/// record finishes first — across all four sources, not just its own.
#[test]
fn publish_order_is_intake_order_for_any_worker_count() {
    let mut f = fixture(31, 24);
    f.records[0].trace = densify(&f.records[0].trace, 400);
    let corpus_through = |match_workers: usize| {
        let dir = wal_dir(&format!("intake-order-{match_workers}"));
        let store = base_store(&f);
        let ingestor = Ingestor::start_with_sink(
            store.clone(),
            Arc::clone(&f.grid),
            IngestConfig {
                match_workers,
                ..IngestConfig::new(&dir)
            },
            Arc::new(IngestMetrics::default()),
        )
        .unwrap();
        for r in &f.records {
            assert_eq!(ingestor.submit(r.clone()), SubmitOutcome::Accepted);
        }
        ingestor.finish();
        std::fs::remove_dir_all(&dir).unwrap();
        corpus_of(&store)
    };
    for round in 0..3 {
        let one = corpus_through(1);
        assert!(!one.is_empty());
        assert_eq!(
            one,
            corpus_through(4),
            "round {round}: ids depend on workers"
        );
    }
}

/// Starting a pipeline with a store that does not sit at the WAL's last
/// epoch would fork the epoch chain — it must be refused, not papered
/// over.
#[test]
fn start_rejects_store_that_does_not_match_the_wal() {
    let f = fixture(22, 6);
    let dir = wal_dir("mismatch");
    let store = base_store(&f);
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            ..IngestConfig::new(&dir)
        },
        Arc::new(IngestMetrics::default()),
    )
    .unwrap();
    for r in &f.records {
        ingestor.submit(r.clone());
    }
    ingestor.finish();
    assert!(store.epoch() >= 1);

    let result = Ingestor::start_with_sink(
        base_store(&f), // fresh, unrecovered store on a non-empty WAL
        Arc::clone(&f.grid),
        IngestConfig::new(&dir),
        Arc::new(IngestMetrics::default()),
    );
    match result {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        Ok(_) => panic!("a mismatched store must be rejected"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With fsync batching (`sync_every_frames > 1`) a batch can be visible
/// before it is durable; a crash then loses it. `abort` simulates that
/// faithfully — the writer's buffer is discarded, so recovery genuinely
/// observes the lost-visible-batch window.
#[test]
fn unsynced_batches_are_lost_on_crash_as_documented() {
    let f = fixture(23, 10);
    let dir = wal_dir("unsynced");
    let store = base_store(&f);
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            max_batch_ops: 2,
            wal: WalConfig {
                sync_every_frames: u32::MAX, // nothing is ever fsynced
                ..WalConfig::new(&dir)
            },
            ..IngestConfig::new(&dir)
        },
        Arc::clone(&metrics),
    )
    .unwrap();
    for r in &f.records {
        ingestor.submit(r.clone());
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while metrics.batches_published.load(Ordering::Relaxed) < 2 {
        assert!(std::time::Instant::now() < deadline, "no batches published");
        std::thread::sleep(Duration::from_millis(2));
    }
    ingestor.abort();
    let visible = store.epoch();
    assert!(visible >= 2);

    let (recovered, _) = recover_store(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
        &dir,
        None,
    )
    .unwrap();
    assert!(
        recovered.epoch() < visible,
        "buffered batches must be lost by the crash (visible {visible}, recovered {})",
        recovered.epoch()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Seed plumbing end to end: the same seed produces a byte-identical
/// encoded stream (the property ingest benches rely on).
#[test]
fn generated_streams_encode_byte_identically_per_seed() {
    use netclus_datagen::{generate_gps_stream, GpsStreamConfig};
    let mut rng = StdRng::seed_from_u64(1);
    let city = grid_city(
        &GridCityConfig {
            rows: 10,
            cols: 10,
            spacing_m: 200.0,
            jitter: 0.1,
            removal_fraction: 0.0,
        },
        &mut rng,
    );
    let grid = GridIndex::build(&city.net, 300.0);
    let cfg = GpsStreamConfig {
        trips: 15,
        ..Default::default()
    };
    let encode = |seed: u64| -> Vec<u8> {
        let mut bytes = Vec::new();
        for e in generate_gps_stream(&city.net, &grid, &city.hotspots, &cfg, seed) {
            StreamRecord {
                source: e.source,
                seq: e.seq,
                trace: e.trace,
            }
            .write_to(&mut bytes)
            .unwrap();
        }
        bytes
    };
    assert_eq!(
        encode(0xA5A5),
        encode(0xA5A5),
        "same seed must be byte-identical"
    );
    assert_ne!(
        encode(0xA5A5),
        encode(0x5A5A),
        "different seeds must diverge"
    );
}

/// A record shed by backpressure must stay retryable: the dedup watermark
/// advances only on admission, so the upstream retry the `Reject` policy
/// promises is never misclassified as a duplicate.
#[test]
fn shed_records_can_be_retried() {
    let f = fixture(18, 40);
    let store = base_store(&f);
    let dir = wal_dir("retry");
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 1,
            queue_capacity: 1,
            policy: BackpressurePolicy::Reject,
            ..IngestConfig::new(&dir)
        },
        Arc::clone(&metrics),
    )
    .unwrap();
    let mut sheds = 0u64;
    for r in &f.records {
        let mut outcome = ingestor.submit(r.clone());
        // Retry shed records until admitted, as the policy contract
        // prescribes; a retry must never come back as Duplicate.
        while outcome == SubmitOutcome::Shed {
            sheds += 1;
            std::thread::sleep(Duration::from_millis(1));
            outcome = ingestor.submit(r.clone());
        }
        assert_eq!(outcome, SubmitOutcome::Accepted, "retry misclassified");
    }
    ingestor.finish();
    // Every record was eventually admitted and processed (the property
    // holds whether or not backpressure actually triggered, but with a
    // capacity-1 queue it essentially always does).
    let matched = metrics.records_matched.load(Ordering::Relaxed);
    let failed = metrics.match_failed.load(Ordering::Relaxed);
    assert_eq!(metrics.records_in.load(Ordering::Relaxed), 40);
    assert_eq!(metrics.records_dropped.load(Ordering::Relaxed), sheds);
    assert_eq!(matched + failed, 40);
    assert_eq!(store.load().trajs().len() as u64, matched);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Backpressure accounting: whatever the policy does, every record is
/// accounted for exactly once.
#[test]
fn backpressure_accounting_is_conserved() {
    for policy in [
        BackpressurePolicy::Block,
        BackpressurePolicy::DropOldest,
        BackpressurePolicy::Reject,
    ] {
        let f = fixture(17, 25);
        let store = base_store(&f);
        let dir = wal_dir(&format!("bp-{policy:?}"));
        let metrics = Arc::new(IngestMetrics::default());
        let ingestor = Ingestor::start_with_sink(
            store.clone(),
            Arc::clone(&f.grid),
            IngestConfig {
                match_workers: 1,
                queue_capacity: 2,
                policy,
                ..IngestConfig::new(&dir)
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        for r in &f.records {
            ingestor.submit(r.clone());
        }
        ingestor.finish();
        let record_count = f.records.len() as u64;
        let accepted = metrics.records_in.load(Ordering::Relaxed);
        let dropped = metrics.records_dropped.load(Ordering::Relaxed);
        let matched = metrics.records_matched.load(Ordering::Relaxed);
        let failed = metrics.match_failed.load(Ordering::Relaxed);
        match policy {
            // Blocking admits and processes everything.
            BackpressurePolicy::Block => {
                assert_eq!(accepted, record_count);
                assert_eq!(matched + failed, accepted);
            }
            // Drop-oldest admits everything but displaced records are
            // never matched.
            BackpressurePolicy::DropOldest => {
                assert_eq!(accepted, record_count);
                assert_eq!(matched + failed, accepted - dropped);
            }
            // Reject conserves: each record is either in or shed, and
            // everything admitted is processed.
            BackpressurePolicy::Reject => {
                assert_eq!(accepted + dropped, record_count);
                assert_eq!(matched + failed, accepted);
            }
        }
        assert_eq!(store.load().trajs().len() as u64, matched);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// An empty-corpus replicated router over the fixture net: two region
/// shards, two bit-identical replicas each (PR 10's replica sets).
fn replicated_router(f: &Fixture) -> ShardRouter {
    let net = Arc::new(f.net.clone());
    let trajs = TrajectorySet::for_network(&net);
    let sites: Vec<NodeId> = net.nodes().collect();
    let partition = RegionPartition::build(&net, 2);
    let sharded = ShardedNetClusIndex::build(
        &net,
        &trajs,
        &sites,
        &partition,
        NetClusConfig {
            tau_min: 300.0,
            tau_max: 2_500.0,
            threads: 1,
            ..Default::default()
        },
    );
    ShardRouter::start_replicated(net, sharded, 2, ShardRouterConfig::default())
        .expect("start replicated router")
}

/// The fixed query panel through the scatter-gather path, as comparable
/// data. Every answer must be full — replication means no degradation.
fn router_panel(router: &ShardRouter) -> Vec<(u64, Vec<NodeId>, u64, usize)> {
    [(1usize, 500.0f64), (3, 900.0), (5, 1_800.0)]
        .iter()
        .map(|&(k, tau)| {
            let a = router.query_blocking(TopsQuery::binary(k, tau)).unwrap();
            assert!(!a.degraded, "replicated router degraded an answer");
            (a.epoch, a.sites.clone(), a.utility.to_bits(), a.covered)
        })
        .collect()
}

/// The pipeline publishes straight into a *replicated sharded router*
/// through the [`UpdateSink`] seam — no monolithic store in the write
/// path — and after a mid-stream crash the WAL alone rebuilds a fresh
/// replica set to the same epoch with bit-identical scatter-gather
/// answers. The same log still drives the monolithic recovery path: the
/// WAL is sink-agnostic.
#[test]
fn crashed_pipeline_wal_replays_into_a_replicated_router() {
    let f = fixture(18, 40);
    let dir = wal_dir("router-crash");
    let metrics = Arc::new(IngestMetrics::default());
    let live = Arc::new(replicated_router(&f));
    let ingestor = Ingestor::start_with_sink(
        Arc::clone(&live) as Arc<dyn UpdateSink>,
        Arc::clone(&f.grid),
        IngestConfig {
            match_workers: 2,
            max_batch_ops: 4,
            wal: WalConfig {
                segment_max_bytes: 512, // force rotation mid-run
                sync_every_frames: 1,   // every batch durable before publish
                ..WalConfig::new(&dir)
            },
            ..IngestConfig::new(&dir)
        },
        Arc::clone(&metrics),
    )
    .unwrap();

    // Feed until at least five batches are durably published, then kill
    // the pipeline — genuinely mid-stream.
    for r in &f.records {
        ingestor.submit(r.clone());
        if metrics.batches_published.load(Ordering::Relaxed) >= 5 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while metrics.batches_published.load(Ordering::Relaxed) < 5 {
        assert!(std::time::Instant::now() < deadline, "no batches published");
        std::thread::sleep(Duration::from_millis(2));
    }
    ingestor.abort(); // crash: queued + pending-but-unappended work is lost

    let pre_epoch = live.epoch();
    assert!(pre_epoch >= 5);
    // Lockstep apply kept every replica of every shard current.
    assert_eq!(live.replica_lag_max(), 0);
    let pre_panel = router_panel(&live);

    // Replay the WAL into a fresh, empty replica set. Logged ops are the
    // *unrouted* `UpdateOp`s the pipeline published, so the router
    // re-routes them and re-assigns global ids exactly as the live run
    // did — batch order is the id sequence.
    let log = netclus_ingest::read_wal(&dir).unwrap();
    assert!(!log.truncated_tail, "abort happens between batches");
    assert_eq!(log.batches.len() as u64, pre_epoch);
    let replayed = replicated_router(&f);
    for batch in &log.batches {
        let receipt = replayed.apply_updates(batch.ops.clone());
        assert_eq!(receipt.epoch, batch.epoch, "epoch chain must not tear");
    }
    assert_eq!(replayed.epoch(), pre_epoch);
    assert_eq!(replayed.replica_lag_max(), 0);
    assert_eq!(router_panel(&replayed), pre_panel);

    // The monolithic recovery path reads the same log to the same epoch.
    let (recovered, report) = recover_store(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
        &dir,
        None,
    )
    .unwrap();
    assert_eq!(report.epoch, pre_epoch);
    assert_eq!(recovered.epoch(), pre_epoch);
    assert!(!corpus_of(&recovered).is_empty());

    live.shutdown();
    replayed.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cap on the polled waits of the flush tests below: a delivery that
/// stays invisible fails with its message instead of hanging the suite.
const FLUSH_CAP: Duration = Duration::from_secs(30);

/// Polls `done` every 2 ms until it holds, failing after [`FLUSH_CAP`].
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !done() {
        assert!(start.elapsed() < FLUSH_CAP, "{what} after {FLUSH_CAP:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A pipeline whose batches publish on a delivery's end or on shutdown
/// only: the linger is an hour and no batch of these fixtures reaches the
/// op trigger.
fn lingering(dir: &std::path::Path, match_workers: usize) -> IngestConfig {
    IngestConfig {
        match_workers,
        max_batch_ops: 10_000,
        max_batch_delay: Duration::from_secs(3_600),
        ..IngestConfig::new(dir)
    }
}

/// `records` as one framed byte stream.
fn framed<'a>(records: impl IntoIterator<Item = &'a StreamRecord>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for r in records {
        r.write_to(&mut bytes).unwrap();
    }
    bytes
}

/// Records matched or failed so far.
fn resolved(metrics: &IngestMetrics) -> u64 {
    metrics.records_matched.load(Ordering::Relaxed) + metrics.match_failed.load(Ordering::Relaxed)
}

/// The end of an `ingest_reader` delivery publishes it: with an hour's
/// linger and an op trigger the delivery never reaches, every matched
/// record still becomes visible, in one batch, before `finish`.
#[test]
fn a_delivery_is_visible_once_matched_without_the_linger() {
    let f = fixture(41, 20);
    let store = base_store(&f);
    let dir = wal_dir("flush-delivery");
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        lingering(&dir, 2),
        Arc::clone(&metrics),
    )
    .unwrap();
    let summary = ingestor.ingest_reader(&framed(&f.records)[..]);
    assert_eq!(summary.accepted, 20);
    wait_for("the delivery is not visible", || store.epoch() >= 1);
    let matched = metrics.records_matched.load(Ordering::Relaxed);
    assert_eq!(resolved(&metrics), 20);
    assert!(matched > 0);
    assert_eq!(store.epoch(), 1, "one delivery, one batch");
    assert_eq!(store.load().trajs().len() as u64, matched);
    ingestor.finish();
    assert_eq!(store.epoch(), 1, "nothing was left pending");
    assert_eq!(metrics.freshness.summary().count, matched);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `submit` has no end: the same records, every one resolved, stay
/// invisible under the linger until `finish` publishes them.
#[test]
fn a_submit_stream_still_waits_out_the_linger() {
    let f = fixture(41, 20);
    let store = base_store(&f);
    let dir = wal_dir("flush-submit");
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        lingering(&dir, 2),
        Arc::clone(&metrics),
    )
    .unwrap();
    for r in &f.records {
        assert_eq!(ingestor.submit(r.clone()), SubmitOutcome::Accepted);
    }
    wait_for("the records are not all resolved", || {
        resolved(&metrics) == 20
    });
    let matched = metrics.records_matched.load(Ordering::Relaxed);
    assert!(matched > 0);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        store.epoch(),
        0,
        "a submit stream published before its linger"
    );
    ingestor.finish();
    assert_eq!(store.epoch(), 1);
    assert_eq!(store.load().trajs().len() as u64, matched);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two deliveries on two threads into a pipeline with 3 match workers,
/// the first record of each made slow to match: both publish without
/// the linger, and each delivery's records reach the WAL in its own
/// order. Each delivery is one source, so neither dedups the other, and
/// each record's stream times are shifted 10⁶ s apart, so its end time,
/// logged with its add, tells it apart.
#[test]
fn concurrent_deliveries_publish_in_intake_order_without_the_linger() {
    let mut f = fixture(42, 24);
    for (i, r) in f.records.iter_mut().enumerate() {
        (r.source, r.seq) = ((i / 12) as u32, (i % 12) as u64);
        r.trace = offset_trace(&r.trace, i as f64 * 1e6);
    }
    f.records[0].trace = densify(&f.records[0].trace, 400);
    f.records[12].trace = densify(&f.records[12].trace, 400);
    let (first, second) = f.records.split_at(12);
    let dir = wal_dir("flush-concurrent");
    let store = base_store(&f);
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        lingering(&dir, 3),
        Arc::clone(&metrics),
    )
    .unwrap();
    let (bytes_a, bytes_b) = (framed(first), framed(second));
    std::thread::scope(|scope| {
        let a = scope.spawn(|| ingestor.ingest_reader(&bytes_a[..]));
        let b = scope.spawn(|| ingestor.ingest_reader(&bytes_b[..]));
        assert_eq!(a.join().unwrap().accepted, 12);
        assert_eq!(b.join().unwrap().accepted, 12);
    });
    wait_for("the two deliveries are not visible", || {
        resolved(&metrics) == 24
            && store.load().trajs().len() as u64 == metrics.records_matched.load(Ordering::Relaxed)
    });
    let matched = metrics.records_matched.load(Ordering::Relaxed);
    ingestor.finish();

    let end_time = |r: &StreamRecord| r.trace.points().last().unwrap().t.to_bits();
    let position: std::collections::HashMap<u64, (usize, usize)> = [first, second]
        .iter()
        .enumerate()
        .flat_map(|(d, records)| {
            records
                .iter()
                .enumerate()
                .map(move |(i, r)| (end_time(r), (d, i)))
        })
        .collect();
    assert_eq!(position.len(), 24, "end times tell the records apart");
    let log = netclus_ingest::read_wal(&dir).unwrap();
    let mut published: [Vec<usize>; 2] = Default::default();
    for t in log.batches.iter().flat_map(|b| &b.add_times) {
        let (d, i) = position[&t.to_bits()];
        published[d].push(i);
    }
    assert_eq!((published[0].len() + published[1].len()) as u64, matched);
    for (d, order) in published.iter().enumerate() {
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "delivery {d} published out of its order: {order:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash after a flushed delivery: the delivery is durable, records
/// submitted after it are still lingering and die with the process, and
/// recovery lands on the exact pre-crash epoch, corpus and answers.
#[test]
fn abort_after_a_flushed_delivery_recovers_the_exact_state() {
    let f = fixture(43, 24);
    let store = base_store(&f);
    let dir = wal_dir("flush-crash");
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Ingestor::start_with_sink(
        store.clone(),
        Arc::clone(&f.grid),
        IngestConfig {
            ttl_s: Some(600.0),
            ..lingering(&dir, 2)
        },
        Arc::clone(&metrics),
    )
    .unwrap();
    let (delivered, submitted) = f.records.split_at(16);
    assert_eq!(ingestor.ingest_reader(&framed(delivered)[..]).accepted, 16);
    wait_for("the delivery is not visible", || store.epoch() >= 1);
    for r in submitted {
        ingestor.submit(r.clone());
    }
    wait_for("the submitted records are not all resolved", || {
        resolved(&metrics) == 24
    });
    ingestor.abort();

    let pre_epoch = store.epoch();
    let pre_corpus = corpus_of(&store);
    assert_eq!(pre_epoch, 1, "the submitted records were still lingering");
    assert!(!pre_corpus.is_empty());
    let (recovered, report) = recover_store(
        f.net.clone(),
        TrajectorySet::for_network(&f.net),
        f.index.clone(),
        &dir,
        None,
    )
    .unwrap();
    assert_eq!(report.epoch, pre_epoch);
    assert!(!report.truncated_tail);
    assert_eq!(corpus_of(&recovered), pre_corpus);
    assert_eq!(query_panel(&recovered), query_panel(&store));
    std::fs::remove_dir_all(&dir).unwrap();
}
