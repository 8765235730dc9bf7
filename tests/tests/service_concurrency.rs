//! Snapshot-consistency under concurrency: many query threads race a
//! writer publishing update batches; every answer must be internally
//! consistent with exactly one published epoch — never a torn mix of two.
//!
//! The check works because [`netclus_service::ServiceAnswer`] carries three
//! values read from the *same* pinned snapshot — `epoch`, `corpus_len`
//! and `site_count` — and the writer records the true `(corpus_len,
//! site_count)` pair of every epoch it publishes. The update batches are
//! constructed so that **every epoch has a distinct pair**; an answer
//! assembled from two different epochs (index of one, corpus of another)
//! would therefore produce a pair that was never published.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_datagen::{grid_city, GridCityConfig};
use netclus_roadnet::NodeId;
use netclus_service::{NetClusService, ServiceConfig, ServiceRequest, UpdateOp};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn build_service() -> NetClusService {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let city = grid_city(
        &GridCityConfig {
            rows: 8,
            cols: 8,
            spacing_m: 150.0,
            jitter: 0.1,
            removal_fraction: 0.0,
        },
        &mut rng,
    );
    let net = city.net;
    let mut trajs = TrajectorySet::for_network(&net);
    let n = net.node_count() as u32;
    for s in 0..40u32 {
        let a = (s * 7) % n;
        let b = (s * 13 + 5) % n;
        if a != b {
            // Straight-line node pairs are not paths; use per-node stubs.
            trajs.add(Trajectory::new(vec![NodeId(a)]));
            trajs.add(Trajectory::new(vec![NodeId(b)]));
        }
    }
    let sites: Vec<NodeId> = net.nodes().collect();
    let index = NetClusIndex::build(
        &net,
        &trajs,
        &sites,
        NetClusConfig {
            tau_min: 300.0,
            tau_max: 2_400.0,
            threads: 1,
            ..Default::default()
        },
    );
    NetClusService::start(
        net,
        trajs,
        index,
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            ..Default::default()
        },
    )
    .expect("start service")
}

#[test]
fn concurrent_queries_see_exactly_one_published_epoch() {
    let service = Arc::new(build_service());
    // epoch → (corpus_len, site_count); distinct per epoch by construction.
    let history: Arc<Mutex<HashMap<u64, (usize, usize)>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let snap = service.snapshot();
        history.lock().unwrap().insert(
            snap.epoch(),
            (snap.trajs().len(), snap.index().site_count()),
        );
    }
    let writer_done = Arc::new(AtomicBool::new(false));
    // The newest epoch any collected answer came from.
    let answered = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // Writer: publish 12 batches; each adds trajectories AND removes a
        // site, so both components change every epoch.
        {
            let service = Arc::clone(&service);
            let history = Arc::clone(&history);
            let writer_done = Arc::clone(&writer_done);
            let answered = Arc::clone(&answered);
            scope.spawn(move || {
                for round in 0..12u32 {
                    let mut batch: Vec<UpdateOp> = (0..3)
                        .map(|i| {
                            UpdateOp::AddTrajectory(Trajectory::new(vec![NodeId(
                                (round * 3 + i) % 64,
                            )]))
                        })
                        .collect();
                    batch.push(UpdateOp::RemoveSite(NodeId(round)));
                    if round % 4 == 3 {
                        batch.push(UpdateOp::RemoveTrajectory(TrajId(round)));
                    }
                    let receipt = service.apply_updates(batch);
                    let snap = service.snapshot();
                    assert_eq!(snap.epoch(), receipt.epoch, "single writer");
                    history.lock().unwrap().insert(
                        snap.epoch(),
                        (snap.trajs().len(), snap.index().site_count()),
                    );
                    // Publish the next epoch only once this one has
                    // served an answer (bounded at 5 s), so answers span
                    // every epoch by construction, not by timing.
                    let give_up = Instant::now() + Duration::from_secs(5);
                    while answered.load(Ordering::Acquire) < receipt.epoch
                        && Instant::now() < give_up
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                writer_done.store(true, Ordering::Release);
            });
        }

        // Query threads: mixed parameters with heavy repetition (cache
        // food), racing the writer the whole time.
        let mut collectors = Vec::new();
        for t in 0..4u64 {
            let service = Arc::clone(&service);
            let writer_done = Arc::clone(&writer_done);
            let answered = Arc::clone(&answered);
            collectors.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                let mut answers = Vec::new();
                while !writer_done.load(Ordering::Acquire) || answers.len() < 50 {
                    let k = [1usize, 2, 3][rng.random_range(0usize..3)];
                    let tau = [400.0f64, 600.0, 900.0][rng.random_range(0usize..3)];
                    let req = ServiceRequest::greedy(TopsQuery::binary(k, tau));
                    if let Some(answer) = service.query_blocking(req) {
                        answered.fetch_max(answer.epoch, Ordering::Release);
                        answers.push(answer);
                    }
                    if answers.len() > 5_000 {
                        break; // safety valve
                    }
                }
                answers
            }));
        }

        let history_now = history;
        let mut all = Vec::new();
        for c in collectors {
            all.extend(c.join().expect("query thread panicked"));
        }
        let history = history_now.lock().unwrap();

        // Sanity: distinct pairs per epoch, otherwise the check is vacuous.
        let mut pairs: Vec<_> = history.values().collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), history.len(), "epochs must be distinguishable");

        let mut violations = 0usize;
        let mut epochs_seen = std::collections::BTreeSet::new();
        for answer in &all {
            epochs_seen.insert(answer.epoch);
            match history.get(&answer.epoch) {
                Some(&(corpus, sites)) => {
                    if answer.corpus_len != corpus || answer.site_count != sites {
                        violations += 1;
                    }
                }
                None => violations += 1,
            }
        }
        assert_eq!(
            violations,
            0,
            "torn reads detected across {} answers",
            all.len()
        );
        assert!(all.len() >= 200, "too few answers: {}", all.len());
        assert!(
            epochs_seen.len() >= 2,
            "answers never spanned an epoch advance: {epochs_seen:?}"
        );
    });

    let report = service.metrics_report();
    assert_eq!(
        report.completed, report.submitted,
        "every admitted request completes"
    );
    assert!(report.cache.hits > 0, "repetitive mix must hit the cache");
    assert_eq!(report.epoch_advances, 12);
    service.shutdown();
}

#[test]
fn cache_is_invalidated_on_epoch_advance_under_load() {
    let service = build_service();
    let q = TopsQuery::binary(2, 600.0);
    let a = service.query_blocking(ServiceRequest::greedy(q)).unwrap();
    let b = service.query_blocking(ServiceRequest::greedy(q)).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "same epoch answers must be shared");

    service.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(vec![
        NodeId(10),
    ]))]);
    let c = service.query_blocking(ServiceRequest::greedy(q)).unwrap();
    assert!(
        !Arc::ptr_eq(&a, &c),
        "stale answer served after epoch advance"
    );
    assert_eq!(c.epoch, 1);
    assert_eq!(c.corpus_len, a.corpus_len + 1);
    let stats = service.metrics_report().cache;
    assert!(
        stats.invalidated > 0,
        "epoch advance must purge stale entries"
    );
    service.shutdown();
}
