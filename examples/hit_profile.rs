//! What a result-cache hit costs, on one thread and on two at once.
//!
//! A hit is the whole of a hot query: `NetClusService::query` finds the
//! shape's solve in the result cache and hands out the answer for the
//! requested `k`, cut from that solve. It reads shutdown and the live
//! epoch from atomics, probes one stripe of the result cache and records
//! its counters and histograms in per-thread stripes, so two clients
//! hitting at once should each pay about what one pays alone. This probe
//! builds the benchmark's city, warms a service on a set of shapes (one
//! `k = 20` solve per `(τ, ψ)`, then every `k ≤ 20` once, so each answer is
//! made before timing), and prints, per run,
//!
//! * `threads` — clients hitting at once (1, then 2);
//! * `p50` / `p95` — per-hit latency, nanoseconds, over every client;
//! * `hits/s` — hits per second over all clients.
//!
//! The `2 / 1` line divides the two-client run by the one-client run:
//! p50 (about 1 when the clients share no line) and hits/s (about 2 when
//! the host runs both clients at once; about 1 means they took turns on
//! one core, and the p50 ratio then says nothing about contention). Every
//! timed run must leave the solve count unchanged (all hits), and sampled
//! answers are compared with a fresh `NetClusIndex::query` at the same
//! `k`: sites, utility bits and coverage. In-process timings on a shared
//! host move between runs; compare commits on the benchmark.
//!
//! Run with:
//! ```text
//! cargo run --release --example hit_profile [-- --scale 0.25]
//! ```

use std::sync::Barrier;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_datagen::{beijing_like, ScenarioConfig};
use netclus_service::{NetClusService, ServiceConfig, ServiceRequest};

/// Timed hits per client per run.
const HITS: usize = 200_000;
const MAX_K: usize = 20;

/// The probe's shapes, the benchmark's hot mix: 24 τ × 3 ψ, each asked
/// at `k = 1..=MAX_K`.
fn shapes() -> Vec<TopsQuery> {
    let psis = [
        PreferenceFunction::Binary,
        PreferenceFunction::LinearDecay,
        PreferenceFunction::ConvexProbability { alpha: 2.0 },
    ];
    let mut shapes = Vec::new();
    for tau in (0..24).map(|t| 450.0 + 115.0 * f64::from(t)) {
        for preference in psis {
            shapes.push(TopsQuery {
                k: MAX_K,
                tau,
                preference,
            });
        }
    }
    shapes
}

/// The `i`-th query of client `client` of `clients`: a shape from its
/// share — every `clients`-th — and a k, drawn by a fixed hash of `i`.
/// Two clients never ask for one answer at once, so what they share is
/// what the service shares.
fn nth(shapes: &[TopsQuery], client: usize, clients: usize, i: usize) -> TopsQuery {
    let own = shapes.len() / clients;
    let draw = (i as u64 ^ (client as u64) << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    let pick = draw as usize % (own * MAX_K);
    TopsQuery {
        k: 1 + pick / own,
        ..shapes[pick % own * clients + client]
    }
}

/// `HITS` timed hits on `clients` threads at once: every latency, and the
/// wall time from the common start to the last client's finish.
fn run(service: &NetClusService, shapes: &[TopsQuery], clients: usize) -> (Vec<u64>, Duration) {
    let start = Barrier::new(clients + 1);
    let (samples, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let start = &start;
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(HITS);
                    start.wait();
                    for i in 0..HITS {
                        let request = ServiceRequest::greedy(nth(shapes, client, clients, i));
                        let t = Instant::now();
                        let answer = service.query(request).expect("answered");
                        samples.push(t.elapsed().as_nanos() as u64);
                        drop(answer);
                    }
                    samples
                })
            })
            .collect();
        start.wait();
        let began = Instant::now();
        let samples: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client panicked"))
            .collect();
        (samples, began.elapsed())
    });
    (samples, wall)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let mut scale = 0.25;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a number");
            }
            other => panic!("unknown argument {other}; usage: hit_profile [--scale S]"),
        }
    }

    // The benchmark's city, index configuration and service.
    let scenario = beijing_like(&ScenarioConfig::with_scale(scale));
    println!("dataset : {}", scenario.summary());
    let index = NetClusIndex::build(
        &scenario.net,
        &scenario.trajectories,
        &scenario.sites,
        NetClusConfig {
            tau_min: 400.0,
            tau_max: 3_200.0,
            threads: 2,
            ..Default::default()
        },
    );
    let service = NetClusService::start(
        scenario.net,
        scenario.trajectories,
        index,
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("start service");

    // One solve per shape, then every smaller k once: each answer is made.
    let shapes = shapes();
    for shape in &shapes {
        for k in (1..=MAX_K).rev() {
            let q = TopsQuery { k, ..*shape };
            service.query(ServiceRequest::greedy(q)).expect("warm");
        }
    }
    let solves = service.metrics_report().batches;
    assert_eq!(solves as usize, shapes.len(), "one solve per shape");

    // Sampled answers against the bare library at the served epoch.
    let snap = service.snapshot();
    for i in (0..shapes.len() * MAX_K).step_by(5) {
        let q = nth(&shapes, 0, 1, i);
        let served = service.query(ServiceRequest::greedy(q)).expect("hit");
        let fresh = snap.index().query(snap.trajs(), &q).solution;
        assert_eq!(served.sites, fresh.sites, "{q:?}: sites");
        assert_eq!(served.utility.to_bits(), fresh.utility.to_bits(), "{q:?}");
        assert_eq!(served.covered, fresh.covered, "{q:?}: covered");
    }

    println!("threads  p50 ns  p95 ns      hits/s");
    let mut runs = Vec::new();
    for clients in [1, 2] {
        let (mut samples, wall) = run(&service, &shapes, clients);
        samples.sort_unstable();
        let (p50, p95) = (percentile(&samples, 0.50), percentile(&samples, 0.95));
        let rate = samples.len() as f64 / wall.as_secs_f64();
        println!("{clients:>7} {p50:>7} {p95:>7} {rate:>11.0}");
        runs.push((p50 as f64, rate));
        let report = service.metrics_report();
        assert_eq!(report.batches, solves, "a timed query solved: not a hit");
    }
    let (one, two) = (runs[0], runs[1]);
    println!(
        "2 / 1   {:>7.2} {:>19.2}",
        two.0 / one.0.max(1.0),
        two.1 / one.1
    );
    service.shutdown();
}
