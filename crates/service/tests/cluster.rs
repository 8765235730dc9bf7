//! The cross-process serving contract (PR 9), over real loopback TCP.
//!
//! Three layers:
//!
//! 1. **Equivalence** — a proptest that a router scattered over remote
//!    [`ShardServer`]s (framed TCP, the server's own provider/memo
//!    caches) answers **bit-identically** to the in-process router on
//!    the same corpus, for shard counts 1, 2 and 4, across interleaved
//!    update batches applied through the epoch-lockstep `Apply` RPC.
//! 2. **Socket chaos** — scripted server-side fault windows (stall a
//!    reply past the io deadline, corrupt a frame's CRC, slam the
//!    connection shut, inject a typed error) plus a hard server
//!    shutdown mid-stream. Every query terminates promptly with either
//!    a full bit-exact answer or a degraded one carrying a sound
//!    conservative utility bound; failures surface only through the
//!    typed [`ShardFailure`](netclus_service::ShardFailure) taxonomy.
//!    With two replicas per shard, a preferred replica that is merely
//!    *slow* is hedged onto its sibling and the answer stays full.
//! 3. **Frame corruption** — any byte truncation or flip of a valid
//!    shard-protocol frame decodes to a typed error (io or
//!    [`WireError`](netclus_service::shard_proto::WireError)), never a
//!    panic or a hang; flips that touch the CRC or payload bytes are
//!    *guaranteed* to be rejected by the CRC check.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus::shard::Candidate;
use netclus_roadnet::{NodeId, Point, RegionPartition, RoadNetwork, RoadNetworkBuilder};
use netclus_service::framing::{read_frame, write_frame};
use netclus_service::shard_proto::{
    round1_request, Request, RespError, Response, SHARD_PROTOCOL_VERSION,
};
use netclus_service::trace::Round1Source;
use netclus_service::wire::MAX_FRAME;
use netclus_service::{
    BreakerConfig, FaultAction, FaultPlan, FaultRule, RemoteShardConfig, RoutedOp, ShardRouter,
    ShardRouterConfig, ShardServer, ShardServerConfig, SnapshotStore, UpdateOp,
};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};
use proptest::prelude::*;

/// Splits a sharded index into per-shard [`ShardServer`]s listening on
/// loopback, returning the servers, their addresses (shard order) and
/// the partition the remote router routes by.
fn spawn_cluster(
    net: &Arc<RoadNetwork>,
    sharded: ShardedNetClusIndex,
    cfg_for: impl Fn(u32) -> ShardServerConfig,
) -> (Vec<ShardServer>, Vec<SocketAddr>, RegionPartition) {
    let (partition, views, _replication) = sharded.into_parts();
    let mut servers = Vec::with_capacity(views.len());
    let mut addrs = Vec::with_capacity(views.len());
    for view in views {
        let store = SnapshotStore::with_shared_net(Arc::clone(net), view.trajs, view.index);
        let server = ShardServer::start("127.0.0.1:0", view.id, store, cfg_for(view.id))
            .expect("start shard server");
        addrs.push(server.addr());
        servers.push(server);
    }
    (servers, addrs, partition)
}

// ---------------------------------------------------------------------------
// Layer 1: remote scatter-gather is bit-identical to in-process.
// ---------------------------------------------------------------------------

/// A region-confined walk: `(region, start, len)`.
type Walk = (usize, usize, usize);

/// A random multi-region instance with an update schedule (the
/// router-equivalence shape, kept small — every case spins real TCP
/// clusters for three shard counts).
#[derive(Clone, Debug)]
struct Instance {
    regions: usize,
    n: usize,
    walks: Vec<Walk>,
    /// Update phases: added walks plus whether to remove the oldest
    /// live trajectory first.
    phases: Vec<(Vec<Walk>, bool)>,
    taus: Vec<f64>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..=3, 6usize..10)
        .prop_flat_map(|(regions, n)| {
            let walk = (0..regions, 0..n.saturating_sub(2), 2usize..5);
            let walks = prop::collection::vec(walk.clone(), 2..6);
            let phase = (prop::collection::vec(walk, 1..3), any::<bool>());
            let phases = prop::collection::vec(phase, 1..3);
            let taus = prop::collection::vec((6u32..40).prop_map(|s| s as f64 * 50.0), 2);
            (Just(regions), Just(n), walks, phases, taus)
        })
        .prop_map(|(regions, n, walks, phases, taus)| Instance {
            regions,
            n,
            walks,
            phases,
            taus,
        })
}

/// `regions` identical two-way corridors 1000 km apart, so every corpus
/// built from region-confined walks respects a region-aligned partition.
fn build_net(inst: &Instance) -> (RoadNetwork, Vec<u32>) {
    let mut b = RoadNetworkBuilder::new();
    let mut region_of = Vec::new();
    for r in 0..inst.regions {
        let base = (r * inst.n) as u32;
        for i in 0..inst.n {
            b.add_node(Point::new(r as f64 * 1.0e6 + i as f64 * 90.0, 0.0));
            region_of.push(r as u32);
        }
        for i in 0..inst.n as u32 - 1 {
            b.add_two_way(NodeId(base + i), NodeId(base + i + 1), 90.0)
                .unwrap();
        }
    }
    (b.build().unwrap(), region_of)
}

fn walk_trajectory(inst: &Instance, (region, start, len): Walk) -> Trajectory {
    let base = region * inst.n;
    let end = (start + len).min(inst.n - 1);
    Trajectory::new(
        ((base + start) as u32..=(base + end) as u32)
            .map(NodeId)
            .collect(),
    )
}

fn netclus_config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 200.0,
        tau_max: 2_400.0,
        threads: 1,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For shard counts 1, 2 and 4 and across every epoch of a random
    /// update schedule, the remote-transport router (every shard a TCP
    /// server with its own caches) answers bit-identically to the
    /// in-process router on the same corpus, and the `Apply` RPC keeps
    /// remote epochs in lockstep with local ones.
    #[test]
    fn remote_router_is_bit_identical_to_in_process(inst in instance_strategy()) {
        let (net, region_of) = build_net(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let cfg = netclus_config();
        let queries: Vec<TopsQuery> = inst
            .taus
            .iter()
            .flat_map(|&tau| [4usize, 2, 6].map(|k| TopsQuery::binary(k, tau)))
            .collect();

        let mut trajs = TrajectorySet::for_network(&net);
        for &w in &inst.walks {
            trajs.add(walk_trajectory(&inst, w));
        }
        let batches: Vec<Vec<UpdateOp>> = inst
            .phases
            .iter()
            .map(|(adds, remove_first)| {
                let mut ops = Vec::new();
                if *remove_first {
                    ops.push(UpdateOp::RemoveTrajectory(TrajId(0)));
                }
                for &w in adds {
                    ops.push(UpdateOp::AddTrajectory(walk_trajectory(&inst, w)));
                }
                ops
            })
            .collect();

        let shared_net = Arc::new(net.clone());
        for shards in [1usize, 2, 4] {
            let assignment: Vec<u32> = region_of.iter().map(|&r| r % shards as u32).collect();
            let partition = RegionPartition::from_assignment(assignment, shards);
            let build = || ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg);

            let local = ShardRouter::start(
                Arc::clone(&shared_net),
                build(),
                ShardRouterConfig::default(),
            )
            .expect("start in-process router");
            let (mut servers, addrs, remote_partition) =
                spawn_cluster(&shared_net, build(), |_| ShardServerConfig::default());
            let remote = ShardRouter::connect(
                Arc::clone(&shared_net),
                remote_partition,
                &addrs,
                ShardRouterConfig::default(),
                RemoteShardConfig::default(),
            )
            .expect("connect remote router");
            prop_assert_eq!(remote.transport_kinds(), vec!["remote"; shards]);

            for epoch in 0..=batches.len() {
                if epoch > 0 {
                    let batch = &batches[epoch - 1];
                    let rl = local.apply_updates(batch.clone());
                    let rr = remote.apply_updates(batch.clone());
                    prop_assert_eq!(rl.epoch, epoch as u64, "local epoch");
                    prop_assert_eq!(rr.epoch, epoch as u64, "remote epoch lockstep");
                    prop_assert_eq!(
                        (rl.applied, rl.rejected),
                        (rr.applied, rr.rejected),
                        "apply outcomes must match"
                    );
                }
                for q in &queries {
                    let a = local.query_blocking(*q).expect("local answer");
                    let b = remote.query_blocking(*q).expect("remote answer");
                    prop_assert!(!b.degraded && !b.stale, "remote answer must be full");
                    prop_assert_eq!(b.epoch, epoch as u64, "remote answer epoch");
                    prop_assert_eq!(
                        &b.sites, &a.sites,
                        "remote vs in-process sites: shards={} epoch={} k={} tau={}",
                        shards, epoch, q.k, q.tau
                    );
                    prop_assert_eq!(
                        b.utility.to_bits(), a.utility.to_bits(),
                        "remote vs in-process utility: shards={} epoch={}", shards, epoch
                    );
                    prop_assert_eq!(b.covered, a.covered, "covered count");
                }
            }

            // The remote lanes really carried the traffic.
            let report = remote.metrics_report().shards.expect("shard section");
            prop_assert!(report.transport_requests > 0, "no RPCs recorded");
            prop_assert_eq!(report.transport_errors, 0, "healthy run must be error-free");
            for lane in &report.lanes {
                prop_assert_eq!(lane.transport, "remote");
            }
            remote.shutdown();
            local.shutdown();
            for server in &mut servers {
                server.shutdown();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 2: socket-level chaos against real shard servers.
// ---------------------------------------------------------------------------

/// Four far-separated corridors with region-confined walks of different
/// mass (so a missing shard changes the reachable utility).
fn chaos_fixture() -> (
    Arc<RoadNetwork>,
    TrajectorySet,
    Vec<NodeId>,
    RegionPartition,
) {
    let mut b = RoadNetworkBuilder::new();
    for region in 0..4 {
        let x0 = region as f64 * 1_000_000.0;
        let base = b.node_count() as u32;
        for i in 0..12 {
            b.add_node(Point::new(x0 + i as f64 * 100.0, 0.0));
        }
        for i in 0..11u32 {
            b.add_two_way(NodeId(base + i), NodeId(base + i + 1), 100.0)
                .unwrap();
        }
    }
    let net = Arc::new(b.build().unwrap());
    let mut trajs = TrajectorySet::for_network(&net);
    for region in 0..4u32 {
        let base = region * 12;
        for s in 0..(3 + region % 3) {
            trajs.add(Trajectory::new(
                (base + s..base + s + 6).map(NodeId).collect(),
            ));
        }
    }
    let sites: Vec<NodeId> = net.nodes().collect();
    let partition = RegionPartition::build(&net, 4);
    (net, trajs, sites, partition)
}

fn chaos_config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 200.0,
        tau_max: 3_000.0,
        threads: 1,
        ..Default::default()
    }
}

/// Scripted socket faults — a stalled reply, a corrupted frame, a
/// slammed connection, an injected error, and finally a hard server
/// shutdown — all map onto the typed failure taxonomy: the router keeps
/// answering (degraded, with a sound conservative bound) and recovers
/// to bit-exact answers once a window closes. No query ever hangs.
#[test]
fn socket_chaos_degrades_soundly_and_recovers() {
    let (net, trajs, sites, partition) = chaos_fixture();
    let build = || ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, chaos_config());

    // Fault-free in-process reference for exactness and bound checks.
    let reference = ShardRouter::start(Arc::clone(&net), build(), ShardRouterConfig::uncached())
        .expect("start reference");
    let q = TopsQuery::binary(3, 800.0);
    let full = reference.query_blocking(q).expect("reference answer");

    // Per-server scripted windows on the server-side round-1 sequence
    // counter (hellos and applies do not consume it): query 0 loses
    // shards 1 (stall → io timeout), 2 (CRC-corrupted frame) and 3
    // (slammed connection); query 1 loses only shard 3 (typed injected
    // error); query 2 is clean. The healthy shard has the whole read
    // deadline (3 s) to answer; the stall outlasts it by 2 s.
    let io_timeout = Duration::from_secs(3);
    let stall = io_timeout + Duration::from_secs(2);
    let plan_for = |shard: u32| -> Option<FaultPlan> {
        match shard {
            1 => Some(FaultPlan::new(9).with_rule(FaultRule::outage(
                1,
                FaultAction::Stall(stall),
                0,
                1,
            ))),
            2 => Some(FaultPlan::new(9).with_rule(FaultRule::outage(
                2,
                FaultAction::CorruptFrame,
                0,
                1,
            ))),
            3 => Some(
                FaultPlan::new(9)
                    .with_rule(FaultRule::outage(3, FaultAction::DropConnection, 0, 1))
                    .with_rule(FaultRule::outage(3, FaultAction::Error, 1, 2)),
            ),
            _ => None,
        }
    };
    let (mut servers, addrs, remote_partition) =
        spawn_cluster(&net, build(), |shard| ShardServerConfig {
            fault_plan: plan_for(shard),
            ..Default::default()
        });
    // Uncached router so every query scatters one round-1 RPC to every
    // shard (deterministic fault-window sequencing); breaker effectively
    // disabled — breaker behavior has its own suite, and open-breaker
    // skips would desync the scripted windows.
    let remote = ShardRouter::connect(
        Arc::clone(&net),
        remote_partition,
        &addrs,
        ShardRouterConfig {
            breaker: BreakerConfig {
                failure_threshold: 1_000,
                cooldown: Duration::from_millis(10),
            },
            ..ShardRouterConfig::uncached()
        },
        RemoteShardConfig { io_timeout },
    )
    .expect("connect remote router");

    let timed = |label: &str| {
        let begin = Instant::now();
        let answer = remote
            .query(q, &netclus_service::QueryOptions::default())
            .unwrap_or_else(|e| {
                panic!("{label}: query must not fail outright (survivors exist): {e:?}")
            });
        let elapsed = begin.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "{label}: query must never hang, took {elapsed:?}"
        );
        answer
    };
    let assert_sound_bound = |answer: &netclus_service::ShardedServiceAnswer, label: &str| {
        assert!(
            (0.0..=1.0).contains(&answer.utility_bound),
            "{label}: bound out of range: {}",
            answer.utility_bound
        );
        let true_ratio = answer.utility / full.utility;
        assert!(
            answer.utility_bound <= true_ratio + 1e-9,
            "{label}: bound {} exceeds true ratio {true_ratio}",
            answer.utility_bound
        );
        assert!(answer.utility_bound > 0.0, "{label}: survivors carry mass");
    };

    // Query 0 — three simultaneous socket faults, three distinct typed
    // classifications, one degraded answer from the surviving shard.
    let a = timed("three-fault scatter");
    assert!(a.degraded && !a.stale);
    assert_eq!(a.epoch, 0);
    assert_eq!(a.shards_missing, vec![1, 2, 3]);
    assert_sound_bound(&a, "three-fault scatter");

    // Let the stalled server thread unwind before the next scatter: it
    // counts its round 1 as served once the stall is over.
    let round1_served = |server: &ShardServer| {
        let sample = netclus_service::flatten_json(&server.metrics_json());
        sample
            .into_iter()
            .find(|(k, _)| k == "round1_served")
            .map(|(_, v)| v)
            .expect("round1_served in the shard metrics line")
    };
    let until = Instant::now() + stall + Duration::from_secs(10);
    while round1_served(&servers[1]) < 1.0 {
        assert!(Instant::now() < until, "stalled shard server never unwound");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Query 1 — shards 1 and 2 reconnect clean; shard 3's second window
    // injects a typed error.
    let a = timed("injected-error scatter");
    assert!(a.degraded && !a.stale);
    assert_eq!(a.shards_missing, vec![3]);
    assert_sound_bound(&a, "injected-error scatter");

    // Query 2 — all windows exhausted: full, bit-exact recovery.
    let a = timed("recovered scatter");
    assert!(!a.degraded && !a.stale, "missing: {:?}", a.shards_missing);
    assert_eq!(a.utility_bound, 1.0);
    assert_eq!(a.sites, full.sites);
    assert_eq!(a.utility.to_bits(), full.utility.to_bits());

    // Hard outage — shard 3's process goes away entirely; answers stay
    // available, degraded with a sound bound.
    servers[3].shutdown();
    let a = timed("process-outage scatter");
    assert!(a.degraded && !a.stale);
    assert!(a.shards_missing.contains(&3), "dead shard must be missing");
    assert_sound_bound(&a, "process-outage scatter");

    // The taxonomy and transport counters saw all of it.
    let report = remote.metrics_report().shards.expect("shard section");
    assert!(
        report.transport_errors >= 4,
        "stall+corrupt+slam+error+outage"
    );
    assert!(
        report.transport_reconnects >= 4,
        "per-lane hello + recoveries"
    );
    assert!(report.transport_requests > report.transport_errors);
    for lane in &report.lanes {
        assert_eq!(lane.transport, "remote");
    }
    let fault = remote.fault_report();
    assert!(fault.degraded_answers >= 3);
    assert!(
        fault.shard_timeouts >= 1,
        "the stall must read as a timeout"
    );
    assert!(fault.shard_failures >= 1);

    remote.shutdown();
    reference.shutdown();
    for server in &mut servers {
        server.shutdown();
    }
}

/// Hedged round 1 over real sockets: the preferred replica of shard 0
/// sits on every request longer than the hedge delay but well inside
/// `io_timeout` (slow, not failed), so the hedge wave asks its sibling,
/// the sibling's answer wins the lane, and the query stays full and
/// bit-exact. The stalled query is the router's first, so no earlier win
/// has moved a preferred-replica cursor off replica 0.
#[test]
fn hedge_over_sockets_beats_a_stalled_preferred_replica() {
    let (net, trajs, sites, partition) = chaos_fixture();
    let build = || ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, chaos_config());
    let reference = ShardRouter::start(Arc::clone(&net), build(), ShardRouterConfig::uncached())
        .expect("start reference");
    let q = TopsQuery::binary(3, 800.0);
    let full = reference.query_blocking(q).expect("reference answer");

    // Far above the 20 ms default hedge delay, far below the 5 s default
    // io timeout.
    let stall = Duration::from_millis(500);
    assert!(stall < RemoteShardConfig::default().io_timeout);
    let (mut preferred, preferred_addrs, remote_partition) =
        spawn_cluster(&net, build(), |shard| ShardServerConfig {
            fault_plan: (shard == 0).then(|| {
                FaultPlan::new(9).with_rule(FaultRule::always(0, FaultAction::Stall(stall)))
            }),
            ..Default::default()
        });
    let (mut siblings, sibling_addrs, _) =
        spawn_cluster(&net, build(), |_| ShardServerConfig::default());
    let addr_sets: Vec<Vec<SocketAddr>> = preferred_addrs
        .iter()
        .zip(&sibling_addrs)
        .map(|(&a, &b)| vec![a, b])
        .collect();
    let remote = ShardRouter::connect_replicated(
        Arc::clone(&net),
        remote_partition,
        &addr_sets,
        ShardRouterConfig::default(),
        RemoteShardConfig::default(),
    )
    .expect("connect replicated remote router");
    assert_eq!(remote.replica_counts(), vec![2; 4]);

    let a = remote.query_blocking(q).expect("hedged answer");
    assert!(!a.degraded && !a.stale, "missing: {:?}", a.shards_missing);
    assert_eq!(a.sites, full.sites);
    assert_eq!(a.utility.to_bits(), full.utility.to_bits());
    let fault = remote.fault_report();
    assert!(fault.hedged_requests >= 1, "{fault:?}");
    assert!(fault.hedge_wins >= 1, "{fault:?}");
    assert_eq!(fault.degraded_answers, 0, "{fault:?}");

    remote.shutdown();
    reference.shutdown();
    for server in preferred.iter_mut().chain(&mut siblings) {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Layer 3: frame truncation/corruption is always a typed rejection.
// ---------------------------------------------------------------------------

/// Valid framed messages covering every request and response shape
/// (fixed-width fields, length-prefixed vectors, strings, coverage
/// rows), as `(is_request, framed bytes)`.
fn sample_frames() -> Vec<(bool, Vec<u8>)> {
    let round = netclus::shard::ShardRoundOne {
        // The v2 row layout in each of its shapes: a row, an empty row,
        // a longer row (an id run, then a detour run).
        candidates: vec![
            Candidate::from_pairs(NodeId(3), 1, 4.25, vec![(2, 150.0), (5, 600.5)]),
            Candidate::from_pairs(NodeId(8), 1, 0.5, vec![]),
            Candidate::from_pairs(NodeId(4), 2, 0.25, vec![(0, 1.0), (1, 2.5), (7, 9.0)]),
        ],
        k: 3,
        instance: 0,
        representatives: 4,
        local_utility: 5.0,
        elapsed: Duration::from_micros(77),
        solve_us: 41,
        shard_hint: 2,
    };
    let requests = [
        Request::Hello {
            version: SHARD_PROTOCOL_VERSION,
            shard: 2,
        },
        round1_request(1, &TopsQuery::binary(4, 1_200.0)),
        Request::Apply {
            ops: vec![
                RoutedOp::AddTrajectoryAt(
                    TrajId(9),
                    Trajectory::new(vec![NodeId(0), NodeId(1), NodeId(2)]),
                ),
                RoutedOp::RemoveTrajectory(TrajId(4)),
            ],
        },
        Request::Shutdown,
    ];
    let responses = [
        Response::HelloAck {
            version: SHARD_PROTOCOL_VERSION,
            shard: 2,
            epoch: 5,
            traj_id_bound: 120,
            live_trajs: 80,
        },
        // A memo hit's reply: a prefix sharing the longer round's block.
        Response::Round1Ok {
            epoch: 5,
            bound: 120,
            source: Round1Source::Memo,
            round: round.prefix(2),
        },
        Response::Round1Ok {
            epoch: 5,
            bound: 120,
            source: Round1Source::Built,
            round,
        },
        Response::ApplyAck {
            epoch: 6,
            results: vec![true, false, true],
        },
        Response::ResyncChunk {
            epoch: 6,
            total_len: 10,
            data: vec![1, 2, 3, 4],
        },
        Response::Error(RespError::Injected),
    ];
    let mut frames = Vec::new();
    for (is_request, payload) in requests
        .iter()
        .map(|r| (true, r.encode()))
        .chain(responses.iter().map(|r| (false, r.encode())))
    {
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("frame");
        frames.push((is_request, framed));
    }
    frames
}

/// Every prefix of every valid frame reads as a typed io error or a
/// clean EOF — never a payload, never a panic, never a blocked read.
#[test]
fn every_frame_truncation_is_rejected() {
    for (_, frame) in sample_frames() {
        for cut in 0..frame.len() {
            let mut r = &frame[..cut];
            if let Ok(Some(_)) = read_frame(&mut r, MAX_FRAME) {
                panic!("truncated frame yielded a payload (cut {cut})");
            }
        }
    }
}

/// Below the frame: every prefix of every valid payload, and every
/// payload with one byte flipped, decodes to a message or a typed error
/// — never a panic — and a truncated payload never decodes at all (a
/// length prefix is checked against the bytes left before it is
/// believed, so a v2 row cannot run into its neighbour).
#[test]
fn every_payload_truncation_and_flip_fails_closed() {
    for (is_request, frame) in sample_frames() {
        let payload = &frame[8..];
        let decodes = |bytes: &[u8]| {
            if is_request {
                Request::decode(bytes).is_ok()
            } else {
                Response::decode(bytes).is_ok()
            }
        };
        assert!(decodes(payload));
        for cut in 0..payload.len() {
            assert!(!decodes(&payload[..cut]), "cut {cut} decoded");
        }
        for pos in 0..payload.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut mutated = payload.to_vec();
                mutated[pos] ^= mask;
                let _ = decodes(&mutated); // Ok or Err; reaching here is the point
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any single-byte corruption of a valid frame is rejected without a
    /// panic: flips at or past the CRC field are *guaranteed* to fail
    /// the checksum, and a length-field flip that still yields a payload
    /// must fail typed message decoding (the decoder never panics).
    #[test]
    fn any_frame_corruption_decodes_to_a_typed_error(
        pick in any::<usize>(),
        pos_pick in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let frames = sample_frames();
        let (is_request, frame) = &frames[pick % frames.len()];
        let pos = pos_pick % frame.len();
        let mut mutated = frame.clone();
        mutated[pos] ^= mask;

        let mut r = &mutated[..];
        match read_frame(&mut r, MAX_FRAME) {
            Err(_) | Ok(None) => {}
            Ok(Some(payload)) => {
                // The CRC covers bytes 4.. — a flip there can never
                // survive the check. Only a length-field flip (pos < 4)
                // may still produce a payload, and then the message
                // decoder must reject it typed.
                prop_assert!(pos < 4, "CRC accepted a corrupted frame (pos {})", pos);
                let rejected = if *is_request {
                    Request::decode(&payload).is_err()
                } else {
                    Response::decode(&payload).is_err()
                };
                prop_assert!(rejected, "corrupted payload decoded to a message");
            }
        }
    }
}
