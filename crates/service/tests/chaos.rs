//! Chaos suite for the fault-tolerant sharded serving path (PR 8).
//!
//! Three layers, all driving the production `ShardRouter::query` path
//! with deterministic seeded [`FaultPlan`]s:
//!
//! 1. **Property chaos** — random fault plans (delays, injected errors,
//!    worker panics, dropped replies; always-on and windowed) over 2- and
//!    4-shard routers. Invariants: no query ever hangs, every failure is
//!    a *typed* `QueryError`, epochs never tear, and every full
//!    (non-degraded, non-stale) answer is **bit-identical** to an
//!    uncached fault-free reference router — chaos may degrade answers
//!    but must never silently corrupt one.
//! 2. **Deterministic end-to-end arc** — the acceptance scenario: 1 of 4
//!    shards scripted to fail; the router keeps answering degraded with
//!    a conservative utility lower bound (`bound ≤ true ratio ≤ 1`), the
//!    breaker opens then half-open-probes closed after recovery, no
//!    query blocks past its deadline, and a panicked worker never wedges
//!    a gather.
//! 3. **SLO smoke** — the `router_degraded_rate` burn-rate rule over the
//!    flight-recorder series the router exports: the health verdict
//!    degrades under a scripted outage and recovers after it clears.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_roadnet::{NodeId, Point, RegionPartition, RoadNetwork, RoadNetworkBuilder};
use netclus_service::{
    BreakerConfig, BreakerState, FaultAction, FaultPlan, FaultRule, FlightConfig, FlightRecorder,
    HealthEvaluator, QueryError, QueryOptions, Severity, ShardRouter, ShardRouterConfig, SloRule,
    UpdateOp, Verdict,
};
use netclus_trajectory::{Trajectory, TrajectorySet};
use proptest::prelude::*;

/// Injected worker panics are part of the plan, not test failures — keep
/// their backtraces out of the test output while still printing real
/// ones. Installed once per process; delegates anything else.
fn silence_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected panic"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// `regions` far-separated 12-node corridors with region-confined walks.
fn fixture(
    regions: usize,
) -> (
    Arc<RoadNetwork>,
    TrajectorySet,
    Vec<NodeId>,
    RegionPartition,
) {
    let mut b = RoadNetworkBuilder::new();
    for region in 0..regions {
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
    for region in 0..regions as u32 {
        let base = region * 12;
        // Region sizes differ so missing shards carry different mass.
        for s in 0..(3 + region % 3) {
            trajs.add(Trajectory::new(
                (base + s..base + s + 6).map(NodeId).collect(),
            ));
        }
    }
    let sites: Vec<NodeId> = net.nodes().collect();
    let partition = RegionPartition::build(&net, regions);
    (net, trajs, sites, partition)
}

fn start_router(regions: usize, cfg: ShardRouterConfig) -> ShardRouter {
    let (net, trajs, sites, partition) = fixture(regions);
    let netclus_cfg = NetClusConfig {
        tau_min: 200.0,
        tau_max: 3_000.0,
        threads: 1,
        ..Default::default()
    };
    let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, netclus_cfg);
    ShardRouter::start(net, sharded, cfg).expect("start router")
}

/// Same corpus behind `replicas` bit-identical replica transports per
/// shard (PR 10's replica sets).
fn start_replicated_router(regions: usize, replicas: usize, cfg: ShardRouterConfig) -> ShardRouter {
    let (net, trajs, sites, partition) = fixture(regions);
    let netclus_cfg = NetClusConfig {
        tau_min: 200.0,
        tau_max: 3_000.0,
        threads: 1,
        ..Default::default()
    };
    let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, netclus_cfg);
    ShardRouter::start_replicated(net, sharded, replicas, cfg).expect("start replicated router")
}

/// The dashboard-shaped query stream every test replays.
const QUERIES: [(usize, f64); 6] = [
    (1, 400.0),
    (2, 800.0),
    (3, 600.0),
    (2, 800.0),
    (4, 1_200.0),
    (1, 1_000.0),
];

/// One randomized injection rule: `(shard, action, probability bucket,
/// windowed flag, window start, window length)`.
type RuleSpec = (u32, u8, u8, u8, u64, u64);

fn build_plan(seed: u64, shards: u32, specs: &[RuleSpec], replica: Option<u32>) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for &(shard, action, prob, windowed, from, len) in specs {
        let action = match action % 4 {
            0 => FaultAction::Delay(Duration::from_millis(2)),
            1 => FaultAction::Error,
            2 => FaultAction::Panic,
            _ => FaultAction::Drop,
        };
        plan = plan.with_rule(FaultRule {
            shard: shard % shards,
            replica,
            action,
            probability: [0.0, 0.5, 1.0][(prob % 3) as usize],
            window: (windowed == 1).then_some((from, from + len)),
        });
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fault plans: queries always terminate with either an
    /// answer or a typed error, full answers stay bit-exact against a
    /// fault-free uncached reference, degraded answers carry a sound
    /// conservative bound, and epochs never tear.
    #[test]
    fn random_fault_plans_never_hang_and_full_answers_stay_exact(
        shards in prop_oneof![Just(2usize), Just(4usize)],
        seed in any::<u64>(),
        specs in prop::collection::vec(
            (0u32..4, 0u8..4, 0u8..3, 0u8..2, 0u64..4, 1u64..4),
            0..4,
        ),
    ) {
        silence_injected_panics();
        let router = start_router(shards, ShardRouterConfig::default());
        let reference = start_router(shards, ShardRouterConfig::uncached());
        router.set_fault_plan(Some(build_plan(seed, shards as u32, &specs, None)));

        for (i, &(k, tau)) in QUERIES.iter().enumerate() {
            let q = TopsQuery::binary(k, tau);
            // Generous deadline on odd queries: injected 2 ms delays must
            // never trip it, so timeouts cannot mask the exactness check.
            let opts = if i % 2 == 1 {
                QueryOptions::with_deadline(Duration::from_secs(30))
            } else {
                QueryOptions::default()
            };
            match router.query(q, &opts) {
                Ok(answer) => {
                    prop_assert_eq!(answer.epoch, 0, "epoch must never tear");
                    prop_assert!(
                        (0.0..=1.0).contains(&answer.utility_bound),
                        "bound out of range: {}",
                        answer.utility_bound
                    );
                    let full = reference.query_blocking(q).expect("reference query");
                    if !answer.degraded && !answer.stale {
                        prop_assert!(answer.shards_missing.is_empty());
                        prop_assert_eq!(answer.utility_bound, 1.0);
                        prop_assert_eq!(&answer.sites, &full.sites, "k={} τ={}", k, tau);
                        prop_assert_eq!(
                            answer.utility.to_bits(),
                            full.utility.to_bits(),
                            "full answers must stay bit-identical under chaos"
                        );
                    } else if !answer.stale {
                        prop_assert!(!answer.shards_missing.is_empty());
                        if full.utility > 0.0 {
                            let true_ratio = answer.utility / full.utility;
                            prop_assert!(
                                answer.utility_bound <= true_ratio + 1e-9,
                                "bound {} must not exceed true ratio {}",
                                answer.utility_bound,
                                true_ratio
                            );
                        }
                    }
                }
                // The only residual failures, both typed.
                Err(QueryError::DeadlineExceeded { .. }) | Err(QueryError::Unavailable { .. }) => {}
                Err(QueryError::Submit(e)) => panic!("unexpected submit failure: {e:?}"),
            }
        }

        let fault = router.fault_report();
        prop_assert!(fault.breaker_open_shards <= shards as u64);
        prop_assert!(fault.worker_respawns <= fault.worker_panics);
        router.shutdown();
        reference.shutdown();
    }

    /// Replica sets change the contract: random chaos confined to ONE
    /// replica per shard (replica 0 — delays, errors, panics, drops) must
    /// never degrade an answer at all. Every query returns full and
    /// bit-identical to the unreplicated fault-free reference, and the
    /// kills surface as replica failovers, not degraded merges.
    #[test]
    fn single_replica_chaos_never_degrades_an_answer(
        shards in prop_oneof![Just(2usize), Just(4usize)],
        seed in any::<u64>(),
        specs in prop::collection::vec(
            (0u32..4, 0u8..4, 0u8..3, 0u8..2, 0u64..4, 1u64..4),
            0..4,
        ),
    ) {
        silence_injected_panics();
        let router = start_replicated_router(shards, 2, ShardRouterConfig::default());
        let reference = start_router(shards, ShardRouterConfig::uncached());
        // Random rules all scoped to replica 0, plus one guaranteed
        // hard-kill of shard 0's preferred replica so at least one real
        // failover happens every case.
        let plan = build_plan(seed, shards as u32, &specs, Some(0))
            .with_rule(FaultRule::always(0, FaultAction::Error).on_replica(0));
        router.set_fault_plan(Some(plan));

        for &(k, tau) in QUERIES.iter() {
            let q = TopsQuery::binary(k, tau);
            let answer = router
                .query(q, &QueryOptions::default())
                .expect("a live sibling per shard means no typed failures");
            prop_assert!(
                !answer.degraded && !answer.stale,
                "single-replica chaos must never degrade: k={} τ={}",
                k,
                tau
            );
            prop_assert_eq!(answer.epoch, 0);
            prop_assert_eq!(answer.utility_bound, 1.0);
            let full = reference.query_blocking(q).expect("reference query");
            prop_assert_eq!(&answer.sites, &full.sites, "k={} τ={}", k, tau);
            prop_assert_eq!(
                answer.utility.to_bits(),
                full.utility.to_bits(),
                "failover answers must stay bit-identical"
            );
        }

        let fault = router.fault_report();
        prop_assert_eq!(fault.degraded_answers, 0);
        prop_assert_eq!(fault.stale_answers, 0);
        prop_assert_eq!(fault.unavailable_answers, 0);
        prop_assert!(fault.replica_failovers >= 1, "{:?}", fault);
        router.shutdown();
        reference.shutdown();
    }
}

/// Starts a recovery phase: clears the fault plan, then waits until the
/// next query is certain to find every open breaker past its cooldown.
///
/// With the plan cleared no new failure can open a breaker, but a
/// half-open probe scripted to fail may still be in flight — the worker
/// that ran it settles it, possibly after the query that sent it returned
/// — and re-opens its breaker *then*, restarting the cooldown. A fixed
/// sleep measured from the clear races that settle on a loaded host, so
/// poll (generously bounded) until no breaker is half-open, and only then
/// wait one cooldown out.
fn clear_plan_and_wait_out_cooldown(router: &ShardRouter, cooldown: Duration) {
    router.set_fault_plan(None);
    let probing = || {
        (0..router.shard_count()).any(|s| {
            router
                .replica_breaker_snapshots(s)
                .iter()
                .any(|b| b.state == BreakerState::HalfOpen)
        })
    };
    let until = Instant::now() + Duration::from_secs(5);
    while probing() && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(cooldown + Duration::from_millis(10));
}

/// The acceptance arc, scripted end to end: 1-of-4-shards outage →
/// degraded answers with a sound bound → breaker opens and skips → a
/// deadline bounds the wait under a slow shard → a panicked worker is
/// survived → recovery closes the breaker through a half-open probe and
/// answers go back to bit-exact.
#[test]
fn one_of_four_shards_outage_arc_degrades_brakes_and_recovers() {
    silence_injected_panics();
    let router = start_router(
        4,
        ShardRouterConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(50),
            },
            ..Default::default()
        },
    );
    let reference = start_router(4, ShardRouterConfig::uncached());
    let q = TopsQuery::binary(3, 800.0);
    let full = reference.query_blocking(q).expect("reference answer");

    // Phase 0 — healthy: bit-exact, bound trivially 1.
    let healthy = router.query_blocking(q).expect("healthy answer");
    assert!(!healthy.degraded && !healthy.stale);
    assert_eq!(healthy.sites, full.sites);
    assert_eq!(healthy.utility.to_bits(), full.utility.to_bits());
    assert_eq!(healthy.utility_bound, 1.0);

    // Phase 1 — shard 3 hard-fails: answers degrade with a sound bound;
    // after `failure_threshold` failures the breaker opens and the third
    // query skips the shard without even scattering to it.
    router.set_fault_plan(Some(
        FaultPlan::new(7).with_rule(FaultRule::always(3, FaultAction::Error)),
    ));
    for _ in 0..3 {
        let a = router.query_blocking(q).expect("degraded answer");
        assert!(a.degraded && !a.stale);
        assert_eq!(a.shards_missing, vec![3]);
        let true_ratio = a.utility / full.utility;
        assert!(
            a.utility_bound <= true_ratio + 1e-9 && true_ratio <= 1.0 + 1e-9,
            "bound {} vs true ratio {true_ratio}",
            a.utility_bound
        );
        assert!(a.utility_bound > 0.0, "survivors carry utility");
    }
    let fault = router.fault_report();
    assert_eq!(fault.degraded_answers, 3);
    assert!(fault.breaker_opens >= 1, "breaker must have opened");
    assert!(fault.breaker_skips >= 1, "open breaker must skip the shard");
    assert_eq!(fault.breaker_open_shards, 1);
    let snaps = router.breaker_snapshots();
    assert_eq!(snaps[3].state, BreakerState::Open);

    // Phase 2 — a slow shard under a deadline: the budget bounds the
    // wait well under the injected delay and the answer still arrives,
    // degraded, from the surviving shards. The budget is wide enough that
    // the healthy shards and the merge make it on a loaded two-core host;
    // the slow shard is 3× beyond it.
    router.set_fault_plan(Some(
        FaultPlan::new(7)
            .with_rule(FaultRule::always(3, FaultAction::Error))
            .with_rule(FaultRule::always(
                1,
                FaultAction::Delay(Duration::from_millis(1_500)),
            )),
    ));
    let begin = Instant::now();
    let a = router
        .query(q, &QueryOptions::with_deadline(Duration::from_millis(500)))
        .expect("deadline-bounded degraded answer");
    let elapsed = begin.elapsed();
    assert!(
        elapsed < Duration::from_millis(1_500),
        "deadline must bound the wait, took {elapsed:?}"
    );
    assert!(a.degraded);
    assert!(a.shards_missing.contains(&1), "slow shard timed out");
    assert!(a.shards_missing.contains(&3), "open breaker still skipped");
    assert!(router.fault_report().shard_timeouts >= 1);

    // Phase 3 — a worker panic mid-gather: the reply is typed, the
    // gather completes degraded, and the supervisor respawns the worker.
    router.set_fault_plan(Some(
        FaultPlan::new(7)
            .with_rule(FaultRule::outage(2, FaultAction::Panic, 0, u64::MAX))
            .with_rule(FaultRule::always(3, FaultAction::Error)),
    ));
    let a = router.query_blocking(q).expect("gather survives the panic");
    assert!(a.degraded);
    assert!(a.shards_missing.contains(&2), "panicked shard is missing");
    let until = Instant::now() + Duration::from_secs(5);
    while router.fault_report().worker_respawns < 1 && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
    }
    let fault = router.fault_report();
    assert!(fault.worker_panics >= 1, "panic must be counted");
    assert!(fault.worker_respawns >= 1, "pool must respawn");

    // Phase 4 — recovery: the plan clears, the cooldown elapses, and the
    // next query half-open-probes shard 3 back to closed. Answers return
    // to bit-exact against the fault-free reference.
    clear_plan_and_wait_out_cooldown(&router, Duration::from_millis(50));
    let recovered = router.query_blocking(q).expect("recovered answer");
    assert!(!recovered.degraded && !recovered.stale);
    assert_eq!(recovered.sites, full.sites);
    assert_eq!(recovered.utility.to_bits(), full.utility.to_bits());
    let fault = router.fault_report();
    assert!(fault.breaker_probes >= 1, "recovery goes through a probe");
    assert!(
        fault.breaker_closes >= 1,
        "probe success closes the breaker"
    );
    assert_eq!(fault.breaker_open_shards, 0);
    for snap in router.breaker_snapshots() {
        assert_eq!(snap.state, BreakerState::Closed);
    }
    router.shutdown();
    reference.shutdown();
}

/// The PR 10 acceptance arc over replica sets, scripted end to end:
/// killing one replica of EVERY shard never costs a single full answer
/// (failover, not degradation), epoch-lockstep updates keep flowing to
/// the survivors with zero replica lag, only losing a shard's *whole*
/// replica set opens the degraded lane with its conservative bound, and
/// after the outage clears the answers return to bit-exact.
#[test]
fn replica_kill_arc_fails_over_then_only_full_set_loss_degrades() {
    silence_injected_panics();
    let router = start_replicated_router(
        4,
        2,
        ShardRouterConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(50),
            },
            ..Default::default()
        },
    );
    let reference = start_router(4, ShardRouterConfig::uncached());
    let q = TopsQuery::binary(3, 800.0);
    let full = reference.query_blocking(q).expect("reference answer");

    // Phase 0 — healthy: bit-exact through the replica sets.
    let healthy = router.query_blocking(q).expect("healthy answer");
    assert!(!healthy.degraded && !healthy.stale);
    assert_eq!(healthy.sites, full.sites);
    assert_eq!(healthy.utility.to_bits(), full.utility.to_bits());

    // Phase 1 — kill the preferred replica (0) of EVERY shard: each lane
    // fails over to its sibling and every answer stays full + bit-exact.
    let kill_preferred = || {
        let mut plan = FaultPlan::new(13);
        for s in 0..4 {
            plan = plan.with_rule(FaultRule::always(s, FaultAction::Error).on_replica(0));
        }
        plan
    };
    router.set_fault_plan(Some(kill_preferred()));
    for _ in 0..3 {
        let a = router.query_blocking(q).expect("failover answer");
        assert!(!a.degraded && !a.stale, "a live sibling means no degrade");
        assert_eq!(a.sites, full.sites);
        assert_eq!(a.utility.to_bits(), full.utility.to_bits());
    }
    let fault = router.fault_report();
    assert_eq!(fault.degraded_answers, 0);
    assert!(fault.replica_failovers >= 4, "one per shard: {fault:?}");

    // Phase 2 — updates keep flowing mid-outage: the apply fan-out
    // reaches BOTH replicas of every shard (round-1 faults don't touch
    // the apply path), so the lockstep epoch advances with zero lag and
    // answers at the new epoch stay bit-exact.
    let batch = vec![UpdateOp::AddTrajectory(Trajectory::new(
        (0..5).map(NodeId).collect(),
    ))];
    let receipt = router.apply_updates(batch.clone());
    assert_eq!(receipt.epoch, 1);
    assert_eq!(router.replica_lag_max(), 0, "lockstep spans the outage");
    let r2 = reference.apply_updates(batch);
    assert_eq!(r2.epoch, 1);
    let fresh_full = reference.query_blocking(q).expect("reference at epoch 1");
    let fresh = router
        .query_blocking(q)
        .expect("failover answer at epoch 1");
    assert!(!fresh.degraded);
    assert_eq!(fresh.epoch, 1);
    assert_eq!(fresh.sites, fresh_full.sites);
    assert_eq!(fresh.utility.to_bits(), fresh_full.utility.to_bits());

    // Phase 3 — shard 2 loses its LAST replica too: only now does the
    // PR 8 degraded lane open, with the sound conservative bound.
    router.set_fault_plan(Some(
        kill_preferred().with_rule(FaultRule::always(2, FaultAction::Error).on_replica(1)),
    ));
    let degraded = router.query_blocking(q).expect("degraded answer");
    assert!(degraded.degraded && !degraded.stale);
    assert_eq!(degraded.shards_missing, vec![2]);
    let true_ratio = degraded.utility / fresh_full.utility;
    assert!(
        degraded.utility_bound <= true_ratio + 1e-9 && true_ratio <= 1.0 + 1e-9,
        "bound {} vs true ratio {true_ratio}",
        degraded.utility_bound
    );
    assert_eq!(router.fault_report().degraded_answers, 1);

    // Phase 4 — the killed replicas come back: the plan clears, the
    // breaker cooldown elapses, and answers return to full + bit-exact
    // with zero further degraded answers.
    clear_plan_and_wait_out_cooldown(&router, Duration::from_millis(50));
    let recovered = router.query_blocking(q).expect("recovered answer");
    assert!(!recovered.degraded && !recovered.stale);
    assert_eq!(recovered.sites, fresh_full.sites);
    assert_eq!(recovered.utility.to_bits(), fresh_full.utility.to_bits());
    assert_eq!(router.fault_report().degraded_answers, 1, "no new degrades");
    router.shutdown();
    reference.shutdown();
}

/// Degraded-mode SLO smoke: the `router_degraded_rate` burn-rate rule
/// over the router's own flight series (`degraded_answers` /
/// `completed`) fires during a scripted outage and recovers once the
/// fast window is clean again.
#[test]
fn router_degraded_rate_slo_burns_and_recovers() {
    silence_injected_panics();
    // A short breaker cooldown so the recovery phase can re-admit the
    // failed shard through a probe right after the plan clears.
    let router = start_router(
        2,
        ShardRouterConfig {
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(10),
            },
            ..Default::default()
        },
    );
    let recorder = FlightRecorder::new(FlightConfig {
        tick: Duration::from_secs(1),
        capacity: 512,
        downsample_every: 8,
        coarse_capacity: 64,
    });
    let health = HealthEvaluator::new().with_rule(SloRule::burn_rate(
        "router_degraded_rate",
        "degraded_answers",
        "completed",
        0.10,
        3.0,
        10.0,
        2.0,
        Severity::Degrading,
    ));
    let q = TopsQuery::binary(2, 800.0);
    let tick = |t: u64| recorder.record_at(t as f64, &router.flight_sample());

    // Healthy baseline: real traffic, zero degraded answers.
    for t in 0..6 {
        router.query_blocking(q).expect("healthy query");
        tick(t);
    }
    let report = health.evaluate(&recorder);
    assert_eq!(report.verdict, Verdict::Healthy, "baseline must be healthy");

    // Outage: shard 1 hard-fails, every answer degrades; the burn rate
    // saturates both windows and the verdict degrades with the rule as
    // the named cause.
    router.set_fault_plan(Some(
        FaultPlan::new(3).with_rule(FaultRule::always(1, FaultAction::Error)),
    ));
    for t in 6..18 {
        let a = router.query_blocking(q).expect("degraded query");
        assert!(a.degraded);
        tick(t);
    }
    let report = health.evaluate(&recorder);
    assert_eq!(
        report.verdict,
        Verdict::Degraded,
        "outage must fire the SLO"
    );
    assert_eq!(report.firing(), vec!["router_degraded_rate"]);

    // Recovery: the plan clears, the breaker cooldown elapses so the
    // first recovered query probes the shard closed, healthy traffic
    // resumes, and the fast window recovering un-fires the conjunction.
    clear_plan_and_wait_out_cooldown(&router, Duration::from_millis(10));
    for t in 18..30 {
        let a = router.query_blocking(q).expect("recovered query");
        assert!(!a.degraded);
        tick(t);
    }
    let report = health.evaluate(&recorder);
    assert_eq!(report.verdict, Verdict::Healthy, "SLO must recover");
    router.shutdown();
}
