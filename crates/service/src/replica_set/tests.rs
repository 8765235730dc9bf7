//! The `#[cfg(test)] mod tests` of `replica_set.rs`, in a file of its own
//! so that the state machine's file holds no clock read at all: the one
//! below is the origin every scripted instant is an offset from.
//!
//! The gather's rules, enumerated without a thread, a socket or a wait:
//! replica states go through [`Gather::plan`], then every order of
//! replies, the hedge wave and either ending is replayed and checked
//! against the rules in the module docs.

use std::time::{Duration, Instant};

use netclus::shard::ShardRoundOne;
use netclus::TopsQuery;

use super::*;
use crate::fault::BreakerState;
use crate::shard_router::{Round1Ctx, ShardApplyOutcome};
use crate::snapshot::RoutedOp;
use crate::trace::Round1Source;

/// The lockstep epoch of every scripted query.
const EPOCH: u64 = 7;
const COOLDOWN: Duration = Duration::from_secs(10);
const HEDGE_DELAY: Duration = Duration::from_millis(10);
const BUDGET: Duration = Duration::from_millis(100);
const BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 3,
    cooldown: COOLDOWN,
};

/// A replica the gather only ever asks for its epoch.
struct Stub(u64);

impl ShardTransport for Stub {
    fn kind(&self) -> &'static str {
        "stub"
    }
    fn round1(&self, _: &TopsQuery, _: &mut Round1Ctx<'_>) -> Result<Round1Ok, ShardFailure> {
        unreachable!("a gather never runs a transport")
    }
    fn apply(&self, _: &[RoutedOp]) -> Result<ShardApplyOutcome, ShardFailure> {
        unreachable!("a gather never applies")
    }
    fn epoch(&self) -> u64 {
        self.0
    }
}

/// What a replica's breaker says at scatter time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Admit {
    Yes,
    Probe,
    Skip,
}

/// One replica at scatter time: its breaker, and whether it missed an
/// apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Replica {
    admit: Admit,
    lagging: bool,
}

const fn replica(admit: Admit, lagging: bool) -> Replica {
    Replica { admit, lagging }
}

/// All six replica states.
const REPLICAS: [Replica; 6] = [
    replica(Admit::Yes, false),
    replica(Admit::Yes, true),
    replica(Admit::Probe, false),
    replica(Admit::Probe, true),
    replica(Admit::Skip, false),
    replica(Admit::Skip, true),
];

/// How a fired attempt on a replica ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ends {
    OkNow,
    OkStale,
    Injected,
    TimedOut,
    Never,
}

const ENDS: [Ends; 5] = [
    Ends::OkNow,
    Ends::OkStale,
    Ends::Injected,
    Ends::TimedOut,
    Ends::Never,
];

impl Ends {
    fn reply(self) -> Result<Round1Ok, ShardFailure> {
        let ok = |epoch| {
            Ok(Round1Ok {
                epoch,
                bound: 0,
                source: Round1Source::Memo,
                round: ShardRoundOne {
                    candidates: Vec::new(),
                    k: 0,
                    instance: 0,
                    representatives: 0,
                    local_utility: 0.0,
                    elapsed: Duration::ZERO,
                    solve_us: 0,
                    shard_hint: 0,
                },
            })
        };
        match self {
            Ends::OkNow => ok(EPOCH),
            Ends::OkStale => ok(EPOCH - 1),
            Ends::Injected => Err(ShardFailure::Injected),
            Ends::TimedOut => Err(ShardFailure::TimedOut),
            Ends::Never => unreachable!("an attempt that never answers has no reply"),
        }
    }
}

/// A set of stubs in the given states as of `t0`.
fn set_of(states: &[Replica], t0: Instant) -> ReplicaSet {
    let transports = states
        .iter()
        .map(|r| Box::new(Stub(EPOCH - u64::from(r.lagging))) as Box<dyn ShardTransport>)
        .collect();
    let mut set = ReplicaSet::new(transports, BREAKER);
    reset(&mut set, states, t0);
    set
}

/// Puts the set back to its scatter-time state: fresh breakers, tripped
/// long ago (`Probe`: cooled down at `t0`) or just now (`Skip`), and the
/// cursor on replica 0.
fn reset(set: &mut ReplicaSet, states: &[Replica], t0: Instant) {
    set.cursor.store(0, Ordering::Relaxed);
    for (breaker, state) in set.breakers.iter_mut().zip(states) {
        *breaker = CircuitBreaker::new(BREAKER);
        let since = match state.admit {
            Admit::Yes => continue,
            Admit::Probe => t0 - COOLDOWN,
            Admit::Skip => t0,
        };
        for _ in 0..BREAKER.failure_threshold {
            breaker.record_failure(since, false);
        }
    }
}

/// One event the driver can hand the gather.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Reply(u32, u32),
    Hedge,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cause {
    Scatter,
    Hedge,
    Failover,
}

/// What a path has fired and delivered so far.
#[derive(Default)]
struct Trail {
    fired: Vec<(Attempt, Cause)>,
    /// `(shard, replica)` of every reply handed to the gather, in order.
    delivered: Vec<(u32, u32)>,
}

/// A scripted query over two shards of two replicas.
struct Script {
    states: [[Replica; 2]; 2],
    ends: [[Ends; 2]; 2],
    /// The wait ends at the round-1 budget (the query has a deadline) or,
    /// without one, when every reply sender is gone.
    timed_out: bool,
}

fn counter(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Replays `script` along `choices` (extended with first choices to a
/// full path), checking every rule at every step. Returns how many steps
/// were enabled at each depth.
fn run_path(
    script: &Script,
    sets: &mut [ReplicaSet],
    t0: Instant,
    choices: &mut Vec<usize>,
) -> Vec<usize> {
    for (set, states) in sets.iter_mut().zip(&script.states) {
        reset(set, states, t0);
    }
    let sets = &*sets;
    let faults = FaultCounters::default();
    let deadline = script.timed_out.then(|| t0 + BUDGET);
    let mut gather = Gather::plan(sets, &faults, EPOCH, t0, deadline, HEDGE_DELAY);
    // Admission is the last time this gather may touch a probing or a
    // skipped replica's breaker.
    let admitted: Vec<Vec<_>> = sets
        .iter()
        .map(|set| set.breaker_snapshots().collect())
        .collect();
    let mut trail = Trail::default();
    trail
        .fired
        .extend(gather.scattered().map(|a| (a, Cause::Scatter)));
    check_plan(script, &gather, &trail.fired, &faults);

    let mut resolved: [Option<bool>; 2] = [None; 2];
    let mut arities = Vec::new();
    let mut now = t0;
    loop {
        check_step(script, &gather, &trail, &mut resolved, deadline);
        if gather.done() {
            break;
        }
        let mut enabled: Vec<Step> = trail
            .fired
            .iter()
            .map(|(a, _)| (a.shard, a.replica))
            .filter(|at| !trail.delivered.contains(at))
            .filter(|&(s, r)| script.ends[s as usize][r as usize] != Ends::Never)
            .map(|(s, r)| Step::Reply(s, r))
            .collect();
        if gather.hedge_at.is_some() && gather.has_unfired_backups() {
            enabled.push(Step::Hedge);
        }
        if enabled.is_empty() {
            break;
        }
        let depth = arities.len();
        arities.push(enabled.len());
        if choices.len() == depth {
            choices.push(0);
        }
        now += Duration::from_micros(1);
        match enabled[choices[depth]] {
            Step::Hedge => {
                let mut early = |_| -> bool { panic!("a hedge fired before its delay") };
                assert!(!gather.on_hedge_due(now, &mut early));
                now = now.max(t0 + HEDGE_DELAY);
                let mut fire = |a| {
                    trail.fired.push((a, Cause::Hedge));
                    true
                };
                assert!(gather.on_hedge_due(now, &mut fire));
                assert!(!gather.on_hedge_due(now, &mut fire), "one wave a query");
            }
            Step::Reply(s, r) => {
                trail.delivered.push((s, r));
                let mut fire = |a| {
                    trail.fired.push((a, Cause::Failover));
                    true
                };
                let end = script.ends[s as usize][r as usize];
                gather.on_reply(s, r, end.reply(), now, &mut fire);
            }
        }
    }
    let unresolved: Vec<bool> = gather.lanes.iter().map(|l| l.outcome.is_none()).collect();
    let results: Vec<_> = gather.finish(script.timed_out, now).collect();
    check_end(
        script,
        sets,
        &faults,
        &admitted,
        &trail,
        &unresolved,
        &results,
    );
    arities
}

/// What `plan` fired, against the replica walk of the module docs.
fn check_plan(
    script: &Script,
    gather: &Gather<'_>,
    fired: &[(Attempt, Cause)],
    faults: &FaultCounters,
) {
    let mut skipped = 0;
    for (s, states) in script.states.iter().enumerate() {
        let of_shard: Vec<Attempt> = fired
            .iter()
            .map(|(a, _)| *a)
            .filter(|a| a.shard as usize == s)
            .collect();
        // Every half-open replica probes; nobody else does.
        for (r, state) in states.iter().enumerate() {
            let probes = of_shard
                .iter()
                .filter(|a| a.probe && a.replica as usize == r);
            assert_eq!(probes.count(), usize::from(state.admit == Admit::Probe));
        }
        // One primary: the first caught-up closed replica, else the first
        // lagging closed one; it is fired first.
        let closed = |lagging| {
            states
                .iter()
                .position(|r| r.admit == Admit::Yes && r.lagging == lagging)
        };
        let primary = closed(false).or_else(|| closed(true));
        let plain: Vec<_> = of_shard.iter().filter(|a| !a.probe).collect();
        assert_eq!(plain.len(), usize::from(primary.is_some()));
        if let Some(p) = primary {
            assert_eq!(
                (of_shard[0].replica as usize, of_shard[0].probe),
                (p, false)
            );
        }
        // The other closed replicas wait as backups.
        let lane = &gather.lanes[s];
        let yes = states.iter().filter(|r| r.admit == Admit::Yes).count();
        assert_eq!(lane.backups.len(), yes.saturating_sub(1));
        if of_shard.is_empty() {
            skipped += 1;
            assert_eq!(
                lane.outcome.as_ref().unwrap().as_ref().err(),
                Some(&ShardFailure::BreakerOpen)
            );
        } else {
            assert!(lane.outcome.is_none());
        }
    }
    assert_eq!(counter(&faults.breaker_skips), skipped);
}

/// The rules that hold between any two events.
fn check_step(
    script: &Script,
    gather: &Gather<'_>,
    trail: &Trail,
    resolved: &mut [Option<bool>; 2],
    deadline: Option<Instant>,
) {
    let Trail { fired, delivered } = trail;
    let mut pending = 0;
    for (s, lane) in gather.lanes.iter().enumerate() {
        let states = &script.states[s];
        let now_resolved = lane.outcome.as_ref().map(Result::is_ok);
        // A shard resolves once, and its verdict stands.
        if resolved[s].is_some() {
            assert_eq!(now_resolved, resolved[s], "shard {s} resolved twice");
        }
        resolved[s] = now_resolved;
        pending += usize::from(now_resolved.is_none());
        let attempts: Vec<&Attempt> = fired
            .iter()
            .map(|(a, _)| a)
            .filter(|a| a.shard as usize == s)
            .collect();
        // Each replica is tried at most once, a skipped one never, and
        // only the scatter probes.
        for (i, a) in attempts.iter().enumerate() {
            assert!(attempts[..i].iter().all(|b| b.replica != a.replica));
            assert_ne!(states[a.replica as usize].admit, Admit::Skip);
            assert_eq!(a.probe, states[a.replica as usize].admit == Admit::Probe);
        }
        match &lane.outcome {
            // Only an answer at the lockstep epoch resolves a shard Ok.
            Some(Ok(ok)) => assert_eq!(ok.epoch, EPOCH),
            // Before the wait ends a shard fails only once every replica
            // its breakers admitted was tried and has answered.
            Some(Err(_)) => {
                let admitted = states.iter().filter(|r| r.admit != Admit::Skip).count();
                assert_eq!(attempts.len(), admitted);
                assert!(attempts
                    .iter()
                    .all(|a| delivered.contains(&(a.shard, a.replica))));
                assert!(lane.backups.is_empty());
            }
            None => {}
        }
    }
    assert_eq!(gather.done(), pending == 0);
    // Wake-ups: the budget if there is one, the hedge delay only while a
    // hedge could still fire.
    let hedge = gather.hedge_at.filter(|_| gather.has_unfired_backups());
    assert_eq!(
        gather.next_wakeup(),
        [deadline, hedge].into_iter().flatten().min()
    );
}

/// What the whole path charged, resolved and counted.
fn check_end(
    script: &Script,
    sets: &[ReplicaSet],
    faults: &FaultCounters,
    admitted: &[Vec<BreakerSnapshot>],
    trail: &Trail,
    unresolved: &[bool],
    results: &[Result<Round1Ok, ShardFailure>],
) {
    let Trail { fired, delivered } = trail;
    assert_eq!(results.len(), 2);
    let ends = |a: &Attempt| script.ends[a.shard as usize][a.replica as usize];
    let heard = |a: &Attempt| delivered.contains(&(a.shard, a.replica));
    let late = if script.timed_out {
        ShardFailure::TimedOut
    } else {
        ShardFailure::Dropped
    };
    let (mut timeouts, mut failures, mut hedge_wins) = (0, 0, 0);
    for (s, set) in sets.iter().enumerate() {
        // The winner is the first answer at the lockstep epoch; only it
        // moves the cursor, and only it reaches the merge.
        let winner = delivered
            .iter()
            .find(|&&(ds, r)| ds as usize == s && script.ends[s][r as usize] == Ends::OkNow);
        match (&results[s], winner) {
            (Ok(ok), Some(&(_, r))) => {
                assert_eq!(ok.epoch, EPOCH);
                assert_eq!(set.preferred().0, r);
                let cause = fired
                    .iter()
                    .find(|(a, _)| (a.shard as usize, a.replica) == (s, r))
                    .unwrap()
                    .1;
                hedge_wins += u64::from(cause == Cause::Hedge);
            }
            (Err(failure), None) => {
                assert_eq!(set.preferred().0, 0, "the cursor moved without a win");
                if unresolved[s] {
                    assert_eq!(*failure, late);
                }
            }
            (result, winner) => panic!("shard {s}: {result:?} with winner {winner:?}"),
        }
        for (r, now) in set.breaker_snapshots().enumerate() {
            let attempt = fired
                .iter()
                .map(|(a, _)| a)
                .find(|a| (a.shard as usize, a.replica as usize) == (s, r));
            // What the gather owes this attempt: a failed reply always
            // counts; silence counts only if the shard was still waiting.
            let charged = attempt.is_some_and(|a| match (heard(a), ends(a)) {
                (true, Ends::OkNow) => false,
                (true, _) => true,
                (false, _) => unresolved[s],
            });
            if let Some(a) = attempt.filter(|_| charged) {
                let timed_out = if heard(a) {
                    ends(a) == Ends::TimedOut
                } else {
                    script.timed_out
                };
                if timed_out {
                    timeouts += 1
                } else {
                    failures += 1
                }
            }
            let before = &admitted[s][r];
            match script.states[s][r].admit {
                // A closed breaker hears of its attempt exactly once.
                Admit::Yes => {
                    assert_eq!(now.state, BreakerState::Closed);
                    assert_eq!(
                        now.consecutive_failures,
                        u32::from(charged),
                        "shard {s} replica {r}"
                    );
                }
                // A probe is its worker's to settle; a skipped replica is
                // nobody's.
                Admit::Probe | Admit::Skip => {
                    let left_alone = (before.state, before.opens, before.probes, before.closes);
                    assert_eq!(
                        (now.state, now.opens, now.probes, now.closes),
                        left_alone,
                        "shard {s} replica {r}"
                    );
                }
            }
        }
    }
    assert_eq!(counter(&faults.shard_timeouts), timeouts);
    assert_eq!(counter(&faults.shard_failures), failures);
    let caused = |c| fired.iter().filter(|(_, cause)| *cause == c).count() as u64;
    assert_eq!(counter(&faults.hedged_requests), caused(Cause::Hedge));
    assert_eq!(counter(&faults.replica_failovers), caused(Cause::Failover));
    assert_eq!(counter(&faults.hedge_wins), hedge_wins);
    assert!(hedge_wins <= caused(Cause::Hedge));
}

/// Every path of `script`, depth first; returns how many there were.
fn explore(script: &Script, t0: Instant) -> usize {
    let mut sets = script.states.map(|states| set_of(&states, t0));
    let sets = &mut sets;
    let mut choices = Vec::new();
    let mut paths = 0;
    loop {
        let arities = run_path(script, sets, t0, &mut choices);
        paths += 1;
        loop {
            match choices.pop() {
                None => return paths,
                Some(c) if c + 1 < arities[choices.len()] => {
                    choices.push(c + 1);
                    break;
                }
                Some(_) => {}
            }
        }
    }
}

/// Shard states and attempt ends worth pairing with a fully enumerated
/// sibling: lanes meet only in the pending count, the hedge wave, the
/// question of unfired backups and `finish`.
const COMPANIONS: [([Replica; 2], [Ends; 2]); 4] = [
    // Healthy, with a backup it never needs.
    ([REPLICAS[0], REPLICAS[0]], [Ends::OkNow, Ends::OkNow]),
    // A silent primary: only the hedge gets an answer.
    ([REPLICAS[0], REPLICAS[0]], [Ends::Never, Ends::OkNow]),
    // Fails at once with nobody to fail over to.
    ([REPLICAS[0], REPLICAS[4]], [Ends::Injected, Ends::Never]),
    // Skipped by its breakers.
    ([REPLICAS[4], REPLICAS[4]], [Ends::Never, Ends::Never]),
];

#[test]
fn every_plan_every_reply_order_and_every_ending_keeps_the_rules() {
    let t0 = Instant::now() + 2 * COOLDOWN;
    let mut paths = 0;
    for a in REPLICAS {
        for b in REPLICAS {
            for end_a in ENDS {
                for end_b in ENDS {
                    // A skipped replica is never fired: its end is moot.
                    if (a.admit == Admit::Skip && end_a != Ends::Never)
                        || (b.admit == Admit::Skip && end_b != Ends::Never)
                    {
                        continue;
                    }
                    for (i, (states, ends)) in COMPANIONS.iter().enumerate() {
                        // The enumerated shard takes either seat.
                        let (states, ends) = if i % 2 == 0 {
                            ([[a, b], *states], [[end_a, end_b], *ends])
                        } else {
                            ([*states, [a, b]], [*ends, [end_a, end_b]])
                        };
                        for timed_out in [false, true] {
                            let script = Script {
                                states,
                                ends,
                                timed_out,
                            };
                            paths += explore(&script, t0);
                        }
                    }
                }
            }
        }
    }
    assert!(paths >= 10_000, "only {paths} event sequences");
}

/// Every admission × lag combination of both shards goes through `plan`.
#[test]
fn every_breaker_and_lag_combination_plans_by_the_walk() {
    let t0 = Instant::now() + 2 * COOLDOWN;
    for a in REPLICAS {
        for b in REPLICAS {
            for c in REPLICAS {
                for d in REPLICAS {
                    let script = Script {
                        states: [[a, b], [c, d]],
                        ends: [[Ends::Never; 2]; 2],
                        timed_out: true,
                    };
                    let mut sets = script.states.map(|states| set_of(&states, t0));
                    run_path(&script, &mut sets, t0, &mut Vec::new());
                }
            }
        }
    }
}

/// With three replicas the walk starts at the cursor, the lagging
/// replica goes last, and a second failure fails over again.
#[test]
fn lagging_replicas_hedge_last_and_the_walk_starts_at_the_cursor() {
    let t0 = Instant::now() + 2 * COOLDOWN;
    let states = [REPLICAS[1], REPLICAS[0], REPLICAS[0]];
    let sets = [set_of(&states, t0)];
    sets[0].cursor.store(2, Ordering::Relaxed);
    let faults = FaultCounters::default();
    let mut gather = Gather::plan(&sets, &faults, EPOCH, t0, None, HEDGE_DELAY);
    let scattered: Vec<_> = gather.scattered().collect();
    assert_eq!(scattered, [Attempt::plain(0, 2)]);
    assert_eq!(gather.lanes[0].backups, [1, 0]);
    let mut fired = Vec::new();
    let mut fire = |a: Attempt| {
        fired.push(a.replica);
        true
    };
    gather.on_reply(0, 2, Err(ShardFailure::Injected), t0, &mut fire);
    gather.on_reply(0, 1, Err(ShardFailure::Injected), t0, &mut fire);
    assert!(!gather.done());
    // The lagging replica answers at its own epoch: the shard is lost to
    // epoch skew, not torn.
    gather.on_reply(0, 0, Ends::OkStale.reply(), t0, &mut fire);
    assert_eq!(fired, [1, 0]);
    assert_eq!(counter(&faults.replica_failovers), 2);
    let results: Vec<_> = gather.finish(false, t0).collect();
    assert_eq!(results[0].as_ref().err(), Some(&ShardFailure::EpochSkew));
    assert_eq!(sets[0].preferred().0, 2);
}

/// A pool that takes nothing (it is shutting down) ends the shard's
/// chances: no hedge or failover is counted and the shard resolves on
/// what was already in flight.
#[test]
fn a_refusing_pool_drops_the_backups() {
    let t0 = Instant::now() + 2 * COOLDOWN;
    let sets = [set_of(&[REPLICAS[0]; 2], t0), set_of(&[REPLICAS[0]; 2], t0)];
    let faults = FaultCounters::default();
    let mut gather = Gather::plan(&sets, &faults, EPOCH, t0, None, HEDGE_DELAY);
    assert_eq!(gather.next_wakeup(), Some(t0 + HEDGE_DELAY));
    let mut refuse = |_| false;
    assert!(gather.on_hedge_due(t0 + HEDGE_DELAY, &mut refuse));
    assert!(!gather.has_unfired_backups());
    assert_eq!(gather.next_wakeup(), None);
    gather.on_reply(1, 0, Err(ShardFailure::Injected), t0, &mut refuse);
    assert!(!gather.done() && gather.lanes[1].outcome.is_some());
    assert_eq!(
        counter(&faults.hedged_requests) + counter(&faults.replica_failovers),
        0
    );
    let results: Vec<_> = gather.finish(false, t0).collect();
    assert_eq!(results[0].as_ref().err(), Some(&ShardFailure::Dropped));
    assert_eq!(results[1].as_ref().err(), Some(&ShardFailure::Injected));
}

/// The worker's half of `charge`: it settles probes — closing on an
/// answer, re-opening otherwise — counts nothing, and leaves every other
/// attempt to its gather.
#[test]
fn a_probe_is_settled_by_its_worker_through_the_same_charge() {
    let t0 = Instant::now() + 2 * COOLDOWN;
    let states = [REPLICAS[2], REPLICAS[2], REPLICAS[0]];
    let set = set_of(&states, t0);
    let faults = FaultCounters::default();
    let sets = [set];
    let gather = Gather::plan(&sets, &faults, EPOCH, t0, None, HEDGE_DELAY);
    let attempts: Vec<Attempt> = gather.scattered().collect();
    let [plain, probe_a, probe_b] = attempts[..] else {
        panic!("a primary and two probes: {attempts:?}")
    };
    assert_eq!((plain.replica, plain.probe), (2, false));
    assert!(probe_a.probe && probe_b.probe);
    let set = &sets[0];
    let lost = Some(ShardFailure::Dropped);
    set.charge(probe_a, Reporter::Worker, None, t0, &faults);
    set.charge(probe_b, Reporter::Worker, lost, t0, &faults);
    set.charge(plain, Reporter::Worker, lost, t0, &faults);
    let after: Vec<_> = set.breaker_snapshots().collect();
    assert_eq!((after[0].state, after[0].closes), (BreakerState::Closed, 1));
    assert_eq!((after[1].state, after[1].opens), (BreakerState::Open, 2));
    assert_eq!(
        (after[2].state, after[2].consecutive_failures),
        (BreakerState::Closed, 0)
    );
    assert_eq!(
        counter(&faults.shard_failures) + counter(&faults.shard_timeouts),
        0
    );
}
