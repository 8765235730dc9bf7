//! One shard's replica set, and the state machine of one round-1 gather
//! over all of them.
//!
//! A [`ReplicaSet`] owns everything the router keeps per shard: the
//! replicas' transports and circuit breakers, the preferred-replica
//! cursor, the lane's latency histogram, task sequence and load gauge.
//! Every replica of a shard holds the same corpus at the same lockstep
//! epoch (applies fan out to all of them), so any replica's round-1
//! answer is *the* answer — which is what makes hedged reads and failover
//! safe.
//!
//! A [`Gather`] is the plain-data state of one query's round 1. It owns
//! no thread, channel, lock or timer and never reads a clock: the driver
//! (`crate::scatter`) feeds it events — a reply, the hedge timer, the end
//! of the wait — together with the time they happened at, and the gather
//! answers with the attempts to put on the pool. It alone decides:
//!
//! * **Who is fired.** The replica walk starts at the shard's cursor (the
//!   last replica that won a round 1, so a healthy primary stays sticky
//!   and a failed-over shard keeps preferring the replica that answered).
//!   The first caught-up replica with a closed breaker is the *primary*;
//!   the other such replicas are *backups*; replicas behind the lockstep
//!   epoch go last (their answers demote to
//!   [`ShardFailure::EpochSkew`] — still better than nothing once every
//!   caught-up replica is gone); a half-open breaker fires its probe *in
//!   addition to* the primary, so a recovering replica never steals the
//!   healthy replica's slot; an open breaker is skipped, and a shard with
//!   nothing to fire resolves [`ShardFailure::BreakerOpen`] on the spot.
//!   Once per query, at the hedge delay, every unresolved shard fires one
//!   backup (a *hedge*); a typed failure fires the next backup at once (a
//!   *failover*).
//! * **Who resolves a shard.** The first answer at the lockstep epoch
//!   wins, moves the cursor and cancels the shard's unfired backups; an
//!   answer at any other epoch is a replica that missed an apply and is
//!   demoted to `EpochSkew`, because merging it would tear the answer. A
//!   shard fails only when a failure arrives with no backup left to fire
//!   and no attempt in flight, or when the wait ends first
//!   ([`Gather::finish`]: `TimedOut` at the round-1 budget, `Dropped`
//!   when every reply sender is gone).
//! * **Who is charged** — in [`ReplicaSet::charge`], the one place an
//!   attempt's end reaches a breaker or the failure counters. Every
//!   failed reply and every attempt still unanswered when its shard's
//!   wait ends counts as a shard failure or timeout; an attempt still
//!   unanswered on a shard that already *resolved* is a cancelled loser
//!   and costs its replica nothing. An attempt's breaker hears of its end
//!   exactly once: from the gather — unless the attempt is a half-open
//!   probe. A probe rides beside a healthy sibling, so its gather has
//!   usually returned before the probe ends; it is settled by the worker
//!   that ran it (through the same function), or its breaker would stay
//!   half-open, skipped by every later scatter, for good.

#![deny(clippy::too_many_lines)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::fault::{BreakerAdmit, BreakerConfig, BreakerSnapshot, CircuitBreaker, ShardFailure};
use crate::metrics::LatencyHistogram;
use crate::shard_router::{Round1Ok, ShardTransport};
use crate::trace::LoadGauge;

/// Central fault counters (breaker transition counts live on the
/// breakers themselves and are summed into the report).
#[derive(Default)]
pub(crate) struct FaultCounters {
    pub(crate) degraded_answers: AtomicU64,
    pub(crate) stale_answers: AtomicU64,
    pub(crate) shard_failures: AtomicU64,
    pub(crate) shard_timeouts: AtomicU64,
    pub(crate) deadline_exceeded: AtomicU64,
    pub(crate) breaker_skips: AtomicU64,
    pub(crate) worker_panics: AtomicU64,
    pub(crate) worker_respawns: AtomicU64,
    pub(crate) abandoned_gathers: AtomicU64,
    pub(crate) unavailable_answers: AtomicU64,
    pub(crate) hedged_requests: AtomicU64,
    pub(crate) hedge_wins: AtomicU64,
    pub(crate) replica_failovers: AtomicU64,
    pub(crate) resyncs: AtomicU64,
}

/// Who reports the end of an attempt to [`ReplicaSet::charge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reporter {
    /// The gather that fired the attempt.
    Gather,
    /// The pool worker that ran it.
    Worker,
}

/// Everything the router keeps per shard. See the module docs.
pub(crate) struct ReplicaSet {
    /// One transport per replica.
    pub(crate) transports: Vec<Box<dyn ShardTransport>>,
    /// One breaker per replica — one replica's outage must not poison its
    /// healthy siblings.
    breakers: Vec<CircuitBreaker>,
    /// The last replica that won a round 1; every walk starts here.
    cursor: AtomicUsize,
    /// Round-1 latency of this shard's lane.
    pub(crate) latency: LatencyHistogram,
    /// Round-1 tasks executed on this lane (shared by the replicas): the
    /// lane's query counter and the fault plan's task sequence.
    pub(crate) tasks: AtomicU64,
    /// Load/heat gauge (qps EWMA, cache heat, cold fraction).
    pub(crate) gauge: LoadGauge,
}

impl ReplicaSet {
    /// A set over `transports` (at least one), every breaker closed and
    /// the cursor on replica 0.
    pub(crate) fn new(transports: Vec<Box<dyn ShardTransport>>, breaker: BreakerConfig) -> Self {
        assert!(
            !transports.is_empty(),
            "every shard needs at least one replica transport"
        );
        ReplicaSet {
            breakers: transports
                .iter()
                .map(|_| CircuitBreaker::new(breaker))
                .collect(),
            transports,
            cursor: AtomicUsize::new(0),
            latency: LatencyHistogram::default(),
            tasks: AtomicU64::new(0),
            gauge: LoadGauge::default(),
        }
    }

    /// The one replica walk: every replica once, from the cursor.
    pub(crate) fn walk(&self) -> impl Iterator<Item = (u32, &dyn ShardTransport)> {
        let n = self.transports.len();
        let from = self.cursor.load(Ordering::Relaxed) % n;
        (0..n).map(move |j| {
            let r = (from + j) % n;
            (r as u32, &*self.transports[r])
        })
    }

    /// The replica under the cursor.
    pub(crate) fn preferred(&self) -> (u32, &dyn ShardTransport) {
        self.walk().next().expect("a replica set is never empty")
    }

    /// Breaker snapshots in replica order.
    pub(crate) fn breaker_snapshots(&self) -> impl Iterator<Item = BreakerSnapshot> + '_ {
        self.breakers.iter().map(CircuitBreaker::snapshot)
    }

    /// The end of one attempt — served (`failure` is `None`) or not —
    /// reaches the fault counters and the replica's breaker here and
    /// nowhere else. The gather counts every failure it sees; the breaker
    /// hears of a probe from the worker that ran it and of any other
    /// attempt from its gather (module docs: who is charged).
    pub(crate) fn charge(
        &self,
        attempt: Attempt,
        by: Reporter,
        failure: Option<ShardFailure>,
        now: Instant,
        faults: &FaultCounters,
    ) {
        if by == Reporter::Gather {
            match failure {
                None => {}
                Some(ShardFailure::TimedOut) => {
                    faults.shard_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                Some(_) => {
                    faults.shard_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if attempt.probe == (by == Reporter::Worker) {
            let breaker = &self.breakers[attempt.replica as usize];
            match failure {
                None => breaker.record_success(attempt.probe),
                Some(_) => breaker.record_failure(now, attempt.probe),
            }
        }
    }

    /// Walks the set for one scatter of shard `shard`: who is fired now,
    /// who waits as a backup (module docs: who is fired).
    fn plan(&self, shard: u32, epoch: u64, now: Instant) -> Lane {
        let mut in_flight = Vec::new();
        let mut backups = VecDeque::new();
        let mut lagging = VecDeque::new();
        let mut primary = None;
        for (replica, transport) in self.walk() {
            match self.breakers[replica as usize].admit(now) {
                BreakerAdmit::Yes if transport.epoch() != epoch => lagging.push_back(replica),
                BreakerAdmit::Yes if primary.is_none() => primary = Some(replica),
                BreakerAdmit::Yes => backups.push_back(replica),
                BreakerAdmit::Probe => in_flight.push(Attempt {
                    shard,
                    replica,
                    probe: true,
                }),
                BreakerAdmit::Skip => {}
            }
        }
        let primary = primary.or_else(|| lagging.pop_front());
        backups.extend(lagging);
        if let Some(replica) = primary {
            in_flight.insert(0, Attempt::plain(shard, replica));
        }
        Lane {
            in_flight,
            hedge: None,
            backups,
            outcome: None,
        }
    }
}

/// One round-1 attempt for the pool to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Attempt {
    pub(crate) shard: u32,
    pub(crate) replica: u32,
    /// The replica's half-open probe: the worker settles its breaker.
    pub(crate) probe: bool,
}

/// One shard's side of a gather.
struct Lane {
    /// Attempts fired and not answered yet, in fire order.
    in_flight: Vec<Attempt>,
    /// The replica the hedge wave fired: a win by it is a hedge win
    /// (failover-fired attempts are not hedges).
    hedge: Option<u32>,
    /// Admitted replicas not fired yet, in walk order.
    backups: VecDeque<u32>,
    outcome: Option<Result<Round1Ok, ShardFailure>>,
}

/// The state of one query's round-1 gather. See the module docs.
pub(crate) struct Gather<'a> {
    sets: &'a [ReplicaSet],
    faults: &'a FaultCounters,
    /// The lockstep epoch the query was scattered at.
    epoch: u64,
    /// End of the round-1 budget, if the query has one.
    deadline: Option<Instant>,
    /// When the hedge wave is due; `None` once it has run.
    hedge_at: Option<Instant>,
    lanes: Vec<Lane>,
}

impl<'a> Gather<'a> {
    /// Plans the scatter of one query over `sets` at lockstep `epoch`:
    /// admits every replica through its breaker at `now` and lists the
    /// attempts to fire ([`Gather::scattered`]). The hedge wave is due
    /// `hedge_delay` after `now` if any shard has a backup.
    pub(crate) fn plan(
        sets: &'a [ReplicaSet],
        faults: &'a FaultCounters,
        epoch: u64,
        now: Instant,
        deadline: Option<Instant>,
        hedge_delay: Duration,
    ) -> Gather<'a> {
        let plan_lane = |(shard, set): (usize, &ReplicaSet)| {
            let mut lane = set.plan(shard as u32, epoch, now);
            if lane.in_flight.is_empty() {
                // Every replica's breaker is open: the whole shard is
                // skipped this query.
                lane.outcome = Some(Err(ShardFailure::BreakerOpen));
                faults.breaker_skips.fetch_add(1, Ordering::Relaxed);
            }
            lane
        };
        let lanes: Vec<Lane> = sets.iter().enumerate().map(plan_lane).collect();
        let backups = lanes.iter().any(|lane| !lane.backups.is_empty());
        Gather {
            sets,
            faults,
            epoch,
            deadline,
            hedge_at: backups.then(|| now + hedge_delay),
            lanes,
        }
    }

    /// The attempts of the initial scatter (everything in flight before
    /// the first event).
    pub(crate) fn scattered(&self) -> impl Iterator<Item = Attempt> + '_ {
        self.lanes.iter().flat_map(|lane| &lane.in_flight).copied()
    }

    /// True once every shard has resolved.
    pub(crate) fn done(&self) -> bool {
        self.lanes.iter().all(|lane| lane.outcome.is_some())
    }

    /// True while some shard still has a replica it could fire — the
    /// driver must keep a way for such an attempt to reply.
    pub(crate) fn has_unfired_backups(&self) -> bool {
        self.lanes.iter().any(|lane| !lane.backups.is_empty())
    }

    /// When the driver must look again without having heard a reply: the
    /// end of the budget, or the hedge delay while a hedge could still
    /// fire. `None`: wait for replies only.
    pub(crate) fn next_wakeup(&self) -> Option<Instant> {
        let hedge = self.hedge_at.filter(|_| self.has_unfired_backups());
        [self.deadline, hedge].into_iter().flatten().min()
    }

    /// Runs the hedge wave if it is due at `now` (once per query): every
    /// unresolved shard with a spare replica fires one more attempt
    /// through `fire`, which answers false when the pool took nothing.
    /// Returns whether the wave ran.
    pub(crate) fn on_hedge_due(
        &mut self,
        now: Instant,
        fire: &mut impl FnMut(Attempt) -> bool,
    ) -> bool {
        if self.hedge_at.is_none_or(|at| now < at) {
            return false;
        }
        self.hedge_at = None;
        for (shard, lane) in self.lanes.iter_mut().enumerate() {
            if lane.outcome.is_some() {
                continue;
            }
            let Some(replica) = lane.backups.pop_front() else {
                continue;
            };
            if lane.fire(Attempt::plain(shard as u32, replica), fire) {
                lane.hedge = Some(replica);
                self.faults.hedged_requests.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    /// One attempt's reply, heard at `now`. Charges the attempt, resolves
    /// its shard if this reply decides it, and on a failure fires the
    /// shard's next backup through `fire` (module docs: who resolves a
    /// shard). A reply no attempt in flight is waiting for is ignored.
    pub(crate) fn on_reply(
        &mut self,
        shard: u32,
        replica: u32,
        result: Result<Round1Ok, ShardFailure>,
        now: Instant,
        fire: &mut impl FnMut(Attempt) -> bool,
    ) {
        let lane = &mut self.lanes[shard as usize];
        let Some(idx) = lane.in_flight.iter().position(|a| a.replica == replica) else {
            return;
        };
        let attempt = lane.in_flight.remove(idx);
        let result = match result {
            Ok(ok) if ok.epoch != self.epoch => Err(ShardFailure::EpochSkew),
            other => other,
        };
        let set = &self.sets[shard as usize];
        let failure = result.as_ref().err().copied();
        set.charge(attempt, Reporter::Gather, failure, now, self.faults);
        if lane.outcome.is_some() {
            return;
        }
        match result {
            Ok(ok) => {
                if lane.hedge == Some(replica) {
                    self.faults.hedge_wins.fetch_add(1, Ordering::Relaxed);
                }
                set.cursor.store(replica as usize, Ordering::Relaxed);
                lane.backups.clear();
                lane.outcome = Some(Ok(ok));
            }
            Err(failure) => {
                // Fail over to the next replica immediately; once none is
                // left and nothing is in flight, the shard has failed for
                // real.
                while let Some(next) = lane.backups.pop_front() {
                    if lane.fire(Attempt::plain(shard, next), fire) {
                        self.faults
                            .replica_failovers
                            .fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                if lane.in_flight.is_empty() {
                    lane.outcome = Some(Err(failure));
                }
            }
        }
    }

    /// Ends the wait at `now`. Shards that never resolved are late
    /// (`timed_out`: the budget ran out) or lost (every reply sender is
    /// gone), and their still-unanswered attempts are charged; a resolved
    /// shard's unanswered attempts are cancelled losers. Yields every
    /// shard's round-1 result, in shard order.
    pub(crate) fn finish(
        self,
        timed_out: bool,
        now: Instant,
    ) -> impl Iterator<Item = Result<Round1Ok, ShardFailure>> {
        let failure = if timed_out {
            ShardFailure::TimedOut
        } else {
            ShardFailure::Dropped
        };
        for (lane, set) in self.lanes.iter().zip(self.sets) {
            if lane.outcome.is_none() {
                for &attempt in &lane.in_flight {
                    set.charge(attempt, Reporter::Gather, Some(failure), now, self.faults);
                }
            }
        }
        self.lanes
            .into_iter()
            .map(move |lane| lane.outcome.unwrap_or(Err(failure)))
    }
}

impl Attempt {
    /// An attempt that is nobody's probe.
    fn plain(shard: u32, replica: u32) -> Attempt {
        Attempt {
            shard,
            replica,
            probe: false,
        }
    }
}

impl Lane {
    /// Fires one more attempt. When the pool takes nothing (it is
    /// shutting down) no later backup can run either: they are dropped
    /// and the shard resolves on what is already in flight.
    fn fire(&mut self, attempt: Attempt, fire: &mut impl FnMut(Attempt) -> bool) -> bool {
        let fired = fire(attempt);
        if fired {
            self.in_flight.push(attempt);
        } else {
            self.backups.clear();
        }
        fired
    }
}

#[cfg(test)]
mod tests;
