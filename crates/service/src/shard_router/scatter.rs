//! The query driver and the worker pool: everything about a fan-out that
//! needs a thread, a channel or a clock.
//!
//! [`ShardRouter::query`] is admission → [`Gather::plan`] → `enqueue` →
//! wait for replies until [`Gather::next_wakeup`], feeding
//! [`Gather::on_reply`] and [`Gather::on_hedge_due`] → [`Gather::finish`]
//! → merge the survivors → reply. Which replica is tried, hedged, failed
//! over to or charged is the gather's business ([`crate::replica_set`]);
//! this module only moves its attempts onto the pool and the pool's
//! replies back.
//!
//! Every scattered task holds a clone of its query's reply sender, so a
//! worker dropping its reply (an injected drop, or a pool dying during
//! shutdown) disconnects the channel once the other attempts have
//! answered — a gather without a deadline still never hangs.

#![deny(clippy::too_many_lines)]

use std::collections::VecDeque;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::Instant;

use netclus::shard::{degraded_utility_bound, merge_candidates_timed, MergeTiming};
use netclus::{ProviderScratch, TopsQuery};

use super::*;
use crate::cache::{EpochKeyed, EpochLru, QueryKey};
use crate::executor::{validate_query, QueryVariant, SubmitError};
use crate::fault::{FaultAction, QueryError, ShardFailure};
use crate::provider_cache::quantize_tau;
use crate::replica_set::{Attempt, Gather, Reporter};
use crate::trace::{psi_name, Stage, TraceMeta, TraceSpans};

/// Hedge delay for queries without a deadline (no round-1 budget to take
/// a fraction of): comfortably above a healthy round-1 reply, far below
/// a human-visible stall.
const DEFAULT_HEDGE_DELAY: Duration = Duration::from_millis(20);

type ShardReplyMsg = (u32, u32, Result<Round1Ok, ShardFailure>);

/// One round-1 unit of work handed to the pool.
struct ShardTask {
    attempt: Attempt,
    query: TopsQuery,
    /// Round-1 budget: a worker popping the task after this instant sheds
    /// it with [`ShardFailure::TimedOut`] instead of computing an answer
    /// the gather has already given up on.
    deadline: Option<Instant>,
    /// The lockstep epoch at scatter (what a probe's answer is held to).
    epoch: u64,
    reply: Sender<ShardReplyMsg>,
}

/// The pool's task queue.
#[derive(Default)]
pub(crate) struct RouterQueue {
    tasks: VecDeque<ShardTask>,
    pub(crate) shutdown: bool,
}

/// The stale-answer fallback: the last full (non-degraded) answer per
/// query, served when every shard fails.
pub(crate) type StaleAnswers = EpochLru<StaleKey, ShardedServiceAnswer>;

/// The stale fallback's key: the result cache's shape key pinned at the
/// epoch no purge reaches — serving across epochs is the point — and `k`,
/// which the shape key leaves out: a two-round answer for a smaller `k`
/// merges other round-1 candidates, so it is no prefix of a larger one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct StaleKey {
    shape: QueryKey,
    k: usize,
}

impl EpochKeyed for StaleKey {
    fn epoch(&self) -> u64 {
        self.shape.epoch
    }
}

fn stale_key(q: &TopsQuery) -> StaleKey {
    StaleKey {
        shape: QueryKey::new(q, QueryVariant::Greedy, u64::MAX),
        k: q.k,
    }
}

/// One query on its way through the driver.
struct Flight<'a> {
    inner: &'a RouterInner,
    query: TopsQuery,
    /// The query's end-to-end deadline, if any.
    budget: Option<Duration>,
    start: Instant,
    /// The lockstep epoch the query is pinned at.
    epoch: u64,
}

/// A merged answer on its way to the reply.
struct Fresh {
    /// Complete but for its two wall-clock totals.
    answer: ShardedServiceAnswer,
    /// Every shard answered from a cache.
    all_hot: bool,
    timing: MergeTiming,
}

/// Why there is no fresh answer.
enum Lost {
    /// No shard survived round 1: what happened to each.
    Round1(Vec<(u32, ShardFailure)>),
    /// Nothing was left of the budget for round 2.
    Budget,
}

impl ShardRouter {
    /// Answers one TOPS query with the two-round scatter-gather protocol,
    /// blocking until the merged answer is ready. Equivalent to
    /// [`ShardRouter::query`] with default options; kept for callers that
    /// predate deadlines and degraded answers.
    pub fn query_blocking(
        &self,
        query: TopsQuery,
    ) -> Result<Arc<ShardedServiceAnswer>, SubmitError> {
        match self.query(query, &QueryOptions::default()) {
            Ok(answer) => Ok(answer),
            Err(QueryError::Submit(e)) => Err(e),
            // Without a deadline the only residual failure is total shard
            // loss with no stale fallback — serving is effectively down.
            Err(_) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Answers one TOPS query with the two-round scatter-gather protocol.
    ///
    /// Fault behavior (see the [module docs](crate::shard_router)): shards
    /// skipped by an open breaker or failing round 1 degrade the answer
    /// instead of failing the query, as long as at least one shard
    /// survives; a fully-failed fan-out is served from the stale-answer
    /// fallback when possible; [`QueryOptions::deadline`] bounds the total
    /// wait.
    ///
    /// # Errors
    /// [`QueryError::Submit`] for invalid queries or shutdown,
    /// [`QueryError::DeadlineExceeded`] when the budget elapsed first,
    /// [`QueryError::Unavailable`] when every shard failed and no stale
    /// answer was cached.
    pub fn query(
        &self,
        mut query: TopsQuery,
        opts: &QueryOptions,
    ) -> Result<Arc<ShardedServiceAnswer>, QueryError> {
        query.tau = quantize_tau(query.tau);
        validate_query(&query)?;
        let inner = &*self.inner;
        let metrics = &inner.clock.metrics;
        if inner.stopping.load(Ordering::Acquire) {
            metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown.into());
        }
        metrics.submitted.add(1);
        let start = Instant::now();
        // Span recorder: stack-held, zero-allocation; `finish` discards it
        // unless the query lands in the sampled tail.
        let mut spans = inner.tracer.begin();
        // Shared read guard: updates (write side) cannot interleave with
        // the fan-out, so every shard is pinned at one lockstep epoch. The
        // guard also exposes the live per-shard trajectory counts the
        // degraded-answer bound needs.
        let state = read_recover(&inner.update_lock);
        let flight = Flight {
            inner,
            query,
            budget: opts.deadline,
            start,
            epoch: state.epoch,
        };
        let (gather, timed_out, mut cursor) = flight.gather(&mut spans)?;
        let round1_off = cursor
            .saturating_duration_since(spans.started())
            .as_micros() as u64;
        let outcomes = gather.finish(timed_out, Instant::now());
        cursor = spans.stage(Stage::Round1, cursor);
        match flight.merge_outcomes(outcomes, &state.replication, round1_off, &mut spans) {
            Ok(fresh) => Ok(flight.reply(fresh, cursor, spans)),
            Err(lost) => {
                drop(state);
                flight.fallback(lost, timed_out)
            }
        }
    }
}

impl<'a> Flight<'a> {
    /// End of the round-1 share of the budget.
    fn round1_deadline(&self) -> Option<Instant> {
        let round1 = |d: Duration| self.start + d.mul_f64(ROUND1_BUDGET_FRACTION);
        self.budget.map(round1)
    }

    /// Hands round-1 attempts to the pool: the scatter, a hedge and a
    /// failover all come through here. False when the pool is shutting
    /// down (nothing was enqueued).
    fn enqueue(
        &self,
        attempts: impl Iterator<Item = Attempt>,
        reply: &Sender<ShardReplyMsg>,
    ) -> bool {
        let mut queue = lock_recover(&self.inner.queue);
        if queue.shutdown {
            return false;
        }
        for attempt in attempts {
            queue.tasks.push_back(ShardTask {
                attempt,
                query: self.query,
                deadline: self.round1_deadline(),
                epoch: self.epoch,
                reply: reply.clone(),
            });
            self.inner.clock.metrics.queue_enter();
        }
        drop(queue);
        self.inner.queue_cv.notify_all();
        true
    }

    /// Round 1: plans the scatter, then waits within the round-1 budget,
    /// hedging slow shards onto their backup replicas and failing over on
    /// typed failures as the gather directs. Returns the gather, whether
    /// the budget ran out, and the end of the admission span.
    fn gather(&self, spans: &mut TraceSpans) -> Result<(Gather<'a>, bool, Instant), QueryError> {
        let inner = self.inner;
        let hedge_delay = self
            .budget
            .map(|d| d.mul_f64(ROUND1_BUDGET_FRACTION * HEDGE_DELAY_FRACTION))
            .unwrap_or(DEFAULT_HEDGE_DELAY);
        let mut gather = Gather::plan(
            &inner.shards,
            &inner.faultc,
            self.epoch,
            self.start,
            self.round1_deadline(),
            hedge_delay,
        );
        let (tx, rx) = channel();
        if !self.enqueue(gather.scattered(), &tx) {
            inner.clock.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown.into());
        }
        // Keep one spare sender only while unfired backups remain; once
        // it is gone the channel disconnects when the last in-flight
        // attempt resolves, which is what un-hangs a no-deadline gather
        // over a dying pool.
        let mut spare = gather.has_unfired_backups().then_some(tx);
        let admitted = spans.stage(Stage::Admission, spans.started());
        let mut timed_out = false;
        while !gather.done() {
            let now = Instant::now();
            if self.round1_deadline().is_some_and(|dl| now >= dl) {
                timed_out = true;
                break;
            }
            let mut fire = |attempt| {
                spare
                    .as_ref()
                    .is_some_and(|tx| self.enqueue(std::iter::once(attempt), tx))
            };
            if !gather.on_hedge_due(now, &mut fire) {
                let (shard, replica, result) = match gather.next_wakeup() {
                    None => match rx.recv() {
                        Ok(msg) => msg,
                        Err(_) => break,
                    },
                    Some(until) => match rx.recv_timeout(until.saturating_duration_since(now)) {
                        Ok(msg) => msg,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    },
                };
                gather.on_reply(shard, replica, result, Instant::now(), &mut fire);
            }
            if spare.is_some() && !gather.has_unfired_backups() {
                spare = None;
            }
        }
        Ok((gather, timed_out, admitted))
    }

    /// Round 2: the exact greedy over the surviving candidate union, with
    /// a conservative utility bound when shards are missing from it.
    fn merge_outcomes(
        &self,
        outcomes: impl Iterator<Item = Result<Round1Ok, ShardFailure>>,
        replication: &ReplicationStats,
        round1_off: u64,
        spans: &mut TraceSpans,
    ) -> Result<Fresh, Lost> {
        let mut bound = 0usize;
        let mut all_hot = true;
        let mut shard_micros = vec![0u64; self.inner.shards.len()];
        let mut candidates = Vec::new();
        let mut instance = None;
        let mut survivor_utility = 0.0f64;
        let mut failures: Vec<(u32, ShardFailure)> = Vec::new();
        for (shard, outcome) in outcomes.enumerate() {
            match outcome {
                Ok(ok) => {
                    debug_assert_eq!(ok.epoch, self.epoch, "a skewed epoch never resolves Ok");
                    instance.get_or_insert(ok.round.instance);
                    bound = bound.max(ok.bound);
                    all_hot &= ok.source.is_hot();
                    shard_micros[shard] = ok.round.elapsed.as_micros() as u64;
                    // Child span: this shard's round-1 greedy solve (zero
                    // for memo prefix hits — no solve ran), tagged with
                    // the answer source.
                    spans.child(
                        Stage::Solve,
                        shard as i32,
                        ok.source.name(),
                        round1_off,
                        ok.round.solve_us,
                    );
                    survivor_utility += ok.round.local_utility;
                    candidates.extend(ok.round.candidates);
                }
                Err(failure) => failures.push((shard as u32, failure)),
            }
        }
        let Some(instance) = instance else {
            return Err(Lost::Round1(failures));
        };
        // Round 2 runs on the remaining budget; if nothing remains the
        // query is already late — fail typed instead of merging anyway.
        if self
            .budget
            .is_some_and(|d| Instant::now() >= self.start + d)
        {
            return Err(Lost::Budget);
        }
        let missing: Vec<u32> = failures.iter().map(|&(shard, _)| shard).collect();
        let query = &self.query;
        let (solution, candidates, timing) = merge_candidates_timed(candidates, query, bound);
        let utility_bound = if missing.is_empty() {
            1.0
        } else {
            // Upper-bound each missing shard's lost utility by its live
            // trajectory mass (every ψ score is in [0, 1]); the per-shard
            // counts come from the replication gauges under the same read
            // guard the fan-out holds, so they match the pinned epoch.
            let mass = |&s: &u32| replication.per_shard.get(s as usize).copied().unwrap_or(0);
            let missing_mass = missing.iter().map(mass).sum::<usize>() as f64;
            let degraded = &self.inner.faultc.degraded_answers;
            degraded.fetch_add(1, Ordering::Relaxed);
            degraded_utility_bound(solution.utility, survivor_utility, missing_mass)
        };
        let answer = ShardedServiceAnswer {
            epoch: self.epoch,
            covered: solution.covered,
            utility: solution.utility,
            sites: solution.sites,
            instance,
            candidates,
            shard_micros,
            merge_micros: 0,
            total_micros: 0,
            degraded: !missing.is_empty(),
            shards_missing: missing,
            utility_bound,
            stale: false,
        };
        Ok(Fresh {
            answer,
            all_hot,
            timing,
        })
    }

    /// No fresh answer: the stale fallback if round 1 lost every shard,
    /// else a typed error.
    fn fallback(
        &self,
        lost: Lost,
        timed_out: bool,
    ) -> Result<Arc<ShardedServiceAnswer>, QueryError> {
        let inner = self.inner;
        let late = || {
            let late = &inner.faultc.deadline_exceeded;
            late.fetch_add(1, Ordering::Relaxed);
            QueryError::DeadlineExceeded {
                deadline: self.budget.expect("only a deadline can be exceeded"),
            }
        };
        let Lost::Round1(failures) = lost else {
            return Err(late());
        };
        let key = stale_key(&self.query);
        let stale = inner.stale.as_ref();
        if let Some(prev) = stale.and_then(|stale| stale.peek(&key)) {
            inner.faultc.stale_answers.fetch_add(1, Ordering::Relaxed);
            let metrics = &inner.clock.metrics;
            metrics.completed.add(1);
            metrics.latency.record(self.start.elapsed());
            let mut answer = (*prev).clone();
            answer.stale = true;
            answer.degraded = true;
            answer.shards_missing = failures.iter().map(|&(shard, _)| shard).collect();
            answer.total_micros = self.start.elapsed().as_micros() as u64;
            return Ok(Arc::new(answer));
        }
        if timed_out {
            return Err(late());
        }
        let unavailable = &inner.faultc.unavailable_answers;
        unavailable.fetch_add(1, Ordering::Relaxed);
        Err(QueryError::Unavailable { failures })
    }

    /// Books the finished fan-out — trace, histograms, stale refresh —
    /// and hands the answer out. Round 2 began at `merge_start`.
    fn reply(
        &self,
        mut fresh: Fresh,
        merge_start: Instant,
        mut spans: TraceSpans,
    ) -> Arc<ShardedServiceAnswer> {
        let inner = self.inner;
        let merge_off = merge_start
            .saturating_duration_since(spans.started())
            .as_micros() as u64;
        let cursor = spans.stage(Stage::Merge, merge_start);
        // Child span: the exact round-2 greedy inside the merge (the rest
        // of the merge span is candidate union + coverage-view build).
        let solve_off = merge_off + fresh.timing.build_us;
        spans.child(Stage::Solve, -1, "merge", solve_off, fresh.timing.solve_us);
        inner.merge_latency.record(merge_start.elapsed());
        inner.fanout_queries.fetch_add(1, Ordering::Relaxed);
        let metrics = &inner.clock.metrics;
        metrics.completed.add(1);
        let total = self.start.elapsed();
        metrics.latency.record(total);
        // Hot/cold lanes: a fan-out that never built a provider is warm
        // traffic; one build anywhere makes the whole gather cold.
        if fresh.all_hot {
            inner.hot_latency.record(total);
        } else {
            inner.cold_latency.record(total);
        }
        spans.stage(Stage::Reply, cursor);
        let meta = TraceMeta {
            epoch: self.epoch,
            k: self.query.k,
            tau: self.query.tau,
            hot: fresh.all_hot,
            psi: psi_name(&self.query.preference),
            instance: fresh.answer.instance,
        };
        inner.tracer.finish(&spans, meta);
        fresh.answer.merge_micros = merge_start.elapsed().as_micros() as u64;
        fresh.answer.total_micros = self.start.elapsed().as_micros() as u64;
        let answer = Arc::new(fresh.answer);
        // Only full answers refresh the stale fallback — a degraded
        // answer must not mask a better earlier one.
        if !answer.degraded {
            if let Some(stale) = &inner.stale {
                stale.upsert(stale_key(&self.query), Arc::clone(&answer), |_| true);
            }
        }
        answer
    }
}

/// Guards one task's reply sender: however the task ends — normal reply,
/// injected error, shed, or a panic unwinding through the worker — the
/// gather hears something typed, or the drop is accounted.
///
/// It is also where a half-open probe settles its breaker (see
/// [`ReplicaSet::charge`]); that happens before the reply is sent, so a
/// gather that hears the reply sees the settled breaker.
struct ReplyGuard<'a> {
    reply: Option<Sender<ShardReplyMsg>>,
    attempt: Attempt,
    /// The lockstep epoch the task was scattered at.
    epoch: u64,
    set: &'a ReplicaSet,
    faults: &'a FaultCounters,
}

impl ReplyGuard<'_> {
    /// Reports the task's end to its replica's breaker, which listens to
    /// a worker only about a probe.
    ///
    /// A probe's answer older than the scatter epoch is a replica that
    /// missed an apply (the gather demotes it to `EpochSkew`) and re-opens
    /// like a failure; a newer one can only mean the gather is over and a
    /// batch landed since.
    fn settle(&self, result: &Result<Round1Ok, ShardFailure>) {
        let failure = match result {
            Ok(ok) if ok.epoch >= self.epoch => None,
            Ok(_) => Some(ShardFailure::EpochSkew),
            Err(failure) => Some(*failure),
        };
        let now = Instant::now();
        self.set
            .charge(self.attempt, Reporter::Worker, failure, now, self.faults);
    }

    /// Sends the task's outcome. A failed send means the gather stopped
    /// listening (deadline given up, client gone, or a hedged sibling
    /// already won) — counted as an abandoned gather instead of silently
    /// ignored.
    fn send(&mut self, result: Result<Round1Ok, ShardFailure>) {
        if let Some(tx) = self.reply.take() {
            self.settle(&result);
            let Attempt { shard, replica, .. } = self.attempt;
            if tx.send((shard, replica, result)).is_err() {
                self.faults
                    .abandoned_gathers
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops the reply without sending — only for the injected
    /// [`FaultAction::Drop`], which models exactly this.
    fn disarm(mut self) {
        self.settle(&Err(ShardFailure::Dropped));
        self.reply = None;
    }
}

impl Drop for ReplyGuard<'_> {
    fn drop(&mut self) {
        // Reached with the sender still armed only when a panic unwinds
        // through the task: convert the crash into a typed failure so the
        // gather never hangs on a dead worker.
        self.send(Err(ShardFailure::Panicked));
    }
}

/// Worker thread entry: supervises [`worker_loop`]. A panic (injected or
/// organic) unwinds out of the loop — the in-flight task already replied
/// `Panicked` via its [`ReplyGuard`] — and the supervisor counts it and
/// respawns the loop with fresh scratch, so one poisoned task never costs
/// a worker. `catch_unwind` is safe code; the loop state it discards is
/// per-iteration only.
pub(crate) fn worker_entry(inner: &RouterInner) {
    loop {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_loop(inner)));
        match run {
            Ok(()) => return,
            Err(_) => {
                inner.faultc.worker_panics.fetch_add(1, Ordering::Relaxed);
                if inner.stopping.load(Ordering::Acquire) {
                    return;
                }
                inner.faultc.worker_respawns.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Worker loop: pop a shard task, pass the fault hook (an installed
/// [`FaultPlan`] may delay, fail, panic, or drop it) and the deadline shed
/// (a task popped after its round-1 budget replies `TimedOut` instead of
/// computing an answer the gather has abandoned), then run round 1 through
/// the replica's transport: in-process runs the memo → provider → cold
/// resolution right here against the router-shared caches
/// ([`resolve_round1`]); remote issues
/// one framed RPC (the server keeps its own caches) and maps socket
/// failures to the taxonomy. Each worker owns one [`ProviderScratch`]
/// reused across tasks.
fn worker_loop(inner: &RouterInner) {
    let mut scratch = ProviderScratch::default();
    loop {
        let task = {
            let mut queue = lock_recover(&inner.queue);
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        inner.clock.metrics.queue_exit();
        let Attempt { shard, replica, .. } = task.attempt;
        let set = &inner.shards[shard as usize];
        // Per-shard task sequence number (shared by the shard's
        // replicas): drives both the lane query counter and the fault
        // plan's scheduled windows.
        let seq = set.tasks.fetch_add(1, Ordering::Relaxed);
        let mut guard = ReplyGuard {
            reply: Some(task.reply),
            attempt: task.attempt,
            epoch: task.epoch,
            set,
            faults: &inner.faultc,
        };
        // Fault-injection hook: one relaxed load when disabled.
        let hooked = inner.fault_on.load(Ordering::Acquire);
        let plan = hooked.then(|| read_recover(&inner.fault_plan).clone());
        let fault = plan
            .flatten()
            .and_then(|plan| plan.decide(shard, replica, seq));
        // Socket-level actions degrade to their nearest in-process analog
        // here; over a real socket the shard server applies them to the
        // stream itself.
        if let Some(FaultAction::Delay(d) | FaultAction::Stall(d)) = fault {
            std::thread::sleep(d);
        }
        let result = match fault {
            Some(FaultAction::Panic) => panic!("injected panic: shard {shard} task {seq}"),
            Some(FaultAction::Drop | FaultAction::DropConnection) => {
                guard.disarm();
                continue;
            }
            Some(FaultAction::Error) => Err(ShardFailure::Injected),
            Some(FaultAction::CorruptFrame) => Err(ShardFailure::CorruptReply),
            _ if task.deadline.is_some_and(|dl| Instant::now() >= dl) => {
                Err(ShardFailure::TimedOut)
            }
            _ => {
                let t = Instant::now();
                let mut ctx = Round1Ctx {
                    shard,
                    deadline: task.deadline,
                    providers: inner.providers.as_ref(),
                    rounds: inner.rounds.as_ref(),
                    build_threads: 1,
                    scratch: &mut scratch,
                    provider_build: &inner.clock.metrics.provider_build,
                };
                let result = set.transports[replica as usize].round1(&task.query, &mut ctx);
                set.latency.record(t.elapsed());
                if let Ok(ok) = &result {
                    set.gauge.observe(ok.source);
                }
                result
            }
        };
        guard.send(result);
    }
}
