//! Fault tolerance primitives for the sharded query path.
//!
//! Three pieces live here, shared by [`crate::shard_router`]:
//!
//! * **Fault injection** — a deterministic, seeded [`FaultPlan`] that the
//!   router's workers consult per round-1 task. Rules inject a delay, a
//!   typed error, a panic, or a silent reply drop into a specific shard,
//!   optionally only within a task-sequence window — which is how a
//!   scheduled *fail-then-recover* script is written. The hook is the
//!   query-path sibling of `Ingestor::set_publish_stall`: zero-cost when
//!   no plan is installed (one relaxed atomic load).
//! * **Circuit breakers** — a per-shard closed → open → half-open state
//!   machine (`CircuitBreaker`). Consecutive failures open the breaker;
//!   open shards are skipped at scatter time; after a cooldown a single
//!   probe query is admitted, and its outcome closes or re-opens the
//!   breaker.
//! * **Typed failures** — [`ShardFailure`] (what happened to one shard's
//!   round-1 task) and [`QueryError`] (what the caller of a fan-out query
//!   sees), so no fault ever surfaces as a hang or an untyped panic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::executor::SubmitError;
use crate::lock_recover;

/// What a matched [`FaultRule`] does to a round-1 shard task.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Sleep this long before processing the task (models a slow shard;
    /// combined with a query deadline it produces timeouts).
    Delay(Duration),
    /// Reply with [`ShardFailure::Injected`] instead of computing.
    Error,
    /// Panic inside the worker (models a crash; exercises supervision —
    /// the gather still receives a typed [`ShardFailure::Panicked`]).
    Panic,
    /// Drop the reply without sending (models a lost response; the gather
    /// observes the disconnect and classifies the shard as
    /// [`ShardFailure::Dropped`]).
    Drop,
    /// Socket-level: close the connection mid-request without replying.
    /// A shard server slams the TCP stream shut; the remote transport
    /// observes the mid-frame disconnect as [`ShardFailure::Dropped`].
    /// In-process workers treat it like [`FaultAction::Drop`].
    DropConnection,
    /// Socket-level: sit on the request this long before answering
    /// (models a wedged peer or a black-holing network; the remote
    /// transport's read deadline converts it to
    /// [`ShardFailure::TimedOut`]). In-process workers treat it like
    /// [`FaultAction::Delay`].
    Stall(Duration),
    /// Socket-level: flip bits in the response frame so its CRC check
    /// fails; the remote transport classifies it as
    /// [`ShardFailure::CorruptReply`]. In-process workers reply with
    /// `CorruptReply` directly (no frame exists to corrupt).
    CorruptFrame,
}

/// One injection rule of a [`FaultPlan`].
#[derive(Clone, Copy, Debug)]
pub struct FaultRule {
    /// Shard the rule applies to.
    pub shard: u32,
    /// Replica the rule applies to within the shard's replica set;
    /// `None` hits every replica. Replica-scoped rules are how a chaos
    /// script "kills" one replica while its siblings keep serving — the
    /// router fails over and the answer stays full.
    pub replica: Option<u32>,
    /// What to inject.
    pub action: FaultAction,
    /// Probability in `[0, 1]` that the rule fires on a matching task
    /// (decided deterministically from the plan seed — see
    /// `FaultPlan::decide`).
    pub probability: f64,
    /// Optional half-open task-sequence window `[from, until)` on the
    /// shard's per-task counter. `None` means always. A bounded window is
    /// a scheduled **fail-then-recover** script: tasks (including breaker
    /// probes) consume sequence numbers, so once the window is exhausted
    /// the shard recovers.
    pub window: Option<(u64, u64)>,
}

impl FaultRule {
    /// A rule that always fires on `shard` (every replica), forever.
    pub fn always(shard: u32, action: FaultAction) -> FaultRule {
        FaultRule {
            shard,
            replica: None,
            action,
            probability: 1.0,
            window: None,
        }
    }

    /// A scripted outage: `shard` fails with `action` on its tasks
    /// numbered `[from, until)`, then recovers.
    pub fn outage(shard: u32, action: FaultAction, from: u64, until: u64) -> FaultRule {
        FaultRule {
            shard,
            replica: None,
            action,
            probability: 1.0,
            window: Some((from, until)),
        }
    }

    /// Scopes the rule to one replica of the shard (builder style).
    pub fn on_replica(mut self, replica: u32) -> FaultRule {
        self.replica = Some(replica);
        self
    }
}

/// A deterministic, seeded fault-injection plan.
///
/// Installed on a router via `ShardRouter::set_fault_plan`; consulted by
/// each worker once per round-1 task with the shard id and that shard's
/// task sequence number. Identical `(seed, rules)` plans make identical
/// decisions — chaos tests replay exactly.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given decision seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// The installed rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Decides what, if anything, to inject for task number `seq` on
    /// replica `replica` of `shard`. The first matching rule that fires
    /// wins. Deterministic in `(seed, shard, seq, rule index)` — the
    /// replica only selects which rules apply, so a shard-wide rule makes
    /// the same decision on every replica of the shard (replicas stay
    /// bit-identical even under shard-wide chaos).
    pub(crate) fn decide(&self, shard: u32, replica: u32, seq: u64) -> Option<FaultAction> {
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.shard != shard {
                continue;
            }
            if rule.replica.is_some_and(|r| r != replica) {
                continue;
            }
            if let Some((from, until)) = rule.window {
                if seq < from || seq >= until {
                    continue;
                }
            }
            if rule.probability >= 1.0 {
                return Some(rule.action);
            }
            if rule.probability <= 0.0 {
                continue;
            }
            let roll = splitmix64(
                self.seed ^ (u64::from(shard) << 32) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
            .wrapping_add(splitmix64(i as u64 + 1));
            // Map to [0, 1) with 53-bit precision.
            let unit = (roll >> 11) as f64 / (1u64 << 53) as f64;
            if unit < rule.probability {
                return Some(rule.action);
            }
        }
        None
    }
}

/// SplitMix64 — the standard 64-bit avalanche mix; good enough to turn a
/// counter into an i.i.d.-looking coin without a vendored RNG. Also
/// seeds the remote transport's reconnect-backoff jitter, so replica
/// reconnects after a server restart de-synchronize deterministically.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why one shard's round-1 task produced no usable answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFailure {
    /// An injected [`FaultAction::Error`].
    Injected,
    /// The worker panicked while processing the task (injected or
    /// organic); the reply guard converted the unwind into this.
    Panicked,
    /// The task missed the round-1 deadline budget (shed by the worker or
    /// timed out at the gather).
    TimedOut,
    /// The reply channel disconnected without an answer (lost reply).
    Dropped,
    /// The shard's circuit breaker was open; the task was never scattered.
    BreakerOpen,
    /// Remote transport: the shard server could not be reached (connect
    /// refused, or the connection is in reconnect backoff).
    Unreachable,
    /// Remote transport: a response frame failed its CRC check or did not
    /// decode (torn frame, corrupt payload, protocol violation).
    CorruptReply,
    /// Remote transport: the shard server speaks a different protocol
    /// version (handshake mismatch).
    VersionSkew,
    /// The shard answered at an epoch behind the router's lockstep epoch
    /// (a remote shard that missed an update batch); merging it would
    /// tear the answer, so it is demoted to a degraded-answer miss.
    EpochSkew,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFailure::Injected => write!(f, "injected error"),
            ShardFailure::Panicked => write!(f, "worker panicked"),
            ShardFailure::TimedOut => write!(f, "deadline exceeded"),
            ShardFailure::Dropped => write!(f, "reply dropped"),
            ShardFailure::BreakerOpen => write!(f, "circuit breaker open"),
            ShardFailure::Unreachable => write!(f, "shard unreachable"),
            ShardFailure::CorruptReply => write!(f, "corrupt reply frame"),
            ShardFailure::VersionSkew => write!(f, "protocol version skew"),
            ShardFailure::EpochSkew => write!(f, "stale shard epoch"),
        }
    }
}

/// Typed error of a query (`ShardRouter::query`, `NetClusService::query`).
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The query was not admitted (invalid, no room to wait for a solve,
    /// or shutting down).
    Submit(SubmitError),
    /// The deadline elapsed before an answer could be assembled and no
    /// stale fallback was available.
    DeadlineExceeded {
        /// The deadline the query carried.
        deadline: Duration,
    },
    /// Every shard failed and no stale fallback was available.
    Unavailable {
        /// Per-shard failure taxonomy, in shard order.
        failures: Vec<(u32, ShardFailure)>,
    },
}

impl From<SubmitError> for QueryError {
    fn from(e: SubmitError) -> QueryError {
        QueryError::Submit(e)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Submit(e) => write!(f, "{e}"),
            QueryError::DeadlineExceeded { deadline } => {
                write!(f, "deadline of {deadline:?} exceeded")
            }
            QueryError::Unavailable { failures } => {
                write!(f, "all shards failed:")?;
                for (shard, why) in failures {
                    write!(f, " shard {shard}: {why};")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Circuit-breaker tuning knobs (per shard; part of
/// `ShardRouterConfig`).
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before admitting one half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// Breaker state, as reported by `CircuitBreaker::snapshot`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy — tasks flow.
    Closed,
    /// Tripped — the shard is skipped at scatter time.
    Open,
    /// A single probe is in flight; its outcome closes or re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Lower-case name for JSON/telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Point-in-time view of one shard's breaker, for telemetry.
#[derive(Clone, Copy, Debug)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive failures observed while closed.
    pub consecutive_failures: u32,
    /// Times the breaker transitioned to open (re-opens included).
    pub opens: u64,
    /// Half-open probes admitted.
    pub probes: u64,
    /// Probes that succeeded and closed the breaker.
    pub closes: u64,
}

/// What the breaker says about admitting one round-1 task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BreakerAdmit {
    /// Closed — scatter normally.
    Yes,
    /// Cooldown elapsed — scatter as the single half-open probe; report
    /// the outcome with `probe = true`.
    Probe,
    /// Open (or a probe already in flight) — skip the shard.
    Skip,
}

enum BreakerPhase {
    Closed { fails: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// Per-shard circuit breaker: closed → open → half-open with
/// single-probe admission. A task is counted exactly once: a half-open
/// probe by the worker that ends it (its gather may be long gone — the
/// probe rides beside a healthy sibling), every other task by its gather.
pub(crate) struct CircuitBreaker {
    cfg: BreakerConfig,
    phase: Mutex<BreakerPhase>,
    opens: AtomicU64,
    probes: AtomicU64,
    closes: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            phase: Mutex::new(BreakerPhase::Closed { fails: 0 }),
            opens: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            closes: AtomicU64::new(0),
        }
    }

    /// Scatter-time admission decision for one task.
    pub fn admit(&self, now: Instant) -> BreakerAdmit {
        let mut phase = lock_recover(&self.phase);
        match *phase {
            BreakerPhase::Closed { .. } => BreakerAdmit::Yes,
            BreakerPhase::Open { since } => {
                if now.duration_since(since) >= self.cfg.cooldown {
                    *phase = BreakerPhase::HalfOpen;
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    BreakerAdmit::Probe
                } else {
                    BreakerAdmit::Skip
                }
            }
            BreakerPhase::HalfOpen => BreakerAdmit::Skip,
        }
    }

    /// Records a task success. `probe` must be true iff [`Self::admit`]
    /// returned [`BreakerAdmit::Probe`] for this task.
    pub(crate) fn record_success(&self, probe: bool) {
        let mut phase = lock_recover(&self.phase);
        match *phase {
            BreakerPhase::HalfOpen if probe => {
                *phase = BreakerPhase::Closed { fails: 0 };
                self.closes.fetch_add(1, Ordering::Relaxed);
            }
            BreakerPhase::Closed { ref mut fails } => *fails = 0,
            // A stray success while open/half-open (late reply from before
            // the trip) does not close the breaker — only the probe does.
            _ => {}
        }
    }

    /// Records a task failure (or timeout). `probe` as in
    /// [`Self::record_success`].
    pub(crate) fn record_failure(&self, now: Instant, probe: bool) {
        let mut phase = lock_recover(&self.phase);
        match *phase {
            BreakerPhase::HalfOpen if probe => {
                *phase = BreakerPhase::Open { since: now };
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
            BreakerPhase::Closed { fails } => {
                let fails = fails + 1;
                if fails >= self.cfg.failure_threshold {
                    *phase = BreakerPhase::Open { since: now };
                    self.opens.fetch_add(1, Ordering::Relaxed);
                } else {
                    *phase = BreakerPhase::Closed { fails };
                }
            }
            // Failures while open (late replies) keep it open; a non-probe
            // failure racing a half-open probe re-opens conservatively.
            BreakerPhase::Open { .. } => {}
            BreakerPhase::HalfOpen => {
                *phase = BreakerPhase::Open { since: now };
            }
        }
    }

    /// Point-in-time state for telemetry.
    pub fn snapshot(&self) -> BreakerSnapshot {
        let phase = lock_recover(&self.phase);
        let (state, consecutive_failures) = match *phase {
            BreakerPhase::Closed { fails } => (BreakerState::Closed, fails),
            BreakerPhase::Open { .. } => (BreakerState::Open, 0),
            BreakerPhase::HalfOpen => (BreakerState::HalfOpen, 0),
        };
        BreakerSnapshot {
            state,
            consecutive_failures,
            opens: self.opens.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            closes: self.closes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_decisions_are_deterministic_and_windowed() {
        let plan = FaultPlan::new(42)
            .with_rule(FaultRule::outage(1, FaultAction::Error, 2, 5))
            .with_rule(FaultRule {
                shard: 0,
                replica: None,
                action: FaultAction::Drop,
                probability: 0.5,
                window: None,
            });
        // Windowed rule: exact half-open interval on shard 1.
        for seq in 0..8 {
            let want = (2..5).contains(&seq).then_some(FaultAction::Error);
            assert_eq!(plan.decide(1, 0, seq), want, "shard 1 seq {seq}");
        }
        // Probabilistic rule: deterministic replay, non-trivial mix.
        let a: Vec<_> = (0..64).map(|s| plan.decide(0, 0, s)).collect();
        let b: Vec<_> = (0..64).map(|s| plan.decide(0, 0, s)).collect();
        assert_eq!(a, b);
        let fired = a.iter().filter(|d| d.is_some()).count();
        assert!(fired > 8 && fired < 56, "p=0.5 fired {fired}/64");
        // Unlisted shard: never.
        assert_eq!(plan.decide(7, 0, 0), None);
    }

    #[test]
    fn replica_scoped_rules_hit_only_their_replica() {
        let plan =
            FaultPlan::new(3).with_rule(FaultRule::always(0, FaultAction::Error).on_replica(1));
        for seq in 0..8 {
            assert_eq!(plan.decide(0, 1, seq), Some(FaultAction::Error));
            assert_eq!(plan.decide(0, 0, seq), None, "healthy replica untouched");
            assert_eq!(plan.decide(0, 2, seq), None);
        }
        // A shard-wide rule makes the same decision on every replica, so
        // replicas under shard-wide chaos fail (or survive) together.
        let plan = FaultPlan::new(9).with_rule(FaultRule {
            shard: 2,
            replica: None,
            action: FaultAction::Drop,
            probability: 0.5,
            window: None,
        });
        for seq in 0..64 {
            assert_eq!(plan.decide(2, 0, seq), plan.decide(2, 1, seq));
        }
    }

    #[test]
    fn zero_and_one_probabilities_are_exact() {
        let plan = FaultPlan::new(7)
            .with_rule(FaultRule {
                shard: 0,
                replica: None,
                action: FaultAction::Panic,
                probability: 0.0,
                window: None,
            })
            .with_rule(FaultRule::always(0, FaultAction::Error));
        for seq in 0..32 {
            // p=0 never fires, so the always-rule behind it wins.
            assert_eq!(plan.decide(0, 0, seq), Some(FaultAction::Error));
        }
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let cfg = BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(10),
        };
        let b = CircuitBreaker::new(cfg);
        let t0 = Instant::now();
        assert_eq!(b.admit(t0), BreakerAdmit::Yes);
        b.record_failure(t0, false);
        b.record_failure(t0, false);
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        b.record_failure(t0, false); // third consecutive → open
        assert_eq!(b.snapshot().state, BreakerState::Open);
        assert_eq!(b.snapshot().opens, 1);
        // Within cooldown: skip.
        assert_eq!(b.admit(t0 + Duration::from_millis(1)), BreakerAdmit::Skip);
        // After cooldown: exactly one probe.
        let t1 = t0 + Duration::from_millis(11);
        assert_eq!(b.admit(t1), BreakerAdmit::Probe);
        assert_eq!(b.admit(t1), BreakerAdmit::Skip, "single-probe admission");
        // Probe fails → re-open (counted), cooldown restarts.
        b.record_failure(t1, true);
        assert_eq!(b.snapshot().state, BreakerState::Open);
        assert_eq!(b.snapshot().opens, 2);
        // Next probe succeeds → closed.
        let t2 = t1 + Duration::from_millis(11);
        assert_eq!(b.admit(t2), BreakerAdmit::Probe);
        b.record_success(true);
        let snap = b.snapshot();
        assert_eq!(snap.state, BreakerState::Closed);
        assert_eq!(snap.probes, 2);
        assert_eq!(snap.closes, 1);
        assert_eq!(b.admit(t2), BreakerAdmit::Yes);
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let b = CircuitBreaker::new(BreakerConfig::default());
        let t = Instant::now();
        b.record_failure(t, false);
        b.record_failure(t, false);
        b.record_success(false);
        b.record_failure(t, false);
        b.record_failure(t, false);
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        assert_eq!(b.snapshot().consecutive_failures, 2);
    }

    #[test]
    fn late_success_does_not_close_an_open_breaker() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(60),
        });
        let t = Instant::now();
        b.record_failure(t, false);
        assert_eq!(b.snapshot().state, BreakerState::Open);
        b.record_success(false);
        assert_eq!(b.snapshot().state, BreakerState::Open);
    }
}
