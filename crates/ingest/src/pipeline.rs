//! The staged ingest pipeline: intake → parallel map matching → lifecycle
//! batching → WAL → snapshot publication.
//!
//! ```text
//!             submit() / ingest_reader()
//!                      │  per-source seq dedup
//!                      ▼
//!            ┌──────────────────┐   BoundedQueue (block / drop-oldest /
//!            │      intake      │   reject backpressure); pop tickets
//!            └──────────────────┘   0, 1, 2, … in intake order
//!               ▼    ▼    ▼
//!        match workers (Viterbi map matching, parallel)
//!               │    │    │
//!               └────┼────┘  mpsc of (ticket, outcome), and of each
//!                    ▼           ingest_reader delivery's end
//!            publisher thread
//!              release in ticket order
//!              lifecycle (id prediction, stream-time TTL)
//!              batch by op count, deadline, or a delivery's end
//!              WAL append (+ fsync batching)   ←— durable *before* …
//!              SnapshotStore::apply            ←— … it is visible
//! ```
//!
//! **Publish order is intake order.** Each record leaves the queue with a
//! ticket, and the publisher admits a record only once every lower ticket
//! has resolved — matched, or failed to match (a displaced record never
//! takes a ticket). Ids, TTL retirements and WAL ops therefore depend on
//! the submit order alone, never on the worker count or on which match
//! finished first. It also keeps the WAL's per-source high-water marks
//! sound: a source's records are pushed in seq order, so when one of them
//! is published every earlier seq of that source has been published, has
//! failed or was displaced, and no persisted mark covers a record still
//! being matched.
//!
//! **A delivery's end is a flush point.** When [`Ingestor::ingest_reader`]
//! reaches the end of its reader it sends the publisher the intake's
//! ticket bound at that moment (tickets handed out plus records still
//! queued). Once every ticket below it has resolved, every record the
//! delivery admitted is matched or failed, and the publisher publishes
//! the pending batch at once instead of waiting out
//! [`IngestConfig::max_batch_delay`]. Two deliveries keep the larger
//! point, so an earlier one is published no later than the delay would
//! publish it. A record displaced under `DropOldest` never takes a
//! ticket, so a displacement makes the point cover at most one later
//! record. [`Ingestor::submit`] has no end: a stream fed through it
//! batches on op count and delay alone.
//!
//! The publisher must be the **only writer** of its [`UpdateSink`]:
//! id prediction and the WAL's gapless epoch chain both depend on it (the
//! publish path asserts this). Readers are unrestricted — that is the
//! point of the snapshot store.
//!
//! **Durable before visible** holds exactly with
//! [`WalConfig::sync_every_frames`]` = 1` (the default): every batch is
//! fsynced before `SnapshotStore::apply` makes it visible, and recovery
//! lands on the exact pre-crash epoch. Larger values trade that for
//! throughput — an appended-but-not-yet-fsynced batch is already visible
//! to queries, and a crash loses it (recovery lands on the latest
//! *durable* epoch). [`Ingestor::abort`] simulates the crash faithfully:
//! the WAL writer's buffer is discarded, never flushed.
//!
//! **Restart.** [`Ingestor::start_with_sink`] folds the pipeline's
//! durable soft state back out of the WAL: per-source dedup watermarks
//! resume from the high-water marks recorded with each batch (an
//! at-least-once producer's retries of already-published records stay
//! duplicates across a crash), and the TTL lifecycle resumes from the
//! recorded stream end time of every still-live trajectory (the sliding
//! window keeps sliding). The store must match the log — recover it from
//! the same WAL directory first (see [`crate::recovery`]) — or the start
//! is refused.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netclus_roadnet::GridIndex;
use netclus_service::{IngestMetrics, Stage, UpdateOp, UpdateSink};
use netclus_trajectory::{MapMatcher, Trajectory};

use crate::lifecycle::LifecycleManager;
use crate::queue::{BackpressurePolicy, BoundedQueue, PushOutcome};
use crate::record::{RecordReader, StreamRecord};
use crate::wal::{encode_batch, read_wal, repair_tail, ReplayLog, WalConfig, WalError, WalWriter};

/// How often blocked pipeline threads re-check the abort flag.
const POLL: Duration = Duration::from_millis(20);

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// The map matcher (shared parameters; each worker runs its own
    /// Dijkstra state).
    pub matcher: MapMatcher,
    /// Parallel map-match workers.
    pub match_workers: usize,
    /// Intake queue capacity.
    pub queue_capacity: usize,
    /// What a full intake queue does to new records.
    pub policy: BackpressurePolicy,
    /// Publish a batch once it holds this many ops (a trigger, not a cap:
    /// one record arriving can release every record held behind it in
    /// intake order, and all of them join the pending batch before the
    /// size check, so a batch can hold far more ops than this)…
    pub max_batch_ops: usize,
    /// …or once this long has passed since the publisher armed its
    /// deadline, which it does the first time it finds a pending op after
    /// its last publish returned. The publisher receives nothing while it
    /// publishes, so an op matched during a publish waits out the rest of
    /// that publish and then the whole delay: the delay bounds the linger
    /// after the publisher sees an op, not an op's age. The end of an
    /// [`Ingestor::ingest_reader`] delivery cuts the linger short: once
    /// every record it admitted has matched or failed, the batch
    /// publishes without waiting for the deadline. Records fed through
    /// [`Ingestor::submit`] always wait for size or deadline.
    pub max_batch_delay: Duration,
    /// Stream-time TTL after which an ingested trajectory is retired
    /// (`None` = never).
    pub ttl_s: Option<f64>,
    /// Write-ahead log settings.
    pub wal: WalConfig,
}

impl IngestConfig {
    /// Defaults for a WAL in `dir`: 2 workers, blocking backpressure,
    /// 64-op / 50 ms batches, no TTL, per-batch fsync.
    pub fn new(wal_dir: impl Into<std::path::PathBuf>) -> Self {
        IngestConfig {
            matcher: MapMatcher::default(),
            match_workers: 2,
            queue_capacity: 1_024,
            policy: BackpressurePolicy::Block,
            max_batch_ops: 64,
            max_batch_delay: Duration::from_millis(50),
            ttl_s: None,
            wal: WalConfig::new(wal_dir),
        }
    }
}

/// Intake counters returned by [`Ingestor::ingest_reader`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntakeSummary {
    /// Records admitted into the match queue.
    pub accepted: u64,
    /// Per-source sequence duplicates dropped.
    pub duplicates: u64,
    /// Records shed by backpressure (rejected or displaced).
    pub shed: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
}

/// What [`Ingestor::submit`] did with a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted into the match queue.
    Accepted,
    /// Admitted; the oldest queued record was displaced to make room.
    AcceptedDroppedOldest,
    /// Dropped as a per-source sequence duplicate.
    Duplicate,
    /// Shed by backpressure (queue full under `Reject`, or closed).
    Shed,
}

/// A record stamped at admission. The stamp rides through matching and
/// batching into [`publish`], where the admission→visibility gap becomes
/// the end-to-end freshness measurement.
struct AdmittedRecord {
    record: StreamRecord,
    admitted_at: Instant,
}

/// A successfully matched record on its way to the publisher. Carries its
/// provenance so the publisher can record the per-source high-water mark
/// in the WAL batch it lands in, and its admission stamp for the
/// freshness histogram.
struct Matched {
    traj: Trajectory,
    end_time_s: f64,
    source: u32,
    seq: u64,
    admitted_at: Instant,
}

/// What the publisher receives.
enum Event {
    /// A match worker's outcome: the record's pop ticket and its matched
    /// trajectory, or `None` when matching failed.
    Outcome(u64, Option<Matched>),
    /// An `ingest_reader` delivery ended: every record it admitted holds,
    /// or will hold, a ticket below this bound, unless it is displaced.
    Delivered(u64),
}

/// Pipeline soft state folded back out of the WAL on start: what a
/// restarted ingestor needs so dedup and TTL expiry survive a crash.
struct DurableState {
    /// Per-source high-water sequence numbers of published records.
    marks: HashMap<u32, u64>,
    /// Live (added, never removed) trajectories with their stream end
    /// times.
    live: Vec<(u32, f64)>,
    /// The stream clock at the last published batch.
    watermark_s: f64,
}

/// Folds the replayed log into the pipeline's resumable soft state.
/// `id_bound` is the recovered store's trajectory id bound: since ids are
/// dense and predicted, the k-th add in the log received id
/// `id_bound - total adds + k`.
fn fold_durable_state(log: &ReplayLog, id_bound: u32) -> io::Result<DurableState> {
    let total_adds: usize = log.batches.iter().map(|b| b.add_times.len()).sum();
    let mut next = (id_bound as usize).checked_sub(total_adds).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "store/WAL mismatch: the log holds more trajectory inserts than the \
                 store's id bound — this WAL does not belong to this store's base state",
        )
    })? as u32;
    let mut live: HashMap<u32, f64> = HashMap::new();
    let mut marks: HashMap<u32, u64> = HashMap::new();
    let mut watermark_s = f64::NEG_INFINITY;
    for batch in &log.batches {
        let mut times = batch.add_times.iter();
        for op in &batch.ops {
            match op {
                UpdateOp::AddTrajectory(_) => {
                    // Alignment is guaranteed by `decode_batch`.
                    let end_time_s = times.next().copied().unwrap_or(0.0);
                    live.insert(next, end_time_s);
                    watermark_s = watermark_s.max(end_time_s);
                    next += 1;
                }
                UpdateOp::RemoveTrajectory(id) => {
                    live.remove(&id.0);
                }
                UpdateOp::AddSite(_) | UpdateOp::RemoveSite(_) => {}
            }
        }
        for &(source, seq) in &batch.marks {
            let entry = marks.entry(source).or_insert(seq);
            *entry = (*entry).max(seq);
        }
    }
    Ok(DurableState {
        marks,
        live: live.into_iter().collect(),
        watermark_s,
    })
}

/// The running pipeline. Create with [`Ingestor::start_with_sink`], feed
/// with [`Ingestor::submit`] or [`Ingestor::ingest_reader`], and end with
/// [`Ingestor::finish`] (graceful drain) or [`Ingestor::abort`] (simulated
/// crash: everything not yet WAL-appended is lost, exactly as a real crash
/// would lose it).
pub struct Ingestor {
    intake: Arc<BoundedQueue<AdmittedRecord>>,
    policy: BackpressurePolicy,
    /// Per-source dedup watermarks: the highest seq admitted from each
    /// source, seeded from the WAL's marks.
    watermarks: Mutex<HashMap<u32, u64>>,
    metrics: Arc<IngestMetrics>,
    abort: Arc<AtomicBool>,
    /// Fault-injection hook: while set, the publisher keeps batching but
    /// stops publishing, so admitted records age without becoming
    /// visible (see [`Ingestor::set_publish_stall`]).
    stall: Arc<AtomicBool>,
    /// Carries each delivery's flush point to the publisher, waking it.
    /// Dropped in `stop` before the join: the publisher ends once this
    /// and every match worker's sender are gone.
    wake: Option<Sender<Event>>,
    handles: Vec<JoinHandle<()>>,
}

impl Ingestor {
    /// Opens the WAL and starts the match workers and the publisher.
    ///
    /// `sink` is what the pipeline publishes into: a live
    /// [`SnapshotStore`](netclus_service::SnapshotStore) (an
    /// `Arc<SnapshotStore>` coerces at the call) or a replicated
    /// [`ShardRouter`](netclus_service::ShardRouter), wiring ingest into
    /// sharded serving end to end. The pipeline must be the sink's only
    /// writer. `grid` must index the sink's road network.
    ///
    /// On a non-empty WAL directory this is a **restart**: the per-source
    /// dedup watermarks and the TTL state of live trajectories are folded
    /// back out of the log, and the sink must already sit at the log's
    /// last epoch (recover it with [`crate::recovery::recover_store`]
    /// first) — a mismatched sink is rejected with `InvalidInput` rather
    /// than silently forking the epoch chain.
    ///
    /// Starting scans the log itself rather than taking recovery output,
    /// so it cannot be handed stale or mismatched state; the recover-
    /// then-start sequence therefore reads the log twice. The cost is
    /// one startup pass, linear in log size.
    pub fn start_with_sink(
        sink: Arc<dyn UpdateSink>,
        grid: Arc<GridIndex>,
        cfg: IngestConfig,
        metrics: Arc<IngestMetrics>,
    ) -> io::Result<Ingestor> {
        // Repair, read and validate the existing log BEFORE the writer
        // runs: a rejected start must not leave a fresh (empty) segment
        // behind on every retry. The repair is idempotent maintenance the
        // writer would do anyway.
        let to_io = |e: WalError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        std::fs::create_dir_all(&cfg.wal.dir)?;
        repair_tail(&cfg.wal.dir).map_err(to_io)?;
        let log = read_wal(&cfg.wal.dir).map_err(to_io)?;

        let net = sink.sink_net();
        let next_id = sink.sink_traj_id_bound() as u32;
        let epoch = sink.sink_epoch();

        let logged_epoch = log.batches.last().map_or(0, |b| b.epoch);
        if logged_epoch != epoch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "store/WAL mismatch: the log ends at epoch {logged_epoch} but the store \
                     is at {epoch}. The pipeline requires the store to sit exactly at the \
                     log's last epoch (recovery replays from the epoch-0 base): recover the \
                     store from this WAL directory, or start from the store's epoch-0 base \
                     state with an empty directory"
                ),
            ));
        }
        let durable = fold_durable_state(&log, next_id)?;
        drop(log);

        let wal = WalWriter::open(cfg.wal.clone())?;
        let intake = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let abort = Arc::new(AtomicBool::new(false));
        let stall = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::<Event>();

        let mut handles = Vec::with_capacity(cfg.match_workers + 1);
        for i in 0..cfg.match_workers.max(1) {
            let intake = Arc::clone(&intake);
            let abort = Arc::clone(&abort);
            let metrics = Arc::clone(&metrics);
            let net = Arc::clone(&net);
            let grid = Arc::clone(&grid);
            let matcher = cfg.matcher.clone();
            let tx = tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ingest-match-{i}"))
                    .spawn(move || {
                        match_loop(&intake, &abort, &metrics, &net, &grid, &matcher, &tx)
                    })
                    .expect("spawn match worker"),
            );
        }
        let wake = Some(tx); // publisher ends when this and every worker are gone

        {
            let abort = Arc::clone(&abort);
            let stall = Arc::clone(&stall);
            let metrics = Arc::clone(&metrics);
            let intake = Arc::clone(&intake);
            let lifecycle =
                LifecycleManager::resume(next_id, cfg.ttl_s, durable.watermark_s, durable.live);
            let max_batch_ops = cfg.max_batch_ops.max(1);
            let max_batch_delay = cfg.max_batch_delay;
            handles.push(
                std::thread::Builder::new()
                    .name("ingest-publish".to_string())
                    .spawn(move || {
                        publish_loop(
                            rx,
                            sink,
                            wal,
                            lifecycle,
                            &intake,
                            &abort,
                            &stall,
                            &metrics,
                            max_batch_ops,
                            max_batch_delay,
                        )
                    })
                    .expect("spawn publisher"),
            );
        }

        Ok(Ingestor {
            intake,
            policy: cfg.policy,
            watermarks: Mutex::new(durable.marks),
            metrics,
            abort,
            stall,
            wake,
            handles,
        })
    }

    /// Fault injection: while `on`, the publisher keeps draining the
    /// match workers and batching, but stops making batches durable and
    /// visible — admitted records age, the `visibility_lag_us` gauge
    /// rises, and the freshness SLO eventually fires. Clearing the stall
    /// publishes the backlog on the next publisher tick. A graceful
    /// [`Ingestor::finish`] ignores the stall so shutdown always drains.
    pub fn set_publish_stall(&self, on: bool) {
        self.stall.store(on, Ordering::Release);
    }

    /// Offers one record to the pipeline: per-source duplicates are
    /// dropped, then the backpressure policy decides admission.
    ///
    /// A source is one producer, so its submits are sequential: no other
    /// call moves its watermark between the check and the advance.
    pub fn submit(&self, record: StreamRecord) -> SubmitOutcome {
        let (source, seq) = (record.source, record.seq);
        let last = self.watermarks().get(&source).copied();
        if last.is_some_and(|last| seq <= last) {
            self.metrics
                .records_duplicate
                .fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Duplicate;
        }
        let admitted = AdmittedRecord {
            record,
            // The freshness clock starts here: everything downstream
            // (queueing, matching, batching, WAL append, publish) counts
            // against ingest-to-visibility lag.
            admitted_at: Instant::now(),
        };
        let outcome = match self.intake.push(admitted, self.policy) {
            PushOutcome::Accepted => SubmitOutcome::Accepted,
            PushOutcome::AcceptedDroppedOldest => {
                self.metrics.records_dropped.fetch_add(1, Ordering::Relaxed);
                SubmitOutcome::AcceptedDroppedOldest
            }
            PushOutcome::Rejected | PushOutcome::Closed => {
                // The watermark moves only on admission: a shed record
                // was never taken, so the upstream retry it is owed must
                // not be mistaken for a duplicate.
                self.metrics.records_dropped.fetch_add(1, Ordering::Relaxed);
                return SubmitOutcome::Shed;
            }
        };
        self.watermarks().insert(source, seq);
        self.metrics.records_in.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// The dedup watermarks, locked.
    fn watermarks(&self) -> std::sync::MutexGuard<'_, HashMap<u32, u64>> {
        self.watermarks.lock().expect("watermark lock poisoned")
    }

    /// Decodes framed records from `r` and submits each, returning the
    /// intake tally. Undecodable frames are counted and skipped (the
    /// framing resyncs); a truncated or failing stream ends the read.
    ///
    /// The end of `r` ends a delivery: its records publish as soon as
    /// every one of them has matched or failed, without waiting out
    /// [`IngestConfig::max_batch_delay`]. Each call is one delivery, so a
    /// stream fed one frame per call never waits out the delay; feed such
    /// a stream through [`Ingestor::submit`] to batch it.
    pub fn ingest_reader<R: Read>(&self, r: R) -> IntakeSummary {
        let mut summary = IntakeSummary::default();
        let mut reader = RecordReader::new(r);
        loop {
            // Per-frame decode timing (includes the blocking read of the
            // frame's bytes — what an ingest probe actually waits on).
            let t = Instant::now();
            let Some(result) = reader.next() else { break };
            self.metrics.stages.record(Stage::Decode, t.elapsed());
            match result {
                Ok(record) => match self.submit(record) {
                    SubmitOutcome::Accepted => summary.accepted += 1,
                    SubmitOutcome::AcceptedDroppedOldest => {
                        summary.accepted += 1;
                        summary.shed += 1;
                    }
                    SubmitOutcome::Duplicate => summary.duplicates += 1,
                    SubmitOutcome::Shed => summary.shed += 1,
                },
                Err(_) => {
                    summary.malformed += 1;
                    self.metrics
                        .records_malformed
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if summary.accepted > 0 {
            if let Some(wake) = &self.wake {
                // A gone publisher has nothing left to flush.
                let _ = wake.send(Event::Delivered(self.intake.ticket_bound()));
            }
        }
        summary
    }

    /// This pipeline's metrics handle.
    pub fn metrics(&self) -> Arc<IngestMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Records waiting in the intake queue.
    pub fn backlog(&self) -> usize {
        self.intake.len()
    }

    /// Graceful shutdown: drains the intake queue, matches everything,
    /// publishes the final partial batch and fsyncs the WAL tail.
    pub fn finish(mut self) {
        self.stop(true);
    }

    /// Simulated crash: queued and in-flight records are discarded, the
    /// publisher stops between batches, and the WAL writer's in-memory
    /// buffer is thrown away rather than flushed. Exactly what was
    /// already flushed to the OS survives into recovery — with
    /// `sync_every_frames = 1` that is every published batch; with
    /// larger values the un-synced tail is lost, as a real crash would
    /// lose it.
    pub fn abort(mut self) {
        self.stop(false);
    }

    fn stop(&mut self, graceful: bool) {
        self.wake = None;
        if graceful {
            self.intake.close();
        } else {
            self.abort.store(true, Ordering::Release);
            let discarded = self.intake.close_and_clear() as u64;
            self.metrics
                .records_dropped
                .fetch_add(discarded, Ordering::Relaxed);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Ingestor {
    fn drop(&mut self) {
        self.stop(true);
    }
}

/// Match-worker body: pop, Viterbi-match, forward the outcome under the
/// record's pop ticket.
fn match_loop(
    intake: &BoundedQueue<AdmittedRecord>,
    abort: &AtomicBool,
    metrics: &IngestMetrics,
    net: &netclus_roadnet::RoadNetwork,
    grid: &GridIndex,
    matcher: &MapMatcher,
    tx: &Sender<Event>,
) {
    while !abort.load(Ordering::Acquire) {
        let Some((ticket, admitted)) = intake.pop() else {
            return;
        };
        let (record, admitted_at) = (admitted.record, admitted.admitted_at);
        let end_time_s = record.trace.points().last().map_or(0.0, |p| p.t);
        let t = Instant::now();
        let matched = match matcher.match_trace(net, grid, &record.trace) {
            Ok(traj) => {
                metrics.match_latency.record(t.elapsed());
                metrics.stages.record(Stage::Match, t.elapsed());
                metrics.records_matched.fetch_add(1, Ordering::Relaxed);
                Some(Matched {
                    traj,
                    end_time_s,
                    source: record.source,
                    seq: record.seq,
                    admitted_at,
                })
            }
            Err(_) => {
                // A failed match never reaches the WAL, so its seq is not
                // in the durable marks either: a post-crash retry is
                // re-admitted, fails the same way, and changes nothing.
                // Its ticket still resolves, releasing what it held back.
                metrics.match_failed.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        if tx.send(Event::Outcome(ticket, matched)).is_err() {
            return; // publisher is gone
        }
    }
}

/// The batch under assembly plus the soft state riding along with it
/// into its WAL frame: the stream end time of each pending add (op
/// order) and the per-source high-water marks the batch advances.
#[derive(Default)]
struct PendingBatch {
    ops: Vec<UpdateOp>,
    add_times: Vec<f64>,
    marks: HashMap<u32, u64>,
    /// Admission stamp of every record in the batch — measured against
    /// publish time for the freshness histogram.
    admitted: Vec<Instant>,
}

impl PendingBatch {
    /// Appends one matched record: lifecycle ops, soft state, metrics.
    fn admit(
        &mut self,
        matched: Matched,
        lifecycle: &mut LifecycleManager,
        metrics: &IngestMetrics,
    ) {
        self.add_times.push(matched.end_time_s);
        self.admitted.push(matched.admitted_at);
        // Records arrive in intake order and a source's seqs are admitted
        // increasing, so its latest seq is its high-water mark.
        self.marks.insert(matched.source, matched.seq);
        let before = self.ops.len();
        lifecycle.admit(matched.traj, matched.end_time_s, &mut self.ops);
        let retired = (self.ops.len() - before).saturating_sub(1) as u64;
        metrics.trajs_retired.fetch_add(retired, Ordering::Relaxed);
    }
}

/// The publisher's in-order buffer: match outcomes that arrived before a
/// lower ticket resolved, and the lowest unresolved ticket.
#[derive(Default)]
struct InOrder {
    held: BTreeMap<u64, Option<Matched>>,
    next: u64,
}

impl InOrder {
    /// Files `ticket`'s outcome, then hands `admit` every record whose
    /// lower tickets have all resolved, in ticket order. A failed match
    /// (`None`) admits nothing; it only stops holding later tickets back.
    fn resolve(&mut self, ticket: u64, outcome: Option<Matched>, mut admit: impl FnMut(Matched)) {
        self.held.insert(ticket, outcome);
        while let Some(outcome) = self.held.remove(&self.next) {
            self.next += 1;
            if let Some(matched) = outcome {
                admit(matched);
            }
        }
    }

    /// Admission stamps of the held records.
    fn admitted(&self) -> impl Iterator<Item = Instant> + '_ {
        self.held.values().flatten().map(|m| m.admitted_at)
    }
}

/// Publisher body: release in ticket order, batch, WAL, publish. Sole
/// writer of `sink`.
#[allow(clippy::too_many_arguments)]
fn publish_loop(
    rx: Receiver<Event>,
    sink: Arc<dyn UpdateSink>,
    mut wal: WalWriter,
    mut lifecycle: LifecycleManager,
    intake: &BoundedQueue<AdmittedRecord>,
    abort: &AtomicBool,
    stall: &AtomicBool,
    metrics: &IngestMetrics,
    max_batch_ops: usize,
    max_batch_delay: Duration,
) {
    // An unrecoverable WAL failure must take the whole pipeline down, not
    // just this thread: raising the abort flag stops the match workers and
    // closing the intake wakes producers blocked in `submit` (who would
    // otherwise wait forever on a queue nobody drains).
    let fail = |metrics: &IngestMetrics| {
        abort.store(true, Ordering::Release);
        let discarded = intake.close_and_clear() as u64;
        metrics
            .records_dropped
            .fetch_add(discarded, Ordering::Relaxed);
    };
    let mut batch = PendingBatch::default();
    let mut in_order = InOrder::default();
    let mut deadline: Option<Instant> = None;
    // The largest delivery end received, and the last one honoured.
    let (mut flush_to, mut flushed) = (0u64, 0u64);
    loop {
        if abort.load(Ordering::Acquire) {
            // Crash simulation: pending (un-appended) ops are lost, and
            // so is the writer's buffer — a drop would flush it.
            wal.simulate_crash();
            return;
        }
        let timeout = deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
            .unwrap_or(POLL)
            .min(POLL);
        match rx.recv_timeout(timeout) {
            Ok(Event::Outcome(ticket, outcome)) => in_order.resolve(ticket, outcome, |matched| {
                batch.admit(matched, &mut lifecycle, metrics)
            }),
            Ok(Event::Delivered(bound)) => flush_to = flush_to.max(bound),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Every worker exited. On an abort that can race the
                // top-of-loop check — crash semantics must still win.
                if abort.load(Ordering::Acquire) {
                    wal.simulate_crash();
                    return;
                }
                // Graceful end: every popped ticket's outcome has been
                // received, so nothing is held; flush the tail.
                debug_assert!(in_order.held.is_empty(), "records held past shutdown");
                if !batch.ops.is_empty() && !publish(&*sink, &mut wal, &mut batch, metrics) {
                    fail(metrics);
                    return;
                }
                if let Ok(synced) = wal.sync() {
                    metrics
                        .wal_syncs
                        .fetch_add(synced as u64, Ordering::Relaxed);
                }
                // Everything admitted is now visible.
                metrics.visibility_lag_us.store(0, Ordering::Relaxed);
                return;
            }
        }
        // Refresh the visibility-lag gauge: the age of the oldest
        // admitted-but-unpublished record this thread knows about (the
        // pending batch plus records held behind a lower ticket), 0 when
        // caught up. This is the recoverable freshness signal health
        // gates on.
        let oldest = batch
            .admitted
            .iter()
            .copied()
            .chain(in_order.admitted())
            .min();
        let lag_us = oldest.map_or(0, |t| t.elapsed().as_micros() as u64);
        metrics.visibility_lag_us.store(lag_us, Ordering::Relaxed);
        // Batch-boundary decisions are shared by the arrival and poll
        // paths: publish on size, on a delivery's end once every ticket
        // below it has resolved, or on the delay deadline (armed here).
        // An injected stall skips all of them — batching continues,
        // nothing becomes visible, and the gauge above keeps climbing.
        if stall.load(Ordering::Acquire) {
            continue;
        }
        let delivered = flush_to > flushed && in_order.next >= flush_to;
        if delivered {
            flushed = flush_to;
        }
        if batch.ops.is_empty() {
            deadline = None;
        } else if delivered
            || batch.ops.len() >= max_batch_ops
            || deadline.is_some_and(|d| Instant::now() >= d)
        {
            if !publish(&*sink, &mut wal, &mut batch, metrics) {
                fail(metrics);
                return;
            }
            deadline = None;
        } else if deadline.is_none() {
            deadline = Some(Instant::now() + max_batch_delay);
        }
    }
}

/// Makes the pending batch durable, then visible, as the next epoch,
/// recording its add end times and per-source marks alongside it. Returns
/// false on an unrecoverable WAL failure (the pipeline stops publishing).
fn publish(
    sink: &dyn UpdateSink,
    wal: &mut WalWriter,
    batch: &mut PendingBatch,
    metrics: &IngestMetrics,
) -> bool {
    let epoch = sink.sink_epoch() + 1;
    let mut marks: Vec<(u32, u64)> = batch.marks.iter().map(|(&s, &q)| (s, q)).collect();
    marks.sort_unstable();
    let payload = encode_batch(epoch, &batch.ops, &batch.add_times, &marks);
    let t = Instant::now();
    let info = match wal.append(&payload) {
        Ok(info) => info,
        Err(e) => {
            eprintln!("[ingest] WAL append failed, stopping publisher: {e}");
            return false;
        }
    };
    metrics.stages.record(Stage::WalAppend, t.elapsed());
    let receipt = sink.apply_batch(&batch.ops);
    metrics.publish_latency.record(t.elapsed());
    metrics.stages.record(Stage::Publish, t.elapsed());
    assert_eq!(
        receipt.epoch, epoch,
        "ingest pipeline must be its sink's only writer"
    );
    metrics.batches_published.fetch_add(1, Ordering::Relaxed);
    metrics
        .ops_published
        .fetch_add(batch.ops.len() as u64, Ordering::Relaxed);
    metrics.wal_frames.fetch_add(1, Ordering::Relaxed);
    metrics.wal_bytes.fetch_add(info.bytes, Ordering::Relaxed);
    metrics
        .wal_syncs
        .fetch_add(info.synced as u64, Ordering::Relaxed);
    // The batch is durable and visible: close each record's freshness
    // measurement (admission stamp → now, i.e. queryable visibility).
    let now = Instant::now();
    for admitted_at in batch.admitted.drain(..) {
        metrics
            .freshness
            .record(now.saturating_duration_since(admitted_at));
    }
    batch.ops.clear();
    batch.add_times.clear();
    batch.marks.clear();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::NodeId;

    fn matched(source: u32, seq: u64, end_time_s: f64) -> Matched {
        Matched {
            traj: Trajectory::new(vec![NodeId(seq as u32), NodeId(seq as u32 + 1)]),
            end_time_s,
            source,
            seq,
            admitted_at: Instant::now(),
        }
    }

    /// Regression test for the durable-mark soundness hole: with parallel
    /// workers a later record can finish matching first. The publisher
    /// must hold it — publishing it would persist a high-water mark
    /// covering the still-in-flight lower seq, and a crash would then
    /// drop that record's at-least-once retry as a duplicate.
    #[test]
    fn out_of_order_matches_are_parked_until_the_gap_resolves() {
        let mut in_order = InOrder::default();
        let mut lifecycle = LifecycleManager::new(0, None);
        let mut batch = PendingBatch::default();
        let metrics = IngestMetrics::default();
        let mut resolve = |in_order: &mut InOrder, batch: &mut PendingBatch, ticket, outcome| {
            in_order.resolve(ticket, outcome, |m| {
                batch.admit(m, &mut lifecycle, &metrics)
            });
        };

        // Tickets 1 and 2 (seqs 1 and 2 of source 1) finish matching
        // first: held, nothing admitted, no mark recorded.
        resolve(&mut in_order, &mut batch, 2, Some(matched(1, 2, 30.0)));
        resolve(&mut in_order, &mut batch, 1, Some(matched(1, 1, 20.0)));
        assert!(batch.ops.is_empty());
        assert!(batch.marks.is_empty());
        assert_eq!(in_order.held.len(), 2);

        // Ticket 0 lands: all three admit, in ticket order, mark exact.
        resolve(&mut in_order, &mut batch, 0, Some(matched(1, 0, 10.0)));
        assert_eq!(batch.ops.len(), 3);
        assert_eq!(batch.add_times, vec![10.0, 20.0, 30.0], "ticket order");
        assert_eq!(batch.marks[&1], 2);
        assert!(in_order.held.is_empty());
        assert_eq!(in_order.next, 3);
    }

    /// A failed match resolves its ticket with `None`: it admits nothing
    /// and releases the later tickets it was holding back.
    #[test]
    fn match_failure_unblocks_parked_records() {
        let mut in_order = InOrder::default();
        let mut admitted = Vec::new();
        in_order.resolve(1, Some(matched(7, 4, 5.0)), |m| admitted.push(m.seq));
        in_order.resolve(2, Some(matched(3, 0, 6.0)), |m| admitted.push(m.seq));
        assert!(admitted.is_empty(), "ticket 0 still in flight");

        in_order.resolve(0, None, |m| admitted.push(m.seq)); // seq 3 failed
        assert_eq!(admitted, vec![4, 0]);
        assert!(in_order.held.is_empty());
        assert_eq!(in_order.admitted().count(), 0);
    }
}
