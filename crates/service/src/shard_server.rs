//! The shard-server side of the cluster protocol: one shard's
//! [`SnapshotStore`] behind a framed TCP accept loop, speaking
//! [`crate::shard_proto`] to remote routers.
//!
//! A [`ShardServer`] is what the `netclus-shardd` binary wraps: it owns
//! the shard's snapshot store plus its **own** round-1 caches (provider
//! cache with single-flight builds and the candidate memo — remote
//! routers cannot share the router-process caches, so the server keeps
//! the equivalent pair and invalidates them on every epoch advance), a
//! load gauge feeding its metrics line, and an optional
//! [`FaultPlan`] whose socket-level actions let the chaos suite script
//! real-connection failures (drop the connection mid-request, stall
//! past the client's read deadline, corrupt a response frame so its CRC
//! check fails).
//!
//! The listener is the accept loop the telemetry endpoint runs
//! (`telemetry::AcceptLoop`): every connection is served on its own
//! thread under read/write deadlines (`IO_TIMEOUT`, 5 s), request frames
//! are bounded at `crate::wire::MAX_SHARD_REQUEST`, and at most
//! `MAX_CONNECTIONS` (8) connections are served at once — excess
//! connections are dropped without a reply (the one place the two
//! servers differ), so a router sees
//! [`crate::fault::ShardFailure::Dropped`] and its breaker/degraded
//! machinery takes over instead of queueing behind a wedged server. A
//! connection's slot is released however its worker ends, and shutdown
//! closes live connections instead of waiting out their deadlines.
//!
//! Request handling is validate-first: the `Hello` version gate answers
//! [`RespError::VersionSkew`] on protocol skew, and a `Round1` for the
//! wrong shard, an unknown ψ, a hostile `k`, or a non-finite τ is
//! refused with [`RespError::BadRequest`] before any work happens. The
//! round-1 body itself is `resolve_round1` — the same memo → provider →
//! cold resolution the in-process transport runs, so a remote answer is
//! bit-identical to a local one.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netclus::{ProviderScratch, TopsQuery};

use crate::fault::{FaultAction, FaultPlan};
use crate::framing::{frame_into, read_frame_into};
use crate::jsonl;
use crate::metrics::LatencyHistogram;
use crate::provider_cache::{carry_rows, RoundOneCache, ShardProviderCache};
use crate::shard_proto::{
    preference_from_key, Request, RespError, Response, ResyncSnapshot, SHARD_PROTOCOL_VERSION,
};
use crate::shard_router::{resolve_round1, Round1Ctx};
use crate::snapshot::SnapshotStore;
use crate::telemetry::{AcceptLoop, TelemetrySource};
use crate::trace::LoadGauge;
use crate::wire::{MAX_RESYNC_CHUNK, MAX_SHARD_REQUEST, MAX_WIRE_CANDIDATES};

/// Per-connection read/write deadline; a client that stalls longer is
/// dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Connections served concurrently before the accept loop sheds new ones
/// (dropped without a reply — the router classifies that as
/// [`crate::fault::ShardFailure::Dropped`]).
const MAX_CONNECTIONS: usize = 8;

/// Shard-server tuning.
#[derive(Clone, Debug)]
pub struct ShardServerConfig {
    /// Provider-cache capacity in built providers; **0 disables** (every
    /// round-1 rebuilds — the cold reference path).
    pub provider_cache_capacity: usize,
    /// Round-1 candidate-memo capacity; **0 disables**.
    pub round_memo_capacity: usize,
    /// Scripted fault injection on the round-1 request path (see
    /// [`FaultPlan`]); `None` serves faithfully.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ShardServerConfig {
    fn default() -> Self {
        ShardServerConfig {
            provider_cache_capacity: 32,
            round_memo_capacity: 128,
            fault_plan: None,
        }
    }
}

/// State shared by every connection thread.
struct ServerShared {
    shard: u32,
    store: SnapshotStore,
    providers: Option<ShardProviderCache>,
    rounds: Option<RoundOneCache>,
    gauge: LoadGauge,
    provider_build: LatencyHistogram,
    round1_latency: LatencyHistogram,
    requests: AtomicU64,
    round1_served: AtomicU64,
    apply_batches: AtomicU64,
    bad_requests: AtomicU64,
    injected_faults: AtomicU64,
    resyncs_served: AtomicU64,
    /// Per-task fault sequence (round-1 requests only, mirroring the
    /// in-process worker hook).
    fault_seq: AtomicU64,
    fault_plan: Option<FaultPlan>,
    /// Set by a `Shutdown` RPC or [`ShardServer::shutdown`]; shared with
    /// the accept loop.
    stopping: Arc<AtomicBool>,
}

impl ServerShared {
    /// The single-line JSON [`ShardServer::metrics_json`] and the
    /// telemetry `metrics` command serve.
    fn metrics_json(&self) -> String {
        let snap = self.store.load();
        let gauge = self.gauge.snapshot();
        let (r1, build) = (self.round1_latency.summary(), self.provider_build.summary());
        let providers = self.providers.as_ref().map(|p| p.stats());
        let rounds = self.rounds.as_ref().map(|r| r.stats());
        let (providers, rounds) = (providers.unwrap_or_default(), rounds.unwrap_or_default());
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        jsonl::object(|o| {
            o.int("shard", self.shard);
            o.int("epoch", snap.epoch());
            o.int("live_trajs", snap.trajs().len());
            o.int("traj_id_bound", snap.trajs().id_bound());
            o.int("requests", count(&self.requests));
            o.int("round1_served", count(&self.round1_served));
            o.int("apply_batches", count(&self.apply_batches));
            o.int("bad_requests", count(&self.bad_requests));
            o.int("injected_faults", count(&self.injected_faults));
            o.int("resyncs_served", count(&self.resyncs_served));
            o.int("round1_p50_us", r1.p50_micros);
            o.int("round1_p99_us", r1.p99_micros);
            o.int("provider_build_p99_us", build.p99_micros);
            o.int("provider_hits", providers.hits);
            o.int("provider_misses", providers.misses);
            o.int("round_hits", rounds.hits);
            o.int("round_misses", rounds.misses);
            o.num("qps_ewma", gauge.qps_ewma);
            o.num("cache_heat", gauge.cache_heat);
            o.num("cold_fraction", gauge.cold_fraction);
        })
    }

    fn stages_json(&self) -> String {
        let r1 = self.round1_latency.summary();
        let build = self.provider_build.summary();
        jsonl::object(|o| {
            o.int("stage_round1_p50_us", r1.p50_micros);
            o.int("stage_round1_p99_us", r1.p99_micros);
            o.int("stage_provider_build_p50_us", build.p50_micros);
            o.int("stage_provider_build_p99_us", build.p99_micros);
        })
    }
}

/// A running shard server: the crate's accept loop handing each
/// connection to a short-lived worker thread, serving the framed shard
/// protocol.
pub struct ShardServer {
    shared: Arc<ServerShared>,
    accept: AcceptLoop,
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("addr", &self.addr())
            .finish_non_exhaustive()
    }
}

impl ShardServer {
    /// Binds `addr` (port 0 for an OS-assigned port) and serves `store`
    /// as shard `shard`.
    ///
    /// # Errors
    /// The bind or accept-thread spawn error.
    pub fn start(
        addr: &str,
        shard: u32,
        store: SnapshotStore,
        cfg: ShardServerConfig,
    ) -> io::Result<ShardServer> {
        let stopping = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ServerShared {
            shard,
            store,
            providers: (cfg.provider_cache_capacity > 0)
                .then(|| ShardProviderCache::new(cfg.provider_cache_capacity)),
            rounds: (cfg.round_memo_capacity > 0)
                .then(|| RoundOneCache::new(cfg.round_memo_capacity)),
            gauge: LoadGauge::default(),
            provider_build: LatencyHistogram::default(),
            round1_latency: LatencyHistogram::default(),
            requests: AtomicU64::new(0),
            round1_served: AtomicU64::new(0),
            apply_batches: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            injected_faults: AtomicU64::new(0),
            resyncs_served: AtomicU64::new(0),
            fault_seq: AtomicU64::new(0),
            fault_plan: cfg.fault_plan,
            stopping: Arc::clone(&stopping),
        });
        let conn_shared = Arc::clone(&shared);
        let accept = AcceptLoop::start(
            TcpListener::bind(addr)?,
            &format!("netclus-shardd-{shard}"),
            MAX_CONNECTIONS,
            stopping,
            // Shed by dropping: the router sees the close as `Dropped` and
            // falls back on its breaker.
            drop,
            move |stream| {
                // A misbehaving client (or an injected fault) only ever
                // costs its own connection.
                let _ = serve_connection(stream, &conn_shared);
            },
        )?;
        Ok(ShardServer { shared, accept })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// The shard id served.
    pub fn shard(&self) -> u32 {
        self.shared.shard
    }

    /// Current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.store.epoch()
    }

    /// The shard-server metrics line (the payload the telemetry `metrics`
    /// command serves, see [`ShardServer::telemetry_source`]).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }

    /// A [`TelemetrySource`] over this server's own metrics, so a shard
    /// process can expose the standard `metrics`/`stages`/`slow`
    /// telemetry commands on its own port (`netclus-shardd --telemetry`).
    /// Shard servers have no tail-sampler (`slow` is empty) and no
    /// breakers — those live in the router — so `breakers` answers the
    /// endpoint's standard no-breakers error.
    pub fn telemetry_source(&self) -> TelemetrySource {
        let m = Arc::clone(&self.shared);
        let s = Arc::clone(&self.shared);
        TelemetrySource::new(
            move || m.metrics_json(),
            move || s.stages_json(),
            String::new,
        )
    }

    /// Whether a `Shutdown` RPC has been accepted (the accept loop is
    /// winding down).
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::Acquire)
    }

    /// Stops the accept loop and joins all connection threads, also after
    /// a `Shutdown` RPC. Prompt: live connection sockets are shut down so
    /// a worker blocked in a read returns immediately instead of waiting
    /// out the io deadline. Idempotent; dropping the server does the same.
    pub fn shutdown(&mut self) {
        self.accept.shutdown();
    }
}

/// What the fault hook decided to do to this response.
enum Delivery {
    /// Send the response as-is.
    Send(Response),
    /// Send a deliberately CRC-broken frame of the response.
    Corrupt(Response),
    /// Swallow the response (the client's read deadline fires).
    Swallow,
    /// Close the connection without replying.
    Hangup,
}

/// Serves one connection: a loop of framed request → framed response.
/// Any io or protocol error just drops the connection — the router maps
/// that onto its failure taxonomy and the server keeps serving others.
fn serve_connection(stream: TcpStream, shared: &ServerShared) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // One buffer each way for the life of the connection: a request is
    // read into `rx`, a response is encoded, framed and sent from `tx`.
    let (mut rx, mut tx) = (Vec::new(), Vec::new());
    let mut scratch = ProviderScratch::default();
    // A resync transfer pins one encoded corpus snapshot per connection,
    // so every chunk the client assembles comes from the same epoch even
    // while applies land concurrently. Re-pinned when a client restarts
    // the transfer at offset 0.
    let mut resync: Option<(u64, Vec<u8>)> = None;
    while read_frame_into(&mut reader, MAX_SHARD_REQUEST, &mut rx)? {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let Ok(req) = Request::decode(&rx) else {
            // An undecodable request means the stream is torn or the
            // peer is hostile: refuse and close.
            shared.bad_requests.fetch_add(1, Ordering::Relaxed);
            send(
                &mut writer,
                &mut tx,
                &Response::Error(RespError::BadRequest),
            )?;
            break;
        };
        let close_after = matches!(req, Request::Shutdown)
            || matches!(req, Request::Hello { version, .. } if version != SHARD_PROTOCOL_VERSION);
        if matches!(req, Request::Shutdown) {
            shared.stopping.store(true, Ordering::Release);
        }
        match handle_request(shared, req, &mut scratch, &mut resync) {
            Delivery::Send(resp) => send(&mut writer, &mut tx, &resp)?,
            Delivery::Corrupt(resp) => send_corrupted(&mut writer, &mut tx, &resp)?,
            Delivery::Swallow => {}
            Delivery::Hangup => break,
        }
        if close_after {
            break;
        }
    }
    Ok(())
}

/// Encodes and frames `resp` in the connection's buffer and sends it as
/// one write.
fn send(writer: &mut TcpStream, tx: &mut Vec<u8>, resp: &Response) -> io::Result<()> {
    frame_into(tx, |buf| resp.encode_into(buf))?;
    writer.write_all(tx)
}

/// Frames the response, then flips the last payload byte so the CRC
/// check fails on the client — the scripted
/// [`FaultAction::CorruptFrame`] over a real socket.
fn send_corrupted(writer: &mut TcpStream, tx: &mut Vec<u8>, resp: &Response) -> io::Result<()> {
    frame_into(tx, |buf| resp.encode_into(buf))?;
    let last = tx.len() - 1;
    tx[last] ^= 0x01;
    writer.write_all(tx)
}

fn handle_request(
    shared: &ServerShared,
    req: Request,
    scratch: &mut ProviderScratch,
    resync: &mut Option<(u64, Vec<u8>)>,
) -> Delivery {
    match req {
        Request::Hello { version, shard } => {
            if version != SHARD_PROTOCOL_VERSION {
                return Delivery::Send(Response::Error(RespError::VersionSkew));
            }
            if shard != shared.shard {
                shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                return Delivery::Send(Response::Error(RespError::BadRequest));
            }
            let snap = shared.store.load();
            Delivery::Send(Response::HelloAck {
                version: SHARD_PROTOCOL_VERSION,
                shard: shared.shard,
                epoch: snap.epoch(),
                traj_id_bound: snap.trajs().id_bound() as u64,
                live_trajs: snap.trajs().len() as u64,
            })
        }
        Request::Round1 {
            shard,
            k,
            tau_bits,
            psi_tag,
            psi_param,
        } => {
            let mut answer = || {
                let query = round1_query(shared, shard, k, tau_bits, psi_tag, psi_param)?;
                Some(round1_response(shared, &query, scratch))
            };
            // The scripted fault hook sits where the in-process worker's
            // does: on the round-1 task path, sequenced per request.
            let fault = shared.fault_plan.as_ref().and_then(|plan| {
                let seq = shared.fault_seq.fetch_add(1, Ordering::Relaxed);
                // A standalone server process is one replica of its
                // shard; replica scoping is decided by which server a
                // plan is installed on, so the hook reports replica 0.
                plan.decide(shared.shard, 0, seq)
            });
            match fault {
                Some(FaultAction::Delay(d)) | Some(FaultAction::Stall(d)) => {
                    // Delay answers late; Stall (typically scripted past
                    // the client's read deadline) answers so late the
                    // client has already classified the shard TimedOut.
                    std::thread::sleep(d);
                }
                Some(FaultAction::Error) => {
                    shared.injected_faults.fetch_add(1, Ordering::Relaxed);
                    return Delivery::Send(Response::Error(RespError::Injected));
                }
                Some(FaultAction::Panic) => {
                    shared.injected_faults.fetch_add(1, Ordering::Relaxed);
                    // The connection thread dies; the client observes the
                    // hangup as `Dropped`.
                    panic!("scripted shard-server panic (fault injection)");
                }
                Some(FaultAction::Drop) => {
                    shared.injected_faults.fetch_add(1, Ordering::Relaxed);
                    return Delivery::Swallow;
                }
                Some(FaultAction::DropConnection) => {
                    shared.injected_faults.fetch_add(1, Ordering::Relaxed);
                    return Delivery::Hangup;
                }
                Some(FaultAction::CorruptFrame) => {
                    shared.injected_faults.fetch_add(1, Ordering::Relaxed);
                    // Compute the real answer, then break its frame.
                    if let Some(resp) = answer() {
                        return Delivery::Corrupt(resp);
                    }
                    return Delivery::Send(Response::Error(RespError::BadRequest));
                }
                None => {}
            }
            match answer() {
                Some(resp) => Delivery::Send(resp),
                None => {
                    shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                    Delivery::Send(Response::Error(RespError::BadRequest))
                }
            }
        }
        Request::Apply { ops } => {
            let (receipt, results) = shared.store.apply_routed_results(&ops);
            // The new epoch is published: rows carry across it (or are
            // purged), older rounds are dead weight.
            let snap = shared.store.load();
            if let Some(providers) = &shared.providers {
                carry_rows(
                    providers,
                    receipt.epoch,
                    &[(shared.shard, Arc::clone(&snap))],
                );
            }
            if let Some(rounds) = &shared.rounds {
                rounds.invalidate_before(receipt.epoch);
            }
            shared.apply_batches.fetch_add(1, Ordering::Relaxed);
            Delivery::Send(Response::ApplyAck {
                epoch: receipt.epoch,
                results,
            })
        }
        Request::Resync { shard, offset } => {
            if shard != shared.shard {
                shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                return Delivery::Send(Response::Error(RespError::BadRequest));
            }
            if offset == 0 || resync.is_none() {
                let snap = shared.store.load();
                let blob = ResyncSnapshot::capture(&snap).encode();
                *resync = Some((snap.epoch(), blob));
                if offset == 0 {
                    shared.resyncs_served.fetch_add(1, Ordering::Relaxed);
                }
            }
            let (epoch, blob) = resync.as_ref().expect("resync blob pinned above");
            let offset = offset as usize;
            if offset > blob.len() {
                shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                return Delivery::Send(Response::Error(RespError::BadRequest));
            }
            let end = blob.len().min(offset + MAX_RESYNC_CHUNK);
            Delivery::Send(Response::ResyncChunk {
                epoch: *epoch,
                total_len: blob.len() as u64,
                data: blob[offset..end].to_vec(),
            })
        }
        Request::Shutdown => Delivery::Send(Response::ShutdownAck),
    }
}

/// Validates the fields of one round-1 request into the query they name;
/// `None` is a refusal (mis-routed shard, unknown ψ, hostile `k`,
/// non-finite τ).
fn round1_query(
    shared: &ServerShared,
    shard: u32,
    k: u64,
    tau_bits: u64,
    psi_tag: u8,
    psi_param: u64,
) -> Option<TopsQuery> {
    if shard != shared.shard {
        return None;
    }
    let tau = f64::from_bits(tau_bits);
    if !tau.is_finite() || tau <= 0.0 {
        return None;
    }
    if k == 0 || k > MAX_WIRE_CANDIDATES as u64 {
        return None;
    }
    Some(TopsQuery {
        k: k as usize,
        tau,
        preference: preference_from_key(psi_tag, psi_param)?,
    })
}

/// Answers one validated round-1 request against the server's own caches.
fn round1_response(
    shared: &ServerShared,
    query: &TopsQuery,
    scratch: &mut ProviderScratch,
) -> Response {
    let snap = shared.store.load();
    let started = std::time::Instant::now();
    let mut ctx = Round1Ctx {
        shard: shared.shard,
        deadline: None,
        providers: shared.providers.as_ref(),
        rounds: shared.rounds.as_ref(),
        build_threads: 1,
        scratch,
        provider_build: &shared.provider_build,
    };
    let ok = resolve_round1(&snap, query, &mut ctx);
    shared.round1_latency.record(started.elapsed());
    shared.round1_served.fetch_add(1, Ordering::Relaxed);
    shared.gauge.observe(ok.source);
    Response::Round1Ok {
        epoch: ok.epoch,
        bound: ok.bound as u64,
        source: ok.source,
        round: ok.round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRule;
    use crate::framing::{read_frame, write_frame};
    use crate::shard_router::{RemoteShardConfig, ShardTransport, TransportCounters};
    use crate::snapshot::RoutedOp;
    use crate::ShardFailure;
    use netclus::prelude::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};
    use netclus_trajectory::{Trajectory, TrajectorySet};
    use std::io::BufWriter;
    use std::sync::Arc;

    /// A raw client connection: frames go out on the writer, replies are
    /// read from the reader.
    type Conn = (BufWriter<TcpStream>, BufReader<TcpStream>);

    fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        (
            BufWriter::new(stream.try_clone().unwrap()),
            BufReader::new(stream),
        )
    }

    fn line_store() -> SnapshotStore {
        let mut b = RoadNetworkBuilder::new();
        let nodes: Vec<_> = (0..8)
            .map(|i| b.add_node(Point::new(i as f64 * 300.0, 0.0)))
            .collect();
        for w in nodes.windows(2) {
            b.add_two_way(w[0], w[1], 300.0).unwrap();
        }
        let net = Arc::new(b.build().unwrap());
        let mut trajs = TrajectorySet::for_network(&net);
        trajs.add(Trajectory::new(nodes[0..5].to_vec()));
        trajs.add(Trajectory::new(nodes[2..8].to_vec()));
        let sites: Vec<_> = net.nodes().collect();
        let index = NetClusIndex::build(
            &net,
            &trajs,
            &sites,
            NetClusConfig {
                tau_min: 600.0,
                tau_max: 2_400.0,
                threads: 1,
                ..Default::default()
            },
        );
        SnapshotStore::with_shared_net(net, trajs, index)
    }

    fn server(cfg: ShardServerConfig) -> ShardServer {
        ShardServer::start("127.0.0.1:0", 0, line_store(), cfg).expect("start shard server")
    }

    fn remote(server: &ShardServer) -> crate::shard_router::RemoteShard {
        crate::shard_router::RemoteShard::new(0, server.addr(), RemoteShardConfig::default())
    }

    #[test]
    fn hello_round1_apply_over_a_real_socket() {
        let mut srv = server(ShardServerConfig::default());
        let shard = remote(&srv);
        let hello = shard.hello().expect("hello");
        assert_eq!(hello.epoch, 0);
        assert_eq!(hello.live_trajs, 2);

        // Round 1 through the ShardTransport interface.
        let query = TopsQuery::binary(2, 900.0);
        let mut scratch = ProviderScratch::default();
        let hist = LatencyHistogram::default();
        let mut ctx = crate::shard_router::Round1Ctx {
            shard: 0,
            deadline: None,
            providers: None,
            rounds: None,
            build_threads: 1,
            scratch: &mut scratch,
            provider_build: &hist,
        };
        let ok = shard.round1(&query, &mut ctx).expect("round1");
        assert_eq!(ok.epoch, 0);
        assert!(!ok.round.candidates.is_empty());

        // An empty lockstep batch still advances the epoch.
        let outcome = shard.apply(&[]).expect("apply");
        assert_eq!(outcome.epoch, 1);
        assert!(outcome.results.is_empty());
        assert_eq!(shard.epoch(), 1);

        // A routed remove acks true and drops the live count.
        let outcome = shard
            .apply(&[RoutedOp::RemoveTrajectory(netclus_trajectory::TrajId(0))])
            .expect("apply remove");
        assert_eq!(outcome.epoch, 2);
        assert_eq!(outcome.results, vec![true]);
        assert_eq!(srv.epoch(), 2);
        srv.shutdown();
    }

    /// An `Apply` of trajectory adds and removes carries the server's
    /// rows into the new epoch: the next round 1 builds none and returns
    /// the candidates of a server that holds no rows.
    #[test]
    fn a_trajectory_only_apply_carries_the_rows() {
        use netclus_roadnet::NodeId;
        use netclus_trajectory::TrajId;
        let ops = [
            RoutedOp::AddTrajectoryAt(TrajId(2), Trajectory::new((1..4).map(NodeId).collect())),
            RoutedOp::RemoveTrajectory(TrajId(0)),
        ];
        let mut srv = server(ShardServerConfig::default());
        let mut cold = server(ShardServerConfig {
            provider_cache_capacity: 0,
            round_memo_capacity: 0,
            ..Default::default()
        });
        let (shard, bare) = (remote(&srv), remote(&cold));
        let (mut scratch, hist) = (ProviderScratch::default(), LatencyHistogram::default());
        let mut round1 = |transport: &crate::shard_router::RemoteShard| {
            let mut ctx = crate::shard_router::Round1Ctx {
                shard: 0,
                deadline: None,
                providers: None,
                rounds: None,
                build_threads: 1,
                scratch: &mut scratch,
                provider_build: &hist,
            };
            transport
                .round1(&TopsQuery::binary(2, 900.0), &mut ctx)
                .expect("round1")
        };
        round1(&shard);
        let providers = srv.shared.providers.as_ref().expect("provider cache");
        assert_eq!(providers.stats().misses, 1);
        assert_eq!(shard.apply(&ops).expect("apply").results, vec![true, true]);
        assert_eq!(bare.apply(&ops).expect("apply").results, vec![true, true]);
        let stats = providers.stats();
        assert_eq!(
            (stats.entries, stats.invalidated),
            (1, 0),
            "the rows were not carried"
        );
        let (carried, want) = (round1(&shard), round1(&bare));
        assert_eq!((carried.epoch, want.epoch), (1, 1));
        assert_eq!(providers.stats().misses, 1, "carried rows were rebuilt");
        assert_eq!(carried.round.candidates, want.round.candidates);
        assert_eq!(
            carried.round.local_utility.to_bits(),
            want.round.local_utility.to_bits()
        );
        srv.shutdown();
        cold.shutdown();
    }

    #[test]
    fn version_skew_and_misrouted_requests_are_refused() {
        let mut srv = server(ShardServerConfig::default());
        // Wrong shard id in the handshake: the transport reports skew
        // (its hello validates the ack) or corrupt; the server answers
        // BadRequest which the client maps to CorruptReply.
        let wrong =
            crate::shard_router::RemoteShard::new(7, srv.addr(), RemoteShardConfig::default());
        assert!(matches!(
            wrong.hello(),
            Err(ShardFailure::CorruptReply) | Err(ShardFailure::VersionSkew)
        ));
        srv.shutdown();
    }

    #[test]
    fn hostile_round1_fields_get_bad_request_not_panic() {
        let mut srv = server(ShardServerConfig::default());
        let rpc = |(writer, reader): &mut Conn, payload: &[u8]| {
            write_frame(writer, payload).unwrap();
            writer.flush().unwrap();
            let frame = read_frame(reader, crate::wire::MAX_SHARD_RESPONSE)
                .unwrap()
                .unwrap();
            Response::decode(&frame).unwrap()
        };
        let hello = |version| Request::Hello { version, shard: 0 }.encode();
        let mut conn = connect(srv.addr());
        // NaN τ, k = 0, unknown ψ, wrong shard — all typed refusals.
        let round1 = |shard, k, tau: f64, psi_tag| Request::Round1 {
            shard,
            k,
            tau_bits: tau.to_bits(),
            psi_tag,
            psi_param: 0,
        };
        let bads = [
            round1(0, 1, f64::NAN, 0),
            round1(0, 0, 900.0, 0),
            round1(0, 1, 900.0, 9),
            round1(3, 1, 900.0, 0),
        ];
        for bad in &bads {
            assert_eq!(
                rpc(&mut conn, &bad.encode()),
                Response::Error(RespError::BadRequest),
                "{bad:?}"
            );
        }
        // The connection is still serviceable afterwards.
        assert!(matches!(
            rpc(&mut conn, &hello(SHARD_PROTOCOL_VERSION)),
            Response::HelloAck { .. }
        ));
        // Refused, then hung up on: a peer still speaking protocol 1
        // (interleaved rows) or 2 (the retired kinds and fields), so no
        // older reader is ever handed a reply in this version's layout,
        // and the undecodable tags of the retired `Report` (3) and
        // `Heartbeat` (4) requests.
        let closing = [
            (hello(1), RespError::VersionSkew),
            (hello(SHARD_PROTOCOL_VERSION - 1), RespError::VersionSkew),
            (vec![3], RespError::BadRequest),
            (vec![4], RespError::BadRequest),
        ];
        for (payload, refusal) in closing {
            let mut conn = connect(srv.addr());
            assert_eq!(
                rpc(&mut conn, &payload),
                Response::Error(refusal),
                "{payload:?}"
            );
            let (writer, reader) = &mut conn;
            write_frame(writer, &hello(SHARD_PROTOCOL_VERSION)).unwrap();
            let _ = writer.flush();
            assert!(
                !matches!(
                    read_frame(reader, crate::wire::MAX_SHARD_RESPONSE),
                    Ok(Some(_))
                ),
                "the server kept serving after refusing {payload:?}"
            );
        }
        srv.shutdown();
    }

    /// The client side of the skew: a server that acks the handshake with
    /// protocol 1, or refuses ours, is `VersionSkew` — never a connection
    /// whose replies would be decoded under the wrong row layout.
    #[test]
    fn a_v1_server_is_refused_by_the_client() {
        use std::net::TcpListener;
        for ack_as_v1 in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let old_server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let hello = read_frame(&mut stream, MAX_SHARD_REQUEST)
                    .unwrap()
                    .expect("the client opens with a hello");
                assert_eq!(
                    Request::decode(&hello).unwrap(),
                    Request::Hello {
                        version: SHARD_PROTOCOL_VERSION,
                        shard: 0
                    }
                );
                let reply = if ack_as_v1 {
                    Response::HelloAck {
                        version: 1,
                        shard: 0,
                        epoch: 0,
                        traj_id_bound: 0,
                        live_trajs: 0,
                    }
                } else {
                    Response::Error(RespError::VersionSkew)
                };
                write_frame(&mut stream, &reply.encode()).unwrap();
            });
            let shard =
                crate::shard_router::RemoteShard::new(0, addr, RemoteShardConfig::default());
            assert!(matches!(shard.hello(), Err(ShardFailure::VersionSkew)));
            old_server.join().unwrap();
        }
    }

    #[test]
    fn scripted_socket_faults_map_to_the_failure_taxonomy() {
        let plan = FaultPlan::new(11)
            .with_rule(FaultRule {
                shard: 0,
                replica: None,
                action: FaultAction::Error,
                probability: 1.0,
                window: Some((0, 1)),
            })
            .with_rule(FaultRule {
                shard: 0,
                replica: None,
                action: FaultAction::CorruptFrame,
                probability: 1.0,
                window: Some((1, 2)),
            })
            .with_rule(FaultRule {
                shard: 0,
                replica: None,
                action: FaultAction::DropConnection,
                probability: 1.0,
                window: Some((2, 3)),
            });
        let mut srv = server(ShardServerConfig {
            fault_plan: Some(plan),
            ..Default::default()
        });
        let shard = remote(&srv);
        let query = TopsQuery::binary(1, 900.0);
        let hist = LatencyHistogram::default();
        let mut scratch = ProviderScratch::default();
        let run = |scratch: &mut ProviderScratch| {
            let mut ctx = crate::shard_router::Round1Ctx {
                shard: 0,
                deadline: None,
                providers: None,
                rounds: None,
                build_threads: 1,
                scratch,
                provider_build: &hist,
            };
            shard.round1(&query, &mut ctx)
        };
        assert!(matches!(run(&mut scratch), Err(ShardFailure::Injected)));
        assert!(matches!(run(&mut scratch), Err(ShardFailure::CorruptReply)));
        assert!(matches!(run(&mut scratch), Err(ShardFailure::Dropped)));
        // The script is exhausted: service recovers over a fresh
        // connection (the transport reconnects transparently).
        assert!(run(&mut scratch).is_ok());
        let counters = shard.counters().expect("remote counters");
        let snap = TransportCounters::rollup(std::iter::once(counters));
        assert_eq!(snap.errors, 3);
        assert!(snap.reconnects >= 2, "faults force reconnects");
        // Four RPCs went out; only the one that completed has a latency.
        assert_eq!((snap.requests, snap.rpc.count), (4, 1));
        assert!(snap.rpc.max_micros > 0);
        srv.shutdown();
    }

    #[test]
    fn metrics_json_and_telemetry_serve_the_metrics_line() {
        let mut srv = server(ShardServerConfig::default());
        let line = srv.metrics_json();
        assert!(line.contains("\"shard\":0"));
        assert!(line.contains("\"live_trajs\":2"));
        let telemetry =
            crate::telemetry::TelemetryServer::start("127.0.0.1:0", srv.telemetry_source())
                .expect("telemetry");
        let fetched = crate::telemetry::fetch(telemetry.addr(), "metrics").unwrap();
        assert!(fetched.contains("\"shard\":0"));
        let stages = crate::telemetry::fetch(telemetry.addr(), "stages").unwrap();
        assert!(stages.contains("stage_round1_p50_us"));
        // health/breakers answer their standard unattached errors.
        assert!(crate::telemetry::fetch(telemetry.addr(), "breakers")
            .unwrap()
            .contains("no circuit breakers"));
        srv.shutdown();
    }

    #[test]
    fn a_connection_past_the_cap_is_closed_without_a_reply() {
        let srv = server(ShardServerConfig::default());
        let hello = |(writer, reader): &mut Conn| {
            let req = Request::Hello {
                version: SHARD_PROTOCOL_VERSION,
                shard: 0,
            };
            write_frame(writer, &req.encode())?;
            writer.flush()?;
            read_frame(reader, crate::wire::MAX_SHARD_RESPONSE)
        };
        // Accepts are in order: the held connections take every slot
        // before the next one is seen.
        let mut held: Vec<_> = (0..MAX_CONNECTIONS).map(|_| connect(srv.addr())).collect();
        let mut excess = connect(srv.addr());
        let started = std::time::Instant::now();
        let shed = hello(&mut excess);
        assert!(
            !matches!(shed, Ok(Some(_))),
            "the excess connection was served"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the excess connection was left open, not closed"
        );
        for conn in &mut held {
            let frame = hello(conn).unwrap().expect("a held connection is served");
            assert!(matches!(
                Response::decode(&frame).unwrap(),
                Response::HelloAck { .. }
            ));
        }
    }

    #[test]
    fn shutdown_rpc_stops_the_accept_loop() {
        let srv = server(ShardServerConfig::default());
        let (mut writer, mut reader) = connect(srv.addr());
        write_frame(&mut writer, &Request::Shutdown.encode()).unwrap();
        writer.flush().unwrap();
        let frame = read_frame(&mut reader, crate::wire::MAX_SHARD_RESPONSE)
            .unwrap()
            .unwrap();
        assert_eq!(Response::decode(&frame).unwrap(), Response::ShutdownAck);
        assert!(srv.is_stopping());
    }
}
