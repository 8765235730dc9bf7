//! Cross-process replicated cluster demo: four shards × two
//! `netclus-shardd` replicas each (eight child processes), a
//! remote-transport `ShardRouter` hedging round 1 over framed TCP, and
//! an in-process router over the identical corpus as the exactness
//! reference.
//!
//! The acceptance arc, all asserted:
//!
//! * every child rebuilds the deterministic `(seed, scale, shards)`
//!   corpus and serves its shard; the parent connects to both replicas
//!   of every shard with a versioned hello handshake;
//! * remote top-k answers are **bit-identical** to the in-process
//!   router, before and after an epoch-lockstep update batch fanned out
//!   to every replica through the `Apply` RPC;
//! * one replica of **every** shard is killed mid-stream (SIGKILL, no
//!   goodbye): every answer stays full and bit-identical — failover to
//!   the surviving replica, never a degraded merge — and the post-kill
//!   latencies are printed as the failover p50/p99;
//! * a killed replica rejoins with `--join`: it resyncs to the live
//!   epoch from the surviving replica and serves byte-identical round-1
//!   responses;
//! * only killing the **last** replica of a shard degrades an answer,
//!   with the sound conservative utility bound;
//! * the survivors exit through the graceful `Shutdown` RPC.
//!
//! Build the server first: `cargo build -p netclus-shardd`, then
//! `cargo run --example cluster` (CI runs both in release).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_service::framing::{read_frame, write_frame};
use netclus_service::shard_proto::{round1_request, Request, Response};
use netclus_service::wire::MAX_SHARD_RESPONSE;
use netclus_service::{
    telemetry, InProcessShard, RemoteShardConfig, ShardRouter, ShardRouterConfig, ShardTransport,
    SnapshotStore, UpdateOp,
};
use netclus_shardd::build_corpus;
use netclus_trajectory::TrajId;

const SHARDS: usize = 4;
const REPLICAS: usize = 2;
const SEED: u64 = 0xC1A5;
const SCALE: f64 = 0.05;
/// The shard whose **last** replica the final chaos phase kills, forcing
/// the degraded lane.
const VICTIM: usize = 2;

/// A spawned shard-replica process plus the addresses it announced.
/// Killed on drop so a failed assertion never leaks children into CI.
struct ShardProc {
    child: Child,
    addr: SocketAddr,
    /// Only replica 0 of each shard opens a telemetry port.
    telemetry: Option<SocketAddr>,
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `target/<profile>/netclus-shardd`, next to this example's own binary.
fn shardd_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let profile_dir = exe
        .parent()
        .and_then(|examples| examples.parent())
        .expect("examples dir inside the target profile dir");
    let bin = profile_dir.join("netclus-shardd");
    assert!(
        bin.exists(),
        "{} not found — run `cargo build -p netclus-shardd` first",
        bin.display()
    );
    bin
}

/// Spawns one replica of `shard`. With `join`, the child resyncs from
/// that peer before listening (the rejoin lane) and announces the epoch
/// it caught up to.
fn spawn_replica(
    bin: &PathBuf,
    shard: usize,
    telemetry: bool,
    join: Option<SocketAddr>,
) -> (ShardProc, Option<u64>) {
    let mut args = vec![
        "--shard".to_string(),
        shard.to_string(),
        "--shards".to_string(),
        SHARDS.to_string(),
        "--seed".to_string(),
        SEED.to_string(),
        "--scale".to_string(),
        SCALE.to_string(),
    ];
    if telemetry {
        args.push("--telemetry".to_string());
        args.push("127.0.0.1:0".to_string());
    }
    if let Some(peer) = join {
        args.push("--join".to_string());
        args.push(peer.to_string());
    }
    let mut child = Command::new(bin)
        .args(&args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn netclus-shardd");
    let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();
    let mut read_line = |tag: &str| -> String {
        let line = lines
            .next()
            .expect("child announced a line")
            .expect("read child stdout");
        let want = format!("SHARD {shard} {tag} ");
        line.strip_prefix(&want)
            .unwrap_or_else(|| panic!("unexpected announcement {line:?}, wanted {want:?}"))
            .to_string()
    };
    let resynced = join.map(|_| {
        read_line("RESYNCED")
            .parse::<u64>()
            .expect("resynced epoch parses")
    });
    let addr: SocketAddr = read_line("LISTENING").parse().expect("address parses");
    let telemetry = telemetry.then(|| read_line("TELEMETRY").parse().expect("address parses"));
    (
        ShardProc {
            child,
            addr,
            telemetry,
        },
        resynced,
    )
}

/// One framed request → response exchange over a fresh connection.
fn rpc(addr: SocketAddr, req: &Request) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write_frame(&mut stream, &req.encode())?;
    stream.flush()?;
    read_frame(&mut stream, MAX_SHARD_RESPONSE)?
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "no reply"))
}

fn main() {
    // Spawn the cluster first — the children build their corpus copies
    // while the parent builds its own two.
    let bin = shardd_binary();
    let t = Instant::now();
    // procs[shard][replica]; replica 0 carries the telemetry port.
    let mut procs: Vec<Vec<ShardProc>> = (0..SHARDS)
        .map(|s| {
            (0..REPLICAS)
                .map(|r| spawn_replica(&bin, s, r == 0, None).0)
                .collect()
        })
        .collect();
    let addr_sets: Vec<Vec<SocketAddr>> = procs
        .iter()
        .map(|set| set.iter().map(|p| p.addr).collect())
        .collect();
    println!(
        "[spawn] {SHARDS} shards x {REPLICAS} replicas up in {:?}",
        t.elapsed()
    );

    // The in-process reference over the identical deterministic corpus.
    let corpus = build_corpus(SEED, SCALE, SHARDS);
    let transports: Vec<Vec<Box<dyn ShardTransport>>> = corpus
        .shards
        .into_iter()
        .map(|view| {
            vec![Box::new(InProcessShard::new(SnapshotStore::with_shared_net(
                Arc::clone(&corpus.net),
                view.trajs,
                view.index,
            ))) as Box<dyn ShardTransport>]
        })
        .collect();
    let local = ShardRouter::start_with_replica_transports(
        Arc::clone(&corpus.net),
        corpus.partition.clone(),
        transports,
        corpus.traj_id_bound as u64,
        0,
        corpus.replication.clone(),
        ShardRouterConfig::default(),
    )
    .expect("start in-process reference router");

    // The remote router: hello handshakes to both replicas of every
    // shard, persistent framed TCP connections.
    let remote = ShardRouter::connect_replicated(
        Arc::clone(&corpus.net),
        corpus.partition.clone(),
        &addr_sets,
        ShardRouterConfig::default(),
        RemoteShardConfig::default(),
    )
    .expect("connect remote router");
    assert_eq!(remote.transport_kinds(), vec!["remote"; SHARDS]);
    assert_eq!(remote.replica_counts(), vec![REPLICAS; SHARDS]);
    println!("[conn ] remote router connected to {addr_sets:?}");

    let queries: Vec<TopsQuery> = [600.0, 1_000.0, 1_600.0, 2_400.0]
        .iter()
        .flat_map(|&tau| (1..=6).map(move |k| TopsQuery::binary(k, tau)))
        .collect();
    let mut answered_full = 0u64;

    // Phase 1 — bit-identical scatter-gather across process boundaries,
    // at epoch 0 and again after an epoch-lockstep update batch fanned
    // out to all eight replicas.
    for epoch in 0..2u64 {
        if epoch == 1 {
            let batch = vec![
                UpdateOp::RemoveTrajectory(TrajId(0)),
                UpdateOp::RemoveTrajectory(TrajId(1)),
            ];
            let rl = local.apply_updates(batch.clone());
            let rr = remote.apply_updates(batch);
            assert_eq!((rl.epoch, rr.epoch), (1, 1), "epoch lockstep over RPC");
            assert_eq!(
                (rl.applied, rl.rejected),
                (rr.applied, rr.rejected),
                "apply outcomes must match"
            );
        }
        for q in &queries {
            let a = local.query_blocking(*q).expect("local answer");
            let b = remote.query_blocking(*q).expect("remote answer");
            assert!(!b.degraded && !b.stale, "healthy cluster answers full");
            assert_eq!(b.epoch, epoch);
            assert!(
                b.sites == a.sites && b.utility.to_bits() == a.utility.to_bits(),
                "remote answer diverged (k={})",
                q.k
            );
            answered_full += 1;
        }
    }
    println!("[exact] {answered_full} remote answers bit-identical to in-process");

    // Phase 2 — each shard's replica 0 answers the standard telemetry
    // commands on its own port; dump the metrics as CI artifacts next to
    // the router's slow-query trace log.
    let artifact_dir = std::env::var("NETCLUS_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/cluster-artifacts"));
    std::fs::create_dir_all(&artifact_dir).expect("create artifact dir");
    for (s, set) in procs.iter().enumerate() {
        let port = set[0].telemetry.expect("replica 0 has telemetry");
        let metrics = telemetry::fetch(port, "metrics").expect("shard metrics");
        assert!(
            metrics.contains(&format!("\"shard\":{s}")),
            "shard {s} metrics must identify itself: {metrics}"
        );
        assert!(metrics.contains("\"round1_served\":"), "served counters");
        std::fs::write(
            artifact_dir.join(format!("shard{s}-metrics.json")),
            &metrics,
        )
        .expect("write shard metrics artifact");
    }
    println!(
        "[tele ] {SHARDS} shard telemetry ports probed, artifacts in {}",
        artifact_dir.display()
    );

    // Phase 3 — SIGKILL one replica of EVERY shard mid-stream: replica 0,
    // the router's preferred target, so every shard is forced through a
    // real failover (killing the backup would be invisible). No goodbye:
    // the next scatter sees dead sockets everywhere, fails over to the
    // surviving replica per shard, and every answer stays full and
    // bit-identical. The post-kill latencies are the failover tail.
    for set in procs.iter_mut() {
        set[0].child.kill().expect("kill shard replica");
        set[0].child.wait().expect("reap shard replica");
    }
    let mut failover_us: Vec<u64> = Vec::new();
    for q in &queries {
        let a = local.query_blocking(*q).expect("local answer");
        let t = Instant::now();
        let b = remote
            .query_blocking(*q)
            .expect("failover answer after replica kills");
        failover_us.push(t.elapsed().as_micros() as u64);
        assert!(
            !b.degraded && !b.stale,
            "a surviving replica per shard means no degraded answers (k={})",
            q.k
        );
        assert!(
            b.sites == a.sites && b.utility.to_bits() == a.utility.to_bits(),
            "failover answer diverged (k={})",
            q.k
        );
    }
    failover_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        let idx = ((failover_us.len() as f64 - 1.0) * p).round() as usize;
        failover_us[idx]
    };
    let (failover_p50, failover_p99) = (pct(0.50), pct(0.99));
    let fault = remote.fault_report();
    assert!(
        fault.replica_failovers > 0,
        "kills must surface as failovers: {fault:?}"
    );
    assert_eq!(
        fault.degraded_answers, 0,
        "no degraded answers with a live sibling"
    );
    println!(
        "[chaos] {SHARDS} replicas SIGKILLed; {} failover answers full, p50 {failover_p50}us p99 {failover_p99}us, {} failovers",
        queries.len(),
        fault.replica_failovers
    );

    // Phase 4 — rejoin: restart shard 0's killed replica with --join
    // pointing at its surviving sibling. The child resyncs to the live
    // epoch before listening and serves byte-identical round-1 responses.
    let lockstep = remote.epoch();
    let (rejoined, resynced) = spawn_replica(&bin, 0, false, Some(procs[0][1].addr));
    let resynced = resynced.expect("--join announces the resynced epoch");
    assert_eq!(
        resynced, lockstep,
        "rejoined replica caught up to the live epoch"
    );
    let probe = round1_request(0, &TopsQuery::binary(3, 1_000.0));
    // The encoded replies carry timing diagnostics (elapsed, cache lane);
    // the answer payload — epoch, id bound, candidates with their coverage
    // rows — must be bit-exact between the survivor and the rejoiner.
    let round1_payload = |raw: &[u8]| match Response::decode(raw).expect("round-1 decodes") {
        Response::Round1Ok {
            epoch,
            bound,
            round,
            ..
        } => (
            epoch,
            bound,
            round.candidates,
            round.k,
            round.instance,
            round.representatives,
            round.local_utility.to_bits(),
        ),
        other => panic!("expected Round1Ok, got {other:?}"),
    };
    let from_survivor = round1_payload(&rpc(procs[0][1].addr, &probe).expect("survivor round-1"));
    let from_rejoined = round1_payload(&rpc(rejoined.addr, &probe).expect("rejoined round-1"));
    assert_eq!(
        from_survivor, from_rejoined,
        "rejoined replica must serve a bit-identical round-1 payload"
    );
    println!("[join ] killed replica rejoined at epoch {resynced}, responses byte-identical");

    // Phase 5 — kill the VICTIM shard's last replica: only now, with the
    // whole replica set down, does the degraded lane open, with a sound
    // conservative utility bound.
    let full = local
        .query_blocking(TopsQuery::binary(3, 1_000.0))
        .expect("reference answer");
    procs[VICTIM][1].child.kill().expect("kill last replica");
    procs[VICTIM][1].child.wait().expect("reap last replica");
    let t = Instant::now();
    let a = remote
        .query_blocking(TopsQuery::binary(3, 1_000.0))
        .expect("degraded answer after losing the whole replica set");
    assert!(t.elapsed() < Duration::from_secs(10), "no hang on outage");
    assert!(a.degraded && !a.stale, "answer must be degraded");
    assert!(
        a.shards_missing.contains(&(VICTIM as u32)),
        "the dead shard is the missing one: {:?}",
        a.shards_missing
    );
    assert!(
        (0.0..=1.0).contains(&a.utility_bound) && a.utility_bound > 0.0,
        "bound in (0, 1]: {}",
        a.utility_bound
    );
    let true_ratio = a.utility / full.utility;
    assert!(
        a.utility_bound <= true_ratio + 1e-9,
        "bound {} must not exceed the true ratio {true_ratio}",
        a.utility_bound
    );
    println!(
        "[chaos] shard {VICTIM} fully down; degraded answer bound {:.3} <= true ratio {:.3}",
        a.utility_bound, true_ratio
    );

    // Phase 6 — graceful stop: the survivors exit through the Shutdown
    // RPC and the parent reaps clean exit codes.
    let report = remote.metrics_report();
    let lanes = report.shards.as_ref().expect("a router reports its shards");
    // The RPC latency rollup moved: one sample per completed RPC.
    let rtt = lanes.transport_rpc;
    assert!(rtt.count > 0 && rtt.count <= lanes.transport_requests);
    assert!(rtt.p50_micros > 0 && rtt.p50_micros <= rtt.max_micros);
    assert!(lanes.lanes.iter().all(|l| l.transport == "remote"));
    std::fs::write(
        artifact_dir.join("router-metrics.json"),
        report.to_json_line(),
    )
    .expect("write router metrics artifact");
    std::fs::write(
        artifact_dir.join("router-slow.jsonl"),
        remote.tracer().slow_log_jsonl(),
    )
    .expect("write slow-query artifact");
    remote.shutdown();
    local.shutdown();
    let mut survivors: Vec<ShardProc> = vec![rejoined];
    for (s, set) in procs.drain(..).enumerate() {
        for (r, p) in set.into_iter().enumerate() {
            if r == 1 && s != VICTIM {
                survivors.push(p);
            }
        }
    }
    for proc_ in survivors.iter_mut() {
        let ack = rpc(proc_.addr, &Request::Shutdown).expect("shutdown RPC");
        assert_eq!(
            Response::decode(&ack).expect("ack decodes"),
            Response::ShutdownAck
        );
        let status = proc_.child.wait().expect("reap shard process");
        assert!(status.success(), "replica must exit clean: {status:?}");
    }

    println!("[done ] replicated cluster demo complete");
}
