//! Where a memo-warm remote round 1 goes, stage by stage, per ψ.
//!
//! A hot remote query is four RPCs and a merge: each shard server slices
//! its memoised round to the `k` asked for, encodes it, checksums the
//! frame and writes it to the socket; the router reads it, checksums it,
//! decodes it, and merges the four rounds. This probe builds the
//! benchmark's city, cuts it into four shards, puts one loopback
//! [`ShardServer`] in front of each, warms every server's memo with the
//! hot mix's 72 (τ, ψ) at `k = 20`, and then times each stage around the
//! public call that does it:
//!
//! * server side, replayed here against the same rounds the servers hold
//!   — `memo` ([`RoundOneCache::lookup`]), `encode`
//!   ([`Response::encode_into`] inside [`frame_into`]), `crc` (the rest
//!   of that call: the payload's CRC and the header), `write`
//!   (`write_all` of the frame into a loopback socket a sink thread
//!   drains);
//! * client side, speaking the protocol to the real servers — `wait`
//!   (request sent → reply header read: the server's whole turn as the
//!   client sees it; the header is decoded by [`FrameHeader::decode`]),
//!   `read` (the payload), `crc` ([`FrameHeader::verify`]), `decode`
//!   ([`Response::decode`]);
//! * per query — `merge build` and `merge solve`
//!   ([`merge_candidates_timed`]).
//!
//! Every sample is checked: the reply decodes to a round `==` the
//! in-process round for the same query, and the merged answer's sites and
//! utility bits are those of [`ShardedNetClusIndex::query`] — the probe
//! cannot time a wrong answer.
//!
//! Run with:
//! ```text
//! cargo run --release --example rpc_profile [-- --scale 0.25]
//! ```

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus::shard::{local_candidates, merge_candidates_timed, ShardRoundOne};
use netclus_datagen::{beijing_like, ScenarioConfig};
use netclus_roadnet::RegionPartition;
use netclus_service::framing::{frame_into, read_frame, write_frame, FrameHeader, HEADER_BYTES};
use netclus_service::shard_proto::{round1_request, Request, Response, SHARD_PROTOCOL_VERSION};
use netclus_service::wire::MAX_SHARD_RESPONSE;
use netclus_service::{
    Round1Source, RoundKey, RoundOneCache, ShardServer, ShardServerConfig, SnapshotStore,
};

const SHARDS: usize = 4;
/// The hot mix: 24 thresholds × 3 ψ, memoised at the largest `k`.
const TAUS: usize = 24;
const WARM_K: usize = 20;
/// The `k` each (τ, ψ) is sampled at: prefixes of the memoised round.
const SAMPLE_KS: [usize; 3] = [5, 10, 20];

fn hot_tau(t: usize) -> f64 {
    450.0 + 115.0 * t as f64
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The stages of one reply (µs) and its size.
#[derive(Default)]
struct ReplyStages {
    memo: Vec<f64>,
    encode: Vec<f64>,
    server_crc: Vec<f64>,
    write: Vec<f64>,
    wait: Vec<f64>,
    read: Vec<f64>,
    client_crc: Vec<f64>,
    decode: Vec<f64>,
    bytes: Vec<f64>,
}

/// One protocol connection to a shard server, handshake done.
fn connect(server: &ShardServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).expect("connect to shard server");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let hello = Request::Hello {
        version: SHARD_PROTOCOL_VERSION,
        shard: server.shard(),
    };
    write_frame(&mut stream, &hello.encode()).expect("send hello");
    let payload = read_frame(&mut stream, MAX_SHARD_RESPONSE)
        .expect("hello reply")
        .expect("server closed before its hello reply");
    match Response::decode(&payload).expect("hello reply decodes") {
        Response::HelloAck { version, .. } => assert_eq!(version, SHARD_PROTOCOL_VERSION),
        other => panic!("handshake refused: {other:?}"),
    }
    stream
}

/// One round-1 exchange with the client's stages timed; the reply's
/// payload is left in `payload`.
fn timed_round1(
    stream: &mut TcpStream,
    request: &Request,
    payload: &mut Vec<u8>,
    stages: &mut ReplyStages,
) -> Response {
    let mut frame = Vec::new();
    write_frame(&mut frame, &request.encode()).expect("frame request");
    let sent = Instant::now();
    stream.write_all(&frame).expect("send request");
    let mut header = [0u8; HEADER_BYTES];
    stream.read_exact(&mut header).expect("reply header");
    stages.wait.push(micros(sent.elapsed()));
    let header = FrameHeader::decode(&header, MAX_SHARD_RESPONSE).expect("reply header");

    let t = Instant::now();
    payload.clear();
    payload.resize(header.len, 0);
    stream.read_exact(payload).expect("reply payload");
    stages.read.push(micros(t.elapsed()));

    let t = Instant::now();
    let verified = header.verify(payload);
    stages.client_crc.push(micros(t.elapsed()));
    verified.expect("reply checksum");

    let t = Instant::now();
    let response = Response::decode(payload).expect("reply decodes");
    stages.decode.push(micros(t.elapsed()));
    stages.bytes.push((HEADER_BYTES + header.len) as f64);
    response
}

/// The server's turn on a memo hit, replayed with each stage timed; the
/// frame goes into `sink`. Returns the round the memo handed out.
fn timed_server_turn(
    memo: &RoundOneCache,
    key: &RoundKey,
    k: usize,
    bound: usize,
    frame: &mut Vec<u8>,
    sink: &mut TcpStream,
    stages: &mut ReplyStages,
) -> ShardRoundOne {
    let t = Instant::now();
    let round = memo.get_prefix(key, k).expect("memo is warm");
    stages.memo.push(micros(t.elapsed()));

    let response = Response::Round1Ok {
        epoch: 0,
        bound: bound as u64,
        source: Round1Source::Memo,
        round,
    };
    // The encode is timed inside the framing call; the rest of that call
    // is the checksum and the header patch.
    let t = Instant::now();
    let mut encoded = Duration::ZERO;
    frame_into(frame, |buf| {
        response.encode_into(buf);
        encoded = t.elapsed();
    })
    .expect("frame reply");
    let framed = t.elapsed();
    stages.encode.push(micros(encoded));
    stages.server_crc.push(micros(framed - encoded));

    let t = Instant::now();
    sink.write_all(frame).expect("write to the sink socket");
    stages.write.push(micros(t.elapsed()));

    match response {
        Response::Round1Ok { round, .. } => round,
        _ => unreachable!("built as Round1Ok above"),
    }
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
            other => panic!("unknown argument {other}; usage: rpc_profile [--scale S]"),
        }
    }

    // The benchmark's city, index configuration and four-way cut.
    let scenario = beijing_like(&ScenarioConfig::with_scale(scale));
    println!("dataset : {}", scenario.summary());
    let net = Arc::new(scenario.net);
    let partition = RegionPartition::build(&net, SHARDS);
    let sharded = ShardedNetClusIndex::build(
        &net,
        &scenario.trajectories,
        &scenario.sites,
        &partition,
        NetClusConfig {
            tau_min: 400.0,
            tau_max: 3_200.0,
            threads: 2,
            ..Default::default()
        },
    );
    let bound = sharded.traj_id_bound();

    // One loopback server per shard, and one protocol connection to each.
    let mut servers: Vec<ShardServer> = sharded
        .shards()
        .iter()
        .map(|shard| {
            let store = SnapshotStore::with_shared_net(
                Arc::clone(&net),
                shard.trajs.clone(),
                shard.index.clone(),
            );
            ShardServer::start("127.0.0.1:0", shard.id, store, ShardServerConfig::default())
                .expect("start shard server")
        })
        .collect();
    let mut streams: Vec<TcpStream> = servers.iter().map(connect).collect();

    // A loopback socket whose far end discards: what the replayed server
    // turn writes its frames into.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
    let mut sink = TcpStream::connect(listener.local_addr().unwrap()).expect("connect sink");
    sink.set_nodelay(true).expect("nodelay");
    let (mut drain, _) = listener.accept().expect("accept sink");
    let drained = std::thread::spawn(move || {
        let mut buf = vec![0u8; 64 << 10];
        while matches!(drain.read(&mut buf), Ok(n) if n > 0) {}
    });

    let psis = [
        ("binary", PreferenceFunction::Binary),
        ("linear", PreferenceFunction::LinearDecay),
        (
            "convex2",
            PreferenceFunction::ConvexProbability { alpha: 2.0 },
        ),
    ];

    // Warm both memos with the same 72 rounds at k = 20: the servers' by
    // asking them, the replay's by computing each round in process.
    let memos: Vec<RoundOneCache> = (0..SHARDS)
        .map(|_| RoundOneCache::new(TAUS * psis.len()))
        .collect();
    let mut scratch = ProviderScratch::default();
    let mut payload = Vec::new();
    let mut warmup = ReplyStages::default();
    for (_, psi) in &psis {
        for t in 0..TAUS {
            let q = TopsQuery {
                k: WARM_K,
                tau: hot_tau(t),
                preference: *psi,
            };
            for (s, shard) in sharded.shards().iter().enumerate() {
                let request = round1_request(shard.id, &q);
                timed_round1(&mut streams[s], &request, &mut payload, &mut warmup);
                let key = RoundKey::new(0, shard.id, q.tau, &q.preference);
                let round = local_candidates(&shard.index, &q, bound, &mut scratch);
                memos[s].offer(key, Arc::new(round));
            }
        }
    }

    println!(
        "{} shards, memo warm with {} (τ, ψ) at k = {WARM_K}; sampled at k ∈ {SAMPLE_KS:?}; \
         medians in µs\n",
        SHARDS,
        TAUS * psis.len()
    );
    println!(
        "{:<8} | {:>6} {:>7} {:>6} {:>7} | {:>7} {:>6} {:>6} {:>7} | {:>7} {:>7} | {:>9} {:>6}",
        "ψ",
        "memo",
        "encode",
        "crc",
        "write",
        "wait",
        "read",
        "crc",
        "decode",
        "m.build",
        "m.solve",
        "B/reply",
        "crc %"
    );

    let mut frame = Vec::new();
    for (name, psi) in &psis {
        let mut stages = ReplyStages::default();
        let (mut merge_build, mut merge_solve) = (Vec::new(), Vec::new());
        for t in 0..TAUS {
            for k in SAMPLE_KS {
                let q = TopsQuery {
                    k,
                    tau: hot_tau(t),
                    preference: *psi,
                };
                let mut candidates = Vec::new();
                for (s, shard) in sharded.shards().iter().enumerate() {
                    let key = RoundKey::new(0, shard.id, q.tau, &q.preference);
                    let in_process = timed_server_turn(
                        &memos[s],
                        &key,
                        k,
                        bound,
                        &mut frame,
                        &mut sink,
                        &mut stages,
                    );
                    let request = round1_request(shard.id, &q);
                    match timed_round1(&mut streams[s], &request, &mut payload, &mut stages) {
                        Response::Round1Ok {
                            epoch,
                            source,
                            round,
                            ..
                        } => {
                            assert_eq!((epoch, source), (0, Round1Source::Memo));
                            assert_eq!(round, in_process, "{name} τ={} k={k} shard {s}", q.tau);
                            assert_eq!(
                                payload[..],
                                frame[HEADER_BYTES..],
                                "the replayed frame is the real one"
                            );
                            candidates.extend(round.candidates);
                        }
                        other => panic!("round 1 refused: {other:?}"),
                    }
                }
                let (merged, _, timing) = merge_candidates_timed(candidates, &q, bound);
                merge_build.push(timing.build_us as f64);
                merge_solve.push(timing.solve_us as f64);
                let want = sharded.query(&q).solution;
                assert_eq!(merged.sites, want.sites, "{name} τ={} k={k}", q.tau);
                assert_eq!(merged.utility.to_bits(), want.utility.to_bits());
            }
        }
        let [memo, encode, server_crc, write, wait, read, client_crc, decode, bytes] = [
            &mut stages.memo,
            &mut stages.encode,
            &mut stages.server_crc,
            &mut stages.write,
            &mut stages.wait,
            &mut stages.read,
            &mut stages.client_crc,
            &mut stages.decode,
            &mut stages.bytes,
        ]
        .map(|v| median(v));
        // One reply's work on both ends; `wait` is the server's turn seen
        // from the client, so it is not added again.
        let both_ends = memo + encode + server_crc + write + read + client_crc + decode;
        println!(
            "{name:<8} | {memo:>6.1} {encode:>7.1} {server_crc:>6.1} {write:>7.1} | \
             {wait:>7.1} {read:>6.1} {client_crc:>6.1} {decode:>7.1} | {:>7.0} {:>7.0} | \
             {bytes:>9.0} {:>6.1}",
            median(&mut merge_build),
            median(&mut merge_solve),
            100.0 * (server_crc + client_crc) / both_ends,
        );
    }
    println!(
        "\ncrc % = both checksums as a share of one reply's work on both ends \
         (memo + encode + crc + write + read + crc + decode)."
    );

    drop(sink);
    drained.join().expect("sink thread");
    drop(streams);
    for server in &mut servers {
        server.shutdown();
    }
}
