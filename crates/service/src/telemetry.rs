//! Live telemetry endpoint: a tiny std-only TCP server publishing the
//! metrics snapshot, the slow-query log, the per-stage latency
//! breakdown, and — when a flight recorder is attached — retained
//! time-series history, rates, and SLO health on demand.
//!
//! The wire protocol reuses the workspace's length-prefix/CRC framing
//! ([`crate::framing`]) — no HTTP stack, no dependencies. A client sends
//! one framed UTF-8 command and reads one framed UTF-8 response per
//! request; commands are:
//!
//! | command                     | response                                               |
//! |-----------------------------|--------------------------------------------------------|
//! | `metrics`                   | the `MetricsReport`/`IngestReport` JSON line           |
//! | `stages`                    | per-stage latency breakdown + trace retention counters |
//! | `slow`                      | the slow-query log, JSON Lines (may be empty)          |
//! | `history <series> [window]` | retained `[t, v]` points of one recorder series        |
//! | `rates`                     | per-second rate of every series over the last tick     |
//! | `health`                    | SLO evaluation: verdict + per-rule detail              |
//! | `breakers`                  | per-shard circuit-breaker states and counters          |
//!
//! `history`/`rates`/`health` answer `{"error":"no flight recorder"}`
//! unless the source was built [`TelemetrySource::with_flight`];
//! `breakers` answers `{"error":"no circuit breakers"}` unless built
//! [`TelemetrySource::with_breakers`] (the router path).
//!
//! Unknown commands get `{"error":"unknown command"}` rather than a
//! dropped connection, so probes stay debuggable. Responses are rendered
//! at request time — every fetch is a fresh snapshot.
//!
//! The listener is hardened against slow or hostile clients: each
//! connection is served on its own thread with a read/write deadline,
//! request frames are bounded at `MAX_TELEMETRY_COMMAND` bytes, and at
//! most `MAX_TELEMETRY_CONNECTIONS` connections are served at once
//! (excess connections get a framed error and are dropped). A stalled
//! client therefore occupies one slot for at most the read deadline and
//! never wedges the accept loop, and a slot is released however its
//! connection ends, a panicking render included. Shutdown closes live
//! connections instead of waiting out their deadlines. The shard server
//! runs the same accept loop (`AcceptLoop`), with its own shed action.

#![deny(clippy::too_many_lines)]

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::flight::FlightRecorder;
use crate::framing::{read_frame, write_frame};
use crate::health::HealthEvaluator;
use crate::{jsonl, lock_recover};

/// Upper bound on a telemetry response frame (defined with every other
/// wire limit in [`crate::wire`]).
pub(crate) const MAX_TELEMETRY_FRAME: usize = crate::wire::MAX_TELEMETRY_FRAME;

/// Upper bound on a request (command) frame — commands are a few words,
/// so anything larger is a hostile or confused client (defined in
/// [`crate::wire`]).
pub(crate) const MAX_TELEMETRY_COMMAND: usize = crate::wire::MAX_COMMAND_FRAME;

/// Connections served concurrently before the listener starts shedding.
pub(crate) const MAX_TELEMETRY_CONNECTIONS: usize = 8;

type Render = Box<dyn Fn() -> String + Send + Sync>;

/// The data a [`TelemetryServer`] publishes: render closures for the
/// snapshot commands, plus an optional flight recorder + health
/// evaluator backing `history`/`rates`/`health`.
pub struct TelemetrySource {
    metrics: Render,
    stages: Render,
    slow: Render,
    flight: Option<(Arc<FlightRecorder>, HealthEvaluator)>,
    breakers: Option<Render>,
}

impl std::fmt::Debug for TelemetrySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySource").finish_non_exhaustive()
    }
}

impl TelemetrySource {
    /// Builds a source from three render closures (`metrics`, `stages`,
    /// `slow` in that order), with no flight recorder attached.
    pub fn new(
        metrics: impl Fn() -> String + Send + Sync + 'static,
        stages: impl Fn() -> String + Send + Sync + 'static,
        slow: impl Fn() -> String + Send + Sync + 'static,
    ) -> Self {
        TelemetrySource {
            metrics: Box::new(metrics),
            stages: Box::new(stages),
            slow: Box::new(slow),
            flight: None,
            breakers: None,
        }
    }

    /// Attaches a flight recorder and SLO evaluator, enabling the
    /// `history`, `rates`, and `health` commands.
    #[must_use]
    pub fn with_flight(mut self, recorder: Arc<FlightRecorder>, health: HealthEvaluator) -> Self {
        self.flight = Some((recorder, health));
        self
    }

    /// Attaches a circuit-breaker snapshot renderer (the router's
    /// [`crate::ShardRouter::breakers_json`]), enabling the `breakers`
    /// command.
    #[must_use]
    pub fn with_breakers(mut self, breakers: impl Fn() -> String + Send + Sync + 'static) -> Self {
        self.breakers = Some(Box::new(breakers));
        self
    }

    fn render(&self, command: &str) -> String {
        let mut words = command.split_whitespace();
        match (words.next(), &self.flight) {
            (Some("metrics"), _) => (self.metrics)(),
            (Some("stages"), _) => (self.stages)(),
            (Some("slow"), _) => (self.slow)(),
            (Some("history" | "rates" | "health"), None) => jsonl::error("no flight recorder"),
            (Some("history"), Some((recorder, _))) => match words.next() {
                None => jsonl::error("usage: history <series> [window_secs]"),
                Some(series) => {
                    let window = words.next().and_then(|w| w.parse::<f64>().ok());
                    recorder.history_json(series, window)
                }
            },
            (Some("rates"), Some((recorder, _))) => recorder.rates_json(),
            (Some("health"), Some((recorder, health))) => health.evaluate(recorder).to_json_line(),
            (Some("breakers"), _) => match &self.breakers {
                None => jsonl::error("no circuit breakers"),
                Some(render) => render(),
            },
            _ => jsonl::error("unknown command"),
        }
    }
}

/// A running telemetry endpoint: the crate's accept loop bounded by
/// `MAX_TELEMETRY_CONNECTIONS`, serving the commands above.
#[derive(Debug)]
pub struct TelemetryServer {
    accept: AcceptLoop,
}

impl TelemetryServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving `source`.
    pub fn start(addr: &str, source: TelemetrySource) -> io::Result<TelemetryServer> {
        let accept = AcceptLoop::start(
            TcpListener::bind(addr)?,
            "netclus-telemetry",
            MAX_TELEMETRY_CONNECTIONS,
            Arc::default(),
            shed_connection,
            move |stream| {
                // A misbehaving client must not wedge the endpoint: errors
                // just drop the connection.
                let _ = serve_connection(stream, &source);
            },
        )?;
        Ok(TelemetryServer { accept })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// Stops the accept loop and joins the server and all connection
    /// threads. Idempotent. Live connections are closed, not waited out.
    pub fn shutdown(&mut self) {
        self.accept.shutdown();
    }
}

/// Sheds a connection past the cap: tells the client why, then drops it.
/// Errors here are the client's problem, not ours.
fn shed_connection(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    // One write: the socket is closed right after.
    let mut writer = BufWriter::new(stream);
    let reply = jsonl::error("too many connections");
    let _ = write_frame(&mut writer, reply.as_bytes()).and_then(|()| writer.flush());
}

fn serve_connection(stream: TcpStream, source: &TelemetrySource) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while let Some(payload) = read_frame(&mut reader, MAX_TELEMETRY_COMMAND)? {
        let command = std::str::from_utf8(&payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 command"))?;
        let response = source.render(command.trim());
        write_frame(&mut writer, response.as_bytes())?;
        writer.flush()?;
    }
    Ok(())
}

/// The accept loop under both TCP servers of the crate, this endpoint and
/// the shard server: each connection is served on its own thread, at most
/// `max_connections` at once, and a connection past the cap is handed to
/// the server's shed action. A connection holds its slot exactly as long
/// as its thread runs, so a worker that panics frees it too.
/// [`AcceptLoop::shutdown`] (also run on drop) closes every live
/// connection's socket before joining its thread, so it never waits out a
/// client's read deadline.
#[derive(Debug)]
pub(crate) struct AcceptLoop {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<ConnWorker>>>,
}

/// A live connection worker: its join handle plus a clone of its socket
/// so [`AcceptLoop::shutdown`] can unblock a read in progress instead of
/// waiting out the io deadline.
type ConnWorker = (JoinHandle<()>, Option<TcpStream>);

/// Owned by each connection worker: shuts the socket down when the
/// worker exits — normal return or panic. That matters because the accept
/// loop holds a duplicate of the socket (see [`ConnWorker`]); without the
/// shutdown that duplicate keeps the TCP connection open after the worker
/// is done, and a peer waiting on a reply sees its read deadline instead
/// of the EOF it should.
struct ConnGuard(Option<TcpStream>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        if let Some(socket) = &self.0 {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }
}

impl AcceptLoop {
    /// Serves `listener` on a thread named `name` (its connection threads
    /// get `name-conn`) until `stopping` is set and the next connection
    /// arrives; [`AcceptLoop::shutdown`] makes both happen.
    ///
    /// # Errors
    /// The accept-thread spawn error.
    pub(crate) fn start(
        listener: TcpListener,
        name: &str,
        max_connections: usize,
        stopping: Arc<AtomicBool>,
        shed: fn(TcpStream),
        serve: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> io::Result<AcceptLoop> {
        let addr = listener.local_addr()?;
        let workers: Arc<Mutex<Vec<ConnWorker>>> = Arc::default();
        let serve = Arc::new(serve);
        let conn_name = format!("{name}-conn");
        let (loop_stopping, loop_workers) = (Arc::clone(&stopping), Arc::clone(&workers));
        let accept = thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if loop_stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Reap finished workers: what is left is the live
                    // connections, the count the cap applies to.
                    let mut live = lock_recover(&loop_workers);
                    live.retain(|(h, _)| !h.is_finished());
                    if live.len() >= max_connections {
                        shed(stream);
                        continue;
                    }
                    let socket = stream.try_clone().ok();
                    let guard = ConnGuard(stream.try_clone().ok());
                    let serve = Arc::clone(&serve);
                    let work = move || {
                        // Shuts the socket down on every exit, panic included.
                        let _guard = guard;
                        serve(stream);
                    };
                    let spawned = thread::Builder::new().name(conn_name.clone()).spawn(work);
                    // On spawn failure the closure is dropped unrun: the
                    // connection is closed and holds no slot.
                    if let Ok(handle) = spawned {
                        live.push((handle, socket));
                    }
                }
            })?;
        Ok(AcceptLoop {
            addr,
            stopping,
            thread: Some(accept),
            workers,
        })
    }

    /// The bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it, then shuts every live
    /// connection's socket down and joins its worker. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stopping.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
        let workers = std::mem::take(&mut *lock_recover(&self.workers));
        for (handle, socket) in workers {
            if let Some(socket) = socket {
                let _ = socket.shutdown(Shutdown::Both);
            }
            let _ = handle.join();
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One-shot client: connects to `addr`, sends `command` as a frame, and
/// returns the framed response as a string.
pub fn fetch(addr: SocketAddr, command: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    write_frame(&mut writer, command.as_bytes())?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let payload = read_frame(&mut reader, MAX_TELEMETRY_FRAME)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed early"))?;
    String::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightConfig;
    use crate::health::{Severity, SloRule};

    /// The validator `tests/json_pin.rs` runs every emitted line through.
    mod json {
        include!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/support/json.rs"
        ));
    }

    fn test_source() -> TelemetrySource {
        TelemetrySource::new(
            || "{\"completed\":7}".to_string(),
            || "{\"stage_round1_p50_us\":42}".to_string(),
            || "{\"seq\":0}\n{\"seq\":1}\n".to_string(),
        )
    }

    fn flight_source() -> (TelemetrySource, Arc<FlightRecorder>) {
        let recorder = Arc::new(FlightRecorder::new(FlightConfig::default()));
        let health = HealthEvaluator::new().with_rule(SloRule::ceiling(
            "freshness",
            "visibility_lag_us",
            1_000.0,
            Severity::Degrading,
        ));
        let source = test_source().with_flight(Arc::clone(&recorder), health);
        (source, recorder)
    }

    #[test]
    fn serves_all_commands_over_framed_protocol() {
        let mut server = TelemetryServer::start("127.0.0.1:0", test_source()).unwrap();
        let addr = server.addr();
        assert_eq!(fetch(addr, "metrics").unwrap(), "{\"completed\":7}");
        assert_eq!(
            fetch(addr, "stages").unwrap(),
            "{\"stage_round1_p50_us\":42}"
        );
        let slow = fetch(addr, "slow").unwrap();
        assert_eq!(slow.lines().count(), 2);
        assert_eq!(
            fetch(addr, "bogus").unwrap(),
            "{\"error\":\"unknown command\"}"
        );
        // Recorder commands without a recorder attached.
        assert_eq!(
            fetch(addr, "health").unwrap(),
            "{\"error\":\"no flight recorder\"}"
        );
        assert_eq!(
            fetch(addr, "rates").unwrap(),
            "{\"error\":\"no flight recorder\"}"
        );
        assert_eq!(
            fetch(addr, "history qps").unwrap(),
            "{\"error\":\"no flight recorder\"}"
        );
        assert_eq!(
            fetch(addr, "breakers").unwrap(),
            "{\"error\":\"no circuit breakers\"}"
        );
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn serves_breaker_snapshots_when_attached() {
        let source = test_source().with_breakers(|| "{\"shards\":2,\"open\":1}".to_string());
        let server = TelemetryServer::start("127.0.0.1:0", source).unwrap();
        assert_eq!(
            fetch(server.addr(), "breakers").unwrap(),
            "{\"shards\":2,\"open\":1}"
        );
    }

    #[test]
    fn serves_recorder_commands_when_attached() {
        let (source, recorder) = flight_source();
        let server = TelemetryServer::start("127.0.0.1:0", source).unwrap();
        let addr = server.addr();
        recorder.record_at(0.0, &[("visibility_lag_us".to_string(), 100.0)]);
        recorder.record_at(1.0, &[("visibility_lag_us".to_string(), 300.0)]);
        let history = fetch(addr, "history visibility_lag_us").unwrap();
        assert!(history.starts_with("{\"series\":\"visibility_lag_us\""));
        assert!(history.contains("[1.000,300.000]"));
        // Windows anchor at the newest retained tick: a zero window keeps
        // exactly the newest point.
        let windowed = fetch(addr, "history visibility_lag_us 0").unwrap();
        assert!(windowed.contains("\"points\":[[1.000,300.000]]"));
        let rates = fetch(addr, "rates").unwrap();
        assert!(rates.contains("\"visibility_lag_us\":200.000"));
        let health = fetch(addr, "health").unwrap();
        assert!(health.contains("\"verdict\":\"healthy\""));
        assert_eq!(
            fetch(addr, "history").unwrap(),
            "{\"error\":\"usage: history <series> [window_secs]\"}"
        );
        assert!(fetch(addr, "history nope")
            .unwrap()
            .contains("unknown series"));
        // A window off the socket that is not finite is still JSON.
        for window in ["inf", "-inf", "NaN"] {
            let reply = fetch(addr, &format!("history visibility_lag_us {window}")).unwrap();
            assert_eq!(json::validate(&reply), Ok(()), "{reply}");
            assert!(reply.contains("\"window_secs\":null"), "{reply}");
        }
    }

    #[test]
    fn shutdown_closes_live_connections_instead_of_waiting_them_out() {
        let mut server = TelemetryServer::start("127.0.0.1:0", test_source()).unwrap();
        let idle = TcpStream::connect(server.addr()).unwrap();
        // Accepts are in order: once this fetch is answered, the idle
        // connection has its own worker blocked in a read.
        assert_eq!(
            fetch(server.addr(), "metrics").unwrap(),
            "{\"completed\":7}"
        );
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_millis(2_500),
            "shutdown waited {:?} for an idle client",
            started.elapsed()
        );
        drop(idle);
    }

    #[test]
    fn a_panicking_render_does_not_keep_its_connection_slot() {
        let source = TelemetrySource::new(
            || panic!("metrics render failed"),
            || "{\"stage_round1_p50_us\":42}".to_string(),
            String::new,
        );
        let server = TelemetryServer::start("127.0.0.1:0", source).unwrap();
        for _ in 0..=MAX_TELEMETRY_CONNECTIONS {
            assert!(fetch(server.addr(), "metrics").is_err());
        }
        assert_eq!(
            fetch(server.addr(), "stages").unwrap(),
            "{\"stage_round1_p50_us\":42}"
        );
    }

    #[test]
    fn one_connection_can_issue_many_requests() {
        let server = TelemetryServer::start("127.0.0.1:0", test_source()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        for _ in 0..3 {
            write_frame(&mut writer, b"metrics").unwrap();
            writer.flush().unwrap();
            let payload = read_frame(&mut reader, MAX_TELEMETRY_FRAME)
                .unwrap()
                .unwrap();
            assert_eq!(payload, b"{\"completed\":7}");
        }
    }

    #[test]
    fn stalled_client_does_not_wedge_other_clients() {
        let mut server = TelemetryServer::start("127.0.0.1:0", test_source()).unwrap();
        let addr = server.addr();
        // A client that connects and sends nothing holds one slot until
        // its read deadline — other clients must be served immediately.
        let staller = TcpStream::connect(addr).unwrap();
        let started = std::time::Instant::now();
        assert_eq!(fetch(addr, "metrics").unwrap(), "{\"completed\":7}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "fetch had to wait behind the stalled connection"
        );
        drop(staller);
        server.shutdown();
    }

    #[test]
    fn oversized_command_drops_the_connection_only() {
        let server = TelemetryServer::start("127.0.0.1:0", test_source()).unwrap();
        let addr = server.addr();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let huge = vec![b'a'; MAX_TELEMETRY_COMMAND + 1];
        write_frame(&mut writer, &huge).unwrap();
        writer.flush().unwrap();
        // The server rejects the oversized frame and closes this
        // connection; the endpoint itself keeps serving.
        let mut reader = BufReader::new(stream);
        assert!(matches!(
            read_frame(&mut reader, MAX_TELEMETRY_FRAME),
            Ok(None) | Err(_)
        ));
        assert_eq!(fetch(addr, "metrics").unwrap(), "{\"completed\":7}");
    }

    #[test]
    fn connection_cap_sheds_with_an_error_frame() {
        let mut server = TelemetryServer::start("127.0.0.1:0", test_source()).unwrap();
        let addr = server.addr();
        // Fill every slot with idle connections...
        let mut held = Vec::new();
        for _ in 0..MAX_TELEMETRY_CONNECTIONS {
            held.push(TcpStream::connect(addr).unwrap());
        }
        // ...then poke the accept loop until it has registered them all
        // and starts shedding (accept ordering is not synchronized with
        // the worker-count increment, so retry briefly).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let shed = loop {
            match fetch(addr, "metrics") {
                Ok(resp) if resp == "{\"error\":\"too many connections\"}" => break resp,
                Ok(_) | Err(_) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "cap never engaged with {MAX_TELEMETRY_CONNECTIONS} idle connections held"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        assert_eq!(shed, "{\"error\":\"too many connections\"}");
        // Freeing a slot restores service.
        drop(held);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(resp) = fetch(addr, "metrics") {
                if resp == "{\"completed\":7}" {
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "service never recovered after slots freed"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_even_with_no_traffic() {
        let mut server = TelemetryServer::start("127.0.0.1:0", test_source()).unwrap();
        server.shutdown();
        assert!(fetch(server.addr(), "metrics").is_err());
    }
}
