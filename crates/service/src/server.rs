//! Socket front-end for `eccparityd`: newline-delimited requests over a
//! Unix-domain socket or TCP, in one of two worker models selected by
//! [`ServerConfig::io_mode`]:
//!
//! - [`IoMode::Evented`] (the default) — every connection is multiplexed
//!   over a handful of readiness-driven event-loop shards (see
//!   [`crate::evented`]); tens of thousands of mostly-idle fleet
//!   connections cost file descriptors, not OS threads.
//! - [`IoMode::Threads`] — one blocking thread per connection; simpler
//!   to reason about, and the baseline the evented mode's transcripts
//!   are `cmp`'d against.
//!
//! Either way each connection owns a [`Router`] so its event lines batch
//! per shard. Event lines get **no** response (that is what makes ≥1M
//! events/s feasible over a byte stream); query lines get exactly one
//! `eccparity-rpc-v1` response line. A query first flushes the
//! connection's router and runs an engine barrier, so every event
//! written earlier on the same connection is visible to the answer
//! (read-your-writes). A `subscribe` query converts the connection into
//! an `eccparity-push-v1` posture-transition stream (see [`crate::push`]).
//!
//! **Hostile-client defenses** (all knobs in [`ServerConfig`]):
//!
//! - *Bounded line reads.* The per-connection read buffer never grows
//!   past `max_line_bytes`. A longer line is answered with a structured
//!   `"code":"oversized"` refusal, counted in `service.reject.oversized`,
//!   and discarded up to its terminating newline — the connection stays
//!   usable and memory stays bounded no matter what the client streams.
//! - *Admission cap.* At most `max_conns` connections are served at
//!   once; excess connections get one `"code":"overloaded"` refusal line
//!   (counted in `service.reject.conn_limit`) and are closed.
//! - *Idle timeout.* With `idle_timeout_ms` set, a connection that sends
//!   nothing for that long is closed (counted in
//!   `service.conn.idle_closed`), so abandoned sockets cannot pin the
//!   admission cap.
//! - *Drained shutdown.* After a `shutdown` request, the accept loop
//!   waits up to `drain_ms` for live connections to flush their routers
//!   and exit, so the final checkpoint taken by the binary sees every
//!   in-flight event. The wait is condvar-based — it ends the moment the
//!   last connection drops, not at the next poll tick.

use crate::engine::{Engine, RejectKind, Router};
use crate::rpc::{self, Query, Request};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Connection readers wake at this cadence to poll the stop flag and the
/// idle deadline even when the client sends nothing.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(200);

/// Pause after an unexpected `accept()` error (EMFILE/ENFILE when the
/// process fd budget is exhausted). Without it both accept loops spin
/// hot on the persistently-failing accept and starve live connections.
pub(crate) const ACCEPT_ERR_BACKOFF: Duration = Duration::from_millis(20);

/// Read chunk size; also the resolution of the oversized-line check.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Listen {
    /// Unix-domain socket at this path (created, removed on exit).
    Unix(PathBuf),
    /// TCP listener bound to this `host:port`.
    Tcp(String),
}

/// Connection worker model (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// One blocking OS thread per connection.
    Threads,
    /// Readiness-driven event loops: [`ServerConfig::io_shards`] loop
    /// threads multiplex every connection via the vendored poller.
    Evented,
}

impl IoMode {
    /// Parse `"threads"` / `"evented"` (as used by `--io-mode` and
    /// `ECC_PARITY_SERVICE_IO_MODE`).
    pub fn parse(s: &str) -> Option<IoMode> {
        match s {
            "threads" => Some(IoMode::Threads),
            "evented" => Some(IoMode::Evented),
            _ => None,
        }
    }

    /// The flag spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            IoMode::Threads => "threads",
            IoMode::Evented => "evented",
        }
    }
}

/// Front-end limits. Defaults are production-safe; the `eccparityd`
/// binary overrides them from flags and `ECC_PARITY_SERVICE_*` knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections served concurrently before refusing with
    /// `"code":"overloaded"` (minimum 1).
    pub max_conns: usize,
    /// Close a connection idle this long, in milliseconds (0 = never).
    pub idle_timeout_ms: u64,
    /// Longest request line accepted, in bytes; longer lines are refused
    /// with `"code":"oversized"` and discarded (minimum 1024).
    pub max_line_bytes: usize,
    /// After shutdown, wait this long (milliseconds) for live
    /// connections to flush and exit before `serve` returns.
    pub drain_ms: u64,
    /// Worker model: evented (default) or thread-per-connection.
    pub io_mode: IoMode,
    /// Event-loop shard count in [`IoMode::Evented`] (minimum 1;
    /// ignored in threads mode).
    pub io_shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 1024,
            idle_timeout_ms: 0,
            max_line_bytes: 1 << 20,
            drain_ms: 5_000,
            io_mode: IoMode::Evented,
            io_shards: 4,
        }
    }
}

/// What the connection loop needs from a socket beyond byte I/O: a read
/// timeout, so the reader can poll the stop flag and idle deadline.
pub(crate) trait ConnStream: Read + Write {
    /// Bound blocking reads so the loop can poll flags.
    fn set_poll_timeout(&self, d: Option<Duration>) -> std::io::Result<()>;
}

impl ConnStream for UnixStream {
    fn set_poll_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(d)
    }
}

impl ConnStream for TcpStream {
    fn set_poll_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(d)
    }
}

pub(crate) fn write_line(out: &mut impl Write, resp: &str) -> std::io::Result<()> {
    out.write_all(resp.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

/// What processing one request line decided about the connection.
pub(crate) enum LineOutcome {
    /// Keep serving this connection.
    Continue,
    /// The client asked the daemon to shut down (response already sent).
    Shutdown,
    /// The connection is gone (write failed).
    Closed,
    /// The client subscribed: the connection becomes a push stream. The
    /// ack is rendered in the caller's `resp` buffer but *not yet sent*
    /// — the caller must register with the push hub first, then send it,
    /// so a client that has read the ack cannot miss a transition. Any
    /// buffered request bytes are dropped.
    Subscribe,
}

/// Render the `"code":"oversized"` refusal into a reused buffer.
pub(crate) fn oversized_refusal_into(resp: &mut String, max_line_bytes: usize) {
    resp.clear();
    rpc::refusal_response_into(
        resp,
        "oversized",
        &format!("line exceeds the {max_line_bytes}-byte cap"),
    );
}

/// The per-line state machine shared by both io modes. `resp` is the
/// connection's reused response buffer: every reply this function sends
/// is rendered into it in place, so the steady state allocates nothing
/// per line.
pub(crate) fn process_line(
    engine: &Engine,
    router: &mut Router,
    out: &mut impl Write,
    cfg: &ServerConfig,
    mut line: &[u8],
    resp: &mut String,
) -> LineOutcome {
    use std::fmt::Write as _;
    while line.last().is_some_and(|&b| b == b'\r') {
        line = &line[..line.len() - 1];
    }
    if line.is_empty() {
        return LineOutcome::Continue;
    }
    if line.len() > cfg.max_line_bytes {
        engine.note_reject(RejectKind::Oversized);
        oversized_refusal_into(resp, cfg.max_line_bytes);
        return if write_line(out, resp).is_err() {
            LineOutcome::Closed
        } else {
            LineOutcome::Continue
        };
    }
    // Hot path: a compact event line routes without a full parse and
    // without a response.
    if let Some(node) = rpc::fast_route(line) {
        router.push_routed(engine, engine.shard_of(node), line);
        return LineOutcome::Continue;
    }
    match rpc::parse_line(line) {
        Ok(Request::Event(_)) => {
            router.push_line(engine, line);
            LineOutcome::Continue
        }
        Ok(Request::Query(q)) => {
            router.flush(engine);
            engine.barrier();
            let mut outcome_if_written = LineOutcome::Continue;
            resp.clear();
            match q {
                Query::Checkpoint => match engine.checkpoint() {
                    Ok(info) => {
                        rpc::ok_response_open(resp, "checkpoint", engine.degraded());
                        resp.push_str("{\"path\":");
                        rpc::push_json_str(resp, &info.path.display().to_string());
                        write!(
                            resp,
                            ",\"shards\":{},\"nodes\":{}}}",
                            info.shards, info.nodes
                        )
                        .expect("write to String");
                        rpc::ok_response_close(resp);
                    }
                    Err(e) => rpc::error_response_into(resp, &format!("checkpoint failed: {e}")),
                },
                Query::Shutdown => {
                    outcome_if_written = LineOutcome::Shutdown;
                    rpc::ok_response_open(resp, "shutdown", engine.degraded());
                    resp.push_str("\"stopping\"");
                    rpc::ok_response_close(resp);
                }
                Query::Subscribe => {
                    // Render the ack but let the caller send it: the
                    // caller registers the subscription *first*, so a
                    // client that has read the ack is guaranteed every
                    // later transition (no registration gap).
                    rpc::ok_response_open(resp, "subscribe", engine.degraded());
                    write!(
                        resp,
                        "{{\"schema\":\"{}\",\"streaming\":true}}",
                        crate::push::PUSH_SCHEMA
                    )
                    .expect("write to String");
                    rpc::ok_response_close(resp);
                    return LineOutcome::Subscribe;
                }
                ref q => engine.query_into(q, resp),
            }
            if write_line(out, resp).is_err() {
                LineOutcome::Closed
            } else {
                outcome_if_written
            }
        }
        Err(msg) => {
            engine.note_reject(RejectKind::Parse);
            resp.clear();
            rpc::error_response_into(resp, &msg);
            if write_line(out, resp).is_err() {
                LineOutcome::Closed
            } else {
                LineOutcome::Continue
            }
        }
    }
}

/// One unit of work from a [`LineBuf`] scan.
pub(crate) enum Scan<'a> {
    /// A complete request line (newline stripped).
    Line(&'a [u8]),
    /// The buffered partial line just passed the cap.
    Oversized,
}

/// Per-connection newline reassembly shared by both io modes: chunks go
/// in, complete lines come out, and the buffer is capped — an incomplete
/// line past `max_line_bytes` is refused *now* (via `on_oversized`) and
/// the rest of it discarded as it arrives, so a hostile stream cannot
/// grow memory without bound.
pub(crate) struct LineBuf {
    pending: Vec<u8>,
    /// Inside an oversized line: eat bytes until its newline.
    discarding: bool,
}

impl LineBuf {
    pub(crate) fn new() -> LineBuf {
        LineBuf {
            pending: Vec::with_capacity(1024),
            discarding: false,
        }
    }

    /// Feed one read chunk. `on` runs with [`Scan::Line`] for each
    /// complete line (sans newline); a non-`Continue` outcome stops the
    /// scan and is returned, leaving later bytes unprocessed (the
    /// connection is ending or changing protocol). `on` runs with
    /// [`Scan::Oversized`] when the buffered partial line passes
    /// `max_line_bytes`.
    pub(crate) fn feed(
        &mut self,
        mut data: &[u8],
        max_line_bytes: usize,
        on: &mut dyn FnMut(Scan<'_>) -> LineOutcome,
    ) -> LineOutcome {
        if self.discarding {
            match data.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    data = &data[nl + 1..];
                    self.discarding = false;
                }
                None => return LineOutcome::Continue,
            }
        }
        self.pending.extend_from_slice(data);
        let mut start = 0;
        let mut outcome = LineOutcome::Continue;
        while let Some(nl) = self.pending[start..].iter().position(|&b| b == b'\n') {
            let end = start + nl;
            let res = on(Scan::Line(&self.pending[start..end]));
            start = end + 1;
            if !matches!(res, LineOutcome::Continue) {
                outcome = res;
                break;
            }
        }
        self.pending.drain(..start);
        if matches!(outcome, LineOutcome::Continue) && self.pending.len() > max_line_bytes {
            let res = on(Scan::Oversized);
            self.pending.clear();
            self.discarding = true;
            outcome = res;
        }
        outcome
    }

    /// EOF: a truncated final line (no trailing newline) is still a
    /// request — process it rather than silently dropping bytes the
    /// client thinks it sent.
    pub(crate) fn finish(&mut self, on: &mut dyn FnMut(Scan<'_>) -> LineOutcome) {
        if !self.discarding && !self.pending.is_empty() {
            let line = std::mem::take(&mut self.pending);
            let _ = on(Scan::Line(&line));
        }
    }

    /// Drop any buffered request bytes (used when a connection turns
    /// into a push stream).
    pub(crate) fn clear(&mut self) {
        self.pending.clear();
        self.discarding = false;
    }
}

/// Stream push lines to a subscribed connection until the client closes
/// it, the hub goes away, or the server stops. Registers with the hub
/// *before* sending the `ack` line, so an acked subscriber cannot miss a
/// transition. The socket read doubles as the wait (10 ms timeout): it
/// detects EOF promptly, and any bytes the client sends after
/// subscribing are discarded.
fn stream_pushes<S: ConnStream>(
    engine: &Engine,
    reader: &mut S,
    out: &mut S,
    stop: &AtomicBool,
    ack: &str,
) {
    use std::sync::mpsc::TryRecvError;
    let hub = engine.push_hub();
    let (id, rx) = hub.subscribe(None);
    if write_line(out, ack).is_err() {
        hub.unsubscribe(id);
        return;
    }
    let _ = reader.set_poll_timeout(Some(Duration::from_millis(10)));
    let mut chunk = vec![0u8; 4096];
    'stream: loop {
        loop {
            match rx.try_recv() {
                Ok(line) => {
                    if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                        break 'stream;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'stream,
            }
        }
        if out.flush().is_err() || stop.load(Ordering::SeqCst) {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    hub.unsubscribe(id);
}

/// Serve one connection until EOF, I/O error, idle timeout, server stop,
/// or a `shutdown` request. Returns `true` when the client asked the
/// daemon to shut down.
fn handle_conn<S: ConnStream>(
    engine: &Engine,
    cfg: &ServerConfig,
    mut reader: S,
    mut out: S,
    stop: &AtomicBool,
) -> bool {
    obs::counter!("service.connections").inc();
    let _ = reader.set_poll_timeout(Some(POLL_TICK));
    let mut router = Router::new(engine);
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut buf = LineBuf::new();
    let mut resp = String::with_capacity(256);
    let mut last_activity = Instant::now();
    let mut shutdown = false;
    let mut subscribed = false;
    let mut eof = false;
    'conn: loop {
        let n = match reader.read(&mut chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if cfg.idle_timeout_ms > 0
                    && last_activity.elapsed() >= Duration::from_millis(cfg.idle_timeout_ms)
                {
                    engine.note_idle_close();
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        last_activity = Instant::now();
        let outcome = buf.feed(&chunk[..n], cfg.max_line_bytes, &mut |scan| match scan {
            Scan::Line(line) => process_line(engine, &mut router, &mut out, cfg, line, &mut resp),
            Scan::Oversized => {
                engine.note_reject(RejectKind::Oversized);
                oversized_refusal_into(&mut resp, cfg.max_line_bytes);
                if write_line(&mut out, &resp).is_err() {
                    LineOutcome::Closed
                } else {
                    LineOutcome::Continue
                }
            }
        });
        match outcome {
            LineOutcome::Continue => {}
            LineOutcome::Shutdown => {
                shutdown = true;
                break 'conn;
            }
            LineOutcome::Closed => break 'conn,
            LineOutcome::Subscribe => {
                subscribed = true;
                buf.clear();
                break 'conn;
            }
        }
    }
    if eof {
        buf.finish(&mut |scan| match scan {
            Scan::Line(line) => process_line(engine, &mut router, &mut out, cfg, line, &mut resp),
            Scan::Oversized => LineOutcome::Continue,
        });
    }
    router.flush(engine);
    if subscribed {
        stream_pushes(engine, &mut reader, &mut out, stop, &resp);
    }
    shutdown
}

/// Live-connection accounting shared by the accept loop and every
/// connection handler, with a condvar so drained shutdown wakes the
/// moment the count hits zero instead of sleep-polling.
pub(crate) struct ConnCount {
    count: Mutex<usize>,
    zero: Condvar,
}

impl ConnCount {
    pub(crate) fn new() -> ConnCount {
        ConnCount {
            count: Mutex::new(0),
            zero: Condvar::new(),
        }
    }

    pub(crate) fn load(&self) -> usize {
        *self.count.lock().expect("conn count lock")
    }

    pub(crate) fn inc(&self) {
        *self.count.lock().expect("conn count lock") += 1;
    }

    pub(crate) fn dec(&self) {
        let mut n = self.count.lock().expect("conn count lock");
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.zero.notify_all();
        }
    }

    /// Wait until the count reaches zero or `timeout` passes; returns
    /// the leftover count (0 on a clean drain).
    pub(crate) fn wait_zero(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut n = self.count.lock().expect("conn count lock");
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .zero
                .wait_timeout(n, deadline - now)
                .expect("conn count lock");
            n = guard;
        }
        *n
    }
}

/// Decrements the live-connection count even if the handler panics.
pub(crate) struct ConnGuard(pub(crate) Arc<ConnCount>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Refuse a connection over the admission cap: one structured error
/// line, then close. Runs on its own thread so a client that never
/// reads cannot wedge the accept loop.
pub(crate) fn refuse_conn<S: ConnStream + Send + 'static>(engine: Arc<Engine>, mut stream: S) {
    engine.note_reject(RejectKind::ConnLimit);
    std::thread::spawn(move || {
        let _ = stream.set_poll_timeout(Some(POLL_TICK));
        let resp = rpc::refusal_response("overloaded", "connection limit reached, retry later");
        let _ = write_line(&mut stream, &resp);
    });
}

/// Accept connections until a client sends `{"kind":"query","op":"shutdown"}`,
/// dispatching to the worker model picked by [`ServerConfig::io_mode`].
/// After shutdown, `serve` waits up to [`ServerConfig::drain_ms`] for
/// live connections to flush their routers and exit before returning —
/// so a final checkpoint taken after `serve` sees every in-flight event.
pub fn serve(engine: Arc<Engine>, listen: Listen, cfg: ServerConfig) -> std::io::Result<()> {
    let cfg = Arc::new(ServerConfig {
        max_conns: cfg.max_conns.max(1),
        max_line_bytes: cfg.max_line_bytes.max(1024),
        io_shards: cfg.io_shards.max(1),
        ..cfg
    });
    match cfg.io_mode {
        IoMode::Evented => crate::evented::serve_evented(engine, listen, cfg),
        IoMode::Threads => serve_threaded(engine, listen, cfg),
    }
}

/// Thread-per-connection accept loop ([`IoMode::Threads`]).
fn serve_threaded(
    engine: Arc<Engine>,
    listen: Listen,
    cfg: Arc<ServerConfig>,
) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(ConnCount::new());
    match listen {
        Listen::Unix(path) => {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            eprintln!(
                "eccparityd: listening on unix://{} (threads)",
                path.display()
            );
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(s) => s,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Persistent accept errors (EMFILE/ENFILE once the fd
                        // budget is spent) would otherwise hot-loop here; back
                        // off briefly so live connections keep the CPU.
                        std::thread::sleep(ACCEPT_ERR_BACKOFF);
                        continue;
                    }
                };
                if active.load() >= cfg.max_conns {
                    refuse_conn(Arc::clone(&engine), stream);
                    continue;
                }
                active.inc();
                let guard = ConnGuard(Arc::clone(&active));
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let cfg = Arc::clone(&cfg);
                let path = path.clone();
                std::thread::spawn(move || {
                    let _guard = guard;
                    let Ok(writer) = stream.try_clone() else {
                        return;
                    };
                    if handle_conn(&engine, &cfg, stream, writer, &stop) {
                        stop.store(true, Ordering::SeqCst);
                        // Nudge the accept loop out of its blocking accept.
                        let _ = UnixStream::connect(&path);
                    }
                });
            }
            drain(&active, cfg.drain_ms);
            let _ = std::fs::remove_file(&path);
        }
        Listen::Tcp(addr) => {
            let listener = TcpListener::bind(&addr)?;
            let local = listener.local_addr()?;
            eprintln!("eccparityd: listening on tcp://{local} (threads)");
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(s) => s,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        std::thread::sleep(ACCEPT_ERR_BACKOFF);
                        continue;
                    }
                };
                let _ = stream.set_nodelay(true);
                if active.load() >= cfg.max_conns {
                    refuse_conn(Arc::clone(&engine), stream);
                    continue;
                }
                active.inc();
                let guard = ConnGuard(Arc::clone(&active));
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let cfg = Arc::clone(&cfg);
                std::thread::spawn(move || {
                    let _guard = guard;
                    let Ok(writer) = stream.try_clone() else {
                        return;
                    };
                    if handle_conn(&engine, &cfg, stream, writer, &stop) {
                        stop.store(true, Ordering::SeqCst);
                        let _ = TcpStream::connect(local);
                    }
                });
            }
            drain(&active, cfg.drain_ms);
        }
    }
    Ok(())
}

/// Wait up to `drain_ms` for every live connection to exit (condvar
/// wait — returns the instant the count hits zero).
pub(crate) fn drain(active: &ConnCount, drain_ms: u64) {
    let leftover = active.wait_zero(Duration::from_millis(drain_ms));
    if leftover > 0 {
        eprintln!("eccparityd: drain deadline hit with {leftover} connection(s) still open");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::rpc::Event;
    use std::io::{BufRead, BufReader};

    const BOTH_MODES: [IoMode; 2] = [IoMode::Threads, IoMode::Evented];

    fn connect_with_retry(path: &std::path::Path) -> UnixStream {
        for _ in 0..200 {
            if let Ok(s) = UnixStream::connect(path) {
                return s;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("daemon socket never appeared at {}", path.display());
    }

    fn start_daemon(
        engine: &Arc<Engine>,
        cfg: ServerConfig,
        tag: &str,
    ) -> (
        std::path::PathBuf,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let sock =
            std::env::temp_dir().join(format!("eccparityd-{tag}-{}.sock", std::process::id()));
        let e2 = Arc::clone(engine);
        let s2 = sock.clone();
        let srv = std::thread::spawn(move || serve(e2, Listen::Unix(s2), cfg));
        (sock, srv)
    }

    #[test]
    fn unix_socket_round_trip_and_shutdown() {
        for mode in BOTH_MODES {
            let engine = Arc::new(Engine::start(EngineConfig {
                shards: 2,
                ..EngineConfig::default()
            }));
            let cfg = ServerConfig {
                io_mode: mode,
                ..ServerConfig::default()
            };
            let (sock, srv) = start_daemon(&engine, cfg, &format!("sock-{}", mode.name()));

            let stream = connect_with_retry(&sock);
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for i in 0..100u64 {
                let ev = rpc::render_event(&Event {
                    node: i % 7,
                    channel: (i % 8) as u32,
                    bank: (i % 16) as u32,
                    row: (i % 32) as u32,
                    count: 1,
                    bank_fault: false,
                });
                writer.write_all(ev.as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
            }
            writer.write_all(b"not even json\n").unwrap();
            writer
                .write_all(b"{\"kind\":\"query\",\"op\":\"fleet\"}\n")
                .unwrap();
            writer.flush().unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            assert!(
                resp.contains("\"ok\":false"),
                "[{}] malformed line error first: {resp}",
                mode.name()
            );
            resp.clear();
            reader.read_line(&mut resp).unwrap();
            assert!(
                resp.contains("\"op\":\"fleet\""),
                "[{}] {resp}",
                mode.name()
            );
            assert!(resp.contains("\"events\":100"), "[{}] {resp}", mode.name());
            assert!(
                resp.contains("\"degraded\":false"),
                "[{}] {resp}",
                mode.name()
            );

            writer
                .write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
                .unwrap();
            writer.flush().unwrap();
            resp.clear();
            reader.read_line(&mut resp).unwrap();
            assert!(
                resp.contains("\"op\":\"shutdown\""),
                "[{}] {resp}",
                mode.name()
            );
            srv.join().unwrap().unwrap();
            engine.shutdown();
            assert!(!sock.exists(), "socket file cleaned up");
        }
    }

    #[test]
    fn oversized_lines_are_refused_and_the_connection_survives() {
        for mode in BOTH_MODES {
            let engine = Arc::new(Engine::start(EngineConfig {
                shards: 1,
                ..EngineConfig::default()
            }));
            let cfg = ServerConfig {
                max_line_bytes: 4096,
                io_mode: mode,
                ..ServerConfig::default()
            };
            let (sock, srv) = start_daemon(&engine, cfg, &format!("oversized-{}", mode.name()));

            let stream = connect_with_retry(&sock);
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            // A line far past the cap, streamed in pieces like a slow loris.
            let blob = vec![b'x'; 64 * 1024];
            for part in blob.chunks(1000) {
                writer.write_all(part).unwrap();
                writer.flush().unwrap();
            }
            writer.write_all(b"\n").unwrap();
            // The connection must still serve real traffic afterwards.
            writer
                .write_all(b"{\"kind\":\"event\",\"node\":3,\"channel\":0,\"bank\":0,\"row\":1}\n")
                .unwrap();
            writer
                .write_all(b"{\"kind\":\"query\",\"op\":\"stats\"}\n")
                .unwrap();
            writer.flush().unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            assert!(
                resp.contains("\"code\":\"oversized\""),
                "[{}] {resp}",
                mode.name()
            );
            resp.clear();
            reader.read_line(&mut resp).unwrap();
            assert!(
                resp.contains("\"op\":\"stats\""),
                "[{}] {resp}",
                mode.name()
            );
            assert!(
                resp.contains("\"rejected_oversized\":1"),
                "[{}] {resp}",
                mode.name()
            );
            assert!(
                resp.contains("\"events_ingested\":1"),
                "[{}] {resp}",
                mode.name()
            );

            writer
                .write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
                .unwrap();
            writer.flush().unwrap();
            resp.clear();
            reader.read_line(&mut resp).unwrap();
            srv.join().unwrap().unwrap();
            engine.shutdown();
        }
    }

    #[test]
    fn admission_cap_refuses_with_structured_error() {
        for mode in BOTH_MODES {
            let engine = Arc::new(Engine::start(EngineConfig {
                shards: 1,
                ..EngineConfig::default()
            }));
            let cfg = ServerConfig {
                max_conns: 1,
                io_mode: mode,
                ..ServerConfig::default()
            };
            let (sock, srv) = start_daemon(&engine, cfg, &format!("cap-{}", mode.name()));

            let first = connect_with_retry(&sock);
            // Prove the first connection is admitted (a query round-trips)
            // before the second attempt, so the cap is actually occupied.
            let mut w1 = first.try_clone().unwrap();
            let mut r1 = BufReader::new(first);
            w1.write_all(b"{\"kind\":\"query\",\"op\":\"stats\"}\n")
                .unwrap();
            w1.flush().unwrap();
            let mut resp = String::new();
            r1.read_line(&mut resp).unwrap();
            assert!(
                resp.contains("\"op\":\"stats\""),
                "[{}] {resp}",
                mode.name()
            );

            let second = UnixStream::connect(&sock).unwrap();
            let mut r2 = BufReader::new(second);
            resp.clear();
            r2.read_line(&mut resp).unwrap();
            assert!(
                resp.contains("\"code\":\"overloaded\""),
                "[{}] {resp}",
                mode.name()
            );
            resp.clear();
            assert_eq!(r2.read_line(&mut resp).unwrap(), 0, "refused conn closes");

            w1.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
                .unwrap();
            w1.flush().unwrap();
            resp.clear();
            r1.read_line(&mut resp).unwrap();
            srv.join().unwrap().unwrap();
            engine.shutdown();
        }
    }

    #[test]
    fn idle_connections_are_closed_and_counted() {
        for mode in BOTH_MODES {
            let engine = Arc::new(Engine::start(EngineConfig {
                shards: 1,
                ..EngineConfig::default()
            }));
            let cfg = ServerConfig {
                idle_timeout_ms: 150,
                io_mode: mode,
                ..ServerConfig::default()
            };
            let (sock, srv) = start_daemon(&engine, cfg, &format!("idle-{}", mode.name()));

            let idle = connect_with_retry(&sock);
            let mut r = BufReader::new(idle.try_clone().unwrap());
            let mut resp = String::new();
            // The server closes us without a response once the idle deadline
            // (150 ms) passes; read_line returning 0 is that close.
            assert_eq!(r.read_line(&mut resp).unwrap(), 0, "idle conn closed");
            drop(idle);

            let active = connect_with_retry(&sock);
            let mut w = active.try_clone().unwrap();
            let mut r = BufReader::new(active);
            w.write_all(b"{\"kind\":\"query\",\"op\":\"stats\"}\n")
                .unwrap();
            w.flush().unwrap();
            resp.clear();
            r.read_line(&mut resp).unwrap();
            assert!(
                resp.contains("\"idle_closed_conns\":1"),
                "[{}] {resp}",
                mode.name()
            );
            w.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
                .unwrap();
            w.flush().unwrap();
            resp.clear();
            r.read_line(&mut resp).unwrap();
            srv.join().unwrap().unwrap();
            engine.shutdown();
        }
    }

    #[test]
    fn truncated_final_line_is_still_processed() {
        for mode in BOTH_MODES {
            let engine = Arc::new(Engine::start(EngineConfig {
                shards: 1,
                ..EngineConfig::default()
            }));
            let cfg = ServerConfig {
                io_mode: mode,
                ..ServerConfig::default()
            };
            let (sock, srv) = start_daemon(&engine, cfg, &format!("trunc-{}", mode.name()));

            // One complete event, then a truncated event with no newline, EOF.
            let stream = connect_with_retry(&sock);
            let mut w = stream.try_clone().unwrap();
            w.write_all(b"{\"kind\":\"event\",\"node\":1,\"channel\":0,\"bank\":0,\"row\":1}\n")
                .unwrap();
            w.write_all(b"{\"kind\":\"event\",\"node\":2,\"channel\":0,\"bank\":0,\"row\":2}")
                .unwrap();
            w.flush().unwrap();
            drop(w);
            drop(stream);

            // Poll stats on a second connection until both events landed.
            let stream = connect_with_retry(&sock);
            let mut w = stream.try_clone().unwrap();
            let mut r = BufReader::new(stream);
            let mut resp = String::new();
            for _ in 0..100 {
                w.write_all(b"{\"kind\":\"query\",\"op\":\"stats\"}\n")
                    .unwrap();
                w.flush().unwrap();
                resp.clear();
                r.read_line(&mut resp).unwrap();
                if resp.contains("\"events_ingested\":2") {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert!(
                resp.contains("\"events_ingested\":2"),
                "[{}] truncated final line must be applied: {resp}",
                mode.name()
            );
            w.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
                .unwrap();
            w.flush().unwrap();
            resp.clear();
            r.read_line(&mut resp).unwrap();
            srv.join().unwrap().unwrap();
            engine.shutdown();
        }
    }

    #[test]
    fn subscribe_streams_posture_transitions_threaded() {
        let engine = Arc::new(Engine::start(EngineConfig {
            shards: 1,
            ..EngineConfig::default()
        }));
        let cfg = ServerConfig {
            io_mode: IoMode::Threads,
            ..ServerConfig::default()
        };
        let (sock, srv) = start_daemon(&engine, cfg, "sub-threads");

        let sub = connect_with_retry(&sock);
        let mut sw = sub.try_clone().unwrap();
        let mut sr = BufReader::new(sub);
        sw.write_all(b"{\"kind\":\"query\",\"op\":\"subscribe\"}\n")
            .unwrap();
        sw.flush().unwrap();
        let mut resp = String::new();
        sr.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"op\":\"subscribe\""), "{resp}");
        assert!(resp.contains("eccparity-push-v1"), "{resp}");

        // Drive node 9 into a faulty posture from a second connection.
        let feeder = connect_with_retry(&sock);
        let mut fw = feeder.try_clone().unwrap();
        let mut fr = BufReader::new(feeder);
        for row in 0..4u32 {
            let line = format!(
                "{{\"kind\":\"event\",\"node\":9,\"channel\":0,\"bank\":0,\"row\":{row},\"count\":4}}\n"
            );
            fw.write_all(line.as_bytes()).unwrap();
        }
        fw.write_all(b"{\"kind\":\"query\",\"op\":\"stats\"}\n")
            .unwrap();
        fw.flush().unwrap();
        resp.clear();
        fr.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"push_subscribers\":1"), "{resp}");

        // The subscriber sees at least one transition line for node 9.
        resp.clear();
        sr.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"schema\":\"eccparity-push-v1\""), "{resp}");
        assert!(resp.contains("\"node\":9"), "{resp}");
        assert!(resp.contains("\"from\":\"nominal\""), "{resp}");

        drop(sw);
        drop(sr);
        fw.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
            .unwrap();
        fw.flush().unwrap();
        resp.clear();
        fr.read_line(&mut resp).unwrap();
        srv.join().unwrap().unwrap();
        engine.shutdown();
    }
}
