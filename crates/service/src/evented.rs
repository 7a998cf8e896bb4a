//! Readiness-driven front-end ([`crate::server::IoMode::Evented`]): every
//! connection is multiplexed over [`ServerConfig::io_shards`] event-loop
//! threads instead of owning a blocking thread.
//!
//! Why: the thread-per-connection model prices an *idle* fleet
//! connection at one OS thread (~8 MiB of stack address space plus
//! scheduler load), so 10k mostly-idle agents would need 10k threads.
//! Here an idle connection is one registered file descriptor; the whole
//! daemon runs on a handful of loop threads regardless of connection
//! count.
//!
//! Mechanics:
//!
//! - The accept loop (the `serve_evented` caller thread) admits
//!   connections against the shared `ConnCount` cap, flips them
//!   nonblocking, and hands them round-robin to loop shards through a
//!   small injection queue + [`mio::Waker`] nudge.
//! - Each loop thread owns a [`mio::Poll`] (level-triggered `epoll`, or
//!   portable `poll(2)` under `ECC_PARITY_FORCE_POLL=1`) and a slab of
//!   connections indexed by token. Request bytes run through the same
//!   `LineBuf` reassembly and `process_line` state machine as the
//!   threaded mode — responses are byte-identical by construction.
//! - Writes never block the loop: responses land in a per-connection
//!   outbox that drains on writability. Past `OUTBOX_HIGH_WATER`
//!   pending bytes the connection's *read* interest is dropped
//!   (backpressure instead of unbounded buffering) and re-armed below
//!   `OUTBOX_LOW_WATER`.
//! - `subscribe`d connections get their push lines copied into the same
//!   outbox; a subscriber whose outbox is over the high watermark has
//!   queued lines shed and counted (`service.push.shed`) rather than
//!   buffered without bound.
//! - A query still runs its router flush + engine barrier inline, which
//!   momentarily stalls the other connections on that loop shard: that
//!   is the documented price of read-your-writes, and queries are rare
//!   next to event traffic.

use crate::engine::{Engine, RejectKind, Router};
use crate::server::{
    drain, oversized_refusal_into, process_line, refuse_conn, write_line, ConnCount, ConnGuard,
    LineBuf, LineOutcome, Listen, Scan, ServerConfig, POLL_TICK, READ_CHUNK,
};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pending outbox bytes past which a connection's read interest is
/// dropped (and a subscriber's push lines are shed).
pub(crate) const OUTBOX_HIGH_WATER: usize = 1 << 20;

/// Pending outbox bytes below which read interest is re-armed.
pub(crate) const OUTBOX_LOW_WATER: usize = 64 * 1024;

/// Token reserved for the per-loop waker (connection slots use their
/// slab index).
const WAKER_TOKEN: Token = Token(usize::MAX);

/// Readiness events fetched per poll call.
const EVENTS_CAPACITY: usize = 1024;

/// Bound on chunks read from one connection per readiness event, so a
/// firehosing client cannot starve its loop-mates (level-triggered
/// readiness re-reports it next poll).
const MAX_CHUNKS_PER_EVENT: usize = 4;

/// Budget for the best-effort blocking flush of a closing connection's
/// outbox (responses to a final request, the shutdown ack).
const CLOSE_FLUSH_TIMEOUT: Duration = Duration::from_millis(250);

/// Borrowed raw fd, for registering enum-wrapped streams.
struct Fd(RawFd);

impl AsRawFd for Fd {
    fn as_raw_fd(&self) -> RawFd {
        self.0
    }
}

/// A nonblocking accepted stream of either flavor.
enum NbStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl NbStream {
    fn raw_fd(&self) -> RawFd {
        match self {
            NbStream::Unix(s) => s.as_raw_fd(),
            NbStream::Tcp(s) => s.as_raw_fd(),
        }
    }

    /// Flip back to blocking with a short write timeout, for the final
    /// best-effort outbox flush when a connection closes.
    fn prepare_blocking_flush(&self) {
        match self {
            NbStream::Unix(s) => {
                let _ = s.set_nonblocking(false);
                let _ = s.set_write_timeout(Some(CLOSE_FLUSH_TIMEOUT));
            }
            NbStream::Tcp(s) => {
                let _ = s.set_nonblocking(false);
                let _ = s.set_write_timeout(Some(CLOSE_FLUSH_TIMEOUT));
            }
        }
    }
}

impl Read for NbStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NbStream::Unix(s) => s.read(buf),
            NbStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for NbStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NbStream::Unix(s) => s.write(buf),
            NbStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NbStream::Unix(s) => s.flush(),
            NbStream::Tcp(s) => s.flush(),
        }
    }
}

/// One connection's loop-side state.
struct Conn {
    stream: NbStream,
    buf: LineBuf,
    router: Router,
    /// Bytes queued to the client; `[outbox_written..]` is still unsent.
    outbox: Vec<u8>,
    outbox_written: usize,
    /// Reused response render buffer (no per-line allocation).
    resp: String,
    last_activity: Instant,
    /// Interests currently registered with the poller: (read, write).
    registered: (bool, bool),
    /// Read interest dropped by the outbox high watermark.
    paused_read: bool,
    /// Close once the outbox drains.
    closing: bool,
    /// Push subscription, once the client sent `subscribe`.
    sub: Option<(u64, Receiver<Arc<str>>)>,
    _guard: ConnGuard,
}

impl Conn {
    fn pending(&self) -> usize {
        self.outbox.len() - self.outbox_written
    }
}

/// What an I/O step decided about the connection.
enum Disposition {
    Keep,
    Close,
    Shutdown,
}

/// One event-loop shard: its poller, the waker the accept loop (and push
/// hub) nudges it with, and the injection queue of freshly accepted
/// connections.
struct Shard {
    poll: Poll,
    waker: Waker,
    inbox: Mutex<VecDeque<(NbStream, ConnGuard)>>,
}

impl Shard {
    fn new() -> std::io::Result<Shard> {
        let poll = Poll::new()?;
        let waker = Waker::new(&poll, WAKER_TOKEN)?;
        Ok(Shard {
            poll,
            waker,
            inbox: Mutex::new(VecDeque::new()),
        })
    }
}

/// Flush as much of the outbox as the socket accepts right now.
fn flush_outbox(conn: &mut Conn) -> Disposition {
    while conn.outbox_written < conn.outbox.len() {
        match conn.stream.write(&conn.outbox[conn.outbox_written..]) {
            Ok(0) => return Disposition::Close,
            Ok(n) => conn.outbox_written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Disposition::Close,
        }
    }
    if conn.outbox_written == conn.outbox.len() {
        conn.outbox.clear();
        conn.outbox_written = 0;
        if conn.closing {
            return Disposition::Close;
        }
    } else if conn.outbox_written > OUTBOX_LOW_WATER {
        // Reclaim sent bytes so a slow reader doesn't pin the peak.
        conn.outbox.drain(..conn.outbox_written);
        conn.outbox_written = 0;
    }
    Disposition::Keep
}

/// Re-derive the watermark pause state and (re)register the interests
/// the connection actually needs right now.
fn sync_interest(poll: &Poll, idx: usize, conn: &mut Conn) {
    let pending = conn.pending();
    if pending > OUTBOX_HIGH_WATER {
        conn.paused_read = true;
    } else if pending < OUTBOX_LOW_WATER {
        conn.paused_read = false;
    }
    let want = (!conn.paused_read && !conn.closing, pending > 0);
    if want == conn.registered {
        return;
    }
    let interest = match want {
        (true, true) => Interest::READABLE | Interest::WRITABLE,
        (true, false) => Interest::READABLE,
        (false, true) => Interest::WRITABLE,
        // A paused or closing connection with a drained outbox: keep
        // write interest so socket errors still surface.
        (false, false) => Interest::WRITABLE,
    };
    if poll
        .reregister(&Fd(conn.stream.raw_fd()), Token(idx), interest)
        .is_ok()
    {
        conn.registered = want;
    }
}

/// Drain readable bytes through the shared line state machine.
fn handle_read(
    engine: &Engine,
    cfg: &ServerConfig,
    conn: &mut Conn,
    chunk: &mut [u8],
    waker: &Waker,
) -> Disposition {
    let mut eof = false;
    'chunks: for _ in 0..MAX_CHUNKS_PER_EVENT {
        if conn.pending() > OUTBOX_HIGH_WATER {
            break;
        }
        let n = match conn.stream.read(chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Disposition::Close,
        };
        conn.last_activity = Instant::now();
        if conn.sub.is_some() {
            // A subscribed connection is push-only: request bytes after
            // `subscribe` are discarded (we only watch for EOF).
            continue;
        }
        let outcome = {
            let Conn {
                ref mut buf,
                ref mut router,
                ref mut outbox,
                ref mut resp,
                ..
            } = *conn;
            buf.feed(&chunk[..n], cfg.max_line_bytes, &mut |scan| match scan {
                Scan::Line(line) => process_line(engine, router, outbox, cfg, line, resp),
                Scan::Oversized => {
                    engine.note_reject(RejectKind::Oversized);
                    oversized_refusal_into(resp, cfg.max_line_bytes);
                    let _ = write_line(outbox, resp);
                    LineOutcome::Continue
                }
            })
        };
        match outcome {
            LineOutcome::Continue => {}
            // Writes into a Vec outbox cannot fail.
            LineOutcome::Closed => unreachable!("outbox writes are infallible"),
            LineOutcome::Shutdown => return Disposition::Shutdown,
            LineOutcome::Subscribe => {
                conn.buf.clear();
                // Register with the hub *before* queueing the ack (which
                // `process_line` left in `conn.resp`): a client that has
                // read the ack cannot miss a transition. The hub wakes
                // this loop whenever a line lands for the subscriber.
                let w = waker.clone();
                let (id, rx) = engine.push_hub().subscribe(Some(Arc::new(move || {
                    let _ = w.wake();
                })));
                let _ = write_line(&mut conn.outbox, &conn.resp);
                conn.sub = Some((id, rx));
                continue 'chunks;
            }
        }
    }
    if eof {
        if conn.sub.is_none() {
            let Conn {
                ref mut buf,
                ref mut router,
                ref mut outbox,
                ref mut resp,
                ..
            } = *conn;
            buf.finish(&mut |scan| match scan {
                Scan::Line(line) => process_line(engine, router, outbox, cfg, line, resp),
                Scan::Oversized => LineOutcome::Continue,
            });
        }
        conn.router.flush(engine);
        conn.closing = true;
        if conn.pending() == 0 {
            return Disposition::Close;
        }
    }
    Disposition::Keep
}

/// Copy queued push lines into a subscriber's outbox; over the high
/// watermark the queued lines are shed (dropped + counted) instead of
/// buffered without bound.
fn drain_pushes(engine: &Engine, conn: &mut Conn) {
    let Some((_, rx)) = &conn.sub else { return };
    let mut shed = 0u64;
    loop {
        if conn.outbox.len() - conn.outbox_written > OUTBOX_HIGH_WATER {
            match rx.try_recv() {
                Ok(_) => {
                    shed += 1;
                    continue;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    conn.closing = true;
                    break;
                }
            }
        }
        match rx.try_recv() {
            Ok(line) => {
                conn.outbox.extend_from_slice(line.as_bytes());
                conn.outbox.push(b'\n');
            }
            Err(TryRecvError::Empty) => break,
            Err(TryRecvError::Disconnected) => {
                // Hub gone: the engine is shutting down; flush and close.
                conn.closing = true;
                break;
            }
        }
    }
    engine.push_hub().note_shed(shed);
}

/// Deregister, unsubscribe, flush what we can, and free the slot.
/// `flush_remaining` spends up to [`CLOSE_FLUSH_TIMEOUT`] in blocking
/// mode so final responses (shutdown ack, truncated-line replies) reach
/// the client.
fn close_conn(
    engine: &Engine,
    poll: &Poll,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    subscribed: &mut Vec<usize>,
    idx: usize,
    flush_remaining: bool,
) {
    let Some(mut conn) = conns[idx].take() else {
        return;
    };
    let _ = poll.deregister(&Fd(conn.stream.raw_fd()));
    if let Some((id, _)) = conn.sub.take() {
        engine.push_hub().unsubscribe(id);
        subscribed.retain(|&i| i != idx);
    }
    conn.router.flush(engine);
    if flush_remaining && conn.pending() > 0 {
        conn.stream.prepare_blocking_flush();
        let pending = &conn.outbox[conn.outbox_written..];
        let _ = conn
            .stream
            .write_all(pending)
            .and_then(|()| conn.stream.flush());
    }
    free.push(idx);
}

/// One event-loop shard thread: poll, serve readiness, adopt injected
/// connections, fan pushes out, sweep idle conns — until `stop`.
fn run_loop(
    engine: Arc<Engine>,
    cfg: Arc<ServerConfig>,
    shard: Arc<Shard>,
    peers: Arc<Vec<Arc<Shard>>>,
    stop: Arc<AtomicBool>,
) {
    let mut events = Events::with_capacity(EVENTS_CAPACITY);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut subscribed: Vec<usize> = Vec::new();
    let mut ready: Vec<(usize, bool, bool)> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut last_sweep = Instant::now();
    loop {
        let _ = shard.poll.poll(&mut events, Some(POLL_TICK));
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Snapshot tokens first: handling mutates the slab.
        ready.clear();
        for ev in events.iter() {
            if ev.token() != WAKER_TOKEN {
                ready.push((ev.token().0, ev.is_readable(), ev.is_writable()));
            }
        }
        for &(idx, readable, writable) in &ready {
            let Some(conn) = conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                continue;
            };
            let mut disp = Disposition::Keep;
            if writable {
                disp = flush_outbox(conn);
            }
            if readable && matches!(disp, Disposition::Keep) && !conn.closing {
                disp = handle_read(&engine, &cfg, conn, &mut chunk, &shard.waker);
                if matches!(disp, Disposition::Keep) {
                    // Push replies out now; arm write interest for the rest.
                    disp = flush_outbox(conn);
                }
                if conn.sub.is_some() && !subscribed.contains(&idx) {
                    subscribed.push(idx);
                }
            }
            match disp {
                Disposition::Keep => sync_interest(&shard.poll, idx, conn),
                Disposition::Close => {
                    close_conn(
                        &engine,
                        &shard.poll,
                        &mut conns,
                        &mut free,
                        &mut subscribed,
                        idx,
                        false,
                    );
                }
                Disposition::Shutdown => {
                    // Deliver the shutdown ack, then stop every shard.
                    close_conn(
                        &engine,
                        &shard.poll,
                        &mut conns,
                        &mut free,
                        &mut subscribed,
                        idx,
                        true,
                    );
                    stop.store(true, Ordering::SeqCst);
                    for p in peers.iter() {
                        let _ = p.waker.wake();
                    }
                }
            }
        }
        // Adopt freshly accepted connections (after event handling, so a
        // stale event for a recycled token cannot hit a new conn).
        loop {
            let next = shard.inbox.lock().expect("inbox lock").pop_front();
            let Some((stream, guard)) = next else { break };
            let idx = free.pop().unwrap_or_else(|| {
                conns.push(None);
                conns.len() - 1
            });
            if shard
                .poll
                .register(&Fd(stream.raw_fd()), Token(idx), Interest::READABLE)
                .is_err()
            {
                free.push(idx);
                continue;
            }
            obs::counter!("service.connections").inc();
            conns[idx] = Some(Conn {
                stream,
                buf: LineBuf::new(),
                router: Router::new(&engine),
                outbox: Vec::new(),
                outbox_written: 0,
                resp: String::with_capacity(256),
                last_activity: Instant::now(),
                registered: (true, false),
                paused_read: false,
                closing: false,
                sub: None,
                _guard: guard,
            });
        }
        // Fan queued push lines out to subscribers on this loop.
        if !subscribed.is_empty() {
            let subs = std::mem::take(&mut subscribed);
            for idx in subs {
                let Some(conn) = conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                    continue;
                };
                drain_pushes(&engine, conn);
                let disp = flush_outbox(conn);
                if matches!(disp, Disposition::Close) {
                    close_conn(
                        &engine,
                        &shard.poll,
                        &mut conns,
                        &mut free,
                        &mut subscribed,
                        idx,
                        false,
                    );
                } else {
                    sync_interest(&shard.poll, idx, conn);
                    subscribed.push(idx);
                }
            }
        }
        // Idle sweep, at poll-tick resolution like the threaded mode.
        if cfg.idle_timeout_ms > 0 && last_sweep.elapsed() >= POLL_TICK {
            last_sweep = Instant::now();
            let deadline = Duration::from_millis(cfg.idle_timeout_ms);
            for idx in 0..conns.len() {
                let stale = conns[idx]
                    .as_ref()
                    .is_some_and(|c| c.sub.is_none() && c.last_activity.elapsed() >= deadline);
                if stale {
                    engine.note_idle_close();
                    close_conn(
                        &engine,
                        &shard.poll,
                        &mut conns,
                        &mut free,
                        &mut subscribed,
                        idx,
                        false,
                    );
                }
            }
        }
    }
    // Teardown: flush every router (so a final checkpoint sees all
    // in-flight events) and best-effort-drain the outboxes.
    for idx in 0..conns.len() {
        close_conn(
            &engine,
            &shard.poll,
            &mut conns,
            &mut free,
            &mut subscribed,
            idx,
            true,
        );
    }
}

/// Evented accept loop: admit, flip nonblocking, hand to a loop shard.
pub(crate) fn serve_evented(
    engine: Arc<Engine>,
    listen: Listen,
    cfg: Arc<ServerConfig>,
) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(ConnCount::new());
    let shards: Vec<Arc<Shard>> = (0..cfg.io_shards)
        .map(|_| Shard::new().map(Arc::new))
        .collect::<std::io::Result<_>>()?;
    let peers = Arc::new(shards.clone());
    let loops: Vec<std::thread::JoinHandle<()>> = shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let engine = Arc::clone(&engine);
            let cfg = Arc::clone(&cfg);
            let shard = Arc::clone(shard);
            let peers = Arc::clone(&peers);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("eccparityd-io-{i}"))
                .spawn(move || run_loop(engine, cfg, shard, peers, stop))
                .expect("spawn io loop")
        })
        .collect();

    let mut next = 0usize;
    let mut dispatch = |stream: NbStream| {
        active.inc();
        let guard = ConnGuard(Arc::clone(&active));
        let shard = &shards[next % shards.len()];
        next += 1;
        shard
            .inbox
            .lock()
            .expect("inbox lock")
            .push_back((stream, guard));
        let _ = shard.waker.wake();
    };

    let apoll = Poll::new()?;
    let mut aevents = Events::with_capacity(8);
    let unix_path = match listen {
        Listen::Unix(path) => {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            listener.set_nonblocking(true)?;
            apoll.register(&Fd(listener.as_raw_fd()), Token(0), Interest::READABLE)?;
            eprintln!(
                "eccparityd: listening on unix://{} (evented, {} loop{}, {} backend)",
                path.display(),
                shards.len(),
                if shards.len() == 1 { "" } else { "s" },
                apoll.backend_name(),
            );
            while !stop.load(Ordering::SeqCst) {
                let _ = apoll.poll(&mut aevents, Some(POLL_TICK));
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if active.load() >= cfg.max_conns {
                                refuse_conn(Arc::clone(&engine), stream);
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            dispatch(NbStream::Unix(stream));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            // EMFILE and friends leave the listener readable,
                            // so poll() would return instantly and we'd spin.
                            // Back off and let the loop shards run.
                            std::thread::sleep(crate::server::ACCEPT_ERR_BACKOFF);
                            break;
                        }
                    }
                }
            }
            Some(path)
        }
        Listen::Tcp(addr) => {
            let listener = TcpListener::bind(&addr)?;
            let local = listener.local_addr()?;
            listener.set_nonblocking(true)?;
            apoll.register(&Fd(listener.as_raw_fd()), Token(0), Interest::READABLE)?;
            eprintln!(
                "eccparityd: listening on tcp://{local} (evented, {} loop{}, {} backend)",
                shards.len(),
                if shards.len() == 1 { "" } else { "s" },
                apoll.backend_name(),
            );
            while !stop.load(Ordering::SeqCst) {
                let _ = apoll.poll(&mut aevents, Some(POLL_TICK));
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nodelay(true);
                            if active.load() >= cfg.max_conns {
                                refuse_conn(Arc::clone(&engine), stream);
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            dispatch(NbStream::Tcp(stream));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            std::thread::sleep(crate::server::ACCEPT_ERR_BACKOFF);
                            break;
                        }
                    }
                }
            }
            None
        }
    };

    // Loop threads flush routers + outboxes on their way out; joining
    // them is the drain.
    for (shard, handle) in shards.iter().zip(loops) {
        let _ = shard.waker.wake();
        let _ = handle.join();
    }
    drain(&active, cfg.drain_ms);
    if let Some(path) = unix_path {
        let _ = std::fs::remove_file(&path);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::server::{serve, IoMode};
    use std::io::{BufRead, BufReader};

    fn connect_with_retry(path: &std::path::Path) -> UnixStream {
        for _ in 0..200 {
            if let Ok(s) = UnixStream::connect(path) {
                return s;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon socket never appeared at {}", path.display());
    }

    fn start_evented(
        engine: &Arc<Engine>,
        cfg: ServerConfig,
        tag: &str,
    ) -> (
        std::path::PathBuf,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let sock =
            std::env::temp_dir().join(format!("eccparityd-ev-{tag}-{}.sock", std::process::id()));
        let e2 = Arc::clone(engine);
        let s2 = sock.clone();
        let cfg = ServerConfig {
            io_mode: IoMode::Evented,
            ..cfg
        };
        let srv = std::thread::spawn(move || serve(e2, Listen::Unix(s2), cfg));
        (sock, srv)
    }

    #[test]
    fn many_idle_connections_are_cheap_and_served() {
        let engine = Arc::new(Engine::start(EngineConfig {
            shards: 1,
            ..EngineConfig::default()
        }));
        let (sock, srv) = start_evented(&engine, ServerConfig::default(), "idlefleet");

        // Park a pile of idle connections; they must all stay open while
        // an active connection round-trips queries, with no thread per
        // connection.
        let idle: Vec<UnixStream> = (0..100).map(|_| connect_with_retry(&sock)).collect();
        let active = connect_with_retry(&sock);
        let mut w = active.try_clone().unwrap();
        let mut r = BufReader::new(active);
        let mut resp = String::new();
        w.write_all(b"{\"kind\":\"event\",\"node\":5,\"channel\":1,\"bank\":2,\"row\":3}\n")
            .unwrap();
        w.write_all(b"{\"kind\":\"query\",\"op\":\"stats\"}\n")
            .unwrap();
        w.flush().unwrap();
        r.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"events_ingested\":1"), "{resp}");
        let threads: u64 = resp
            .split("\"os_threads\":")
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        assert!(
            threads > 0 && threads < 64,
            "101 connections must not cost 101 threads, saw {threads}: {resp}"
        );
        drop(idle);
        w.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
            .unwrap();
        w.flush().unwrap();
        resp.clear();
        r.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"op\":\"shutdown\""), "{resp}");
        srv.join().unwrap().unwrap();
        engine.shutdown();
    }

    #[test]
    fn subscribe_streams_posture_transitions_evented() {
        let engine = Arc::new(Engine::start(EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        }));
        let (sock, srv) = start_evented(&engine, ServerConfig::default(), "sub");

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

        // Drive node 9 over a tier edge: one pair migration puts risk at
        // 275000 ppm (nominal → watch).
        let feeder = connect_with_retry(&sock);
        let mut fw = feeder.try_clone().unwrap();
        let mut fr = BufReader::new(feeder);
        fw.write_all(
            b"{\"kind\":\"event\",\"node\":9,\"channel\":0,\"bank\":0,\"row\":0,\"count\":4}\n",
        )
        .unwrap();
        fw.write_all(b"{\"kind\":\"query\",\"op\":\"stats\"}\n")
            .unwrap();
        fw.flush().unwrap();
        resp.clear();
        fr.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"push_subscribers\":1"), "{resp}");

        resp.clear();
        sr.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"schema\":\"eccparity-push-v1\""), "{resp}");
        assert!(resp.contains("\"node\":9"), "{resp}");
        assert!(resp.contains("\"from\":\"nominal\""), "{resp}");
        assert!(resp.contains("\"to\":\"watch\""), "{resp}");

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

    #[test]
    fn pipelined_split_writes_reassemble() {
        // Drip a request stream byte-by-byte: reassembly across reads
        // must behave exactly like the threaded path.
        let engine = Arc::new(Engine::start(EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        }));
        let (sock, srv) = start_evented(&engine, ServerConfig::default(), "drip");
        let stream = connect_with_retry(&sock);
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        let payload = b"{\"kind\":\"event\",\"node\":1,\"channel\":0,\"bank\":0,\"row\":7}\n{\"kind\":\"query\",\"op\":\"node_risk\",\"node\":1}\n";
        for b in payload.iter() {
            w.write_all(std::slice::from_ref(b)).unwrap();
            w.flush().unwrap();
        }
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"op\":\"node_risk\""), "{resp}");
        assert!(resp.contains("\"events\":1"), "{resp}");
        w.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
            .unwrap();
        w.flush().unwrap();
        resp.clear();
        r.read_line(&mut resp).unwrap();
        srv.join().unwrap().unwrap();
        engine.shutdown();
    }
}
