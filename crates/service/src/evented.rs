//! The daemon's connection machinery: every connection is multiplexed
//! over [`ServerConfig::io_shards`] readiness-driven event-loop threads
//! instead of owning a blocking thread.
//!
//! Why: a thread per connection prices an *idle* fleet connection at one
//! OS thread (~8 MiB of stack address space plus scheduler load), so 10k
//! mostly-idle agents would need 10k threads. Here an idle connection is
//! one registered file descriptor; the whole daemon runs on a handful of
//! loop threads regardless of connection count.
//!
//! Mechanics:
//!
//! - The accept loop (the `serve_evented` caller thread) admits
//!   connections against the admission cap, flips them nonblocking, and
//!   hands them round-robin to loop shards through a small injection
//!   queue + [`mio::Waker`] nudge. A connection over the cap gets its
//!   refusal line in one nonblocking write on the accept thread.
//! - Each loop thread owns a [`mio::Poll`] (level-triggered `epoll`, or
//!   portable `poll(2)` under `ECC_PARITY_FORCE_POLL=1`) and a slab of
//!   connections indexed by token. Request bytes run through the
//!   `LineBuf` reassembly and `process_line` state machine of
//!   [`crate::server`].
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
//! - Shutdown is two steps. The loop that reads a `shutdown` request
//!   wakes the accept loop, which sweeps the listen backlog one last time
//!   and then tells every loop shard to finish. Nothing is dispatched
//!   after that, so each loop adopts what is left in its queue, reads
//!   and processes everything its connections have already sent, flushes
//!   their routers and outboxes, and exits. Joining the loops is the
//!   whole drain.

use crate::engine::{Engine, RejectKind, Router};
use crate::rpc;
use crate::server::{
    oversized_refusal_into, process_line, write_line, LineBuf, LineOutcome, Listen, Scan,
    ServerConfig,
};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Resolution of the idle-connection sweep: with an idle timeout set,
/// loops wake at least this often even when no client sends anything.
const POLL_TICK: Duration = Duration::from_millis(200);

/// Pause after an unexpected `accept()` error (EMFILE/ENFILE when the
/// process fd budget is exhausted). Without it the accept loop spins hot
/// on the persistently-failing accept and starves live connections.
const ACCEPT_ERR_BACKOFF: Duration = Duration::from_millis(20);

/// Read chunk size.
const READ_CHUNK: usize = 64 * 1024;

/// Pending outbox bytes past which a connection's read interest is
/// dropped (and a subscriber's push lines are shed).
pub(crate) const OUTBOX_HIGH_WATER: usize = 1 << 20;

/// Pending outbox bytes below which read interest is re-armed.
pub(crate) const OUTBOX_LOW_WATER: usize = 64 * 1024;

/// Token reserved for a poller's waker (connection slots use their slab
/// index; the accept poller's listener uses 0).
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

/// An accepted stream of either flavor.
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

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            NbStream::Unix(s) => s.set_nonblocking(nonblocking),
            NbStream::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Flip back to blocking with a short write timeout, for the final
    /// best-effort outbox flush when a connection closes.
    fn prepare_blocking_flush(&self) {
        let _ = self.set_nonblocking(false);
        let _ = match self {
            NbStream::Unix(s) => s.set_write_timeout(Some(CLOSE_FLUSH_TIMEOUT)),
            NbStream::Tcp(s) => s.set_write_timeout(Some(CLOSE_FLUSH_TIMEOUT)),
        };
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

/// The bound listening socket of either flavor.
enum Listener {
    /// Unix-domain listener and the socket file it removes on exit.
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(listen: Listen) -> std::io::Result<Listener> {
        let listener = match listen {
            Listen::Unix(path) => {
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir)?;
                    }
                }
                let _ = std::fs::remove_file(&path);
                Listener::Unix(UnixListener::bind(&path)?, path)
            }
            Listen::Tcp(addr) => Listener::Tcp(TcpListener::bind(&addr)?),
        };
        match &listener {
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
            Listener::Tcp(l) => l.set_nonblocking(true)?,
        }
        Ok(listener)
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l, _) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    /// `unix://PATH` or `tcp://HOST:PORT` (the bound port, for `:0`).
    fn describe(&self) -> std::io::Result<String> {
        Ok(match self {
            Listener::Unix(_, path) => format!("unix://{}", path.display()),
            Listener::Tcp(l) => format!("tcp://{}", l.local_addr()?),
        })
    }

    /// Accept one pending connection, nonblocking.
    fn accept(&self) -> std::io::Result<NbStream> {
        let stream = match self {
            Listener::Unix(l, _) => NbStream::Unix(l.accept()?.0),
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                NbStream::Tcp(s)
            }
        };
        stream.set_nonblocking(true)?;
        Ok(stream)
    }
}

/// Holds one slot of the admission cap; frees it on drop, even if a
/// loop thread panics.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
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

/// The shutdown handshake between the loop shards and the accept loop.
struct Stop {
    /// A client asked for shutdown: the accept loop stops accepting.
    requested: AtomicBool,
    /// Wakes the accept loop's poller when `requested` is set.
    accept_waker: Waker,
    /// The accept loop has dispatched its last connection: loops drain
    /// and exit.
    closing: AtomicBool,
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

/// Run readable bytes through the line state machine. In service a
/// readiness event reads at most `MAX_CHUNKS_PER_EVENT` chunks and stops
/// while the outbox is over the high watermark; the stop-time `drain`
/// reads everything the client has already sent.
fn handle_read(
    engine: &Engine,
    cfg: &ServerConfig,
    conn: &mut Conn,
    chunk: &mut [u8],
    waker: &Waker,
    drain: bool,
) -> Disposition {
    let mut eof = false;
    let mut chunks = 0;
    'chunks: loop {
        if !drain && (chunks == MAX_CHUNKS_PER_EVENT || conn.pending() > OUTBOX_HIGH_WATER) {
            break;
        }
        chunks += 1;
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
                Scan::Line(line) => process_line(engine, router, outbox, line, resp),
                Scan::Oversized => {
                    engine.note_reject(RejectKind::Oversized);
                    oversized_refusal_into(resp, cfg.max_line_bytes);
                    write_line(outbox, resp);
                    LineOutcome::Continue
                }
            })
        };
        match outcome {
            LineOutcome::Continue => {}
            LineOutcome::Shutdown => return Disposition::Shutdown,
            LineOutcome::Subscribe => {
                // Register with the hub *before* queueing the ack (which
                // `process_line` left in `conn.resp`): a client that has
                // read the ack cannot miss a transition. The hub wakes
                // this loop whenever a line lands for the subscriber.
                let w = waker.clone();
                let (id, rx) = engine.push_hub().subscribe(Some(Arc::new(move || {
                    let _ = w.wake();
                })));
                write_line(&mut conn.outbox, &conn.resp);
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
                Scan::Line(line) => process_line(engine, router, outbox, line, resp),
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

/// Move every connection waiting in the shard's inbox into the slab.
fn adopt(engine: &Engine, shard: &Shard, conns: &mut Vec<Option<Conn>>, free: &mut Vec<usize>) {
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
            router: Router::new(engine),
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
}

/// One event-loop shard thread: poll, serve readiness, adopt injected
/// connections, fan pushes out, sweep idle conns — until the accept loop
/// sets `stop.closing`; then drain and close every connection.
fn run_loop(engine: Arc<Engine>, cfg: Arc<ServerConfig>, shard: Arc<Shard>, stop: Arc<Stop>) {
    let mut events = Events::with_capacity(EVENTS_CAPACITY);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut subscribed: Vec<usize> = Vec::new();
    let mut ready: Vec<(usize, bool, bool)> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut last_sweep = Instant::now();
    // Without an idle timeout there is nothing to sweep: sleep until a
    // socket or the waker needs the loop.
    let tick = (cfg.idle_timeout_ms > 0).then_some(POLL_TICK);
    loop {
        let _ = shard.poll.poll(&mut events, tick);
        if stop.closing.load(Ordering::SeqCst) {
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
                disp = handle_read(&engine, &cfg, conn, &mut chunk, &shard.waker, false);
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
                    // Stop the accept loop before delivering the ack, so
                    // a client that has read the ack finds the daemon
                    // already stopping.
                    stop.requested.store(true, Ordering::SeqCst);
                    let _ = stop.accept_waker.wake();
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
        }
        // Adopt freshly accepted connections (after event handling, so a
        // stale event for a recycled token cannot hit a new conn).
        adopt(&engine, &shard, &mut conns, &mut free);
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
        // Idle sweep, at poll-tick resolution.
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
    // Teardown. The accept loop has dispatched its last connection, so
    // the inbox is final: adopt it, process every byte each connection
    // has already sent (the final checkpoint must see all events written
    // before the shutdown request), then flush every router and
    // best-effort-drain the outboxes.
    adopt(&engine, &shard, &mut conns, &mut free);
    for idx in 0..conns.len() {
        if let Some(conn) = conns[idx].as_mut() {
            if conn.sub.is_none() && !conn.closing {
                let _ = handle_read(&engine, &cfg, conn, &mut chunk, &shard.waker, true);
            }
        }
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

/// Refuse a connection over the admission cap: one nonblocking write of
/// the structured refusal line (about 100 bytes, which the send buffer of
/// a fresh socket always holds), then close.
fn refuse(engine: &Engine, mut stream: NbStream) {
    engine.note_reject(RejectKind::ConnLimit);
    let mut line = rpc::refusal_response("overloaded", "connection limit reached, retry later");
    line.push('\n');
    let _ = stream.write(line.as_bytes());
}

/// The accept loop: admit, hand to a loop shard round-robin, and on
/// shutdown stop the loops and join them.
pub(crate) fn serve_evented(
    engine: Arc<Engine>,
    listen: Listen,
    cfg: Arc<ServerConfig>,
) -> std::io::Result<()> {
    let listener = Listener::bind(listen)?;
    let apoll = Poll::new()?;
    apoll.register(&Fd(listener.raw_fd()), Token(0), Interest::READABLE)?;
    let stop = Arc::new(Stop {
        requested: AtomicBool::new(false),
        accept_waker: Waker::new(&apoll, WAKER_TOKEN)?,
        closing: AtomicBool::new(false),
    });
    let shards: Vec<Arc<Shard>> = (0..cfg.io_shards)
        .map(|_| Shard::new().map(Arc::new))
        .collect::<std::io::Result<_>>()?;
    eprintln!(
        "eccparityd: listening on {} ({} io loop{}, {} backend)",
        listener.describe()?,
        shards.len(),
        if shards.len() == 1 { "" } else { "s" },
        apoll.backend_name(),
    );
    let loops: Vec<std::thread::JoinHandle<()>> = shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let engine = Arc::clone(&engine);
            let cfg = Arc::clone(&cfg);
            let shard = Arc::clone(shard);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("eccparityd-io-{i}"))
                .spawn(move || run_loop(engine, cfg, shard, stop))
                .expect("spawn io loop")
        })
        .collect();

    let active = Arc::new(AtomicUsize::new(0));
    let mut next = 0usize;
    let mut aevents = Events::with_capacity(8);
    loop {
        let _ = apoll.poll(&mut aevents, None);
        // Read the flag before sweeping the backlog: a connection made
        // before the shutdown request is then dispatched (and drained),
        // never left behind in the backlog.
        let stopping = stop.requested.load(Ordering::SeqCst);
        loop {
            match listener.accept() {
                Ok(stream) => {
                    if active.load(Ordering::SeqCst) >= cfg.max_conns {
                        refuse(&engine, stream);
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    let guard = ConnGuard(Arc::clone(&active));
                    let shard = &shards[next % shards.len()];
                    next += 1;
                    shard
                        .inbox
                        .lock()
                        .expect("inbox lock")
                        .push_back((stream, guard));
                    let _ = shard.waker.wake();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // EMFILE and friends leave the listener readable, so
                    // poll() would return instantly and we'd spin. Back
                    // off and let the loop shards run.
                    std::thread::sleep(ACCEPT_ERR_BACKOFF);
                    break;
                }
            }
        }
        if stopping {
            break;
        }
    }

    // No connection is dispatched after this point. Each loop drains and
    // flushes its connections on the way out; joining them is the drain.
    stop.closing.store(true, Ordering::SeqCst);
    for (shard, handle) in shards.iter().zip(loops) {
        let _ = shard.waker.wake();
        if handle.join().is_err() {
            eprintln!("eccparityd: an io loop panicked during shutdown");
        }
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::rpc::Query;
    use crate::server::serve;
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
        // must answer exactly as a bulk write would.
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

    #[test]
    fn stop_processes_bytes_an_adopted_connection_already_sent() {
        let engine = Arc::new(Engine::start(EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        }));
        let shard = Arc::new(Shard::new().unwrap());
        let apoll = Poll::new().unwrap();
        let stop = Arc::new(Stop {
            requested: AtomicBool::new(false),
            accept_waker: Waker::new(&apoll, WAKER_TOKEN).unwrap(),
            closing: AtomicBool::new(false),
        });
        let worker = {
            let (engine, shard, stop) =
                (Arc::clone(&engine), Arc::clone(&shard), Arc::clone(&stop));
            let cfg = Arc::new(ServerConfig::default());
            std::thread::spawn(move || run_loop(engine, cfg, shard, stop))
        };

        let (mut client, server) = UnixStream::pair().unwrap();
        server.set_nonblocking(true).unwrap();
        let active = Arc::new(AtomicUsize::new(1));
        shard
            .inbox
            .lock()
            .unwrap()
            .push_back((NbStream::Unix(server), ConnGuard(Arc::clone(&active))));
        shard.waker.wake().unwrap();
        while !shard.inbox.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Adopted. With no idle timeout the loop sleeps until a socket or
        // its waker needs it, so it first sees these bytes with `closing`
        // already set: only the stop-time drain can read them. They go in
        // one write (one socket buffer), and the client never closes.
        stop.closing.store(true, Ordering::SeqCst);
        let mut bytes = Vec::new();
        for i in 0..200u64 {
            let ev = rpc::render_event(&rpc::Event {
                node: i % 13,
                channel: (i % 8) as u32,
                bank: (i % 16) as u32,
                row: i as u32,
                count: 1,
                bank_fault: false,
            });
            bytes.extend_from_slice(ev.as_bytes());
            bytes.push(b'\n');
        }
        client.write_all(&bytes).unwrap();
        worker.join().unwrap();

        assert_eq!(active.load(Ordering::SeqCst), 0, "connection closed");
        engine.barrier();
        let fleet = engine.query(&Query::Fleet);
        assert!(fleet.contains("\"events\":200"), "{fleet}");
        engine.shutdown();
    }

    #[test]
    fn late_connection_does_not_delay_serve_return() {
        let engine = Arc::new(Engine::start(EngineConfig {
            shards: 1,
            ..EngineConfig::default()
        }));
        let (sock, srv) = start_evented(&engine, ServerConfig::default(), "late");
        let ctl = connect_with_retry(&sock);
        let mut w = ctl.try_clone().unwrap();
        let mut r = BufReader::new(ctl);
        w.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
            .unwrap();
        w.flush().unwrap();
        let mut ack = String::new();
        r.read_line(&mut ack).unwrap();
        assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");

        // Connect right after the ack and hold the connection open.
        let t0 = Instant::now();
        let late = UnixStream::connect(&sock);
        srv.join().unwrap().unwrap();
        let took = t0.elapsed();
        drop(late);
        assert!(
            took < Duration::from_secs(1),
            "a late connection held shutdown for {took:?}"
        );
        engine.shutdown();
    }
}
