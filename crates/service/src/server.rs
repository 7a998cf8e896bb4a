//! Socket front-end for `eccparityd`: newline-delimited requests over a
//! Unix-domain socket or TCP, multiplexed over a handful of
//! readiness-driven event-loop shards (see [`crate::evented`]), so tens
//! of thousands of mostly-idle fleet connections cost file descriptors,
//! not OS threads.
//!
//! Each connection owns a [`Router`] so its event lines batch per shard.
//! Event lines get **no** response (that is what makes ≥1M events/s
//! feasible over a byte stream); query lines get exactly one
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
//! - *Shutdown keeps what was sent.* After a `shutdown` request the
//!   accept loop stops, then every loop shard reads and processes the
//!   bytes its live connections have already sent, flushes their
//!   routers, and exits; `serve` returns once it has joined them. So the
//!   final checkpoint taken by the binary sees every event a client wrote
//!   before the shutdown request.

use crate::engine::{Engine, RejectKind, Router};
use crate::rpc::{self, Query, Request};
use std::path::PathBuf;
use std::sync::Arc;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Listen {
    /// Unix-domain socket at this path (created, removed on exit).
    Unix(PathBuf),
    /// TCP listener bound to this `host:port`.
    Tcp(String),
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
    /// Longest request line accepted, in bytes, counting every byte
    /// before the newline; longer lines are refused with
    /// `"code":"oversized"` and discarded (minimum 1024).
    pub max_line_bytes: usize,
    /// Event-loop shard count (minimum 1).
    pub io_shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 1024,
            idle_timeout_ms: 0,
            max_line_bytes: 1 << 20,
            io_shards: 4,
        }
    }
}

/// Append one response line to a connection's outbox.
pub(crate) fn write_line(out: &mut Vec<u8>, resp: &str) {
    out.extend_from_slice(resp.as_bytes());
    out.push(b'\n');
}

/// What processing one request line decided about the connection.
pub(crate) enum LineOutcome {
    /// Keep serving this connection.
    Continue,
    /// The client asked the daemon to shut down (ack already queued).
    Shutdown,
    /// The client subscribed: the connection becomes a push stream. The
    /// ack is rendered in the caller's `resp` buffer but *not yet queued*
    /// — the caller must register with the push hub first, then queue
    /// it, so a client that has read the ack cannot miss a transition.
    /// Any buffered request bytes are dropped.
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

/// The per-line state machine: one request line (within the cap, which
/// [`LineBuf`] enforces) in, its response (if any) appended to `out`.
/// `resp` is the connection's reused response buffer: every reply is
/// rendered into it in place, so the steady state allocates nothing per
/// line.
pub(crate) fn process_line(
    engine: &Engine,
    router: &mut Router,
    out: &mut Vec<u8>,
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
            let mut outcome = LineOutcome::Continue;
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
                    outcome = LineOutcome::Shutdown;
                    rpc::ok_response_open(resp, "shutdown", engine.degraded());
                    resp.push_str("\"stopping\"");
                    rpc::ok_response_close(resp);
                }
                Query::Subscribe => {
                    // Render the ack but let the caller queue it: the
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
            write_line(out, resp);
            outcome
        }
        Err(msg) => {
            engine.note_reject(RejectKind::Parse);
            resp.clear();
            rpc::error_response_into(resp, &msg);
            write_line(out, resp);
            LineOutcome::Continue
        }
    }
}

/// One unit of work from a [`LineBuf`] scan.
pub(crate) enum Scan<'a> {
    /// A complete request line (newline stripped) within the cap.
    Line(&'a [u8]),
    /// A line past the cap: complete, or a buffered partial line whose
    /// rest will be discarded as it arrives.
    Oversized,
}

/// Per-connection newline reassembly: chunks go in, complete lines come
/// out, and the cap counts every byte before the newline — a line past
/// `max_line_bytes` is refused as [`Scan::Oversized`] however the bytes
/// were chunked. An incomplete line past the cap is refused *now* and
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

    /// Feed one read chunk. `on` runs once per complete line, and once
    /// when the buffered partial line passes `max_line_bytes`; a
    /// non-`Continue` outcome stops the scan and is returned, dropping
    /// every later byte (the connection is ending or changing protocol).
    pub(crate) fn feed(
        &mut self,
        mut data: &[u8],
        max_line_bytes: usize,
        on: &mut dyn FnMut(Scan<'_>) -> LineOutcome,
    ) -> LineOutcome {
        if self.discarding {
            match rpc::find_newline(data) {
                Some(nl) => {
                    data = &data[nl + 1..];
                    self.discarding = false;
                }
                None => return LineOutcome::Continue,
            }
        }
        // The buffered partial line holds no newline, so only the new
        // bytes are searched: a line dripped in tiny chunks costs linear
        // time, not a rescan of the partial line per chunk.
        let mut search = self.pending.len();
        self.pending.extend_from_slice(data);
        let mut start = 0;
        while let Some(nl) = rpc::find_newline(&self.pending[search..]) {
            let end = search + nl;
            let line = &self.pending[start..end];
            let outcome = on(if line.len() > max_line_bytes {
                Scan::Oversized
            } else {
                Scan::Line(line)
            });
            if !matches!(outcome, LineOutcome::Continue) {
                self.pending.clear();
                return outcome;
            }
            start = end + 1;
            search = start;
        }
        self.pending.drain(..start);
        if self.pending.len() <= max_line_bytes {
            return LineOutcome::Continue;
        }
        self.pending.clear();
        self.discarding = true;
        on(Scan::Oversized)
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
}

/// Accept connections until a client sends `{"kind":"query","op":"shutdown"}`.
/// `serve` returns once every loop shard has processed what its
/// connections had sent, flushed their routers and exited — so a final
/// checkpoint taken after `serve` sees every event written before the
/// shutdown request.
pub fn serve(engine: Arc<Engine>, listen: Listen, cfg: ServerConfig) -> std::io::Result<()> {
    let cfg = Arc::new(ServerConfig {
        max_conns: cfg.max_conns.max(1),
        max_line_bytes: cfg.max_line_bytes.max(1024),
        io_shards: cfg.io_shards.max(1),
        ..cfg
    });
    crate::evented::serve_evented(engine, listen, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::rpc::Event;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

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

    fn engine(shards: usize) -> Arc<Engine> {
        Arc::new(Engine::start(EngineConfig {
            shards,
            ..EngineConfig::default()
        }))
    }

    /// Send `shutdown` on `w`, read the ack from `r`, and join the server.
    fn shut_down(
        w: &mut UnixStream,
        r: &mut BufReader<UnixStream>,
        srv: std::thread::JoinHandle<std::io::Result<()>>,
        engine: &Engine,
    ) -> String {
        w.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
            .unwrap();
        w.flush().unwrap();
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        srv.join().unwrap().unwrap();
        engine.shutdown();
        resp
    }

    #[test]
    fn unix_socket_round_trip_and_shutdown() {
        let engine = engine(2);
        let (sock, srv) = start_daemon(&engine, ServerConfig::default(), "sock");

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
            "malformed line error first: {resp}"
        );
        resp.clear();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"op\":\"fleet\""), "{resp}");
        assert!(resp.contains("\"events\":100"), "{resp}");
        assert!(resp.contains("\"degraded\":false"), "{resp}");

        let resp = shut_down(&mut writer, &mut reader, srv, &engine);
        assert!(resp.contains("\"op\":\"shutdown\""), "{resp}");
        assert!(!sock.exists(), "socket file cleaned up");
    }

    #[test]
    fn oversized_lines_are_refused_and_the_connection_survives() {
        let engine = engine(1);
        let cfg = ServerConfig {
            max_line_bytes: 4096,
            ..ServerConfig::default()
        };
        let (sock, srv) = start_daemon(&engine, cfg, "oversized");

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
        assert!(resp.contains("\"code\":\"oversized\""), "{resp}");
        resp.clear();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"op\":\"stats\""), "{resp}");
        assert!(resp.contains("\"rejected_oversized\":1"), "{resp}");
        assert!(resp.contains("\"events_ingested\":1"), "{resp}");

        shut_down(&mut writer, &mut reader, srv, &engine);
    }

    #[test]
    fn admission_cap_refuses_with_structured_error() {
        let engine = engine(1);
        let cfg = ServerConfig {
            max_conns: 1,
            ..ServerConfig::default()
        };
        let (sock, srv) = start_daemon(&engine, cfg, "cap");

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
        assert!(resp.contains("\"op\":\"stats\""), "{resp}");

        let second = UnixStream::connect(&sock).unwrap();
        let mut r2 = BufReader::new(second);
        resp.clear();
        r2.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"code\":\"overloaded\""), "{resp}");
        resp.clear();
        assert_eq!(r2.read_line(&mut resp).unwrap(), 0, "refused conn closes");

        w1.write_all(b"{\"kind\":\"query\",\"op\":\"stats\"}\n")
            .unwrap();
        w1.flush().unwrap();
        resp.clear();
        r1.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"rejected_conn_limit\":1"), "{resp}");
        shut_down(&mut w1, &mut r1, srv, &engine);
    }

    #[test]
    fn idle_connections_are_closed_and_counted() {
        let engine = engine(1);
        let cfg = ServerConfig {
            idle_timeout_ms: 150,
            ..ServerConfig::default()
        };
        let (sock, srv) = start_daemon(&engine, cfg, "idle");

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
        assert!(resp.contains("\"idle_closed_conns\":1"), "{resp}");
        shut_down(&mut w, &mut r, srv, &engine);
    }

    #[test]
    fn truncated_final_line_is_still_processed() {
        let engine = engine(1);
        let (sock, srv) = start_daemon(&engine, ServerConfig::default(), "trunc");

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
            "truncated final line must be applied: {resp}"
        );
        shut_down(&mut w, &mut r, srv, &engine);
    }

    /// What a scan reported, owned.
    #[derive(Debug, PartialEq, Eq)]
    enum Out {
        Line(Vec<u8>),
        Oversized,
    }

    /// The reference: split the whole stream at once. Every line past
    /// the cap is one refusal; a non-empty unterminated tail is a line
    /// (or a refusal, past the cap).
    fn split_whole(stream: &[u8], max: usize) -> Vec<Out> {
        let classify = |line: &[u8]| {
            if line.len() > max {
                Out::Oversized
            } else {
                Out::Line(line.to_vec())
            }
        };
        let mut parts: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
        let tail = parts.pop().expect("split yields at least one part");
        let mut out: Vec<Out> = parts.into_iter().map(classify).collect();
        if !tail.is_empty() {
            out.push(classify(tail));
        }
        out
    }

    /// `LineBuf` fed `stream` cut at `cuts`, then finished (EOF).
    fn split_chunked(stream: &[u8], max: usize, cuts: &[usize]) -> Vec<Out> {
        let mut out = Vec::new();
        let mut on = |scan: Scan<'_>| {
            out.push(match scan {
                Scan::Line(line) => Out::Line(line.to_vec()),
                Scan::Oversized => Out::Oversized,
            });
            LineOutcome::Continue
        };
        let mut buf = LineBuf::new();
        let mut from = 0;
        for &to in cuts.iter().chain(std::iter::once(&stream.len())) {
            buf.feed(&stream[from..to], max, &mut on);
            from = to;
        }
        buf.finish(&mut on);
        out
    }

    /// SplitMix64, so every case is reproducible from its seed.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// One generated line body (no newline): empty, short, exactly at the
    /// cap, one byte either side of it, or many times over it, optionally
    /// ending in carriage returns, with arbitrary non-newline bytes.
    fn gen_line(rng: &mut Mix, max: usize) -> Vec<u8> {
        let len = match rng.below(8) {
            0 => 0,
            1 | 2 => 1 + rng.below(max / 2),
            3 => max,
            4 => max - 1,
            5 => max + 1,
            6 => max * (2 + rng.below(5)) + rng.below(max),
            _ => rng.below(max + 2),
        };
        let mut line: Vec<u8> = (0..len)
            .map(|_| match rng.below(256) as u8 {
                b'\n' => b'x',
                b => b,
            })
            .collect();
        if rng.below(4) == 0 {
            // CR-terminated: the CRs count toward the cap.
            let crs = 1 + rng.below(2);
            line.truncate(line.len().saturating_sub(crs));
            line.extend(std::iter::repeat_n(b'\r', crs));
        }
        line
    }

    #[test]
    fn line_buf_matches_a_whole_buffer_splitter_under_any_chunking() {
        let mut rng = Mix(0x11e5_b00f);
        for case in 0..1500 {
            let max = [16, 64, 1024][case % 3];
            let mut stream = Vec::new();
            for _ in 0..1 + rng.below(24) {
                stream.extend(gen_line(&mut rng, max));
                stream.push(b'\n');
            }
            if rng.below(2) == 0 {
                // No final newline: the tail is only complete at EOF.
                stream.extend(gen_line(&mut rng, max));
            }
            let want = split_whole(&stream, max);
            // Whole, byte-dripped, and random chunkings (small chunks and
            // ones spanning several caps).
            let mut chunkings: Vec<Vec<usize>> = vec![Vec::new(), (1..stream.len()).collect()];
            for _ in 0..4 {
                let span = [3, max / 2, max * 3][rng.below(3)].max(1);
                let mut cuts = Vec::new();
                let mut at = 0;
                loop {
                    at += 1 + rng.below(span);
                    if at >= stream.len() {
                        break;
                    }
                    cuts.push(at);
                }
                chunkings.push(cuts);
            }
            for cuts in &chunkings {
                assert_eq!(
                    split_chunked(&stream, max, cuts),
                    want,
                    "case {case} (cap {max}), cuts {cuts:?}"
                );
            }
        }
        // The newline-search oracle's buffers: every length to 64 of
        // newline-adjacent bytes, whole, byte-dripped and cut at each
        // word boundary, under a cap they fit and one some lines pass.
        for stream in crate::rpc::tests::newline_buffers() {
            for max in [16, 1024] {
                let want = split_whole(&stream, max);
                let words: Vec<usize> = (8..stream.len()).step_by(8).collect();
                for cuts in [Vec::new(), (1..stream.len()).collect(), words] {
                    assert_eq!(
                        split_chunked(&stream, max, &cuts),
                        want,
                        "{stream:02x?} (cap {max}), cuts {cuts:?}"
                    );
                }
            }
        }
    }
}
