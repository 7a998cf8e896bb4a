//! `eccparity-loadgen` — deterministic load generator and smoke client
//! for `eccparityd`.
//!
//! Derives a fleet-wide corrected-error / fault event stream from the
//! soak harness's [`resilience::loadgen`] machinery (a pure function of
//! `--seed`), pre-renders it to `eccparity-rpc-v1` lines, and replays it
//! into a running daemon as fast as the socket accepts — then reports the
//! measured ingest rate (a `stats` query doubles as the end-of-stream
//! barrier, so the clock covers parse + apply, not just the write).
//!
//! ```text
//! eccparity-loadgen (--socket PATH | --tcp HOST:PORT)
//!                   [--events N] [--nodes N] [--seed N]
//!                   [--channels N] [--banks N]
//!                   [--connections N] [--idle-conns N]
//!                   [--latency-probes N]
//!                   [--bench-json FILE]
//!                   [--skip-ingest] [--min-rate EVENTS_PER_SEC]
//!                   [--checkpoint] [--queries FILE] [--shutdown]
//! ```
//!
//! Steps run in a fixed order: idle connections are parked (they soak
//! the daemon's connection table for the whole run), then ingest (unless
//! `--skip-ingest`), then `--latency-probes` timed queries, then
//! `--checkpoint`, then `--queries` (a deterministic query suite whose
//! responses are written verbatim, one per line, to FILE — two daemons
//! holding the same state produce byte-identical files, which is exactly
//! what the kill-and-restart smoke `cmp`s), then `--shutdown`.
//!
//! With `--connections N > 1` the ingest stream is split by
//! `node % N` across N sockets multiplexed over the same readiness
//! poller the daemon uses — per-node event order is preserved (a
//! node's events all ride one connection), so query
//! transcripts stay byte-identical to a single-connection run. The
//! end-of-stream barrier becomes a stats poll (the per-connection
//! router flush happens at each socket's EOF).
//!
//! `--bench-json FILE` writes this run's measurements to FILE (schema
//! `eccparity-bench-daemon-io-v1`, one `modes.evented` entry).
//!
//! Exit status: 0 success, 1 daemon I/O or gate failure, 2 usage
//! error, 4 ingest rate below `--min-rate`. The rate gate gets its own
//! code because it is the one failure that can be a noisy-neighbor
//! artifact rather than a bug — CI retries exactly that exit once on a
//! fresh daemon before declaring the throughput gate failed.

use resilience::loadgen::{FleetStream, StreamConfig};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: eccparity-loadgen (--socket PATH | --tcp HOST:PORT)\n\
         \x20                        [--events N] [--nodes N] [--seed N]\n\
         \x20                        [--channels N] [--banks N]\n\
         \x20                        [--connections N] [--idle-conns N]\n\
         \x20                        [--latency-probes N]\n\
         \x20                        [--bench-json FILE]\n\
         \x20                        [--skip-ingest] [--min-rate N]\n\
         \x20                        [--checkpoint] [--queries FILE] [--shutdown]"
    );
    std::process::exit(2);
}

fn parse_u64(flag: &str, value: Option<String>) -> u64 {
    match value.as_deref().map(str::parse) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("eccparity-loadgen: {flag} needs an unsigned integer argument");
            usage();
        }
    }
}

enum Target {
    Unix(PathBuf),
    Tcp(String),
}

/// A raw ingest/soak socket of either flavor.
enum Sock {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Sock {
    fn raw_fd(&self) -> RawFd {
        match self {
            Sock::Unix(s) => s.as_raw_fd(),
            Sock::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Sock::Unix(s) => s.set_nonblocking(nb),
            Sock::Tcp(s) => s.set_nonblocking(nb),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Unix(s) => s.write(buf),
            Sock::Tcp(s) => s.write(buf),
        }
    }
}

/// Borrowed raw fd for poller registration.
struct Fd(RawFd);

impl AsRawFd for Fd {
    fn as_raw_fd(&self) -> RawFd {
        self.0
    }
}

/// One connection attempt (no retry loop — callers decide).
fn raw_connect(target: &Target) -> std::io::Result<Sock> {
    match target {
        Target::Unix(path) => UnixStream::connect(path).map(Sock::Unix),
        Target::Tcp(addr) => TcpStream::connect(addr).map(|s| {
            let _ = s.set_nodelay(true);
            Sock::Tcp(s)
        }),
    }
}

/// Connect with a retry window (accept backlogs overflow when thousands
/// of sockets open in a burst).
fn connect_sock(target: &Target) -> Sock {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match raw_connect(target) {
            Ok(s) => return s,
            Err(e) => {
                if Instant::now() >= deadline {
                    eprintln!("eccparity-loadgen: cannot connect: {e}");
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Connect, retrying for a few seconds so scripts can start the daemon
/// and the loadgen concurrently.
fn connect(target: &Target) -> (Box<dyn Read>, Box<dyn Write>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let pair: std::io::Result<(Box<dyn Read>, Box<dyn Write>)> = match target {
            Target::Unix(path) => UnixStream::connect(path).and_then(|s| {
                let w = s.try_clone()?;
                Ok((Box::new(s) as Box<dyn Read>, Box::new(w) as Box<dyn Write>))
            }),
            Target::Tcp(addr) => TcpStream::connect(addr).and_then(|s| {
                s.set_nodelay(true)?;
                let w = s.try_clone()?;
                Ok((Box::new(s) as Box<dyn Read>, Box::new(w) as Box<dyn Write>))
            }),
        };
        match pair {
            Ok(p) => return p,
            Err(e) => {
                if Instant::now() >= deadline {
                    eprintln!("eccparity-loadgen: cannot connect to daemon: {e}");
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Send one query line and read its one response line.
fn query(writer: &mut dyn Write, reader: &mut impl BufRead, line: &str) -> String {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .unwrap_or_else(|e| {
            eprintln!("eccparity-loadgen: write failed: {e}");
            std::process::exit(1);
        });
    let mut resp = String::new();
    match reader.read_line(&mut resp) {
        Ok(n) if n > 0 => resp.trim_end().to_string(),
        _ => {
            eprintln!("eccparity-loadgen: daemon closed the connection mid-query");
            std::process::exit(1);
        }
    }
}

/// Pull one unsigned field out of a `stats` response's `result` object.
fn stats_u64(resp: &str, key: &str) -> Option<u64> {
    let v: serde_json::Value = serde_json::from_str(resp).ok()?;
    v.get("result")?.get(key)?.as_u64()
}

/// Write the ingest stream over `n` sockets multiplexed on the
/// readiness poller; each socket carries the nodes with
/// `node % n == its index`, so per-node order is preserved. Sockets are
/// closed as their buffer drains (EOF flushes the daemon-side router).
fn multiplexed_ingest(target: &Target, bufs: Vec<Vec<u8>>) {
    use mio::{Events, Interest, Poll, Token};
    let poll = Poll::new().unwrap_or_else(|e| {
        eprintln!("eccparity-loadgen: poller init failed: {e}");
        std::process::exit(1);
    });
    let mut conns: Vec<Option<(Sock, Vec<u8>, usize)>> = Vec::with_capacity(bufs.len());
    let mut remaining = 0usize;
    for (i, buf) in bufs.into_iter().enumerate() {
        if buf.is_empty() {
            conns.push(None);
            continue;
        }
        let sock = connect_sock(target);
        sock.set_nonblocking(true).unwrap_or_else(|e| {
            eprintln!("eccparity-loadgen: set_nonblocking failed: {e}");
            std::process::exit(1);
        });
        poll.register(&Fd(sock.raw_fd()), Token(i), Interest::WRITABLE)
            .unwrap_or_else(|e| {
                eprintln!("eccparity-loadgen: register failed: {e}");
                std::process::exit(1);
            });
        conns.push(Some((sock, buf, 0)));
        remaining += 1;
    }
    while remaining > 0 {
        let mut events = Events::with_capacity(64);
        if poll
            .poll(&mut events, Some(Duration::from_secs(10)))
            .is_err()
        {
            continue;
        }
        for ev in events.iter() {
            let idx = ev.token().0;
            let Some((sock, buf, written)) = conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                continue;
            };
            loop {
                match sock.write(&buf[*written..]) {
                    Ok(0) => {
                        eprintln!("eccparity-loadgen: ingest socket {idx} closed mid-write");
                        std::process::exit(1);
                    }
                    Ok(n) => {
                        *written += n;
                        if *written == buf.len() {
                            let _ = poll.deregister(&Fd(sock.raw_fd()));
                            conns[idx] = None; // drop = close = daemon-side EOF flush
                            remaining -= 1;
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        eprintln!("eccparity-loadgen: ingest write failed on socket {idx}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
    }
}

/// Write this run's measurements to `path` as the `evented` entry of an
/// `eccparity-bench-daemon-io-v1` document.
fn write_bench_json(path: &std::path::Path, fields: &[(&str, u64)]) {
    use serde_json::Value;
    let evented = Value::Object(
        fields
            .iter()
            .map(|&(k, v)| (k.to_string(), Value::UInt(v)))
            .collect(),
    );
    let root = Value::Object(vec![
        (
            "schema".to_string(),
            Value::Str("eccparity-bench-daemon-io-v1".to_string()),
        ),
        (
            "modes".to_string(),
            Value::Object(vec![("evented".to_string(), evented)]),
        ),
    ]);
    let text = serde_json::to_string_pretty(&root).expect("render bench json");
    std::fs::write(path, text + "\n").unwrap_or_else(|e| {
        eprintln!("eccparity-loadgen: cannot write {}: {e}", path.display());
        std::process::exit(1);
    });
    println!("loadgen: bench results written to {}", path.display());
}

fn main() {
    let mut target: Option<Target> = None;
    let mut cfg = StreamConfig {
        nodes: 256,
        events: 1_000_000,
        ..StreamConfig::default()
    };
    let mut skip_ingest = false;
    let mut min_rate: u64 = 0;
    let mut do_checkpoint = false;
    let mut queries_out: Option<PathBuf> = None;
    let mut do_shutdown = false;
    let mut connections: u64 = 1;
    let mut idle_conns: u64 = 0;
    let mut latency_probes: u64 = 0;
    let mut bench_json: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                let Some(p) = args.next() else { usage() };
                target = Some(Target::Unix(PathBuf::from(p)));
            }
            "--tcp" => {
                let Some(a) = args.next() else { usage() };
                target = Some(Target::Tcp(a));
            }
            "--events" => cfg.events = parse_u64("--events", args.next()),
            "--nodes" => cfg.nodes = parse_u64("--nodes", args.next()).max(1),
            "--seed" => cfg.seed = parse_u64("--seed", args.next()),
            "--channels" => cfg.channels = parse_u64("--channels", args.next()).max(1) as u32,
            "--banks" => cfg.banks = parse_u64("--banks", args.next()).max(2) as u32,
            "--connections" => connections = parse_u64("--connections", args.next()).max(1),
            "--idle-conns" => idle_conns = parse_u64("--idle-conns", args.next()),
            "--latency-probes" => latency_probes = parse_u64("--latency-probes", args.next()),
            "--bench-json" => {
                let Some(f) = args.next() else { usage() };
                bench_json = Some(PathBuf::from(f));
            }
            "--skip-ingest" => skip_ingest = true,
            "--min-rate" => min_rate = parse_u64("--min-rate", args.next()),
            "--checkpoint" => do_checkpoint = true,
            "--queries" => {
                let Some(f) = args.next() else { usage() };
                queries_out = Some(PathBuf::from(f));
            }
            "--shutdown" => do_shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("eccparity-loadgen: unknown flag `{other}`");
                usage();
            }
        }
    }
    let Some(target) = target else {
        eprintln!("eccparity-loadgen: need --socket or --tcp");
        usage();
    };

    // Idle connections are parked first and held across ingest and the
    // latency probes — they exist precisely to measure how the daemon
    // behaves while its connection table is full of silent sockets.
    let idle: Vec<Sock> = (0..idle_conns).map(|_| connect_sock(&target)).collect();
    if idle_conns > 0 {
        println!("loadgen: parked {idle_conns} idle connections");
    }

    let (reader, mut writer) = connect(&target);
    let mut reader = BufReader::new(reader);

    let mut measured_rate: u64 = 0;
    let mut ingested: u64 = 0;

    if !skip_ingest && cfg.events > 0 {
        ingested = cfg.events;
        if connections <= 1 {
            // Pre-render the whole stream so the timed window measures
            // the daemon, not the generator.
            let mut buf = Vec::with_capacity(cfg.events as usize * 64);
            for ev in FleetStream::new(cfg) {
                let line = eccparity_service::rpc::render_event(&eccparity_service::rpc::Event {
                    node: ev.node,
                    channel: ev.channel,
                    bank: ev.bank,
                    row: ev.row,
                    count: 1,
                    bank_fault: ev.bank_fault,
                });
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
            }
            let t0 = Instant::now();
            writer.write_all(&buf).unwrap_or_else(|e| {
                eprintln!("eccparity-loadgen: ingest write failed: {e}");
                std::process::exit(1);
            });
            // The stats response only arrives after a shard barrier, so
            // this clock covers routing + parse + apply of every event
            // above.
            let stats = query(
                &mut writer,
                &mut reader,
                "{\"kind\":\"query\",\"op\":\"stats\"}",
            );
            let wall = t0.elapsed();
            let secs = wall.as_secs_f64().max(1e-9);
            measured_rate = (cfg.events as f64 / secs) as u64;
            println!(
                "loadgen: ingested {} events in {:.1} ms ({} events/s)",
                cfg.events,
                wall.as_secs_f64() * 1e3,
                measured_rate
            );
            println!("loadgen: stats {stats}");
        } else {
            // Multi-connection ingest: the per-connection read-your-writes
            // barrier does not cover the other sockets, so the
            // end-of-stream barrier becomes a stats poll against the
            // fleet-wide ingest counter.
            let baseline = stats_u64(
                &query(
                    &mut writer,
                    &mut reader,
                    "{\"kind\":\"query\",\"op\":\"stats\"}",
                ),
                "events_ingested",
            )
            .unwrap_or_else(|| {
                eprintln!("eccparity-loadgen: stats response lacks events_ingested");
                std::process::exit(1);
            });
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); connections as usize];
            for ev in FleetStream::new(cfg) {
                let line = eccparity_service::rpc::render_event(&eccparity_service::rpc::Event {
                    node: ev.node,
                    channel: ev.channel,
                    bank: ev.bank,
                    row: ev.row,
                    count: 1,
                    bank_fault: ev.bank_fault,
                });
                let buf = &mut bufs[(ev.node % connections) as usize];
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
            }
            let t0 = Instant::now();
            multiplexed_ingest(&target, bufs);
            let want = baseline + cfg.events;
            let deadline = Instant::now() + Duration::from_secs(120);
            loop {
                let resp = query(
                    &mut writer,
                    &mut reader,
                    "{\"kind\":\"query\",\"op\":\"stats\"}",
                );
                match stats_u64(&resp, "events_ingested") {
                    Some(n) if n >= want => break,
                    _ if Instant::now() >= deadline => {
                        eprintln!(
                            "eccparity-loadgen: ingest barrier timed out \
                             (want {want} events_ingested)"
                        );
                        std::process::exit(1);
                    }
                    _ => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            let wall = t0.elapsed();
            let secs = wall.as_secs_f64().max(1e-9);
            measured_rate = (cfg.events as f64 / secs) as u64;
            println!(
                "loadgen: ingested {} events over {} connections in {:.1} ms ({} events/s)",
                cfg.events,
                connections,
                wall.as_secs_f64() * 1e3,
                measured_rate
            );
        }
        if min_rate > 0 && measured_rate < min_rate {
            eprintln!(
                "eccparity-loadgen: ingest rate {measured_rate} events/s below required {min_rate}"
            );
            std::process::exit(4);
        }
    }

    let (mut p50_us, mut p99_us) = (0u64, 0u64);
    if latency_probes > 0 {
        let mut samples = Vec::with_capacity(latency_probes as usize);
        for i in 0..latency_probes {
            let line = format!(
                "{{\"kind\":\"query\",\"op\":\"node_risk\",\"node\":{}}}",
                i % cfg.nodes
            );
            let t = Instant::now();
            let _ = query(&mut writer, &mut reader, &line);
            samples.push(t.elapsed().as_micros() as u64);
        }
        samples.sort_unstable();
        p50_us = samples[samples.len() / 2];
        p99_us = samples[(samples.len() * 99 / 100).min(samples.len() - 1)];
        println!(
            "loadgen: {} latency probes, p50 {} us, p99 {} us ({} idle conns parked)",
            latency_probes, p50_us, p99_us, idle_conns
        );
    }

    if let Some(path) = &bench_json {
        let stats = query(
            &mut writer,
            &mut reader,
            "{\"kind\":\"query\",\"op\":\"stats\"}",
        );
        write_bench_json(
            path,
            &[
                ("events", ingested),
                ("events_per_sec", measured_rate),
                ("connections", connections),
                ("idle_conns", idle_conns),
                ("p50_us", p50_us),
                ("p99_us", p99_us),
                ("os_threads", stats_u64(&stats, "os_threads").unwrap_or(0)),
                ("rss_kb", stats_u64(&stats, "rss_kb").unwrap_or(0)),
            ],
        );
    }
    drop(idle);

    if do_checkpoint {
        let resp = query(
            &mut writer,
            &mut reader,
            "{\"kind\":\"query\",\"op\":\"checkpoint\"}",
        );
        println!("loadgen: checkpoint {resp}");
        if !resp.contains("\"ok\":true") {
            eprintln!("eccparity-loadgen: checkpoint failed");
            std::process::exit(1);
        }
    }

    if let Some(out) = queries_out {
        let suite = eccparity_service::rpc::query_suite(cfg.nodes);
        let mut text = String::new();
        for q in &suite {
            let line = eccparity_service::rpc::render_query(q);
            text.push_str(&query(&mut writer, &mut reader, &line));
            text.push('\n');
        }
        std::fs::write(&out, &text).unwrap_or_else(|e| {
            eprintln!("eccparity-loadgen: cannot write {}: {e}", out.display());
            std::process::exit(1);
        });
        println!(
            "loadgen: wrote {} query responses to {}",
            suite.len(),
            out.display()
        );
    }

    if do_shutdown {
        let resp = query(
            &mut writer,
            &mut reader,
            "{\"kind\":\"query\",\"op\":\"shutdown\"}",
        );
        println!("loadgen: shutdown {resp}");
    }
}
