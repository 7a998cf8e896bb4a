//! `fleet_ingest` and `fleet_query`: a real `eccparityd` driven by this
//! process — one thread, at most two connections — with a seeded
//! `resilience::loadgen::FleetStream` rendered to wire lines before any
//! clock starts.
//!
//! Both workloads share the daemon's state layer: `fleet_ingest` writes it
//! and `fleet_query` reads it, so a change that speeds queries by taxing
//! ingest shows up as a regression on the other workload.
//!
//! The traffic is a synthetic stress shape, not a field rate: a real fleet
//! reports memory errors far more rarely than this, which would leave the
//! daemon idle. Each open-loop rate is a stated fraction of the ingest
//! capacity that `fleet_ingest`'s blasts measure, and each query rate or
//! mix is set by the samples its metric needs (see the README).

use crate::proc::{pin_to_fastest_cpu, Conn, Daemon};
use crate::{
    check_golden, differing, fastest, fnv1a64, median, quantile, secs, Ctx, Report, SETUPS,
};
use eccparity_service::engine::{load_checkpoint, Engine, EngineConfig, Router};
use eccparity_service::rpc::{self, Event, Query};
use eccparity_service::state::{Geometry, ShardState};
use resilience::loadgen::{FleetStream, StreamConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// `fleet_ingest`: nodes of the stream.
const INGEST_NODES: u64 = 4096;
/// `fleet_ingest`: events in the rendered buffer.
const BUFFER_EVENTS: u64 = 1_000_000;
/// `fleet_ingest`: closed-loop blasts per round, each the whole buffer sent
/// at once and ended by a `stats` barrier. Many short blasts repeat better
/// than a few long ones.
const BLASTS: u64 = 3;
/// `fleet_ingest` open-loop phase: ingest rate, events/s. It is 12 to 20%
/// of the blast capacity on the machine the README describes, so the shard
/// is idle most of the time and a point query measures its own path beside
/// ingest rather than a backlog. Each round prints the rate as a share of
/// its own blasts' capacity.
const OPEN_RATE: u64 = 250_000;
/// `fleet_ingest` open-loop point queries (`node_risk` and `recommend`
/// alternating) per second: enough that a round's p95 has more than ten
/// samples beyond it, few enough to cost the daemon about 1% of its core.
const POINT_QUERY_RATE: u64 = 400;

/// `fleet_query`: nodes and events ingested before the timed phase.
const QUERY_NODES: u64 = 8192;
const PREP_EVENTS: u64 = 2_000_000;
/// `fleet_query`: open-loop background ingest while the operator reads,
/// events/s (about 1% of the blast capacity, so the shard keeps
/// interleaving writes with reads without the writes dominating), cycling
/// through a buffer of `BACKGROUND_EVENTS`.
const BACKGROUND_RATE: u64 = 20_000;
const BACKGROUND_EVENTS: u64 = 200_000;
/// `fleet_query`: top-K size of the operator's `top_pages` query.
const TOP_K: usize = 50;
/// `fleet_query`: one operator cycle is `top_pages`, `fleet`, then eight
/// `node_risk` and eight `recommend` queries: one fleet-wide view and its
/// summary, then enough point queries that a round's p95 has more than ten
/// samples beyond it.
const CYCLE: u64 = 18;

const STATS: &str = "{\"kind\":\"query\",\"op\":\"stats\"}";
const SHUTDOWN: &str = "{\"kind\":\"query\",\"op\":\"shutdown\"}";

/// A seeded fleet stream as wire lines (without newlines), at the daemon's
/// default geometry.
fn stream(seed: u64, nodes: u64, events: u64) -> impl Iterator<Item = String> {
    FleetStream::new(StreamConfig {
        seed,
        nodes,
        events,
        ..StreamConfig::default()
    })
    .map(|ev| {
        rpc::render_event(&Event {
            node: ev.node,
            channel: ev.channel,
            bank: ev.bank,
            row: ev.row,
            count: 1,
            bank_fault: ev.bank_fault,
        })
    })
}

/// A seeded fleet stream rendered as newline-terminated wire lines.
struct Lines {
    bytes: Vec<u8>,
    /// Start offset of each line, plus the end of the buffer.
    starts: Vec<usize>,
}

impl Lines {
    fn render(seed: u64, nodes: u64, events: u64) -> Lines {
        let mut lines = Lines {
            bytes: Vec::with_capacity(events as usize * 64),
            starts: vec![0],
        };
        for line in stream(seed, nodes, events) {
            lines.bytes.extend_from_slice(line.as_bytes());
            lines.bytes.push(b'\n');
            lines.starts.push(lines.bytes.len());
        }
        lines
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Line `i` without its newline.
    fn line(&self, i: usize) -> &[u8] {
        &self.bytes[self.starts[i]..self.starts[i + 1] - 1]
    }
}

/// Pull `key` out of a response's `result` object.
fn result_u64(resp: &str, key: &str) -> u64 {
    let v: serde_json::Value =
        serde_json::from_str(resp).unwrap_or_else(|e| panic!("unparsable response {resp}: {e}"));
    v.get("result")
        .and_then(|r| r.get(key))
        .and_then(|x| x.as_u64())
        .unwrap_or_else(|| panic!("response without result.{key}: {resp}"))
}

/// Events rejected or shed, from a `stats` response.
fn lost_events(stats: &str) -> u64 {
    result_u64(stats, "events_rejected") + result_u64(stats, "shed_lines")
}

fn point_query(seed: u64, j: u64, nodes: u64) -> String {
    let node = fnv1a64(&(seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes()) % nodes;
    let op = if j.is_multiple_of(2) {
        "node_risk"
    } else {
        "recommend"
    };
    format!("{{\"kind\":\"query\",\"op\":\"{op}\",\"node\":{node}}}")
}

/// The deterministic state-only query suite.
fn suite(nodes: u64) -> Vec<Query> {
    let mut queries = vec![Query::Fleet, Query::TopPages { k: TOP_K }];
    for node in [0, nodes / 2, nodes - 1, nodes + 7] {
        queries.push(Query::NodeRisk { node });
        queries.push(Query::Recommend { node });
    }
    queries
}

/// One golden line: the query and the digest of its response.
fn transcript_line(q: &Query, resp: &str) -> String {
    format!("{} {:016x}", rpc::render_query(q), fnv1a64(resp.as_bytes()))
}

/// The suite's transcript as the daemon answers it, and how many answers
/// were not `ok`.
fn transcript(conn: &mut Conn, nodes: u64) -> (Vec<String>, u64) {
    let mut failed = 0;
    let lines = suite(nodes)
        .iter()
        .map(|q| {
            let resp = conn.request(&rpc::render_query(q));
            failed += u64::from(!resp.contains("\"ok\":true"));
            transcript_line(q, &resp)
        })
        .collect();
    (lines, failed)
}

/// The suite's transcript from an in-process engine fed `lines`: the
/// answers the daemon must give after ingesting the same lines.
fn oracle_transcript<'a>(lines: impl Iterator<Item = &'a [u8]>, nodes: u64) -> Vec<String> {
    let engine = Engine::start(engine_config(None, false));
    let mut router = Router::new(&engine);
    for line in lines {
        router.push_line(&engine, line);
    }
    router.flush(&engine);
    engine.barrier();
    let out = suite(nodes)
        .iter()
        .map(|q| transcript_line(q, &engine.query(q)))
        .collect();
    engine.shutdown();
    out
}

/// Open-loop ingest: `per_slice` lines every millisecond, cycling through
/// a rendered buffer.
struct Ingest<'a> {
    lines: &'a Lines,
    per_slice: usize,
    next: usize,
    /// Bytes due but not yet taken by the socket.
    pending: Vec<u8>,
    sent: u64,
    /// How late each slice was handed to the socket, ms.
    late_ms: Vec<f64>,
}

impl<'a> Ingest<'a> {
    fn new(lines: &'a Lines, rate: u64) -> Ingest<'a> {
        Ingest {
            lines,
            per_slice: (rate / 1000) as usize,
            next: 0,
            pending: Vec::new(),
            sent: 0,
            late_ms: Vec::new(),
        }
    }

    fn enqueue_slice(&mut self) {
        for _ in 0..self.per_slice {
            let (a, b) = (
                self.lines.starts[self.next],
                self.lines.starts[self.next + 1],
            );
            self.pending.extend_from_slice(&self.lines.bytes[a..b]);
            self.next = (self.next + 1) % self.lines.len();
        }
        self.sent += self.per_slice as u64;
    }

    fn flush(&mut self, conn: &mut Conn) {
        while !self.pending.is_empty() {
            let n = conn.write_some(&self.pending);
            if n == 0 {
                return;
            }
            self.pending.drain(..n);
        }
    }
}

/// When each query is sent.
#[derive(Clone, Copy)]
enum Pace {
    /// Open loop: query `j` is due at `j × period`, sent then or as soon as
    /// the previous one has been answered, and timed from its due time.
    Open(Duration),
    /// Closed loop: each query is sent when the previous one is answered.
    Closed,
}

/// One answered query.
struct Sample {
    /// When it was due (open loop) or sent (closed loop).
    due: Instant,
    done: Instant,
    ok: bool,
}

impl Sample {
    fn latency(&self) -> f64 {
        secs(self.done - self.due)
    }
}

/// Run ingest slices on `ingest_conn` and queries on `query_conn` for
/// `dur`, from this one thread. Returns every answered query in order.
///
/// Waiting for a response goes through the readiness poller, which wakes
/// the moment it arrives (a socket read timeout would round up to a
/// kernel tick); with no query outstanding the thread sleeps to the next
/// due time.
fn drive(
    ingest_conn: &mut Conn,
    query_conn: &mut Conn,
    ingest: &mut Ingest,
    dur: Duration,
    pace: Pace,
    mut next_query: impl FnMut(u64) -> String,
) -> Vec<Sample> {
    let slice = Duration::from_millis(1);
    let t0 = Instant::now();
    let end = t0 + dur;
    let mut slices = 0u32;
    let mut sent = 0u64;
    let mut outstanding: Option<Instant> = None;
    let mut samples = Vec::new();
    let poll = mio::Poll::new().expect("a readiness poller");
    poll.register(&*query_conn, mio::Token(0), mio::Interest::READABLE)
        .expect("register the query connection");
    let mut events = mio::Events::with_capacity(4);
    ingest_conn.set_nonblocking(true);
    query_conn.set_nonblocking(true);
    loop {
        if let Some(due) = outstanding {
            if let Some(line) = query_conn.read_line() {
                samples.push(Sample {
                    due,
                    done: Instant::now(),
                    ok: line.contains("\"ok\":true"),
                });
                outstanding = None;
            }
        }
        let now = Instant::now();
        while t0 + slice * slices <= now && t0 + slice * slices < end {
            ingest.late_ms.push(1e3 * secs(now - (t0 + slice * slices)));
            ingest.enqueue_slice();
            slices += 1;
        }
        ingest.flush(ingest_conn);
        let due = match pace {
            Pace::Open(period) => t0 + period * sent as u32,
            Pace::Closed => now,
        };
        if outstanding.is_none() && due < end && due <= now {
            query_conn.write_all(format!("{}\n", next_query(sent)).as_bytes());
            outstanding = Some(due);
            sent += 1;
        }
        if outstanding.is_none() && now >= end {
            break;
        }
        let mut wake = (t0 + slice * slices).min(end);
        if outstanding.is_none() {
            wake = wake.min(due);
        }
        if !ingest.pending.is_empty() {
            wake = wake.min(now + Duration::from_micros(100));
        }
        let wait = wake.saturating_duration_since(Instant::now());
        if outstanding.is_some() {
            poll.poll(&mut events, Some(wait))
                .expect("poll the query connection");
        } else {
            std::thread::sleep(wait);
        }
    }
    poll.deregister(&*query_conn)
        .expect("deregister the query connection");
    query_conn.set_nonblocking(false);
    ingest_conn.set_nonblocking(false);
    ingest_conn.write_all(&std::mem::take(&mut ingest.pending));
    samples
}

/// Spawn `n` fresh daemons one after another, each timed from spawn to its
/// first `pong`, and stop them.
fn setups(ctx: &Ctx, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let (daemon, conn, t) =
                Daemon::start(&ctx.bin("eccparityd"), &format!("s{i}.sock"), &[]);
            drop(conn);
            drop(daemon);
            t
        })
        .collect()
}

fn print_lateness(workload: &str, round: usize, ingest: &Ingest) {
    eprintln!(
        "{workload} round {round}: {} open-loop events, generator lateness p50 {:.3} ms p99 {:.3} ms of {} slices",
        ingest.sent,
        quantile(&ingest.late_ms, 0.5),
        quantile(&ingest.late_ms, 0.99),
        ingest.late_ms.len(),
    );
}

/// Rounds of a fleet run. Each round starts a fresh daemon on the CPU that
/// is fastest at that moment ([`pin_to_fastest_cpu`]) and measures it for
/// its share of the budget; every time metric but set-up is the run's
/// fastest round, so a stretch in which the machine's cores all run slow
/// moves it only when it lasts the whole run.
const ROUNDS: usize = 5;

/// Shortest open-loop phase of a round, whatever the budget left.
const MIN_PHASE: Duration = Duration::from_secs(1);

/// The open-loop phase of round `round` (counted from 0) that started at
/// `round_start`: what is left of the round's equal share of the budget.
fn phase(ctx: &Ctx, start: Instant, round_start: Instant, round: usize) -> Duration {
    let share = ctx.budget.saturating_sub(round_start - start) / (ROUNDS - round) as u32;
    share.saturating_sub(round_start.elapsed()).max(MIN_PHASE)
}

/// Run the `fleet_ingest` workload: [`ROUNDS`] rounds, each a fresh daemon
/// taking [`BLASTS`] closed-loop blasts and then open-loop ingest with
/// point queries for the rest of its share of the budget.
pub fn run_ingest(ctx: &Ctx) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let lines = Lines::render(ctx.seed, INGEST_NODES, BUFFER_EVENTS);
    let oracle = oracle_transcript((0..lines.len()).map(|i| lines.line(i)), INGEST_NODES);
    let (mut setup, mut blast_s, mut latencies, mut blast_rss) = (vec![], vec![], vec![], vec![]);
    for round in 0..ROUNDS {
        let round_start = Instant::now();
        let cpu = pin_to_fastest_cpu();
        // A daemon starts in about a millisecond, so starts beside the
        // round's own cost nothing and steady the median.
        setup.extend(setups(ctx, SETUPS));
        let (daemon, mut a, t) = Daemon::start(&ctx.bin("eccparityd"), "d.sock", &[]);
        setup.push(t);
        let mut b = Conn::connect(Path::new("d.sock")).expect("second connection");

        // Closed-loop blasts. After the first the daemon holds the buffer's
        // state once, so it must answer as the in-process engine. Each
        // blast's peak memory is measured on its own: how far the shard
        // mailbox fills, and what the allocator keeps of it afterwards,
        // varies from blast to blast, so the median over the run's blasts
        // repeats where one process's lifetime peak does not.
        let mut blasts = Vec::new();
        for blast in 1..=BLASTS {
            daemon.reset_peak_rss();
            let t = Instant::now();
            a.write_all(&lines.bytes);
            let stats = a.request(STATS);
            blasts.push(secs(t.elapsed()));
            blast_rss.push(daemon.peak_rss_mb());
            let want = blast * BUFFER_EVENTS;
            assert_eq!(result_u64(&stats, "events_ingested"), want, "{stats}");
            if blast == 1 {
                let (got, bad) = transcript(&mut b, INGEST_NODES);
                let differ = check_golden(&ctx.golden_dir, "fleet_ingest", ctx.seed, &got);
                report.ops(
                    got.len() as u64,
                    bad + differing(&got, &oracle) + differ.unwrap_or(0),
                );
            }
        }

        // Open-loop ingest with point queries timed from their due time.
        let mut ingest = Ingest::new(&lines, OPEN_RATE);
        let seed = ctx.seed;
        let samples = drive(
            &mut a,
            &mut b,
            &mut ingest,
            phase(ctx, start, round_start, round),
            Pace::Open(Duration::from_secs(1) / POINT_QUERY_RATE as u32),
            |j| point_query(seed, j, INGEST_NODES),
        );
        let stats = a.request(STATS);
        let ingested = BLASTS * BUFFER_EVENTS + ingest.sent;
        let missing = ingested.saturating_sub(result_u64(&stats, "events_ingested"));
        report.ops(ingested, lost_events(&stats) + missing);
        report.ops(
            samples.len() as u64,
            samples.iter().filter(|s| !s.ok).count() as u64,
        );
        print_lateness("fleet_ingest", round, &ingest);
        let round_latencies: Vec<f64> = samples.iter().map(Sample::latency).collect();
        let capacity = BUFFER_EVENTS as f64 / median(&blasts);
        eprintln!(
            "fleet_ingest round {round} on cpu {cpu}: blasts {blasts:.3?} s of {BUFFER_EVENTS} events, median {capacity:.0} events/s (open loop at {:.1}% of it), peaks {:.1?} MB; point query p50 {:.4} ms p95 {:.4} ms",
            100.0 * OPEN_RATE as f64 / capacity,
            &blast_rss[blast_rss.len() - BLASTS as usize..],
            1e3 * quantile(&round_latencies, 0.5),
            1e3 * quantile(&round_latencies, 0.95),
        );
        blast_s.push(median(&blasts));
        latencies.push(round_latencies);
        let _ = a.request(SHUTDOWN);
        drop((a, b));
        daemon.wait_exit(Duration::from_secs(30));
    }

    report.metric("setup_s", median(&setup), "s");
    report.metric("wall_s", fastest(&blast_s), "s");
    report.op_latency("point query, open loop", &latencies);
    report.metric("peak_rss_mb", median(&blast_rss), "MB");
    report
}

/// Write a seeded stream to `conn` in bounded chunks (untimed preparation).
fn ingest_stream(conn: &mut Conn, seed: u64, nodes: u64, events: u64) {
    let mut buf = Vec::new();
    for line in stream(seed, nodes, events) {
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        if buf.len() >= 4 << 20 {
            conn.write_all(&buf);
            buf.clear();
        }
    }
    conn.write_all(&buf);
}

/// Run the `fleet_query` workload: an untimed preparation writes a
/// checkpoint, then [`ROUNDS`] rounds each resume a fresh daemon from it
/// and run the operator beside background ingest for the round's share of
/// the budget. The last round ends with an explicit `checkpoint` op.
pub fn run_query(ctx: &Ctx) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let daemon_bin = ctx.bin("eccparityd");
    let state = ["--state-dir", "state"];
    let resume = ["--state-dir", "state", "--resume"];

    // Preparation: ingest the fleet and record its answers, then a clean
    // shutdown writes the checkpoint every later start resumes from.
    pin_to_fastest_cpu();
    let (prep, mut conn, _) = Daemon::start(&daemon_bin, "prep.sock", &state);
    ingest_stream(&mut conn, ctx.seed, QUERY_NODES, PREP_EVENTS);
    let stats = conn.request(STATS);
    report.ops(
        PREP_EVENTS,
        PREP_EVENTS.saturating_sub(result_u64(&stats, "events_ingested")),
    );
    let (before, bad) = transcript(&mut conn, QUERY_NODES);
    report.ops(before.len() as u64, bad);
    let _ = conn.request(SHUTDOWN);
    drop(conn);
    prep.wait_exit(Duration::from_secs(60));
    let background = Lines::render(ctx.seed ^ 0xB4C6_0000, QUERY_NODES, BACKGROUND_EVENTS);

    let (mut setup, mut cycle_s, mut points, mut rss) = (vec![], vec![], vec![], vec![]);
    for round in 0..ROUNDS {
        // Set-up includes loading the checkpoint. Resumed, the daemon must
        // answer as it did before the shutdown.
        let round_start = Instant::now();
        let cpu = pin_to_fastest_cpu();
        let (daemon, mut b, t) = Daemon::start(&daemon_bin, "d.sock", &resume);
        setup.push(t);
        let (after, bad) = transcript(&mut b, QUERY_NODES);
        let differ = check_golden(&ctx.golden_dir, "fleet_query", ctx.seed, &after);
        report.ops(
            after.len() as u64,
            bad + differing(&after, &before) + differ.unwrap_or(0),
        );

        let mut a = Conn::connect(Path::new("d.sock")).expect("second connection");
        let mut ingest = Ingest::new(&background, BACKGROUND_RATE);
        let seed = ctx.seed;
        let samples = drive(
            &mut a,
            &mut b,
            &mut ingest,
            phase(ctx, start, round_start, round),
            Pace::Closed,
            |j| match j % CYCLE {
                0 => rpc::render_query(&Query::TopPages { k: TOP_K }),
                1 => rpc::render_query(&Query::Fleet),
                _ => point_query(seed, j, QUERY_NODES),
            },
        );
        // The daemon's peak while it serves; the checkpoint's own copy of
        // the state is the traced run's `service.engine.checkpoint_mb`.
        rss.push(daemon.peak_rss_mb());
        if round == ROUNDS - 1 {
            let t = Instant::now();
            let ckpt = b.request("{\"kind\":\"query\",\"op\":\"checkpoint\"}");
            eprintln!("fleet_query: checkpoint op {:.3} s", secs(t.elapsed()));
            report.ops(1, u64::from(!ckpt.contains("\"ok\":true")));
        }
        let stats = a.request(STATS);
        let missing = ingest
            .sent
            .saturating_sub(result_u64(&stats, "events_ingested"));
        report.ops(ingest.sent, lost_events(&stats) + missing);
        report.ops(
            samples.len() as u64,
            samples.iter().filter(|s| !s.ok).count() as u64,
        );
        print_lateness("fleet_query", round, &ingest);

        // The first operator cycle is warm-up; a partial last cycle is
        // dropped.
        let cycles: Vec<&[Sample]> = samples.chunks_exact(CYCLE as usize).skip(1).collect();
        let walls: Vec<f64> = cycles
            .iter()
            .map(|c| secs(c[c.len() - 1].done - c[0].due))
            .collect();
        let topk: Vec<f64> = cycles.iter().map(|c| c[0].latency()).collect();
        let round_points: Vec<f64> = cycles
            .iter()
            .flat_map(|c| c[2..].iter().map(Sample::latency))
            .collect();
        eprintln!(
            "fleet_query round {round} on cpu {cpu}: set-up {t:.3} s, {} operator cycles of median {:.4} s, top_pages p50 {:.3} ms p95 {:.3} ms, fleet p50 {:.3} ms; point query p50 {:.4} ms p95 {:.4} ms; peak {:.1} MB",
            cycles.len(),
            median(&walls),
            1e3 * quantile(&topk, 0.5),
            1e3 * quantile(&topk, 0.95),
            1e3 * median(&cycles.iter().map(|c| c[1].latency()).collect::<Vec<_>>()),
            1e3 * quantile(&round_points, 0.5),
            1e3 * quantile(&round_points, 0.95),
            rss[round],
        );
        cycle_s.push(median(&walls));
        points.push(round_points);
    }
    report.metric("setup_s", median(&setup), "s");
    report.metric("wall_s", fastest(&cycle_s), "s");
    report.op_latency("point query in an operator cycle", &points);
    report.metric("peak_rss_mb", rss.iter().copied().fold(0.0, f64::max), "MB");
    report
}

// ---- traced pass -----------------------------------------------------------

/// Layer metrics measured on the `fleet_ingest` stream `(name, unit)`.
pub const INGEST_METRICS: [(&str, &str); 9] = [
    ("service.rpc.scan_ns_per_line", "ns"),
    ("service.rpc.route_ns_per_line", "ns"),
    ("service.state.apply_ns_per_event", "ns"),
    ("service.engine.ingest_ns_per_event", "ns"),
    ("service.server.ingest_ns_per_event", "ns"),
    ("service.engine.node_risk_us", "us"),
    ("service.server.query_overhead_us", "us"),
    ("service.state.nodes", "count"),
    ("service.state.pages", "count"),
];

/// Layer metrics measured on the `fleet_query` state `(name, unit)`.
pub const QUERY_METRICS: [(&str, &str); 9] = [
    ("service.engine.load_checkpoint_s", "s"),
    ("service.state.restore_s", "s"),
    ("service.state.top_pages_ms", "ms"),
    ("service.engine.top_pages_ms", "ms"),
    ("service.state.agg_ms", "ms"),
    ("service.state.snapshot_s", "s"),
    ("service.engine.checkpoint_s", "s"),
    ("service.engine.checkpoint_mb", "MB"),
    ("service.state.resumed_pages", "count"),
];

/// Point queries timed per figure.
const PROBES: u64 = 2000;

/// Median seconds of `reps` calls of `f`.
fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            secs(t.elapsed())
        })
        .collect();
    median(&times)
}

fn engine_config(state_dir: Option<&str>, resume: bool) -> EngineConfig {
    EngineConfig {
        shards: 1,
        state_dir: state_dir.map(Into::into),
        resume,
        ..EngineConfig::default()
    }
}

/// The `fleet_ingest` stack taken apart: the line scanner, the router
/// probe, the state apply, the engine (router + shard mailbox + barrier),
/// and the socket server as what the daemon adds over the engine.
pub fn ingest_layers(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let lines = Lines::render(ctx.seed, INGEST_NODES, BUFFER_EVENTS);
    let n = lines.len() as f64;
    let per_line = |t: f64| 1e9 * t / n;

    let t = Instant::now();
    let scanned = (0..lines.len())
        .filter(|&i| std::hint::black_box(rpc::fast_event(lines.line(i))).is_some())
        .count();
    let scan = per_line(secs(t.elapsed()));
    let t = Instant::now();
    let routed = (0..lines.len())
        .filter(|&i| std::hint::black_box(rpc::fast_route(lines.line(i))).is_some())
        .count();
    let route = per_line(secs(t.elapsed()));
    report.ops(
        2 * lines.len() as u64,
        (2 * lines.len() - scanned - routed) as u64,
    );

    let mut state = ShardState::new(Geometry::default());
    let t = Instant::now();
    for i in 0..lines.len() {
        state.apply_line(lines.line(i));
    }
    let apply = per_line(secs(t.elapsed()));
    report.ops(lines.len() as u64, state.rejected);
    let pages: usize = state.snapshot(0).nodes.iter().map(|n| n.pages.len()).sum();

    let engine = Engine::start(engine_config(None, false));
    let mut router = Router::new(&engine);
    let t = Instant::now();
    for i in 0..lines.len() {
        router.push_line(&engine, lines.line(i));
    }
    router.flush(&engine);
    engine.barrier();
    let engine_ingest = per_line(secs(t.elapsed()));
    let t = Instant::now();
    for j in 0..PROBES {
        engine.barrier();
        std::hint::black_box(engine.query(&Query::NodeRisk {
            node: j % INGEST_NODES,
        }));
    }
    let engine_query_us = 1e6 * secs(t.elapsed()) / PROBES as f64;
    engine.shutdown();

    let (daemon, mut conn, _) = Daemon::start(&ctx.bin("eccparityd"), "layers.sock", &[]);
    let t = Instant::now();
    conn.write_all(&lines.bytes);
    let stats = conn.request(STATS);
    let socket_ingest = per_line(secs(t.elapsed()));
    report.ops(lines.len() as u64, lost_events(&stats));
    let t = Instant::now();
    for j in 0..PROBES {
        let resp = conn.request(&rpc::render_query(&Query::NodeRisk {
            node: j % INGEST_NODES,
        }));
        report.ops(1, u64::from(!resp.contains("\"ok\":true")));
    }
    let socket_query_us = 1e6 * secs(t.elapsed()) / PROBES as f64;
    drop(conn);
    drop(daemon);

    let values = [
        scan,
        route,
        apply,
        engine_ingest,
        socket_ingest - engine_ingest,
        engine_query_us,
        socket_query_us - engine_query_us,
        state.node_count() as f64,
        pages as f64,
    ];
    for ((name, unit), value) in INGEST_METRICS.iter().zip(values) {
        report.metric(*name, value, unit);
    }
    report
}

/// The `fleet_query` state taken apart: checkpoint write, load and
/// restore, and the top-K, aggregate and snapshot walks over it.
pub fn query_layers(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let geom = Geometry::default();
    let engine = Engine::start(engine_config(Some("layer-state"), false));
    let mut router = Router::new(&engine);
    for line in stream(ctx.seed, QUERY_NODES, PREP_EVENTS) {
        router.push_line(&engine, line.as_bytes());
    }
    router.flush(&engine);
    engine.barrier();
    let t = Instant::now();
    let info = engine
        .checkpoint()
        .expect("checkpoint to the run's directory");
    let checkpoint_s = secs(t.elapsed());
    engine.shutdown();
    let checkpoint_mb = std::fs::metadata(&info.path)
        .expect("the checkpoint just written")
        .len() as f64
        / (1024.0 * 1024.0);

    let name = EngineConfig::default().name;
    let t = Instant::now();
    let nodes = load_checkpoint(&info.path, &name, &geom.config_key());
    let load_s = secs(t.elapsed());
    report.ops(QUERY_NODES, QUERY_NODES.saturating_sub(nodes.len() as u64));
    let t = Instant::now();
    let state = ShardState::restore(geom, nodes);
    let restore_s = secs(t.elapsed());
    let top_ms = 1e3 * median_time(5, || state.top_pages(TOP_K));
    let agg_ms = 1e3 * median_time(5, || state.agg());
    let t = Instant::now();
    let snapshot = state.snapshot(0);
    let snapshot_s = secs(t.elapsed());
    let pages: usize = snapshot.nodes.iter().map(|n| n.pages.len()).sum();

    let engine = Engine::start(engine_config(Some("layer-state"), true));
    let engine_top_ms = 1e3 * median_time(5, || engine.query(&Query::TopPages { k: TOP_K }));
    engine.shutdown();

    let values = [
        load_s,
        restore_s,
        top_ms,
        engine_top_ms,
        agg_ms,
        snapshot_s,
        checkpoint_s,
        checkpoint_mb,
        pages as f64,
    ];
    for ((name, unit), value) in QUERY_METRICS.iter().zip(values) {
        report.metric(*name, value, unit);
    }
    report
}
