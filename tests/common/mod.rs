//! Seeded generators and process helpers shared by the root test crates.
//! Each crate that declares `mod common;` uses a subset, so unused items
//! are allowed.
#![allow(dead_code)]

use eccparity_service::rpc::Event;
use eccparity_service::state::Geometry;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Wait until something listens on the Unix socket `sock`. The socket
/// file exists from `bind()` on, before `listen()`, so its existence is
/// no sign of readiness: a listener is ready once a connection succeeds.
pub fn wait_listening(sock: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while UnixStream::connect(sock).is_err() {
        assert!(Instant::now() < deadline, "nothing listened on {sock:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// SplitMix64: a self-contained seeded generator.
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One generated fleet event stream's shape.
pub struct Shape {
    pub seed: u64,
    pub geom: Geometry,
    /// Distinct node ids drawn from (sparse, so hash order ≠ id order).
    pub nodes: u64,
    /// Distinct rows per bank (small → repeated pages → ties).
    pub rows: u64,
    /// Largest per-event count.
    pub max_count: u64,
    pub events: usize,
    /// One event in `fault_every` is a whole-bank fault.
    pub fault_every: u64,
}

/// The stream `shape` describes: every event fits its geometry.
pub fn stream(shape: &Shape) -> Vec<Event> {
    let mut rng = Mix(shape.seed);
    (0..shape.events)
        .map(|_| Event {
            node: rng.below(shape.nodes) * 7919 + 3,
            channel: rng.below(u64::from(shape.geom.channels)) as u32,
            bank: rng.below(u64::from(shape.geom.banks)) as u32,
            row: rng.below(shape.rows) as u32,
            count: 1 + rng.below(shape.max_count) as u32,
            bank_fault: rng.below(shape.fault_every) == 0,
        })
        .collect()
}

/// Rename the stream's nodes so that each new node id arrives below every
/// id seen before it: the ids keep their set, the arrival order descends.
pub fn descending_arrivals(events: &mut [Event]) {
    let mut firsts: Vec<u64> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for ev in events.iter() {
        if seen.insert(ev.node) {
            firsts.push(ev.node);
        }
    }
    let mut ids = firsts.clone();
    ids.sort_unstable_by(|a, b| b.cmp(a));
    let rename: std::collections::HashMap<u64, u64> = firsts.into_iter().zip(ids).collect();
    for ev in events {
        ev.node = rename[&ev.node];
    }
}

/// `eccparity-loadgen`'s rendering of one stream event.
fn wire_event(ev: &resilience::loadgen::FleetEvent) -> String {
    eccparity_service::rpc::render_event(&Event {
        node: ev.node,
        channel: ev.channel,
        bank: ev.bank,
        row: ev.row,
        count: 1,
        bank_fault: ev.bank_fault,
    })
}

/// The golden `eccparity-loadgen --queries` transcript for `cfg`'s
/// stream: an in-process engine, fed the stream's wire lines through a
/// `Router` exactly as a daemon connection would, answers
/// `rpc::query_suite` — one response per line. No socket is involved, so
/// a daemon transcript that equals it shows the I/O path added nothing
/// and lost nothing.
pub fn in_process_transcript(cfg: resilience::loadgen::StreamConfig) -> String {
    use eccparity_service::engine::{Engine, EngineConfig, Router};
    let engine = Engine::start(EngineConfig::default());
    let mut router = Router::new(&engine);
    for ev in resilience::loadgen::FleetStream::new(cfg) {
        router.push_line(&engine, wire_event(&ev).as_bytes());
    }
    router.flush(&engine);
    engine.barrier();
    let mut text = String::new();
    for q in eccparity_service::rpc::query_suite(cfg.nodes) {
        text.push_str(&engine.query(&q));
        text.push('\n');
    }
    engine.shutdown();
    text
}
