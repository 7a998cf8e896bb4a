//! Oracle for the daemon's checkpoint payload codec
//! (`ShardSnapshot::encode` / `ShardSnapshot::decode`).
//!
//! * **Bytes.** `encode` must write exactly what the journal's original
//!   serde writer wrote: the test rebuilds that text as `serde_json` of a
//!   hand-built `Value`, with `HealthTable`'s own serde derive for
//!   `health` (whose set order is the rendered-text order).
//! * **Round trip.** `decode(encode(s)) == s` over seeded fleet streams,
//!   bank faults, an empty shard and retired rows of mixed digit counts.
//! * **Mutants.** Thousands of seeded flip/insert/delete mutants of real
//!   payloads: `decode` never panics, and whatever it accepts re-encodes
//!   to exactly the mutated bytes and restores into a state every query
//!   can walk.
//! * **Refusals.** Payloads that checksum fine but do not fit the
//!   daemon's geometry are skipped on resume, never restored.
//! * **Compatibility.** `tests/fixtures/eccparityd-journal-v1.jsonl` is a
//!   3-shard journal written by the serde-based daemon:
//!
//!   ```text
//!   eccparityd --socket S --shards 3 --state-dir DIR &
//!   eccparity-loadgen --socket S --events 20000 --nodes 64 --seed 7 --checkpoint --shutdown
//!   ```
//!
//!   It must resume to the answers of a live engine fed the same stream,
//!   and re-checkpoint at 3 shards to the same bytes.

use eccparity_bench::hash::fnv1a64;
use eccparity_bench::supervisor::JournalRecord;
use eccparity_service::engine::{load_checkpoint, Engine, EngineConfig, Router};
use eccparity_service::rpc::{self, Event, Query};
use eccparity_service::state::{Geometry, NodeSnapshot, ShardSnapshot, ShardState};
use resilience::loadgen::{FleetStream, StreamConfig};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// SplitMix64: a self-contained seeded generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The payload bytes of the journal's original serde writer.
fn serde_encoding(s: &ShardSnapshot) -> String {
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let node = |n: &NodeSnapshot| {
        let pages = n
            .pages
            .iter()
            .map(|p| {
                obj(vec![
                    ("channel", Value::from(p.channel)),
                    ("bank", Value::from(p.bank)),
                    ("row", Value::from(p.row)),
                    ("count", Value::from(p.count)),
                ])
            })
            .collect();
        obj(vec![
            ("node", Value::from(n.node)),
            ("events", Value::from(n.events)),
            ("pages", Value::Array(pages)),
            ("health", serde_json::to_value(&n.health)),
        ])
    };
    serde_json::to_string(&obj(vec![
        ("shard", Value::from(s.shard)),
        ("nodes", Value::Array(s.nodes.iter().map(node).collect())),
    ]))
    .unwrap()
}

fn fleet_events(cfg: StreamConfig) -> impl Iterator<Item = Event> {
    FleetStream::new(cfg).map(|ev| Event {
        node: ev.node,
        channel: ev.channel,
        bank: ev.bank,
        row: ev.row,
        count: 1,
        bank_fault: ev.bank_fault,
    })
}

/// Apply `events` to `shards` partitions (`node % shards`) and snapshot
/// each.
fn partition(
    geom: Geometry,
    shards: u64,
    events: impl Iterator<Item = Event>,
) -> Vec<ShardSnapshot> {
    let mut states: Vec<ShardState> = (0..shards).map(|_| ShardState::new(geom)).collect();
    for ev in events {
        assert!(states[(ev.node % shards) as usize].apply_event(&ev));
    }
    states
        .iter()
        .enumerate()
        .map(|(i, st)| st.snapshot(i as u64))
        .collect()
}

/// Generated states: `(geometry, snapshot)`.
fn corpus() -> Vec<(Geometry, ShardSnapshot)> {
    let mut out = Vec::new();
    let geoms = [
        Geometry::default(),
        Geometry {
            channels: 4,
            banks: 8,
            threshold: 2,
        },
        Geometry {
            channels: 12,
            banks: 24,
            threshold: 9,
        },
    ];
    for (i, &geom) in geoms.iter().enumerate() {
        for seed in [1u64, 7, 42] {
            let cfg = StreamConfig {
                seed: seed + i as u64,
                nodes: [1, 13, 64][i],
                events: 4000,
                channels: geom.channels,
                banks: geom.banks,
            };
            for snap in partition(geom, 3, fleet_events(cfg)) {
                out.push((geom, snap));
            }
        }
    }
    // Sparse node ids, counts above 1 and whole-bank faults.
    let geom = Geometry::default();
    let mut rng = Mix(99);
    let events: Vec<Event> = (0..3000)
        .map(|_| Event {
            node: rng.below(40) * 1_000_003 + rng.below(2) * (u64::MAX / 2),
            channel: rng.below(8) as u32,
            bank: rng.below(16) as u32,
            row: rng.below(1 << 20) as u32,
            count: 1 + rng.below(5) as u32,
            bank_fault: rng.below(25) == 0,
        })
        .collect();
    for snap in partition(geom, 2, events.into_iter()) {
        out.push((geom, snap));
    }
    // Retired rows, channels and banks of mixed digit counts: a threshold
    // of 255 retires every page instead of migrating.
    let geom = Geometry {
        channels: 12,
        banks: 112,
        threshold: 255,
    };
    let mut events = Vec::new();
    for (channel, bank) in [(5, 4), (11, 4), (1, 104), (10, 9), (1, 10)] {
        for row in [0, 1, 5, 9, 10, 99, 100, 7087, 10370, 65536, u32::MAX] {
            events.push(Event {
                node: 3,
                channel,
                bank,
                row,
                count: 1,
                bank_fault: false,
            });
        }
    }
    for snap in partition(geom, 1, events.into_iter()) {
        out.push((geom, snap));
    }
    out
}

#[test]
fn encode_matches_serde_bytes_and_decode_inverts_it() {
    let corpus = corpus();
    assert!(corpus.len() > 20);
    for (geom, snap) in &corpus {
        let bytes = snap.encode();
        assert_eq!(
            bytes,
            serde_encoding(snap),
            "shard {} under {geom:?}",
            snap.shard
        );
        let back = ShardSnapshot::decode(bytes.as_bytes(), *geom).unwrap();
        assert_eq!(&back, snap);
        let restored = ShardState::restore(*geom, back.nodes).snapshot(snap.shard);
        assert_eq!(&restored, snap);
    }
}

#[test]
fn empty_shard_and_text_ordered_retired_rows() {
    let empty = ShardState::new(Geometry::default()).snapshot(0);
    assert_eq!(empty.encode(), r#"{"shard":0,"nodes":[]}"#);
    assert_eq!(empty.encode(), serde_encoding(&empty));
    assert_eq!(
        ShardSnapshot::decode(empty.encode().as_bytes(), Geometry::default()).unwrap(),
        empty
    );

    let (_, mixed) = corpus().pop().unwrap();
    let text = mixed.encode();
    let at = |needle: &str| {
        text.find(needle)
            .unwrap_or_else(|| panic!("{needle} in payload"))
    };
    assert!(at("[5,4,10370]") < at("[5,4,7087]"), "rows compare as text");
    assert!(at("[5,4,0]") < at("[5,4,1]") && at("[5,4,1]") < at("[5,4,10]"));
    assert!(at("[1,10,0]") < at("[1,104,0]") && at("[1,104,0]") < at("[10,9,0]"));
    assert!(at("[10,9,0]") < at("[11,4,0]") && at("[11,4,0]") < at("[5,4,0]"));
}

#[test]
fn mutated_payloads_never_panic_and_accepted_ones_are_canonical() {
    let corpus = corpus();
    // Small payloads, so every part of the shape gets hit.
    let seeds: Vec<(Geometry, Vec<u8>)> = corpus
        .iter()
        .filter(|(_, s)| (1..=3).contains(&s.nodes.len()))
        .map(|(g, s)| (*g, s.encode().into_bytes()))
        .take(6)
        .collect();
    assert!(seeds.len() >= 3);
    const ALPHABET: &[u8] = b"0123456789,:[]{}\"truefalsnodechbkwy \n-.e+\\";
    let mut rng = Mix(2024);
    let (mut accepted, mut refused) = (0u32, 0u32);
    for i in 0..6000 {
        let (geom, base) = &seeds[i % seeds.len()];
        let mut m = base.clone();
        for _ in 0..1 + rng.below(2) {
            let pos = rng.below(m.len() as u64 + 1) as usize;
            let byte = if rng.below(4) == 0 {
                rng.below(256) as u8
            } else {
                ALPHABET[rng.below(ALPHABET.len() as u64) as usize]
            };
            match rng.below(4) {
                // Digit for digit: the mutants most likely to stay
                // well-formed, and so to test the validation rules.
                0 if m.get(pos).is_some_and(u8::is_ascii_digit) => {
                    m[pos] = b'0' + rng.below(10) as u8
                }
                1 if pos < m.len() => m[pos] = byte,
                2 if pos < m.len() => {
                    m.remove(pos);
                }
                _ => m.insert(pos, byte),
            }
        }
        if m == *base {
            continue;
        }
        match ShardSnapshot::decode(&m, *geom) {
            Ok(snap) => {
                accepted += 1;
                assert_eq!(
                    snap.encode().as_bytes(),
                    &m[..],
                    "accepted a non-canonical payload: {}",
                    String::from_utf8_lossy(&m)
                );
                let ids: Vec<u64> = snap.nodes.iter().map(|n| n.node).collect();
                let state = ShardState::restore(*geom, snap.nodes);
                for id in ids {
                    assert!(state.recommend(id).is_some());
                    assert!(state.node_view(id).is_some());
                }
                state.top_pages(10);
                state.agg();
            }
            Err(_) => refused += 1,
        }
    }
    assert!(
        accepted > 50 && refused > 1000,
        "{accepted} accepted, {refused} refused"
    );
}

/// One valid node of the default geometry, as payload text.
fn node_text(node: u64, pages: &str, counters: &str, faulty: &str, retired: &str) -> String {
    format!(
        r#"{{"node":{node},"events":1,"pages":[{pages}],"health":{{"channels":8,"pairs_per_channel":8,"threshold":4,"counters":[{counters}],"faulty":[{faulty}],"retired":[{retired}]}}}}"#
    )
}

fn zeros(n: usize) -> String {
    vec!["0"; n].join(",")
}

fn falses(n: usize) -> String {
    vec!["false"; n].join(",")
}

#[test]
fn decode_refuses_payloads_that_do_not_fit_the_geometry() {
    let geom = Geometry::default();
    let page = r#"{"channel":0,"bank":1,"row":5,"count":1}"#;
    let one = |node: u64| node_text(node, page, &zeros(64), &falses(64), "[0,1,5]");
    let shard = |nodes: &[String]| format!(r#"{{"shard":0,"nodes":[{}]}}"#, nodes.join(","));
    let good = shard(&[one(1), one(2)]);
    assert!(ShardSnapshot::decode(good.as_bytes(), geom).is_ok());
    let mut migrated = zeros(64);
    migrated.replace_range(0..1, "4");
    let cases = [
        (
            "short counters",
            shard(&[node_text(1, page, &zeros(3), &falses(64), "")]),
        ),
        (
            "long faulty",
            shard(&[node_text(1, page, &zeros(64), &falses(65), "")]),
        ),
        (
            "other channel count",
            good.replacen(r#""channels":8"#, r#""channels":9"#, 1),
        ),
        (
            "other pair count",
            good.replacen(r#""pairs_per_channel":8"#, r#""pairs_per_channel":4"#, 1),
        ),
        (
            "other threshold",
            good.replacen(r#""threshold":4"#, r#""threshold":5"#, 1),
        ),
        (
            "counter at threshold, not faulty",
            shard(&[node_text(1, page, &migrated, &falses(64), "")]),
        ),
        (
            "page channel out of range",
            good.replacen(r#""channel":0"#, r#""channel":8"#, 1),
        ),
        (
            "page bank out of range",
            good.replacen(r#""bank":1"#, r#""bank":16"#, 1),
        ),
        (
            "retired out of range",
            good.replacen("[0,1,5]", "[0,16,5]", 1),
        ),
        (
            "unsorted pages",
            shard(&[node_text(
                1,
                &format!(r#"{page},{{"channel":0,"bank":0,"row":9,"count":1}}"#),
                &zeros(64),
                &falses(64),
                "",
            )]),
        ),
        (
            "duplicate pages",
            shard(&[node_text(
                1,
                &format!("{page},{page}"),
                &zeros(64),
                &falses(64),
                "",
            )]),
        ),
        (
            "unsorted retired",
            good.replacen("[0,1,5]", "[0,1,5],[0,1,10]", 1),
        ),
        (
            "duplicate retired",
            good.replacen("[0,1,5]", "[0,1,5],[0,1,5]", 1),
        ),
        ("unsorted nodes", shard(&[one(2), one(1)])),
        ("duplicate nodes", shard(&[one(1), one(1)])),
        (
            "leading zero",
            good.replacen(r#""row":5"#, r#""row":05"#, 1),
        ),
        ("counter over u8", good.replacen(":[0,0", ":[256,0", 1)),
        (
            "whitespace",
            good.replacen(r#""shard":0"#, r#""shard": 0"#, 1),
        ),
        ("trailing bytes", format!("{good}\n")),
        (
            "wrong field order",
            good.replacen(r#""node":1,"events":1"#, r#""events":1,"node":1"#, 1),
        ),
    ];
    for (what, payload) in cases {
        assert_ne!(payload, good, "{what}: the edit must apply");
        assert!(
            ShardSnapshot::decode(payload.as_bytes(), geom).is_err(),
            "{what} accepted: {payload}"
        );
    }
}

// ---- journals ----------------------------------------------------------------

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("checkpoint-codec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path, shards: usize, resume: bool) -> EngineConfig {
    EngineConfig {
        shards,
        state_dir: Some(dir.to_path_buf()),
        resume,
        ..EngineConfig::default()
    }
}

/// Rewrite every `ShardDone` payload of the journal at `path` with
/// `edit`, recomputing its checksum.
fn edit_payloads(path: &Path, edit: impl Fn(&str, String) -> String) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut out = String::new();
    for line in text.lines() {
        let mut rec: JournalRecord = serde_json::from_str(line).unwrap();
        if let JournalRecord::ShardDone {
            shard,
            checksum,
            payload,
            ..
        } = &mut rec
        {
            *payload = edit(shard, std::mem::take(payload));
            *checksum = fnv1a64(payload.as_bytes());
        }
        out.push_str(&serde_json::to_string(&rec).unwrap());
        out.push('\n');
    }
    std::fs::write(path, out).unwrap();
}

/// Two nodes, 1 and 2, checkpointed by a 2-shard engine into `dir`.
fn two_node_journal(dir: &Path) -> PathBuf {
    let engine = Engine::start(config(dir, 2, false));
    let mut router = Router::new(&engine);
    for node in [1u64, 2] {
        let line = rpc::render_event(&Event {
            node,
            channel: 3,
            bank: 5,
            row: 77,
            count: 2,
            bank_fault: false,
        });
        router.push_line(&engine, line.as_bytes());
    }
    router.flush(&engine);
    let path = engine.checkpoint().unwrap().path;
    engine.shutdown();
    path
}

#[test]
fn misshapen_table_resumes_without_that_node_and_without_panic() {
    let dir = scratch("misshapen");
    let path = two_node_journal(&dir);
    // Node 1 (shard 1) keeps its checksum valid but its table shrinks to
    // three counters: the serde decoder restored it, and `recommend` then
    // indexed past the end of the table.
    edit_payloads(&path, |shard, payload| {
        if shard != "shard-1" {
            return payload;
        }
        let start = payload.find(r#""counters":["#).unwrap() + 12;
        let end = start + payload[start..].find(']').unwrap();
        format!("{}0,0,0{}", &payload[..start], &payload[end..])
    });
    let geom = Geometry::default();
    let nodes = load_checkpoint(&path, "eccparityd", &geom.config_key());
    assert_eq!(nodes.iter().map(|n| n.node).collect::<Vec<_>>(), vec![2]);

    let engine = Engine::start(config(&dir, 3, true));
    let unknown = engine.query(&Query::Recommend { node: 1 });
    assert!(unknown.contains("\"known\":false"), "{unknown}");
    let known = engine.query(&Query::Recommend { node: 2 });
    assert!(known.contains("\"known\":true"), "{known}");
    assert!(engine.query(&Query::Fleet).contains("\"nodes\":1,"));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn node_repeated_across_shard_records_is_refused() {
    let dir = scratch("repeat");
    let path = two_node_journal(&dir);
    // Both records now claim node 2; the later one is skipped whole.
    edit_payloads(&path, |shard, payload| {
        if shard == "shard-1" {
            payload.replacen("\"node\":1,", "\"node\":2,", 1)
        } else {
            payload
        }
    });
    let nodes = load_checkpoint(&path, "eccparityd", &Geometry::default().config_key());
    assert_eq!(nodes.iter().map(|n| n.node).collect::<Vec<_>>(), vec![2]);
    let _ = std::fs::remove_dir_all(&dir);
}

const FIXTURE: &str = "tests/fixtures/eccparityd-journal-v1.jsonl";

/// Every state query's answer for nodes `0..=64` (node 64 is unknown).
fn answers(engine: &Engine) -> Vec<String> {
    let mut out = vec![
        engine.query(&Query::Fleet),
        engine.query(&Query::TopPages { k: 100 }),
    ];
    for node in 0..=64 {
        out.push(engine.query(&Query::NodeRisk { node }));
        out.push(engine.query(&Query::Recommend { node }));
    }
    out
}

#[test]
fn serde_era_fixture_resumes_to_live_answers_and_rewrites_identically() {
    let fixture = std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)).unwrap();
    let live_dir = scratch("fixture-live");
    let live = Engine::start(config(&live_dir, 3, false));
    let mut router = Router::new(&live);
    let cfg = StreamConfig {
        seed: 7,
        nodes: 64,
        events: 20_000,
        channels: 8,
        banks: 16,
    };
    for ev in fleet_events(cfg) {
        router.push_line(&live, rpc::render_event(&ev).as_bytes());
    }
    router.flush(&live);
    let golden = answers(&live);
    let path = live.checkpoint().unwrap().path;
    live.shutdown();
    assert!(
        std::fs::read(&path).unwrap() == fixture,
        "live 3-shard checkpoint differs from the fixture"
    );

    for shards in [3, 5] {
        let dir = scratch(&format!("fixture-resume{shards}"));
        let journal = config(&dir, shards, true).journal_path().unwrap();
        std::fs::write(&journal, &fixture).unwrap();
        let resumed = Engine::start(config(&dir, shards, true));
        assert_eq!(answers(&resumed), golden, "resumed at {shards} shards");
        if shards == 3 {
            resumed.checkpoint().unwrap();
            assert!(
                std::fs::read(&journal).unwrap() == fixture,
                "re-checkpoint differs from the fixture"
            );
        }
        resumed.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&live_dir);
}
