//! Differential oracle for `ShardState::apply_batch`.
//!
//! A shard worker hands each batch to `apply_batch`, which splits it with
//! the word-at-a-time newline search, parses every line, then applies the
//! parsed lines; the page ledger behind it is a seeded hash map. This test
//! holds it to the plain definition: split the same bytes with
//! `split(b'\n')`, drop empty lines, and call `apply_line` on each in
//! order. The seeded batches mix compact and tolerant-form events, count
//! and bank-fault events, geometry rejects, queries, garbage, empty lines
//! and byte-level mutations, with node ids `0` and `u64::MAX` and row
//! `u32::MAX`, cut into batches at random line boundaries. Both states
//! must agree on the encoded snapshot, the aggregate, the line and
//! rejection counters and the posture transitions in order. `top_pages`
//! is checked against a `BTreeMap` ledger of the accepted events.

mod common;

use common::Mix;
use eccparity_service::push::Transition;
use eccparity_service::rpc::{parse_line, render_event, Event, Request, MAX_EVENT_COUNT};
use eccparity_service::state::{Geometry, PageRisk, ShardState};
use std::collections::BTreeMap;

/// What a batch's shape draws from.
struct Mixture {
    geom: Geometry,
    /// Node ids are drawn from `0..nodes`, plus the two extremes.
    nodes: u64,
    /// Rows are drawn from `0..rows`, plus `u32::MAX`.
    rows: u64,
    /// Largest event count (capped at `MAX_EVENT_COUNT`).
    max_count: u64,
}

fn event(rng: &mut Mix, m: &Mixture) -> Event {
    let node = match rng.below(20) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.below(m.nodes),
    };
    let row = if rng.below(25) == 0 {
        u32::MAX
    } else {
        rng.below(m.rows) as u32
    };
    let mut ev = Event {
        node,
        channel: rng.below(u64::from(m.geom.channels)) as u32,
        bank: rng.below(u64::from(m.geom.banks)) as u32,
        row,
        count: if rng.below(4) == 0 {
            1 + rng.below(m.max_count.min(MAX_EVENT_COUNT)) as u32
        } else {
            1
        },
        bank_fault: rng.below(60) == 0,
    };
    if rng.below(30) == 0 {
        // Outside the geometry: a geometry reject.
        if rng.below(2) == 0 {
            ev.channel = m.geom.channels + rng.below(3) as u32;
        } else {
            ev.bank = m.geom.banks.saturating_add(rng.below(3) as u32);
        }
    }
    ev
}

/// `ev` in the tolerant form: spaced, fields reversed, `count` and
/// `fault` always spelled out.
fn tolerant(ev: &Event) -> String {
    format!(
        "{{ \"fault\": \"{}\", \"count\": {}, \"row\": {}, \"bank\": {}, \"channel\": {}, \"node\": {}, \"kind\": \"event\" }}",
        if ev.bank_fault { "bank" } else { "ce" },
        ev.count,
        ev.row,
        ev.bank,
        ev.channel,
        ev.node
    )
}

/// One generated request line, possibly with embedded newlines after a
/// mutation (so it may split into several lines, or none).
fn line(rng: &mut Mix, m: &Mixture) -> Vec<u8> {
    let mut text = match rng.below(40) {
        0 => Vec::new(),
        1 => b"utter garbage".to_vec(),
        2 => b"{\"kind\":\"query\",\"op\":\"fleet\"}".to_vec(),
        3 => b"{\"kind\":\"query\",\"op\":\"top_pages\",\"k\":5}".to_vec(),
        4 => b"\r".to_vec(),
        5..=8 => tolerant(&event(rng, m)).into_bytes(),
        _ => render_event(&event(rng, m)).into_bytes(),
    };
    if !text.is_empty() && rng.below(12) == 0 {
        let at = rng.below(text.len() as u64) as usize;
        match rng.below(4) {
            0 => text.truncate(at),
            1 => text[at] ^= 1 << rng.below(8),
            2 => text[at] = b'\n',
            _ => text.insert(at, b' '),
        }
    }
    text
}

/// A newline-terminated stream of generated lines, with runs of empty
/// lines and, sometimes, no final newline.
fn stream(seed: u64, m: &Mixture, lines: usize) -> Vec<u8> {
    let mut rng = Mix(seed);
    let mut out = Vec::new();
    for _ in 0..lines {
        out.extend(line(&mut rng, m));
        out.push(b'\n');
        if rng.below(15) == 0 {
            out.extend(std::iter::repeat_n(b'\n', 1 + rng.below(3) as usize));
        }
    }
    if rng.below(2) == 0 {
        out.extend(line(&mut rng, m));
    }
    out
}

/// Cut `bytes` into batches that end at a newline (the last may not),
/// as a connection's router does.
fn batches<'a>(rng: &mut Mix, bytes: &'a [u8]) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < bytes.len() {
        let mut end = (start + 1 + rng.below(600) as usize).min(bytes.len());
        while end < bytes.len() && bytes[end - 1] != b'\n' {
            end += 1;
        }
        out.push(&bytes[start..end]);
        start = end;
    }
    out
}

/// Everything the two paths must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    snapshot: String,
    agg: eccparity_service::state::ShardAgg,
    lines_consumed: u64,
    lines_ok: u64,
    rejected_parse: u64,
    rejected_geometry: u64,
    transitions: Vec<Transition>,
}

fn outcome(state: &mut ShardState, transitions: Vec<Transition>) -> Outcome {
    Outcome {
        snapshot: state.snapshot(0).encode(),
        agg: state.agg(),
        lines_consumed: state.lines_consumed(),
        lines_ok: state.lines_ok,
        rejected_parse: state.rejected_parse,
        rejected_geometry: state.rejected_geometry,
        transitions,
    }
}

/// The reference: one `apply_line` per non-empty line of the old splitter.
fn line_by_line(geom: Geometry, bytes: &[u8]) -> (ShardState, Outcome) {
    let mut state = ShardState::new(geom);
    let mut transitions = Vec::new();
    for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        state.apply_line(line);
        transitions.extend(state.take_transitions());
    }
    let out = outcome(&mut state, transitions);
    (state, out)
}

fn batched(geom: Geometry, batches: &[&[u8]]) -> (ShardState, Outcome) {
    let mut state = ShardState::new(geom);
    let mut transitions = Vec::new();
    for batch in batches {
        state.apply_batch(batch);
        transitions.extend(state.take_transitions());
    }
    let out = outcome(&mut state, transitions);
    (state, out)
}

/// The accepted events' page counts, in a `BTreeMap`, and the top-K the
/// documented order gives: most errors first, then lowest node, channel,
/// bank, row. `retired` is read from the batched state's snapshot.
fn reference_top(geom: Geometry, bytes: &[u8], state: &ShardState) -> Vec<PageRisk> {
    let mut ledger: BTreeMap<(u64, u32, u32, u32), u32> = BTreeMap::new();
    for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        if let Ok(Request::Event(ev)) = parse_line(line) {
            if ev.channel < geom.channels && ev.bank < geom.banks && !ev.bank_fault {
                *ledger
                    .entry((ev.node, ev.channel, ev.bank, ev.row))
                    .or_insert(0) += ev.count;
            }
        }
    }
    let tables: BTreeMap<u64, _> = state
        .snapshot(0)
        .nodes
        .into_iter()
        .map(|n| (n.node, n.health))
        .collect();
    let mut all: Vec<PageRisk> = ledger
        .into_iter()
        .map(|((node, channel, bank, row), ce)| PageRisk {
            node,
            channel,
            bank,
            row,
            ce,
            retired: tables[&node].is_retired(channel as usize, bank as usize, row),
        })
        .collect();
    all.sort_by_key(|p| (std::cmp::Reverse(p.ce), p.node, p.channel, p.bank, p.row));
    all
}

fn check(seed: u64, m: &Mixture, lines: usize) {
    let bytes = stream(seed, m, lines);
    let (reference, want) = line_by_line(m.geom, &bytes);
    let mut rng = Mix(seed ^ 0xba7c);
    for cut in 0..3 {
        let cuts = if cut == 0 {
            vec![&bytes[..]]
        } else {
            batches(&mut rng, &bytes)
        };
        let (state, got) = batched(m.geom, &cuts);
        assert_eq!(
            got,
            want,
            "seed {seed}, cut {cut} into {} batches",
            cuts.len()
        );
        if cut == 0 {
            let top = reference_top(m.geom, &bytes, &state);
            for k in [1, 50, top.len()] {
                let k = k.max(1);
                assert_eq!(
                    state.top_pages(k),
                    top[..k.min(top.len())],
                    "seed {seed}: top_pages({k})"
                );
                assert_eq!(state.top_pages(k), reference.top_pages(k), "seed {seed}");
            }
        }
    }
    assert!(want.lines_ok > 0, "seed {seed}: some events must land");
    assert!(
        want.rejected_parse > 0,
        "seed {seed}: some lines must fail to parse"
    );
    assert!(
        want.rejected_geometry > 0,
        "seed {seed}: some events must miss the geometry"
    );
}

#[test]
fn batch_apply_matches_line_by_line_at_default_geometry() {
    for seed in 0..12 {
        check(
            seed,
            &Mixture {
                geom: Geometry::default(),
                nodes: 60,
                rows: 6,
                max_count: 3,
            },
            3_000,
        );
    }
}

#[test]
fn batch_apply_matches_line_by_line_with_large_counts_and_low_threshold() {
    let geom = Geometry {
        channels: 3,
        banks: 4,
        threshold: 1,
    };
    for seed in 100..106 {
        check(
            seed,
            &Mixture {
                geom,
                nodes: 25,
                rows: 4,
                max_count: MAX_EVENT_COUNT,
            },
            2_000,
        );
    }
}

#[test]
fn batch_apply_matches_line_by_line_on_wide_geometries() {
    // Channel and bank indices past 8 and 16 bits, the widths a packed
    // page key would give them.
    for (seed, channels, banks) in [(200, 70_000, 2), (201, 2, 140_000), (202, 300, 600)] {
        check(
            seed,
            &Mixture {
                geom: Geometry {
                    channels,
                    banks,
                    threshold: 4,
                },
                nodes: 6,
                rows: 3,
                max_count: 2,
            },
            1_500,
        );
    }
}

/// Apply one event per page of `pages` (counts 1, 2, …) to a fresh
/// state of `geom`, and check that each page keeps its own ledger entry.
fn check_distinct_pages(geom: Geometry, pages: &[(u32, u32, u32)]) {
    let mut state = ShardState::new(geom);
    for (i, &(channel, bank, row)) in pages.iter().enumerate() {
        assert!(state.apply_event(&Event {
            node: u64::MAX,
            channel,
            bank,
            row,
            count: i as u32 + 1,
            bank_fault: false,
        }));
    }
    let got: Vec<(u32, u32, u32, u32)> = state.snapshot(0).nodes[0]
        .pages
        .iter()
        .map(|p| (p.channel, p.bank, p.row, p.count))
        .collect();
    let mut want: Vec<(u32, u32, u32, u32)> = pages
        .iter()
        .enumerate()
        .map(|(i, &(c, b, r))| (c, b, r, i as u32 + 1))
        .collect();
    want.sort_unstable();
    assert_eq!(got, want, "{geom:?}: one ledger entry per page, sorted");
    let top: Vec<u32> = state.top_pages(pages.len()).iter().map(|p| p.ce).collect();
    let descending: Vec<u32> = (1..=pages.len() as u32).rev().collect();
    assert_eq!(top, descending, "{geom:?}");
}

#[test]
fn page_ledger_keeps_addresses_that_differ_only_in_high_bits() {
    // Channel, bank and row each differ from page (1, 1, 1) only above
    // bit 16, or, for the row, in its top bits.
    let rows = [(1, 1, 1), (1, 1, 1 + (1 << 31)), (1, 1, u32::MAX)];
    let wide_channels = Geometry {
        channels: (1 << 17) + 2,
        banks: 2,
        threshold: 255,
    };
    let mut pages = rows.to_vec();
    pages.extend([(1 + (1 << 16), 1, 1), (1 + (1 << 17), 1, 1)]);
    check_distinct_pages(wide_channels, &pages);
    let wide_banks = Geometry {
        channels: 2,
        banks: (1 << 18) + 2,
        threshold: 255,
    };
    let mut pages = rows.to_vec();
    pages.extend([
        (1, 1 + (1 << 16), 1),
        (1, 1 + (1 << 17), 1),
        (1, 1 + (1 << 18), 1),
    ]);
    check_distinct_pages(wide_banks, &pages);
}

#[test]
fn page_ledger_keeps_every_page_across_resizes() {
    // Every page count from 1 to 100 crosses each growth point of a small
    // ledger; 12,000 pages make one node's ledger large.
    let geom = Geometry::default();
    let page = |i: u32| (i % 8, (i / 8) % 16, i / 128);
    for n in (1..=100).chain([12_000]) {
        let pages: Vec<_> = (0..n).map(page).collect();
        check_distinct_pages(geom, &pages);
    }
}

#[test]
fn page_ledger_keeps_addresses_that_differ_in_one_field() {
    let geom = Geometry {
        channels: 64,
        banks: 64,
        threshold: 255,
    };
    let mut pages = vec![(0, 0, 0)];
    for i in 1..64 {
        pages.extend([(i, 0, 0), (0, i, 0), (0, 0, i)]);
    }
    // Channel and bank swapped, and a row equal to the bank.
    pages.extend([(1, 2, 7), (2, 1, 7), (1, 7, 2)]);
    check_distinct_pages(geom, &pages);
}

#[test]
fn page_ledger_keeps_hostile_rows_apart() {
    // Rows that agree in their low bits, as ids crafted against a hash
    // that keeps only low bits would.
    let geom = Geometry::default();
    let mut pages: Vec<(u32, u32, u32)> = (0..4096).map(|i| (3, 5, i << 20)).collect();
    pages.extend((1..32).map(|shift| (3, 5, 1 << shift | 1)));
    check_distinct_pages(geom, &pages);
}

#[test]
fn batch_apply_matches_line_by_line_with_ten_thousand_pages_on_one_node() {
    // Node ids come from `0..1` plus the two extremes, so node 0 takes
    // most of 24,000 events over about 640k page addresses.
    let state = line_by_line(
        Geometry::default(),
        &stream(
            300,
            &Mixture {
                geom: Geometry::default(),
                nodes: 1,
                rows: 5_000,
                max_count: 2,
            },
            24_000,
        ),
    )
    .0;
    let pages = state.snapshot(0).nodes[0].pages.len();
    assert!(pages >= 10_000, "{pages} pages on node 0");
    check(
        300,
        &Mixture {
            geom: Geometry::default(),
            nodes: 1,
            rows: 5_000,
            max_count: 2,
        },
        24_000,
    );
}
