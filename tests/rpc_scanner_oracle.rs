//! Generated oracle for the rpc scanner.
//!
//! `rpc::fast_event` parses compact event lines with a byte scanner and
//! `rpc::fast_route` picks a line's shard from its leading node id; both
//! shortcut `rpc::parse_tolerant`, the full JSON parse that defines
//! validity. This test renders seeded valid events, then mutates them:
//! reordered, duplicated, dropped and re-valued fields (numbers out of
//! range, negative, fractional, with leading zeros), inserted
//! whitespace, flipped bytes and truncation. On every line:
//!
//! - `parse_line` (scanner first, tolerant parse otherwise) answers
//!   exactly what the tolerant parse alone answers: the same accept or
//!   reject decision, and the same event;
//! - an event the scanner accepts is routed by `fast_route` to its node;
//! - a line `fast_route` routes and the tolerant parse accepts as an
//!   event names the node it was routed by.

mod common;

use common::Mix;
use eccparity_service::rpc::{
    fast_event, fast_route, parse_line, parse_tolerant, render_event, Event, Request,
    MAX_EVENT_COUNT,
};

/// A value drawn from the edges of `0..=max` or uniformly inside it.
fn edgy(rng: &mut Mix, max: u64) -> u64 {
    match rng.below(6) {
        0 => 0,
        1 => max,
        2 => rng.below(10),
        _ => rng.next() % max.saturating_add(1).max(1),
    }
}

fn event(rng: &mut Mix) -> Event {
    Event {
        node: edgy(rng, u64::MAX),
        channel: edgy(rng, u64::from(u32::MAX)) as u32,
        bank: edgy(rng, u64::from(u32::MAX)) as u32,
        row: edgy(rng, u64::from(u32::MAX)) as u32,
        count: if rng.below(2) == 0 {
            1
        } else {
            1 + edgy(rng, MAX_EVENT_COUNT - 1) as u32
        },
        bank_fault: rng.below(3) == 0,
    }
}

/// `ev` as `(key, value text)` fields in the order `render_event` writes.
fn fields(ev: &Event) -> Vec<(String, String)> {
    let mut f = vec![
        ("kind".to_string(), "\"event\"".to_string()),
        ("node".to_string(), ev.node.to_string()),
        ("channel".to_string(), ev.channel.to_string()),
        ("bank".to_string(), ev.bank.to_string()),
        ("row".to_string(), ev.row.to_string()),
    ];
    if ev.count != 1 {
        f.push(("count".to_string(), ev.count.to_string()));
    }
    if ev.bank_fault {
        f.push(("fault".to_string(), "\"bank\"".to_string()));
    }
    f
}

/// Value texts that break a field's range or form.
const BAD_NUMBERS: &[&str] = &[
    "4294967296",
    "18446744073709551616",
    "99999999999999999999999",
    "0",
    "4097",
    "-1",
    "1.5",
    "1e3",
    "007",
    "\"3\"",
    "null",
    "\"ce\"",
    "\"x\"",
];

fn mutate_fields(rng: &mut Mix, f: &mut Vec<(String, String)>) {
    let i = rng.below(f.len() as u64) as usize;
    match rng.below(5) {
        0 => {
            let j = rng.below(f.len() as u64) as usize;
            f.swap(i, j);
        }
        1 => {
            let (key, mut value) = f[i].clone();
            if rng.below(2) == 0 {
                value = rng.below(100).to_string();
            }
            let at = rng.below(f.len() as u64 + 1) as usize;
            f.insert(at, (key, value));
        }
        2 => {
            f.remove(i);
        }
        3 => f[i].1 = BAD_NUMBERS[rng.below(BAD_NUMBERS.len() as u64) as usize].to_string(),
        _ => {
            let extra = ["count", "fault"][rng.below(2) as usize];
            let value = ["1", "2", "\"bank\"", "\"ce\""][rng.below(4) as usize];
            f.push((extra.to_string(), value.to_string()));
        }
    }
}

/// Join fields into a line, with whitespace around tokens one time in
/// `1 / ws_rate`.
fn join(rng: &mut Mix, f: &[(String, String)], ws_rate: u64) -> Vec<u8> {
    let mut ws = |out: &mut String| {
        if ws_rate > 0 && rng.below(ws_rate) == 0 {
            out.push_str([" ", "\t", "  ", "\r"][rng.below(4) as usize]);
        }
    };
    let mut out = String::from("{");
    for (i, (key, value)) in f.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        ws(&mut out);
        out.push('"');
        out.push_str(key);
        out.push('"');
        ws(&mut out);
        out.push(':');
        ws(&mut out);
        out.push_str(value);
        ws(&mut out);
    }
    out.push('}');
    out.into_bytes()
}

fn mutate_bytes(rng: &mut Mix, line: &mut Vec<u8>) {
    if line.is_empty() {
        return;
    }
    let at = rng.below(line.len() as u64) as usize;
    match rng.below(4) {
        0 => line[at] ^= 1 << rng.below(8),
        1 => line[at] = rng.next() as u8,
        2 => line.truncate(at),
        _ => line.insert(at, b" 0,\":}{"[rng.below(7) as usize]),
    }
}

/// What the three parsers made of one line.
#[derive(Default)]
struct Tally {
    fast: u64,
    tolerant_only: u64,
    rejected: u64,
    routed_then_rejected: u64,
}

fn check(line: &[u8], tally: &mut Tally) {
    let text = String::from_utf8_lossy(line);
    let tolerant = parse_tolerant(line);
    assert_eq!(parse_line(line), tolerant, "{text}");
    let route = fast_route(line);
    if let Some(ev) = fast_event(line) {
        assert_eq!(route, Some(ev.node), "{text}");
        tally.fast += 1;
    } else if tolerant.is_ok() {
        tally.tolerant_only += 1;
    } else {
        tally.rejected += 1;
        tally.routed_then_rejected += u64::from(route.is_some());
    }
    if let (Some(node), Ok(Request::Event(ev))) = (route, &tolerant) {
        assert_eq!(
            ev.node, node,
            "routed by another node than it names: {text}"
        );
    }
}

#[test]
fn rendered_events_take_the_scanner_path() {
    let mut rng = Mix(1);
    for _ in 0..20_000 {
        let ev = event(&mut rng);
        let line = render_event(&ev);
        assert_eq!(join(&mut rng, &fields(&ev), 0), line.as_bytes());
        assert_eq!(fast_event(line.as_bytes()), Some(ev), "{line}");
        assert_eq!(fast_route(line.as_bytes()), Some(ev.node), "{line}");
        assert_eq!(
            parse_tolerant(line.as_bytes()),
            Ok(Request::Event(ev)),
            "{line}"
        );
    }
}

#[test]
fn mutated_lines_get_one_answer_from_every_path() {
    let mut rng = Mix(2);
    let mut tally = Tally::default();
    for case in 0..60_000 {
        let ev = event(&mut rng);
        let mut f = fields(&ev);
        for _ in 0..rng.below(3) {
            mutate_fields(&mut rng, &mut f);
        }
        let ws_rate = [0, 0, 3, 12][rng.below(4) as usize];
        let mut line = join(&mut rng, &f, ws_rate);
        if case % 3 == 0 {
            for _ in 0..1 + rng.below(2) {
                mutate_bytes(&mut rng, &mut line);
            }
        }
        check(&line, &mut tally);
    }
    let Tally {
        fast,
        tolerant_only,
        rejected,
        routed_then_rejected,
    } = tally;
    assert!(
        fast > 5_000 && tolerant_only > 5_000 && rejected > 5_000 && routed_then_rejected > 500,
        "every outcome is exercised: {fast} scanned, {tolerant_only} tolerant only, \
         {rejected} rejected ({routed_then_rejected} after routing)"
    );
}
