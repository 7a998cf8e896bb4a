//! `eccparity-rpc-v1`: the daemon's newline-delimited JSON wire protocol.
//!
//! One JSON object per line, in both directions. Two request kinds:
//!
//! * **events** (`"kind":"event"`) — fire-and-forget corrected-error /
//!   fault telemetry. Events get **no** response line; at the target
//!   ingest rates (≥1M events/s) a per-event acknowledgement would
//!   dominate the wire. Rejected events are counted
//!   (`service.events_rejected`) and visible through the `stats` query.
//! * **queries** (`"kind":"query"`) — request/response. Before a query
//!   executes, the connection's buffered events are flushed and a shard
//!   barrier drains them, so a query observes every event previously
//!   written on the same connection (read-your-writes).
//!
//! The hot ingest path never goes through the full JSON parser: a
//! compact-form event line (exactly what [`render_event`] and the
//! `loadgen` binary emit) is recognized by [`fast_event`] with a byte
//! scanner; anything else falls back to a tolerant [`serde_json`] parse.
//! The fallback accepts whitespace, reordered fields, and extra fields —
//! the scanner is an optimization, never the definition of validity.
//!
//! See `docs/SCHEMAS.md` § `eccparity-rpc-v1` for the field-by-field
//! reference with example payloads.

use serde_json::Value;

/// Schema stamp carried by every response line.
pub const RPC_SCHEMA: &str = "eccparity-rpc-v1";

/// Largest `count` an event may carry (coalesced repeat strikes); larger
/// values are rejected as malformed rather than looping the health table.
pub const MAX_EVENT_COUNT: u64 = 4096;

/// Largest `k` a `top_pages` query may request.
pub const MAX_TOP_K: u64 = 10_000;

/// One ingested telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Originating node (simulated DIMM/host).
    pub node: u64,
    /// Channel within the node.
    pub channel: u32,
    /// Logical bank within the channel.
    pub bank: u32,
    /// Row (page) within the bank.
    pub row: u32,
    /// Coalesced occurrence count (≥ 1).
    pub count: u32,
    /// `true`: a whole-bank fault diagnosis (pair marked faulty
    /// directly); `false`: an ordinary corrected error.
    pub bank_fault: bool,
}

/// One fleet-health query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Per-node UE-risk summary.
    NodeRisk {
        /// Node to report on.
        node: u64,
    },
    /// Whole-fleet SDC posture.
    Fleet,
    /// HARP-style top-K at-risk pages across the fleet.
    TopPages {
        /// How many pages to return.
        k: usize,
    },
    /// Per-region (per-channel) scheme recommendation for one node.
    Recommend {
        /// Node to report on.
        node: u64,
    },
    /// Daemon ingest/shard statistics (process-local, not persisted).
    Stats,
    /// Write a checkpoint journal now.
    Checkpoint,
    /// Checkpoint (when persistence is configured) and exit cleanly.
    Shutdown,
    /// Liveness probe.
    Ping,
    /// Turn this connection into an `eccparity-push-v1` posture-
    /// transition stream (see [`crate::push`]). After the ok response the
    /// connection receives push lines only, until the client closes it.
    Subscribe,
}

/// A parsed request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Telemetry to ingest.
    Event(Event),
    /// A query to answer.
    Query(Query),
}

// ---- line splitting --------------------------------------------------------

/// Offset of the first `\n` in `bytes`, searched eight bytes at a time.
///
/// Each little-endian word is XORed with `\n` in every byte, so a newline
/// becomes a zero byte, and `(x - 0x01…01) & !x & 0x80…80` flags it. The
/// subtraction's borrow can flag bytes *above* a zero byte too, never
/// below one, so the lowest flag is always the first newline. The tail
/// shorter than a word is searched byte by byte.
#[inline]
pub(crate) fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")) ^ NEWLINES;
        let hit = x.wrapping_sub(ONES) & !x & HIGHS;
        if hit != 0 {
            return Some(at + (hit.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// The non-empty lines of a shard batch, newlines stripped: what
/// `batch.split(|&b| b == b'\n').filter(|l| !l.is_empty())` yields, found
/// with [`find_newline`].
pub(crate) fn batch_lines(batch: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = batch;
    std::iter::from_fn(move || loop {
        if rest.is_empty() {
            return None;
        }
        let end = find_newline(rest).unwrap_or(rest.len());
        let line = &rest[..end];
        rest = &rest[(end + 1).min(rest.len())..];
        if !line.is_empty() {
            return Some(line);
        }
    })
}

// ---- fast path -------------------------------------------------------------

/// Single-pass cursor over a compact-form line. Every helper either
/// consumes exactly what it claims or leaves the caller to bail out to
/// the tolerant parser — the scanner never guesses.
struct Scan<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Scan<'a> {
    /// Consume `lit` if it is next; `false` leaves the cursor in place.
    #[inline]
    fn lit(&mut self, lit: &[u8]) -> bool {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    /// Consume a decimal integer (checked, so `u64::MAX` parses and
    /// anything larger bails to the tolerant path).
    #[inline]
    fn u64(&mut self) -> Option<u64> {
        let start = self.i;
        let mut v: u64 = 0;
        while let Some(d) = self.s.get(self.i).filter(|b| b.is_ascii_digit()) {
            v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.i += 1;
        }
        (self.i > start).then_some(v)
    }

    #[inline]
    fn done(&self) -> bool {
        self.i == self.s.len()
    }
}

/// The opening every compact-form event line starts with; field order is
/// fixed (it is exactly what [`render_event`] emits).
const COMPACT_PREFIX: &[u8] = b"{\"kind\":\"event\",\"node\":";

/// Cheap routing probe: is this a compact-form event line, and if so for
/// which node? The connection reader uses this to pick the owning shard
/// without a full parse; the shard then parses the line authoritatively.
pub fn fast_route(line: &[u8]) -> Option<u64> {
    let mut sc = Scan { s: line, i: 0 };
    if !sc.lit(COMPACT_PREFIX) {
        return None;
    }
    sc.u64()
}

/// Full scanner parse of a compact-form event line — one left-to-right
/// pass over the fixed field order. Returns `None` for anything it is
/// not *sure* about; the caller then falls back to [`parse_line`]'s
/// tolerant path, which is the definition of validity.
pub fn fast_event(line: &[u8]) -> Option<Event> {
    let mut sc = Scan { s: line, i: 0 };
    if !sc.lit(COMPACT_PREFIX) {
        return None;
    }
    let node = sc.u64()?;
    if !sc.lit(b",\"channel\":") {
        return None;
    }
    let channel = u32::try_from(sc.u64()?).ok()?;
    if !sc.lit(b",\"bank\":") {
        return None;
    }
    let bank = u32::try_from(sc.u64()?).ok()?;
    if !sc.lit(b",\"row\":") {
        return None;
    }
    let row = u32::try_from(sc.u64()?).ok()?;
    let count = if sc.lit(b",\"count\":") {
        let c = sc.u64()?;
        if c == 0 || c > MAX_EVENT_COUNT {
            return None;
        }
        c as u32
    } else {
        1
    };
    let bank_fault = sc.lit(b",\"fault\":\"bank\"");
    if !sc.lit(b"}") || !sc.done() {
        return None;
    }
    Some(Event {
        node,
        channel,
        bank,
        row,
        count,
        bank_fault,
    })
}

// ---- tolerant path ---------------------------------------------------------

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn event_from_value(v: &Value) -> Result<Event, String> {
    let count = match v.get("count") {
        None => 1,
        Some(c) => {
            let c = c.as_u64().ok_or("count must be an integer")?;
            if c == 0 || c > MAX_EVENT_COUNT {
                return Err(format!("count must be in 1..={MAX_EVENT_COUNT}"));
            }
            c as u32
        }
    };
    let bank_fault = match v.get("fault").and_then(Value::as_str) {
        None => false,
        Some("bank") => true,
        Some("ce") => false,
        Some(other) => return Err(format!("unknown fault kind {other:?}")),
    };
    let narrow = |name: &str, val: u64| -> Result<u32, String> {
        u32::try_from(val).map_err(|_| format!("{name} out of range"))
    };
    Ok(Event {
        node: field_u64(v, "node")?,
        channel: narrow("channel", field_u64(v, "channel")?)?,
        bank: narrow("bank", field_u64(v, "bank")?)?,
        row: narrow("row", field_u64(v, "row")?)?,
        count,
        bank_fault,
    })
}

fn query_from_value(v: &Value) -> Result<Query, String> {
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("query is missing string field \"op\"")?;
    Ok(match op {
        "node_risk" => Query::NodeRisk {
            node: field_u64(v, "node")?,
        },
        "fleet" => Query::Fleet,
        "top_pages" => {
            let k = match v.get("k") {
                None => 10,
                Some(k) => {
                    let k = k.as_u64().ok_or("k must be an integer")?;
                    if k == 0 || k > MAX_TOP_K {
                        return Err(format!("k must be in 1..={MAX_TOP_K}"));
                    }
                    k as usize
                }
            };
            Query::TopPages { k }
        }
        "recommend" => Query::Recommend {
            node: field_u64(v, "node")?,
        },
        "stats" => Query::Stats,
        "checkpoint" => Query::Checkpoint,
        "shutdown" => Query::Shutdown,
        "ping" => Query::Ping,
        "subscribe" => Query::Subscribe,
        other => return Err(format!("unknown op {other:?}")),
    })
}

/// Parse one request line: scanner fast path first, tolerant JSON parse
/// otherwise. Errors describe what was malformed (for the error response
/// and the failure ledger; the line itself is never echoed back).
pub fn parse_line(line: &[u8]) -> Result<Request, String> {
    match fast_event(line) {
        Some(ev) => Ok(Request::Event(ev)),
        None => parse_tolerant(line),
    }
}

/// The event a line routed to a shard carries: [`parse_line`]'s event, or
/// `None` for a query or a malformed line (both rejected as parse
/// failures by the shard).
pub(crate) fn parse_event(line: &[u8]) -> Option<Event> {
    match parse_line(line) {
        Ok(Request::Event(ev)) => Some(ev),
        _ => None,
    }
}

/// The tolerant path alone: a full JSON parse of any request line. This
/// is the definition of validity that [`fast_event`] and [`fast_route`]
/// shortcut.
pub fn parse_tolerant(line: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(line).map_err(|_| "line is not UTF-8".to_string())?;
    let v: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
    match v.get("kind").and_then(Value::as_str) {
        Some("event") => event_from_value(&v).map(Request::Event),
        Some("query") => query_from_value(&v).map(Request::Query),
        Some(other) => Err(format!("unknown kind {other:?}")),
        None => Err("missing string field \"kind\"".to_string()),
    }
}

// ---- rendering -------------------------------------------------------------

/// Render an event in the compact form [`fast_event`] recognizes.
pub fn render_event(ev: &Event) -> String {
    let mut s = format!(
        "{{\"kind\":\"event\",\"node\":{},\"channel\":{},\"bank\":{},\"row\":{}",
        ev.node, ev.channel, ev.bank, ev.row
    );
    if ev.count != 1 {
        s.push_str(&format!(",\"count\":{}", ev.count));
    }
    if ev.bank_fault {
        s.push_str(",\"fault\":\"bank\"");
    }
    s.push('}');
    s
}

/// Render a query line (the client side of the protocol; `loadgen` and
/// the tests use this).
pub fn render_query(q: &Query) -> String {
    match q {
        Query::NodeRisk { node } => {
            format!("{{\"kind\":\"query\",\"op\":\"node_risk\",\"node\":{node}}}")
        }
        Query::Fleet => "{\"kind\":\"query\",\"op\":\"fleet\"}".to_string(),
        Query::TopPages { k } => format!("{{\"kind\":\"query\",\"op\":\"top_pages\",\"k\":{k}}}"),
        Query::Recommend { node } => {
            format!("{{\"kind\":\"query\",\"op\":\"recommend\",\"node\":{node}}}")
        }
        Query::Stats => "{\"kind\":\"query\",\"op\":\"stats\"}".to_string(),
        Query::Checkpoint => "{\"kind\":\"query\",\"op\":\"checkpoint\"}".to_string(),
        Query::Shutdown => "{\"kind\":\"query\",\"op\":\"shutdown\"}".to_string(),
        Query::Ping => "{\"kind\":\"query\",\"op\":\"ping\"}".to_string(),
        Query::Subscribe => "{\"kind\":\"query\",\"op\":\"subscribe\"}".to_string(),
    }
}

/// The deterministic state-query suite behind `eccparity-loadgen
/// --queries`, for a stream over `nodes` node ids: liveness, the fleet
/// view, the top 50 pages, then `node_risk` and `recommend` for node 0,
/// the middle and last node, and one node the stream never names. It
/// asks no `stats`: those process-local counters differ between a fresh
/// daemon and a resumed one even when the fleet state is identical, so
/// two engines holding the same state answer this suite byte for byte.
pub fn query_suite(nodes: u64) -> Vec<Query> {
    let mut suite = vec![Query::Ping, Query::Fleet, Query::TopPages { k: 50 }];
    for node in [0, nodes / 2, nodes.saturating_sub(1), nodes + 7] {
        suite.push(Query::NodeRisk { node });
        suite.push(Query::Recommend { node });
    }
    suite
}

/// Append a JSON string literal (with escaping) to `out`.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A success response: `result_json` must already be rendered JSON.
/// `degraded` is `true` when at least one shard was quarantined while
/// the query was answered — the result may be missing events applied
/// after the last checkpoint on those shards (see
/// `docs/OPERATIONS.md` § Failure modes and degraded operation).
pub fn ok_response(op: &str, degraded: bool, result_json: &str) -> String {
    let mut s = String::with_capacity(96 + result_json.len());
    ok_response_open(&mut s, op, degraded);
    s.push_str(result_json);
    ok_response_close(&mut s);
    s
}

/// Append a success envelope up to (and including) `"result":` — the
/// caller renders the result JSON straight into `out` and finishes with
/// [`ok_response_close`]. This open/render/close split is what lets the
/// per-connection response buffer be reused without an intermediate
/// `String` per reply.
pub fn ok_response_open(out: &mut String, op: &str, degraded: bool) {
    out.push_str("{\"schema\":\"");
    out.push_str(RPC_SCHEMA);
    out.push_str("\",\"ok\":true,\"op\":\"");
    out.push_str(op);
    out.push_str("\",\"degraded\":");
    out.push_str(if degraded { "true" } else { "false" });
    out.push_str(",\"result\":");
}

/// Close a success envelope opened by [`ok_response_open`].
pub fn ok_response_close(out: &mut String) {
    out.push('}');
}

/// An error response.
pub fn error_response(msg: &str) -> String {
    let mut s = String::with_capacity(64 + msg.len());
    error_response_into(&mut s, msg);
    s
}

/// Append an error response to a reused buffer.
pub fn error_response_into(out: &mut String, msg: &str) {
    out.push_str("{\"schema\":\"");
    out.push_str(RPC_SCHEMA);
    out.push_str("\",\"ok\":false,\"error\":");
    push_json_str(out, msg);
    out.push('}');
}

/// A structured refusal: an error response carrying a machine-readable
/// `code` (`"oversized"`, `"overloaded"`, …) so abuse-defense rejections
/// can be asserted on without string-matching the human text.
pub fn refusal_response(code: &str, msg: &str) -> String {
    let mut s = String::with_capacity(80 + msg.len());
    refusal_response_into(&mut s, code, msg);
    s
}

/// Append a structured refusal to a reused buffer.
pub fn refusal_response_into(out: &mut String, code: &str, msg: &str) {
    out.push_str("{\"schema\":\"");
    out.push_str(RPC_SCHEMA);
    out.push_str("\",\"ok\":false,\"code\":");
    push_json_str(out, code);
    out.push_str(",\"error\":");
    push_json_str(out, msg);
    out.push('}');
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `\n` and the bytes a word-at-a-time search can mistake for it: its
    /// high-bit twin, its neighbours, and the extremes.
    const NEAR_NEWLINE: [u8; 6] = [0x0A, 0x8A, 0x0B, 0x09, 0x00, 0xFF];

    /// Buffers of every length 0..=64 built from [`NEAR_NEWLINE`]: with no
    /// newline, with one newline at each position, and with a rotating
    /// mix of all six bytes.
    pub(crate) fn newline_buffers() -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for len in 0..=64usize {
            out.push((0..len).map(|i| NEAR_NEWLINE[1 + i % 5]).collect());
            for nl in 0..len {
                let mut buf: Vec<u8> = (0..len).map(|i| NEAR_NEWLINE[1 + (i + len) % 5]).collect();
                buf[nl] = b'\n';
                out.push(buf);
            }
            out.push((0..len).map(|i| NEAR_NEWLINE[(i * 7 + len) % 6]).collect());
        }
        out
    }

    /// The splitter this crate used before [`batch_lines`].
    fn split_nonempty(batch: &[u8]) -> Vec<&[u8]> {
        batch
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect()
    }

    fn check_newline_search(bytes: &[u8]) {
        assert_eq!(
            find_newline(bytes),
            bytes.iter().position(|&b| b == b'\n'),
            "{bytes:02x?}"
        );
        assert_eq!(
            batch_lines(bytes).collect::<Vec<_>>(),
            split_nonempty(bytes),
            "{bytes:02x?}"
        );
    }

    #[test]
    fn newline_search_matches_position_at_every_length_and_alignment() {
        for buf in newline_buffers() {
            // The same bytes starting at each offset of an 8-byte word.
            for align in 0..8 {
                let mut backing = vec![0xA5; align];
                backing.extend_from_slice(&buf);
                check_newline_search(&backing[align..]);
            }
        }
    }

    proptest! {
        #[test]
        fn newline_search_matches_position_on_random_buffers(
            picks in prop::collection::vec((0u8..10, any::<u8>()), 0..300),
            align in 0usize..8,
        ) {
            // Mostly newline-adjacent bytes, with arbitrary ones mixed in.
            let mut backing = vec![0x5A; align];
            backing.extend(picks.iter().map(|&(which, byte)| {
                NEAR_NEWLINE.get(usize::from(which)).copied().unwrap_or(byte)
            }));
            check_newline_search(&backing[align..]);
        }
    }

    #[test]
    fn fast_and_tolerant_paths_agree() {
        let cases = [
            Event {
                node: 0,
                channel: 0,
                bank: 0,
                row: 0,
                count: 1,
                bank_fault: false,
            },
            Event {
                node: 18_446_744_073_709_551_615,
                channel: 7,
                bank: 15,
                row: 1_048_575,
                count: 4096,
                bank_fault: false,
            },
            Event {
                node: 42,
                channel: 3,
                bank: 9,
                row: 512,
                count: 1,
                bank_fault: true,
            },
        ];
        for ev in cases {
            let line = render_event(&ev);
            assert_eq!(fast_event(line.as_bytes()), Some(ev), "{line}");
            assert_eq!(fast_route(line.as_bytes()), Some(ev.node), "{line}");
            assert_eq!(
                parse_line(line.as_bytes()),
                Ok(Request::Event(ev)),
                "{line}"
            );
        }
    }

    #[test]
    fn tolerant_path_accepts_reordered_and_spaced_fields() {
        let line = br#"{ "row": 7, "kind": "event", "bank": 2, "node": 5, "channel": 1 }"#;
        assert_eq!(fast_event(line), None, "not compact form");
        assert_eq!(
            parse_line(line),
            Ok(Request::Event(Event {
                node: 5,
                channel: 1,
                bank: 2,
                row: 7,
                count: 1,
                bank_fault: false,
            }))
        );
    }

    #[test]
    fn malformed_lines_error_without_panicking() {
        let bad: &[&[u8]] = &[
            b"",
            b"not json at all",
            b"{\"kind\":\"event\"}",
            b"{\"kind\":\"event\",\"node\":1,\"channel\":0,\"bank\":0,\"row\":0,\"count\":0}",
            b"{\"kind\":\"event\",\"node\":1,\"channel\":0,\"bank\":0,\"row\":0,\"count\":999999}",
            b"{\"kind\":\"event\",\"node\":1,\"channel\":4294967296,\"bank\":0,\"row\":0}",
            b"{\"kind\":\"query\"}",
            b"{\"kind\":\"query\",\"op\":\"warp-core\"}",
            b"{\"kind\":\"mystery\"}",
            b"{\"node\":1}",
            b"\xff\xfe",
        ];
        for line in bad {
            assert!(
                parse_line(line).is_err(),
                "{:?}",
                String::from_utf8_lossy(line)
            );
        }
    }

    #[test]
    fn query_round_trip() {
        let qs = [
            Query::NodeRisk { node: 9 },
            Query::Fleet,
            Query::TopPages { k: 25 },
            Query::Recommend { node: 3 },
            Query::Stats,
            Query::Checkpoint,
            Query::Shutdown,
            Query::Ping,
            Query::Subscribe,
        ];
        for q in qs {
            let line = render_query(&q);
            assert_eq!(parse_line(line.as_bytes()), Ok(Request::Query(q)), "{line}");
        }
    }

    #[test]
    fn responses_escape_error_text() {
        let resp = error_response("bad \"quote\"\nnewline");
        let v: Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(v["schema"].as_str(), Some(RPC_SCHEMA));
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["error"].as_str(), Some("bad \"quote\"\nnewline"));
    }

    #[test]
    fn ok_envelope_carries_degraded_stamp() {
        for degraded in [false, true] {
            let resp = ok_response("fleet", degraded, "{\"nodes\":3}");
            let v: Value = serde_json::from_str(&resp).unwrap();
            assert_eq!(v["ok"].as_bool(), Some(true));
            assert_eq!(v["degraded"].as_bool(), Some(degraded));
            assert_eq!(v["result"]["nodes"].as_u64(), Some(3));
        }
    }

    #[test]
    fn refusals_carry_a_machine_readable_code() {
        let resp = refusal_response("oversized", "line exceeds 1048576 bytes");
        let v: Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["code"].as_str(), Some("oversized"));
        assert!(v["error"].as_str().unwrap().contains("1048576"));
    }
}
