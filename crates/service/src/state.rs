//! Per-node and per-shard fleet health state.
//!
//! Each simulated node (DIMM/host) carries the paper's [`HealthTable`]
//! plus the page-granular corrected-error counts the HARP-style top-K
//! query needs. Nodes are partitioned across shards by `node % shards`;
//! a shard owns its partition exclusively (actor-per-shard, no locks),
//! so per-node event ordering is total and the merged fleet state is
//! independent of the shard count.

use crate::push::{Tier, Transition};
use crate::rpc::Event;
use ecc_parity::health::{HealthAction, HealthTable};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

/// Fleet-wide node geometry: every node's health table has this shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Channels per node.
    pub channels: u32,
    /// Logical banks per channel (must be even).
    pub banks: u32,
    /// Pair-migration threshold (paper default 4).
    pub threshold: u8,
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry {
            channels: 8,
            banks: 16,
            threshold: 4,
        }
    }
}

impl Geometry {
    /// Identity string stamped into the checkpoint journal header; a
    /// journal written under a different geometry is refused on resume.
    pub fn config_key(&self) -> String {
        format!(
            "eccparity-rpc-v1|channels={}|banks={}|threshold={}",
            self.channels, self.banks, self.threshold
        )
    }

    /// The geometry a [`Geometry::config_key`] names, if `key` is one.
    pub fn from_config_key(key: &str) -> Option<Geometry> {
        let rest = key.strip_prefix("eccparity-rpc-v1|channels=")?;
        let (channels, rest) = rest.split_once("|banks=")?;
        let (banks, threshold) = rest.split_once("|threshold=")?;
        let geom = Geometry {
            channels: channels.parse().ok()?,
            banks: banks.parse().ok()?,
            threshold: threshold.parse().ok()?,
        };
        (geom.config_key() == key).then_some(geom)
    }
}

/// Risk score at which a node counts as "at risk" in the fleet posture.
pub const AT_RISK_PPM: u64 = 500_000;

/// One node's health state.
#[derive(Debug, Clone)]
pub struct NodeHealth {
    /// The paper's bank-pair table (counters, faulty marks, retired pages).
    table: HealthTable,
    /// Events ingested for this node (persisted, so restarted daemons
    /// answer fleet queries identically).
    events: u64,
    /// Per-page corrected-error counts, keyed `(channel, bank, row)`.
    /// BTreeMap so snapshots and top-K walks are deterministically ordered.
    pages: BTreeMap<(u32, u32, u32), u32>,
    /// Largest count in `pages` (0 when empty) — lets `top_pages` skip a
    /// node whose best page cannot enter the current top-K. Derived
    /// state: never persisted, re-derived from `pages` on restore.
    max_ce: u32,
    /// Posture tier after the last applied event — the push channel's
    /// transition edge detector. Derived state: never persisted, and
    /// re-derived from `risk_ppm` on restore.
    tier: Tier,
}

impl NodeHealth {
    fn new(geom: Geometry) -> NodeHealth {
        NodeHealth {
            table: HealthTable::new(geom.channels as usize, geom.banks as usize, geom.threshold),
            events: 0,
            pages: BTreeMap::new(),
            max_ce: 0,
            tier: Tier::Nominal,
        }
    }

    /// Apply one validated event (caller has bounds-checked channel/bank).
    fn apply(&mut self, ev: &Event) {
        self.events += u64::from(ev.count);
        let (ch, bank) = (ev.channel as usize, ev.bank as usize);
        if ev.bank_fault {
            let pair = self.table.pair_of(ch, bank);
            self.table.mark_faulty(pair);
            return;
        }
        let ce = self.pages.entry((ev.channel, ev.bank, ev.row)).or_insert(0);
        *ce += ev.count;
        self.max_ce = self.max_ce.max(*ce);
        for _ in 0..ev.count {
            match self.table.record_error(ch, bank) {
                HealthAction::RetirePage => self.table.retire_page(ch, bank, ev.row),
                HealthAction::MigratePair | HealthAction::AlreadyFaulty => {}
            }
        }
    }

    /// Deterministic integer UE-risk score in parts-per-million.
    ///
    /// Migrated pairs dominate (the node already burned through its
    /// parity protection somewhere), retired pages and counter pressure
    /// (non-migrated pairs walking toward the threshold) add linearly,
    /// saturating at 1.0.
    pub fn risk_ppm(&self) -> u64 {
        let (faulty, retired, pressure) = self.risk_inputs();
        risk_from(faulty, retired, pressure)
    }

    /// `(faulty pairs, retired pages, counter pressure)`, each read once.
    fn risk_inputs(&self) -> (u64, u64, u64) {
        (
            self.table.faulty_pair_count() as u64,
            self.table.retired_count() as u64,
            self.table.active_counter_sum(),
        )
    }

    fn view(&self, node: u64) -> NodeView {
        let (faulty_pairs, retired_pages, active_counter_sum) = self.risk_inputs();
        NodeView {
            node,
            risk_ppm: risk_from(faulty_pairs, retired_pages, active_counter_sum),
            events: self.events,
            faulty_pairs,
            retired_pages,
            active_counter_sum,
        }
    }

    /// Per-channel scheme recommendation (the Luo-style adaptive-capacity
    /// dual of the paper's parity trade): clean regions can reclaim their
    /// ECC capacity, pressured regions should pre-emptively migrate.
    fn recommend(&self, geom: Geometry) -> Vec<RegionRec> {
        (0..geom.channels as usize)
            .map(|ch| {
                let action = if self.table.channel_has_faulty_pair(ch) {
                    // Already migrated: correction bits live in memory.
                    "stored-ecc"
                } else if self.table.max_active_counter_in_channel(ch) + 1 >= geom.threshold {
                    // One more error migrates the pair — do it now, off
                    // the critical path (HARP-style prediction).
                    "premigrate"
                } else if self.table.max_active_counter_in_channel(ch) > 0
                    || self.table.retired_count_in_channel(ch) > 0
                {
                    // Active but below threshold: the paper's scheme is
                    // exactly right here.
                    "ecc-parity"
                } else {
                    // Clean and cold: reclaim the ECC capacity.
                    "reclaim"
                };
                RegionRec {
                    channel: ch as u32,
                    action,
                }
            })
            .collect()
    }
}

/// The [`NodeHealth::risk_ppm`] formula over its three inputs.
fn risk_from(faulty: u64, retired: u64, pressure: u64) -> u64 {
    (250_000 * faulty + 25_000 * retired + 10_000 * pressure).min(1_000_000)
}

/// Rendered per-node summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView {
    /// Node id.
    pub node: u64,
    /// [`NodeHealth::risk_ppm`].
    pub risk_ppm: u64,
    /// Events ingested for this node.
    pub events: u64,
    /// Migrated pairs.
    pub faulty_pairs: u64,
    /// Retired pages.
    pub retired_pages: u64,
    /// Counter pressure on non-migrated pairs.
    pub active_counter_sum: u64,
}

/// One channel's scheme recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionRec {
    /// Channel index.
    pub channel: u32,
    /// `"reclaim"`, `"ecc-parity"`, `"premigrate"`, or `"stored-ecc"`.
    pub action: &'static str,
}

/// One at-risk page (the HARP-style query's unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRisk {
    /// Owning node.
    pub node: u64,
    /// Channel.
    pub channel: u32,
    /// Bank.
    pub bank: u32,
    /// Row (page).
    pub row: u32,
    /// Corrected errors observed on the page.
    pub ce: u32,
    /// Has the page already been retired?
    pub retired: bool,
}

/// Sort key `(Reverse(ce), node, channel, bank, row)`: most errors
/// first, then lowest address — total and deterministic, so merged top-K
/// lists are stable across shard counts.
type PageKey = (Reverse<u32>, u64, u32, u32, u32);

fn page_key(p: &PageRisk) -> PageKey {
    (Reverse(p.ce), p.node, p.channel, p.bank, p.row)
}

/// Merge per-shard top-K lists into the fleet top-K.
pub fn merge_top_pages(mut lists: Vec<Vec<PageRisk>>, k: usize) -> Vec<PageRisk> {
    let mut all: Vec<PageRisk> = lists.drain(..).flatten().collect();
    all.sort_by_key(page_key);
    all.truncate(k);
    all
}

/// Additive fleet aggregates from one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardAgg {
    /// Nodes this shard owns.
    pub nodes: u64,
    /// Sum of per-node (persisted) event counts.
    pub events: u64,
    /// Migrated pairs across the shard's nodes.
    pub faulty_pairs: u64,
    /// Retired pages across the shard's nodes.
    pub retired_pages: u64,
    /// Counter pressure across the shard's nodes.
    pub active_counter_sum: u64,
    /// Nodes with [`NodeHealth::risk_ppm`] ≥ [`AT_RISK_PPM`].
    pub at_risk_nodes: u64,
    /// Events applied by this shard this process-run (not persisted).
    pub applied: u64,
    /// Lines this shard rejected this process-run (not persisted).
    pub rejected: u64,
    /// Rejected lines that failed to parse (⊆ `rejected`).
    pub rejected_parse: u64,
    /// Rejected events whose channel/bank fell outside the geometry
    /// (⊆ `rejected`).
    pub rejected_geometry: u64,
}

impl ShardAgg {
    /// Sum two aggregates.
    pub fn merge(&mut self, o: &ShardAgg) {
        self.nodes += o.nodes;
        self.events += o.events;
        self.faulty_pairs += o.faulty_pairs;
        self.retired_pages += o.retired_pages;
        self.active_counter_sum += o.active_counter_sum;
        self.at_risk_nodes += o.at_risk_nodes;
        self.applied += o.applied;
        self.rejected += o.rejected;
        self.rejected_parse += o.rejected_parse;
        self.rejected_geometry += o.rejected_geometry;
    }

    /// Fleet SDC posture from the merged aggregate: `"nominal"` (no
    /// migrations, nobody at risk), `"degraded"` (some), `"critical"`
    /// (≥ 10% of nodes at risk).
    pub fn posture(&self) -> &'static str {
        if self.nodes > 0 && self.at_risk_nodes * 10 >= self.nodes {
            "critical"
        } else if self.faulty_pairs > 0 || self.at_risk_nodes > 0 {
            "degraded"
        } else {
            "nominal"
        }
    }
}

// ---- snapshots (checkpoint payloads) ---------------------------------------
//
// A checkpoint payload is one shard's `ShardSnapshot` as compact JSON of one
// fixed shape (field order as written, no whitespace):
//
//   {"shard":S,"nodes":[NODE,...]}
//   NODE   = {"node":N,"events":E,"pages":[PAGE,...],"health":HEALTH}
//   PAGE   = {"channel":C,"bank":B,"row":R,"count":K}
//   HEALTH = {"channels":C,"pairs_per_channel":P,"threshold":T,
//             "counters":[u8,...],"faulty":[bool,...],"retired":[[c,b,r],...]}
//
// Nodes ascend by id, pages by (channel, bank, row), and retired pages in
// `retired_text_order`. `ShardSnapshot::encode` writes exactly these bytes;
// `ShardSnapshot::decode` accepts exactly these bytes — the canonical form
// of a state that fits the daemon's geometry — and nothing else.

/// One page-count entry of a node snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCount {
    /// Channel.
    pub channel: u32,
    /// Bank.
    pub bank: u32,
    /// Row.
    pub row: u32,
    /// Corrected errors observed.
    pub count: u32,
}

/// One node of a checkpoint payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Node id.
    pub node: u64,
    /// Persisted event count.
    pub events: u64,
    /// Page CE counts, sorted by `(channel, bank, row)`.
    pub pages: Vec<PageCount>,
    /// The node's health table.
    pub health: HealthTable,
}

/// One shard's partition: the unit of a checkpoint payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index at checkpoint time (informational; resume repartitions
    /// by `node % shards` for whatever shard count the daemon restarts
    /// with).
    pub shard: u64,
    /// The shard's nodes, sorted by node id.
    pub nodes: Vec<NodeSnapshot>,
}

/// Number of decimal digits of `v`.
fn digits(v: u64) -> u32 {
    v.checked_ilog10().unwrap_or(0) + 1
}

/// Compare two integers as decimal text, byte by byte: a proper prefix
/// sorts first, so `10` < `9` and `1` < `10`.
fn dec_text_cmp(a: u64, b: u64) -> Ordering {
    let (da, db) = (digits(a), digits(b));
    let width = da.max(db);
    let scaled = |v: u64, d: u32| u128::from(v) * 10u128.pow(width - d);
    scaled(a, da).cmp(&scaled(b, db)).then(da.cmp(&db))
}

/// The order a payload lists retired pages in: channel, bank, then row,
/// each compared as decimal text, so `[5,4,10370]` precedes `[5,4,7087]`.
/// It is the order of the journal's original serde writer, which sorted
/// the set by rendered element; keeping it keeps existing journals
/// byte-identical.
fn retired_text_order(a: &(usize, usize, u32), b: &(usize, usize, u32)) -> Ordering {
    dec_text_cmp(a.0 as u64, b.0 as u64)
        .then_with(|| dec_text_cmp(a.1 as u64, b.1 as u64))
        .then_with(|| dec_text_cmp(u64::from(a.2), u64::from(b.2)))
}

/// Append `v` in decimal.
fn push_uint(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Append `[f(x0),f(x1),...]`.
fn push_list<T>(out: &mut String, items: &[T], mut f: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        f(out, item);
    }
    out.push(']');
}

fn push_node(out: &mut String, n: &NodeSnapshot) {
    out.push_str("{\"node\":");
    push_uint(out, n.node);
    out.push_str(",\"events\":");
    push_uint(out, n.events);
    out.push_str(",\"pages\":");
    push_list(out, &n.pages, |out, p| {
        out.push_str("{\"channel\":");
        push_uint(out, u64::from(p.channel));
        out.push_str(",\"bank\":");
        push_uint(out, u64::from(p.bank));
        out.push_str(",\"row\":");
        push_uint(out, u64::from(p.row));
        out.push_str(",\"count\":");
        push_uint(out, u64::from(p.count));
        out.push('}');
    });
    let h = &n.health;
    out.push_str(",\"health\":{\"channels\":");
    push_uint(out, h.channels() as u64);
    out.push_str(",\"pairs_per_channel\":");
    push_uint(out, h.pairs_per_channel() as u64);
    out.push_str(",\"threshold\":");
    push_uint(out, u64::from(h.threshold()));
    out.push_str(",\"counters\":");
    push_list(out, h.counters(), |out, &c| push_uint(out, u64::from(c)));
    out.push_str(",\"faulty\":");
    push_list(out, h.faulty_flags(), |out, &f| {
        out.push_str(if f { "true" } else { "false" })
    });
    out.push_str(",\"retired\":");
    let mut retired: Vec<(usize, usize, u32)> = h.retired().iter().copied().collect();
    retired.sort_unstable_by(retired_text_order);
    push_list(out, &retired, |out, &(ch, bank, row)| {
        out.push('[');
        push_uint(out, ch as u64);
        out.push(',');
        push_uint(out, bank as u64);
        out.push(',');
        push_uint(out, u64::from(row));
        out.push(']');
    });
    out.push_str("}}");
}

/// Single-pass reader of the canonical payload form.
struct Decoder<'a> {
    b: &'a [u8],
    pos: usize,
}

/// A refusal: the byte offset of the offending value and the rule it broke.
fn refuse<T>(at: usize, reason: impl std::fmt::Display) -> Result<T, String> {
    Err(format!("byte {at}: {reason}"))
}

impl Decoder<'_> {
    /// Consume `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.b.get(self.pos) == Some(&c);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume exactly `lit`.
    fn lit(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            refuse(self.pos, format!("expected `{lit}`"))
        }
    }

    /// A decimal integer in `0..=max`, without sign or leading zeros.
    fn uint(&mut self, max: u64) -> Result<u64, String> {
        let start = self.pos;
        let mut v = 0u64;
        while let Some(d) = self.b.get(self.pos).filter(|c| c.is_ascii_digit()) {
            v = match v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
            {
                Some(v) if v <= max => v,
                _ => return refuse(start, format!("number above {max}")),
            };
            self.pos += 1;
        }
        match self.pos - start {
            0 => refuse(start, "expected a number"),
            n if n > 1 && self.b[start] == b'0' => refuse(start, "leading zero"),
            _ => Ok(v),
        }
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.uint(u64::from(u32::MAX)).map(|v| v as u32)
    }

    fn bool(&mut self) -> Result<bool, String> {
        if self.b[self.pos..].starts_with(b"true") {
            self.pos += 4;
            Ok(true)
        } else {
            self.lit("false").map(|()| false)
        }
    }

    /// `[item,...]` or `[]`, calling `item` once per element.
    fn list(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.lit("[")?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat(b',') {
                return self.lit("]");
            }
        }
    }

    fn node(&mut self, geom: Geometry) -> Result<NodeSnapshot, String> {
        self.lit("{\"node\":")?;
        let node = self.uint(u64::MAX)?;
        self.lit(",\"events\":")?;
        let events = self.uint(u64::MAX)?;
        self.lit(",\"pages\":")?;
        let mut pages: Vec<PageCount> = Vec::new();
        self.list(|d| {
            let at = d.pos;
            d.lit("{\"channel\":")?;
            let channel = d.u32()?;
            d.lit(",\"bank\":")?;
            let bank = d.u32()?;
            d.lit(",\"row\":")?;
            let row = d.u32()?;
            d.lit(",\"count\":")?;
            let count = d.u32()?;
            d.lit("}")?;
            if channel >= geom.channels || bank >= geom.banks {
                return refuse(at, "page outside the geometry");
            }
            if pages
                .last()
                .is_some_and(|p| (p.channel, p.bank, p.row) >= (channel, bank, row))
            {
                return refuse(at, "pages unsorted or duplicated");
            }
            pages.push(PageCount {
                channel,
                bank,
                row,
                count,
            });
            Ok(())
        })?;
        self.lit(",\"health\":")?;
        let health = self.health(geom)?;
        self.lit("}")?;
        Ok(NodeSnapshot {
            node,
            events,
            pages,
            health,
        })
    }

    fn health(&mut self, geom: Geometry) -> Result<HealthTable, String> {
        let at = self.pos;
        self.lit("{\"channels\":")?;
        let channels = self.u32()?;
        self.lit(",\"pairs_per_channel\":")?;
        let pairs_per_channel = self.u32()?;
        self.lit(",\"threshold\":")?;
        let threshold = self.uint(u64::from(u8::MAX))? as u8;
        if channels != geom.channels
            || u64::from(pairs_per_channel) * 2 != u64::from(geom.banks)
            || threshold != geom.threshold
        {
            return refuse(at, "health table shape differs from the geometry");
        }
        let mut counters = Vec::with_capacity(channels as usize * pairs_per_channel as usize);
        self.lit(",\"counters\":")?;
        self.list(|d| {
            counters.push(d.uint(u64::from(u8::MAX))? as u8);
            Ok(())
        })?;
        let mut faulty = Vec::with_capacity(counters.len());
        self.lit(",\"faulty\":")?;
        self.list(|d| {
            faulty.push(d.bool()?);
            Ok(())
        })?;
        let mut retired: Vec<(usize, usize, u32)> = Vec::new();
        self.lit(",\"retired\":")?;
        self.list(|d| {
            let at = d.pos;
            d.lit("[")?;
            let ch = d.u32()? as usize;
            d.lit(",")?;
            let bank = d.u32()? as usize;
            d.lit(",")?;
            let row = d.u32()?;
            d.lit("]")?;
            let page = (ch, bank, row);
            if retired
                .last()
                .is_some_and(|prev| retired_text_order(prev, &page) != Ordering::Less)
            {
                return refuse(at, "retired pages unsorted or duplicated");
            }
            retired.push(page);
            Ok(())
        })?;
        self.lit("}")?;
        let retired: HashSet<(usize, usize, u32)> = retired.into_iter().collect();
        HealthTable::from_parts(
            channels as usize,
            pairs_per_channel as usize,
            threshold,
            counters,
            faulty,
            retired,
        )
        .or_else(|e| refuse(at, e))
    }
}

impl ShardSnapshot {
    /// The checkpoint payload for this snapshot (the shape above).
    pub fn encode(&self) -> String {
        let pages: usize = self.nodes.iter().map(|n| n.pages.len()).sum();
        let mut out = String::with_capacity(32 + 48 * pages + 512 * self.nodes.len());
        out.push_str("{\"shard\":");
        push_uint(&mut out, self.shard);
        out.push_str(",\"nodes\":");
        push_list(&mut out, &self.nodes, push_node);
        out.push('}');
        out
    }

    /// Read a checkpoint payload back, refusing any that is not exactly
    /// what [`ShardSnapshot::encode`] writes for a state of `geom`: a
    /// health table of another shape, counters or faulty flags of the
    /// wrong length, a page or retired entry out of range, pages or nodes
    /// unsorted or duplicated, or a table [`HealthTable::from_parts`]
    /// refuses.
    pub fn decode(payload: &[u8], geom: Geometry) -> Result<ShardSnapshot, String> {
        let mut d = Decoder { b: payload, pos: 0 };
        d.lit("{\"shard\":")?;
        let shard = d.uint(u64::MAX)?;
        d.lit(",\"nodes\":")?;
        let mut nodes: Vec<NodeSnapshot> = Vec::new();
        d.list(|d| {
            let at = d.pos;
            let n = d.node(geom)?;
            if nodes.last().is_some_and(|prev| prev.node >= n.node) {
                return refuse(at, "nodes unsorted or duplicated");
            }
            nodes.push(n);
            Ok(())
        })?;
        d.lit("}")?;
        if d.pos != payload.len() {
            return refuse(d.pos, "trailing bytes");
        }
        Ok(ShardSnapshot { shard, nodes })
    }
}

// ---- shard state -----------------------------------------------------------

/// One shard's partition of the fleet: the state a shard worker owns.
pub struct ShardState {
    geom: Geometry,
    nodes: HashMap<u64, NodeHealth>,
    /// Events applied this process-run.
    pub applied: u64,
    /// Lines applied successfully this process-run (an event line with
    /// `count > 1` bumps `applied` by `count` but this by 1; the batch
    /// retry logic needs line-granular progress).
    pub lines_ok: u64,
    /// Lines rejected this process-run.
    pub rejected: u64,
    /// Rejected lines that failed to parse (garbage, bad JSON, queries
    /// routed into a batch).
    pub rejected_parse: u64,
    /// Rejected events outside the configured geometry.
    pub rejected_geometry: u64,
    /// Posture transitions detected since the last
    /// [`ShardState::take_transitions`] — the shard worker drains these
    /// into the push hub after every batch.
    pending_transitions: Vec<Transition>,
}

impl ShardState {
    /// An empty partition.
    pub fn new(geom: Geometry) -> ShardState {
        ShardState {
            geom,
            nodes: HashMap::new(),
            applied: 0,
            lines_ok: 0,
            rejected: 0,
            rejected_parse: 0,
            rejected_geometry: 0,
            pending_transitions: Vec::new(),
        }
    }

    /// Restore a partition from checkpointed node snapshots.
    pub fn restore(geom: Geometry, snapshots: Vec<NodeSnapshot>) -> ShardState {
        let mut s = ShardState::new(geom);
        for snap in snapshots {
            let mut nh = NodeHealth::new(geom);
            nh.events = snap.events;
            nh.table = snap.health;
            nh.max_ce = snap.pages.iter().map(|p| p.count).max().unwrap_or(0);
            nh.pages = snap
                .pages
                .into_iter()
                .map(|p| ((p.channel, p.bank, p.row), p.count))
                .collect();
            // Tier is derived state: recompute so a resumed daemon only
            // pushes transitions caused by post-resume events.
            nh.tier = Tier::of_risk(nh.risk_ppm());
            s.nodes.insert(snap.node, nh);
        }
        s
    }

    /// Number of nodes in this partition.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Parse and apply one request line that was routed to this shard.
    /// Queries and malformed lines are rejected (counted, with the
    /// rejection reason attributed), never fatal.
    pub fn apply_line(&mut self, line: &[u8]) {
        match crate::rpc::parse_line(line) {
            Ok(crate::rpc::Request::Event(ev)) => {
                if self.apply_event(&ev) {
                    self.applied += u64::from(ev.count);
                    self.lines_ok += 1;
                } else {
                    self.rejected += 1;
                    self.rejected_geometry += 1;
                }
            }
            _ => {
                self.rejected += 1;
                self.rejected_parse += 1;
            }
        }
    }

    /// Lines this shard has consumed (applied or rejected) — the batch
    /// retry logic uses the delta to decide whether a panicked batch made
    /// any progress.
    pub fn lines_consumed(&self) -> u64 {
        self.lines_ok + self.rejected
    }

    /// Apply a parsed event; `false` (rejected) when channel/bank fall
    /// outside the configured geometry. A tier boundary crossed by the
    /// event is recorded for [`ShardState::take_transitions`].
    pub fn apply_event(&mut self, ev: &Event) -> bool {
        if ev.channel >= self.geom.channels || ev.bank >= self.geom.banks {
            return false;
        }
        let geom = self.geom;
        let nh = self
            .nodes
            .entry(ev.node)
            .or_insert_with(|| NodeHealth::new(geom));
        nh.apply(ev);
        let risk_ppm = nh.risk_ppm();
        let to = Tier::of_risk(risk_ppm);
        if to != nh.tier {
            let from = std::mem::replace(&mut nh.tier, to);
            self.pending_transitions.push(Transition {
                node: ev.node,
                from,
                to,
                risk_ppm,
                events: nh.events,
            });
        }
        true
    }

    /// Drain the posture transitions recorded since the last call.
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.pending_transitions)
    }

    /// This shard's additive fleet aggregate.
    pub fn agg(&self) -> ShardAgg {
        let mut a = ShardAgg {
            nodes: self.nodes.len() as u64,
            applied: self.applied,
            rejected: self.rejected,
            rejected_parse: self.rejected_parse,
            rejected_geometry: self.rejected_geometry,
            ..ShardAgg::default()
        };
        for nh in self.nodes.values() {
            let (faulty, retired, pressure) = nh.risk_inputs();
            a.events += nh.events;
            a.faulty_pairs += faulty;
            a.retired_pages += retired;
            a.active_counter_sum += pressure;
            if risk_from(faulty, retired, pressure) >= AT_RISK_PPM {
                a.at_risk_nodes += 1;
            }
        }
        a
    }

    /// Per-node view, if this shard knows the node.
    pub fn node_view(&self, node: u64) -> Option<NodeView> {
        self.nodes.get(&node).map(|nh| nh.view(node))
    }

    /// Per-region recommendations, if this shard knows the node.
    pub fn recommend(&self, node: u64) -> Option<Vec<RegionRec>> {
        self.nodes.get(&node).map(|nh| nh.recommend(self.geom))
    }

    /// This shard's top-`k` at-risk pages: most errors first, then lowest
    /// address.
    ///
    /// A bounded selection rather than a sort of every page: a max-heap
    /// holds the best `k` seen so far with the worst on top. Nodes are
    /// walked in ascending id and each node's pages in ascending address,
    /// so once the heap is full a candidate that only ties the worst
    /// entry's count always loses the address tie-break. That prunes
    /// every page with `ce <= worst.ce`, and every node whose `max_ce`
    /// is no higher without touching its pages. `retired` is looked up
    /// for the winners only.
    pub fn top_pages(&self, k: usize) -> Vec<PageRisk> {
        if k == 0 {
            return Vec::new();
        }
        let mut nodes: Vec<(u64, &NodeHealth)> =
            self.nodes.iter().map(|(&id, nh)| (id, nh)).collect();
        nodes.sort_unstable_by_key(|&(id, _)| id);
        // A max-heap of `PageKey`s keeps the worst entry kept on top.
        let mut heap: BinaryHeap<PageKey> =
            BinaryHeap::with_capacity(k.min(crate::rpc::MAX_TOP_K as usize));
        let mut skipped = 0u64;
        for &(node, nh) in &nodes {
            if heap.len() == k && heap.peek().is_some_and(|w| nh.max_ce <= w.0 .0) {
                skipped += 1;
                continue;
            }
            for (&(channel, bank, row), &ce) in &nh.pages {
                let key = (Reverse(ce), node, channel, bank, row);
                if heap.len() < k {
                    heap.push(key);
                } else if let Some(mut worst) = heap.peek_mut() {
                    if ce > worst.0 .0 {
                        *worst = key;
                    }
                }
            }
        }
        if obs::metrics::enabled() {
            obs::counter!("service.top_pages.nodes_scanned").add(nodes.len() as u64 - skipped);
            obs::counter!("service.top_pages.nodes_skipped").add(skipped);
        }
        heap.into_sorted_vec()
            .into_iter()
            .map(|(Reverse(ce), node, channel, bank, row)| PageRisk {
                node,
                channel,
                bank,
                row,
                ce,
                retired: self.nodes[&node]
                    .table
                    .is_retired(channel as usize, bank as usize, row),
            })
            .collect()
    }

    /// Serialize this partition (nodes sorted by id).
    pub fn snapshot(&self, shard: u64) -> ShardSnapshot {
        let mut ids: Vec<u64> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        ShardSnapshot {
            shard,
            nodes: ids
                .into_iter()
                .map(|node| {
                    let nh = &self.nodes[&node];
                    NodeSnapshot {
                        node,
                        events: nh.events,
                        pages: nh
                            .pages
                            .iter()
                            .map(|(&(channel, bank, row), &count)| PageCount {
                                channel,
                                bank,
                                row,
                                count,
                            })
                            .collect(),
                        health: nh.table.clone(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ce(node: u64, channel: u32, bank: u32, row: u32, count: u32) -> Event {
        Event {
            node,
            channel,
            bank,
            row,
            count,
            bank_fault: false,
        }
    }

    #[test]
    fn apply_retires_then_migrates() {
        let geom = Geometry {
            channels: 2,
            banks: 4,
            threshold: 3,
        };
        let mut s = ShardState::new(geom);
        assert!(s.apply_event(&ce(7, 1, 2, 99, 2)));
        let v = s.node_view(7).unwrap();
        assert_eq!(v.events, 2);
        assert_eq!(v.retired_pages, 1);
        assert_eq!(v.faulty_pairs, 0);
        assert_eq!(v.active_counter_sum, 2);
        // Third error on the pair migrates it.
        assert!(s.apply_event(&ce(7, 1, 3, 5, 1)));
        let v = s.node_view(7).unwrap();
        assert_eq!(v.faulty_pairs, 1);
        assert_eq!(v.active_counter_sum, 0, "migrated counter is frozen out");
        assert_eq!(v.risk_ppm, 250_000 + 25_000);
    }

    #[test]
    fn out_of_range_events_reject_without_panic() {
        let mut s = ShardState::new(Geometry::default());
        assert!(!s.apply_event(&ce(1, 8, 0, 0, 1)), "channel out of range");
        assert!(!s.apply_event(&ce(1, 0, 16, 0, 1)), "bank out of range");
        assert_eq!(s.node_count(), 0);
        s.apply_line(b"{\"kind\":\"event\",\"node\":1,\"channel\":99,\"bank\":0,\"row\":0}");
        s.apply_line(b"utter garbage");
        assert_eq!(s.rejected, 2);
        assert_eq!(s.rejected_geometry, 1, "out-of-range channel attributes");
        assert_eq!(s.rejected_parse, 1, "garbage attributes");
        assert_eq!(s.applied, 0);
        assert_eq!(s.lines_ok, 0);
        assert_eq!(s.lines_consumed(), 2);
    }

    #[test]
    fn bank_fault_marks_pair_directly() {
        let mut s = ShardState::new(Geometry::default());
        assert!(s.apply_event(&Event {
            node: 3,
            channel: 2,
            bank: 5,
            row: 0,
            count: 1,
            bank_fault: true,
        }));
        let v = s.node_view(3).unwrap();
        assert_eq!(v.faulty_pairs, 1);
        assert_eq!(v.retired_pages, 0);
        let recs = s.recommend(3).unwrap();
        assert_eq!(recs[2].action, "stored-ecc");
        assert_eq!(recs[0].action, "reclaim");
    }

    #[test]
    fn recommendations_cover_all_tiers() {
        let geom = Geometry {
            channels: 4,
            banks: 4,
            threshold: 4,
        };
        let mut s = ShardState::new(geom);
        // ch0: clean. ch1: one error (ecc-parity). ch2: threshold-1
        // errors (premigrate). ch3: migrated (stored-ecc).
        s.apply_event(&ce(1, 1, 0, 5, 1));
        s.apply_event(&ce(1, 2, 0, 5, 3));
        s.apply_event(&ce(1, 3, 0, 5, 4));
        let recs = s.recommend(1).unwrap();
        assert_eq!(
            recs.iter().map(|r| r.action).collect::<Vec<_>>(),
            vec!["reclaim", "ecc-parity", "premigrate", "stored-ecc"]
        );
    }

    #[test]
    fn top_pages_orders_by_count_then_address() {
        let mut s = ShardState::new(Geometry::default());
        s.apply_event(&ce(2, 0, 0, 10, 3));
        s.apply_event(&ce(1, 0, 0, 10, 3));
        s.apply_event(&ce(1, 0, 0, 11, 7));
        let top = s.top_pages(2);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].node, top[0].row, top[0].ce), (1, 11, 7));
        assert_eq!((top[1].node, top[1].row, top[1].ce), (1, 10, 3));
        // Row 11's first error was already the pair's 4th: the pair
        // migrated instead of retiring the page. Row 10's errors were all
        // below threshold, so each retired its page.
        assert!(!top[0].retired, "threshold strike migrates, not retires");
        assert!(top[1].retired, "below-threshold CE retires the page");
        let merged = merge_top_pages(vec![s.top_pages(3), vec![]], 1);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].node, 1);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let geom = Geometry {
            channels: 4,
            banks: 8,
            threshold: 2,
        };
        let mut s = ShardState::new(geom);
        for i in 0..40u32 {
            s.apply_event(&ce(u64::from(i % 5), i % 4, i % 8, i, 1 + i % 3));
        }
        let snap = s.snapshot(0);
        let back = ShardSnapshot::decode(snap.encode().as_bytes(), geom).unwrap();
        assert_eq!(back, snap);
        let r = ShardState::restore(geom, back.nodes);
        assert_eq!(r.node_count(), s.node_count());
        assert_eq!(r.agg().events, s.agg().events);
        assert_eq!(r.agg().faulty_pairs, s.agg().faulty_pairs);
        assert_eq!(r.agg().retired_pages, s.agg().retired_pages);
        assert_eq!(r.top_pages(10), s.top_pages(10));
        for n in 0..5 {
            assert_eq!(r.node_view(n), s.node_view(n), "node {n}");
            assert_eq!(r.recommend(n), s.recommend(n), "node {n}");
        }
    }

    #[test]
    fn config_key_names_its_geometry_only() {
        let geom = Geometry {
            channels: 12,
            banks: 6,
            threshold: 255,
        };
        assert_eq!(Geometry::from_config_key(&geom.config_key()), Some(geom));
        for key in [
            "eccparity-rpc-v1|channels=8|banks=16",
            "eccparity-rpc-v1|channels=8|banks=16|threshold=256",
            "eccparity-rpc-v1|channels=08|banks=16|threshold=4",
            "eccparity-rpc-v1|channels=+8|banks=16|threshold=4",
            "campaign|channels=8|banks=16|threshold=4",
        ] {
            assert_eq!(Geometry::from_config_key(key), None, "{key}");
        }
    }

    #[test]
    fn posture_tiers() {
        let mut a = ShardAgg::default();
        assert_eq!(a.posture(), "nominal");
        a.nodes = 100;
        a.faulty_pairs = 1;
        assert_eq!(a.posture(), "degraded");
        a.at_risk_nodes = 10;
        assert_eq!(a.posture(), "critical");
    }
}
