//! Per-node and per-shard fleet health state.
//!
//! Each simulated node (DIMM/host) carries the paper's [`HealthTable`]
//! plus the page-granular corrected-error counts the HARP-style top-K
//! query needs. Nodes are partitioned across shards by `node % shards`;
//! a shard owns its partition exclusively (actor-per-shard, no locks),
//! so per-node event ordering is total and the merged fleet state is
//! independent of the shard count.

use crate::push::{Tier, Transition};
use crate::rpc::{self, Event};
use ecc_parity::health::{HealthAction, HealthTable};
use std::cmp::{Ordering, Reverse};
use std::collections::hash_map::RandomState;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

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

// ---- hashing ---------------------------------------------------------------

/// The hasher of the shard's integer-keyed maps (node slots, page ledgers):
/// one folded 64×64→128-bit multiply per word written, where std's SipHash
/// runs its rounds. Node and row ids come from clients, so the state the
/// multiplies start from and the multiplier are drawn once per process
/// from std's random SipHash keys: a stream of ids crafted to land in one
/// bucket cannot be computed ahead of time.
#[derive(Debug, Clone, Copy)]
struct FoldState {
    start: u64,
    mul: u64,
}

impl Default for FoldState {
    fn default() -> FoldState {
        static SEED: OnceLock<FoldState> = OnceLock::new();
        *SEED.get_or_init(|| {
            let random = RandomState::new();
            FoldState {
                start: random.hash_one(0u64),
                // Odd: multiplying by it is a bijection modulo 2^64, so
                // the product's low half loses no bit of the word.
                mul: random.hash_one(1u64) | 1,
            }
        })
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.start,
            mul: self.mul,
        }
    }
}

struct FoldHasher {
    acc: u64,
    mul: u64,
}

impl Hasher for FoldHasher {
    fn write_u64(&mut self, word: u64) {
        let p = u128::from(self.acc ^ word) * u128::from(self.mul);
        self.acc = (p as u64) ^ (p >> 64) as u64;
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// Risk score at which a node counts as "at risk" in the fleet posture.
pub const AT_RISK_PPM: u64 = 500_000;

/// `(faulty pairs, retired pages, counter pressure)` of one health table:
/// the three sums a node's risk score and the fleet aggregate are built
/// from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RiskInputs {
    faulty: u64,
    retired: u64,
    pressure: u64,
}

impl RiskInputs {
    /// Read the three sums off `table` (one pass over its pairs).
    fn of(table: &HealthTable) -> RiskInputs {
        RiskInputs {
            faulty: table.faulty_pair_count() as u64,
            retired: table.retired_count() as u64,
            pressure: table.active_counter_sum(),
        }
    }

    /// The [`NodeHealth::risk_ppm`] formula.
    fn risk_ppm(self) -> u64 {
        (250_000 * self.faulty + 25_000 * self.retired + 10_000 * self.pressure).min(1_000_000)
    }
}

// ---- page ledger -----------------------------------------------------------

/// [`PageSlot::flags`]: the slot holds a page (whose count may be 0, if
/// restored so).
const USED: u8 = 1;
/// [`PageSlot::flags`]: the page's bank pair has migrated. Migration is
/// permanent, so the flag never goes stale. Derived state: set the first
/// time an event on the page finds the pair migrated, never persisted.
const MIGRATED: u8 = 2;

/// One page of a node's ledger: the full address, its count and its flags
/// in 20 bytes, so a probe reads key, count and migrated flag together.
#[derive(Debug, Clone, Copy, Default)]
struct PageSlot {
    channel: u32,
    bank: u32,
    row: u32,
    /// Corrected errors, saturating at `u32::MAX`.
    count: u32,
    /// [`USED`] and [`MIGRATED`]; 0 marks an empty slot.
    flags: u8,
}

/// A node's pages, keyed `(channel, bank, row)` in full, so no geometry
/// can make two pages share a slot: open addressing with linear probing
/// over a power-of-two slot array at most 7/8 full. Probing starts where
/// the per-process [`FoldState`] hashes the address, so ids crafted to
/// collide cannot be computed ahead of time. Unordered: `snapshot` sorts a
/// node's pages, and `top_pages` breaks count ties on the whole address.
#[derive(Debug, Clone, Default)]
struct PageLedger {
    slots: Box<[PageSlot]>,
    /// Occupied slots.
    len: usize,
}

impl PageLedger {
    /// An empty ledger with room for `n` pages.
    fn with_capacity(n: usize) -> PageLedger {
        let slots = if n == 0 {
            0
        } else {
            (n * 8).div_ceil(7).next_power_of_two().max(4)
        };
        PageLedger {
            slots: vec![PageSlot::default(); slots].into_boxed_slice(),
            len: 0,
        }
    }

    /// Double the slot array (to 4 slots, if empty).
    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(4);
        let old = std::mem::replace(
            &mut self.slots,
            vec![PageSlot::default(); slots].into_boxed_slice(),
        );
        for s in old.iter().filter(|s| s.flags != 0) {
            let at = self.find(s.channel, s.bank, s.row);
            self.slots[at] = *s;
        }
    }

    /// The slot holding the page, or the empty slot that ends its probe.
    fn find(&self, channel: u32, bank: u32, row: u32) -> usize {
        let mut h = FoldState::default().build_hasher();
        h.write_u64(u64::from(channel) << 32 | u64::from(bank));
        h.write_u32(row);
        let mask = self.slots.len() - 1;
        let mut i = h.finish() as usize & mask;
        loop {
            let s = &self.slots[i];
            if s.flags == 0 || (s.row, s.bank, s.channel) == (row, bank, channel) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The page's slot, claimed with count 0 if the page is new.
    fn entry(&mut self, channel: u32, bank: u32, row: u32) -> &mut PageSlot {
        if self.slots.is_empty() {
            self.grow();
        }
        let mut i = self.find(channel, bank, row);
        if self.slots[i].flags == 0 {
            if (self.len + 1) * 8 > self.slots.len() * 7 {
                self.grow();
                i = self.find(channel, bank, row);
            }
            self.slots[i] = PageSlot {
                channel,
                bank,
                row,
                count: 0,
                flags: USED,
            };
            self.len += 1;
        }
        &mut self.slots[i]
    }

    /// The occupied slots, in slot order.
    fn iter(&self) -> impl Iterator<Item = &PageSlot> {
        self.slots.iter().filter(|s| s.flags != 0)
    }
}

/// One node's health state.
///
/// The fields one event touches come first and fill one 64-byte line:
/// an event on a migrated pair reads and writes only that line and its
/// page's ledger slot.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct NodeHealth {
    /// Events ingested for this node (persisted, so restarted daemons
    /// answer fleet queries identically).
    events: u64,
    /// Per-page corrected-error counts and migrated flags.
    ledger: PageLedger,
    /// [`RiskInputs::of`] `table`, kept by `apply`. Derived state: never
    /// persisted, re-derived from `table` on restore.
    inputs: RiskInputs,
    /// Largest page count (0 when there are none) — lets `top_pages` skip
    /// a node whose best page cannot enter the current top-K. Derived
    /// state: never persisted, re-derived from the pages on restore.
    max_ce: u32,
    /// Posture tier after the last applied event — the push channel's
    /// transition edge detector. Derived state: never persisted, and
    /// re-derived from `risk_ppm` on restore.
    tier: Tier,
    /// Retired pages per channel, for `recommend`. Derived state: never
    /// persisted, re-derived from `table` on restore.
    retired_in_channel: Box<[u32]>,
    /// The paper's bank-pair table (counters, faulty marks, retired pages).
    table: HealthTable,
}

impl NodeHealth {
    fn new(geom: Geometry) -> NodeHealth {
        NodeHealth {
            events: 0,
            ledger: PageLedger::default(),
            inputs: RiskInputs::default(),
            max_ce: 0,
            tier: Tier::Nominal,
            retired_in_channel: vec![0; geom.channels as usize].into_boxed_slice(),
            table: HealthTable::new(geom.channels as usize, geom.banks as usize, geom.threshold),
        }
    }

    /// A node rebuilt from its checkpointed snapshot, derived state and all.
    fn restore(snap: &NodeSnapshot) -> NodeHealth {
        let mut ledger = PageLedger::with_capacity(snap.pages.len());
        let mut max_ce = 0;
        for p in &snap.pages {
            ledger.entry(p.channel, p.bank, p.row).count = p.count;
            max_ce = max_ce.max(p.count);
        }
        let mut retired_in_channel = vec![0; snap.health.channels()].into_boxed_slice();
        for &(ch, _, _) in snap.health.retired() {
            retired_in_channel[ch] += 1;
        }
        let inputs = RiskInputs::of(&snap.health);
        NodeHealth {
            events: snap.events,
            ledger,
            inputs,
            max_ce,
            // Tier is derived state: recompute so a resumed daemon only
            // pushes transitions caused by post-resume events.
            tier: Tier::of_risk(inputs.risk_ppm()),
            retired_in_channel,
            table: snap.health.clone(),
        }
    }

    /// Apply one validated event (caller has bounds-checked channel/bank).
    ///
    /// `inputs` follows the table step by step: a pair below the threshold
    /// is never faulty, so an error either adds one to the pressure or
    /// migrates the pair, moving its `threshold - 1` errors out of the
    /// pressure; a bank fault on a live pair moves its counter out.
    fn apply(&mut self, ev: &Event) {
        self.events += u64::from(ev.count);
        let (ch, bank) = (ev.channel as usize, ev.bank as usize);
        if ev.bank_fault {
            let pair = self.table.pair_of(ch, bank);
            if !self.table.is_faulty(ch, bank) {
                self.inputs.faulty += 1;
                self.inputs.pressure -= u64::from(self.table.counter(pair));
            }
            self.table.mark_faulty(pair);
            return;
        }
        let page = self.ledger.entry(ev.channel, ev.bank, ev.row);
        page.count = page.count.saturating_add(ev.count);
        self.max_ce = self.max_ce.max(page.count);
        if page.flags & MIGRATED != 0 {
            return;
        }
        for _ in 0..ev.count {
            match self.table.record_error(ch, bank) {
                HealthAction::RetirePage => {
                    self.inputs.pressure += 1;
                    self.table.retire_page(ch, bank, ev.row);
                }
                HealthAction::MigratePair => {
                    self.inputs.faulty += 1;
                    self.inputs.pressure -= u64::from(self.table.threshold()) - 1;
                    page.flags |= MIGRATED;
                    break;
                }
                HealthAction::AlreadyFaulty => {
                    page.flags |= MIGRATED;
                    break;
                }
            }
        }
        let retired = self.table.retired_count() as u64;
        if retired > self.inputs.retired {
            self.retired_in_channel[ch] += 1;
            self.inputs.retired = retired;
        }
    }

    /// Deterministic integer UE-risk score in parts-per-million.
    ///
    /// Migrated pairs dominate (the node already burned through its
    /// parity protection somewhere), retired pages and counter pressure
    /// (non-migrated pairs walking toward the threshold) add linearly,
    /// saturating at 1.0.
    pub fn risk_ppm(&self) -> u64 {
        self.inputs.risk_ppm()
    }

    fn view(&self, node: u64) -> NodeView {
        NodeView {
            node,
            risk_ppm: self.risk_ppm(),
            events: self.events,
            faulty_pairs: self.inputs.faulty,
            retired_pages: self.inputs.retired,
            active_counter_sum: self.inputs.pressure,
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
                    || self.retired_in_channel[ch] > 0
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
///
/// Besides the nodes themselves it keeps two kinds of derived state, both
/// rebuilt by [`ShardState::restore`] and never persisted: the node-derived
/// fields of [`ShardState::agg`] as running totals, so a fleet query reads
/// them instead of walking every node; and the node ids in ascending order,
/// so `top_pages` and `snapshot` walk the partition without sorting it.
pub struct ShardState {
    geom: Geometry,
    /// The partition's nodes, in arrival order.
    slab: Vec<NodeHealth>,
    /// Node id → index into `slab`.
    slots: FoldMap<u64, usize>,
    /// `(node id, slab index)` for every node, ascending by id.
    order: Vec<(u64, usize)>,
    /// Running sums of `events`, `faulty_pairs`, `retired_pages`,
    /// `active_counter_sum` and `at_risk_nodes` over the nodes; `agg`
    /// fills in the rest.
    totals: ShardAgg,
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
    /// [`ShardState::apply_batch`]'s parsed lines, kept between batches
    /// for its allocation.
    parsed: Vec<Option<Event>>,
}

impl ShardState {
    /// An empty partition.
    pub fn new(geom: Geometry) -> ShardState {
        ShardState {
            geom,
            slab: Vec::new(),
            slots: FoldMap::default(),
            order: Vec::new(),
            totals: ShardAgg::default(),
            applied: 0,
            lines_ok: 0,
            rejected: 0,
            rejected_parse: 0,
            rejected_geometry: 0,
            pending_transitions: Vec::new(),
            parsed: Vec::new(),
        }
    }

    /// Restore a partition from checkpointed node snapshots, in any order.
    /// A node id listed twice keeps its last snapshot.
    pub fn restore(geom: Geometry, snapshots: Vec<NodeSnapshot>) -> ShardState {
        ShardState::restore_from(geom, &snapshots)
    }

    /// [`ShardState::restore`] from borrowed snapshots, which stay with
    /// their owner.
    pub fn restore_from<'a>(
        geom: Geometry,
        snapshots: impl IntoIterator<Item = &'a NodeSnapshot>,
    ) -> ShardState {
        let snapshots = snapshots.into_iter();
        let mut s = ShardState::new(geom);
        s.slab.reserve(snapshots.size_hint().0);
        for snap in snapshots {
            let id = snap.node;
            let nh = NodeHealth::restore(snap);
            match s.slots.get(&id) {
                Some(&slot) => s.slab[slot] = nh,
                None => {
                    let slot = s.slab.len();
                    s.slots.insert(id, slot);
                    s.order.push((id, slot));
                    s.slab.push(nh);
                }
            }
        }
        // Checkpoints list nodes in id order; anything else is sorted here.
        if !s.order.is_sorted() {
            s.order.sort_unstable();
        }
        for nh in &s.slab {
            s.totals.events += nh.events;
            s.totals.faulty_pairs += nh.inputs.faulty;
            s.totals.retired_pages += nh.inputs.retired;
            s.totals.active_counter_sum += nh.inputs.pressure;
            s.totals.at_risk_nodes += u64::from(nh.risk_ppm() >= AT_RISK_PPM);
        }
        s
    }

    /// Number of nodes in this partition.
    pub fn node_count(&self) -> usize {
        self.slab.len()
    }

    fn node(&self, id: u64) -> Option<&NodeHealth> {
        self.slots.get(&id).map(|&slot| &self.slab[slot])
    }

    /// The partition's nodes, ascending by id.
    fn in_id_order(&self) -> impl Iterator<Item = (u64, &NodeHealth)> {
        self.order.iter().map(|&(id, slot)| (id, &self.slab[slot]))
    }

    /// Parse and apply one request line that was routed to this shard.
    /// Queries and malformed lines are rejected (counted, with the
    /// rejection reason attributed), never fatal.
    pub fn apply_line(&mut self, line: &[u8]) {
        self.apply_parsed(rpc::parse_event(line));
    }

    /// Apply a shard batch of newline-terminated request lines, skipping
    /// empty ones: the same as [`ShardState::apply_line`] on each line in
    /// order. Every line is parsed before any is applied, so the apply
    /// loop runs without the parser between its node and page lookups.
    pub fn apply_batch(&mut self, batch: &[u8]) {
        let mut parsed = std::mem::take(&mut self.parsed);
        parsed.clear();
        parsed.extend(rpc::batch_lines(batch).map(rpc::parse_event));
        for &ev in &parsed {
            self.apply_parsed(ev);
        }
        self.parsed = parsed;
    }

    /// Apply one parsed line: an event, or `None` for a line that did not
    /// parse as one.
    fn apply_parsed(&mut self, ev: Option<Event>) {
        match ev {
            Some(ev) if self.apply_event(&ev) => {
                self.applied += u64::from(ev.count);
                self.lines_ok += 1;
            }
            Some(_) => {
                self.rejected += 1;
                self.rejected_geometry += 1;
            }
            None => {
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
    /// outside the configured geometry. The running totals move by the
    /// node's change, and a tier boundary crossed by the event is
    /// recorded for [`ShardState::take_transitions`].
    pub fn apply_event(&mut self, ev: &Event) -> bool {
        if ev.channel >= self.geom.channels || ev.bank >= self.geom.banks {
            return false;
        }
        let slot = match self.slots.get(&ev.node) {
            Some(&slot) => slot,
            None => {
                let slot = self.slab.len();
                self.slab.push(NodeHealth::new(self.geom));
                self.slots.insert(ev.node, slot);
                let at = self.order.partition_point(|&(id, _)| id < ev.node);
                self.order.insert(at, (ev.node, slot));
                slot
            }
        };
        let nh = &mut self.slab[slot];
        let before = nh.inputs;
        nh.apply(ev);
        let after = nh.inputs;
        let risk_ppm = after.risk_ppm();
        let t = &mut self.totals;
        t.events += u64::from(ev.count);
        t.faulty_pairs = t.faulty_pairs - before.faulty + after.faulty;
        t.retired_pages = t.retired_pages - before.retired + after.retired;
        t.active_counter_sum = t.active_counter_sum - before.pressure + after.pressure;
        t.at_risk_nodes = t.at_risk_nodes + u64::from(risk_ppm >= AT_RISK_PPM)
            - u64::from(before.risk_ppm() >= AT_RISK_PPM);
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
        ShardAgg {
            nodes: self.slab.len() as u64,
            applied: self.applied,
            rejected: self.rejected,
            rejected_parse: self.rejected_parse,
            rejected_geometry: self.rejected_geometry,
            ..self.totals
        }
    }

    /// Per-node view, if this shard knows the node.
    pub fn node_view(&self, node: u64) -> Option<NodeView> {
        self.node(node).map(|nh| nh.view(node))
    }

    /// Per-region recommendations, if this shard knows the node.
    pub fn recommend(&self, node: u64) -> Option<Vec<RegionRec>> {
        self.node(node).map(|nh| nh.recommend(self.geom))
    }

    /// This shard's top-`k` at-risk pages: most errors first, then lowest
    /// address.
    ///
    /// A bounded selection rather than a sort of every page: a max-heap
    /// holds the best `k` seen so far with the worst on top, and a page
    /// replaces the worst when its full key sorts first. Nodes are walked
    /// in ascending id, so once the heap is full every kept page belongs
    /// to a lower node id than the one walked: a node whose `max_ce` is no
    /// higher than the worst kept count loses every tie and is skipped
    /// without touching its pages. `retired` is looked up for the winners
    /// only.
    pub fn top_pages(&self, k: usize) -> Vec<PageRisk> {
        if k == 0 {
            return Vec::new();
        }
        // A max-heap of `PageKey`s keeps the worst entry kept on top.
        let mut heap: BinaryHeap<PageKey> =
            BinaryHeap::with_capacity(k.min(crate::rpc::MAX_TOP_K as usize));
        let mut skipped = 0u64;
        // The worst kept count while the heap is full, else 0.
        let mut floor = 0;
        for (node, nh) in self.in_id_order() {
            if heap.len() == k && nh.max_ce <= floor {
                skipped += 1;
                continue;
            }
            for s in nh.ledger.slots.iter() {
                // Once the heap is full, a page with fewer errors than the
                // worst kept one cannot enter: most slots stop here.
                if s.count < floor || s.flags == 0 {
                    continue;
                }
                let key = (Reverse(s.count), node, s.channel, s.bank, s.row);
                if heap.len() < k {
                    heap.push(key);
                } else if let Some(mut worst) = heap.peek_mut() {
                    if key < *worst {
                        *worst = key;
                    }
                }
                if heap.len() == k {
                    floor = heap.peek().map_or(0, |w| w.0 .0);
                }
            }
        }
        if obs::metrics::enabled() {
            obs::counter!("service.top_pages.nodes_scanned").add(self.slab.len() as u64 - skipped);
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
                retired: self
                    .node(node)
                    .expect("a kept page's node")
                    .table
                    .is_retired(channel as usize, bank as usize, row),
            })
            .collect()
    }

    /// Serialize this partition (nodes sorted by id, each node's pages by
    /// address).
    pub fn snapshot(&self, shard: u64) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            nodes: self
                .in_id_order()
                .map(|(node, nh)| {
                    let mut pages: Vec<PageCount> = nh
                        .ledger
                        .iter()
                        .map(|s| PageCount {
                            channel: s.channel,
                            bank: s.bank,
                            row: s.row,
                            count: s.count,
                        })
                        .collect();
                    pages.sort_unstable_by_key(|p| (p.channel, p.bank, p.row));
                    NodeSnapshot {
                        node,
                        events: nh.events,
                        pages,
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
    fn page_counts_saturate_at_u32_max() {
        let geom = Geometry::default();
        let near = NodeSnapshot {
            node: 5,
            events: 10,
            pages: vec![PageCount {
                channel: 1,
                bank: 2,
                row: 3,
                count: u32::MAX - 5,
            }],
            health: HealthTable::new(8, 16, 4),
        };
        let mut s = ShardState::restore(geom, vec![near]);
        assert!(s.apply_event(&ce(5, 1, 2, 3, 4096)));
        assert!(s.apply_event(&ce(5, 1, 2, 3, 1)));
        assert_eq!(s.top_pages(1)[0].ce, u32::MAX);
        assert_eq!(s.snapshot(0).nodes[0].pages[0].count, u32::MAX);
        assert_eq!(
            s.node_view(5).unwrap().events,
            10 + 4097,
            "events do not saturate"
        );
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
