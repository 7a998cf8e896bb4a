//! One memory channel: banks, ranks, the shared data bus, and the
//! close-page scheduler.
//!
//! The model is *timestamp algebra*: instead of stepping every cycle, each
//! resource (bank, rank activate window, data bus) carries the earliest
//! cycle it can next be used, and a request's activate/read/write/precharge
//! times are computed directly from those constraints. With the close-page
//! policy every access is an ACT + RD/WR-with-autoprecharge pair, so there
//! is no row-hit state to track and per-rank activate ordering is monotone
//! — which lets background-energy residency (active / standby / sleep) be
//! billed incrementally with simple watermarks.

use crate::config::{MemoryConfig, RowPolicy};
use crate::power::PowerModel;
use serde::{Deserialize, Serialize};

/// Completion report for one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// Cycle the activate command issued.
    pub act: u64,
    /// Cycle the first data beat transfers.
    pub data_start: u64,
    /// Cycle the request finished (read data delivered / write data taken).
    pub finish: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    /// Earliest cycle the bank can accept the next activate.
    next_act: u64,
    /// Open-page state: the currently open row and the earliest cycle the
    /// next column command to it may issue.
    open_row: Option<u64>,
    cas_ready: u64,
}

struct RankState {
    banks: Vec<BankState>,
    /// Granted activate slots: gap-filled so a younger request to a free
    /// bank can activate before an older, bank-blocked one (reordering
    /// scheduler). Slot width `act_slot` enforces both tRRD (pairwise
    /// activate spacing) and tFAW (at most four activates per tFAW window,
    /// via width >= tFAW/4).
    act_slots: BusLedger,
    act_slot: u64,
    /// Watermark: latest cycle any bank of this rank is busy through.
    active_until: u64,
    /// Open-page mode: cycle the rank first became row-open (it then stays
    /// in active standby until finalize — open rows pin CKE high).
    open_since: Option<u64>,
    power: PowerModel,
}

impl RankState {
    fn new(config: &MemoryConfig) -> RankState {
        let t = &config.timing;
        RankState {
            banks: vec![BankState::default(); config.banks_per_rank],
            act_slots: if config.strict_fifo {
                BusLedger::strict()
            } else {
                BusLedger::new()
            },
            act_slot: t.t_rrd.max(t.t_faw.div_ceil(4)),
            active_until: 0,
            open_since: None,
            power: PowerModel::with_speed(&config.rank, &config.timing, config.speed_factor),
        }
    }

    /// Bill background residency for the idle gap `[from, to)` given the
    /// power-down threshold, and return any wake-up penalty that delays the
    /// next activate.
    fn bill_idle(&mut self, from: u64, to: u64, threshold: u64, t_xp: u64) -> u64 {
        if to <= from {
            return 0;
        }
        let gap = to - from;
        if gap > threshold + t_xp {
            // awake for `threshold`, asleep until woken `t_xp` before use
            self.power.record_standby_time(threshold + t_xp);
            self.power.record_sleep_time(gap - threshold - t_xp);
            t_xp
        } else {
            self.power.record_standby_time(gap);
            0
        }
    }
}

/// Gap-filling data-bus ledger: busy intervals kept sorted so a request
/// whose data is ready early can slot into a gap *before* a previously
/// scheduled (but later-in-time) transfer — the reordering a Most-Pending
/// scheduler actually performs. Without this, a single deferred write (e.g.
/// a parity read-modify-write) would act as a head-of-line bubble for every
/// subsequently submitted read.
///
/// The intervals live in a plain vector: `busy[head..]` is the ledger, and
/// `busy[..head]` is the pruned prefix, reclaimed in one compaction once it
/// reaches [`BusLedger::PREALLOC`] entries. Arrivals are near-monotone, so
/// a reservation's first conflict sits at or next to the tail and is found
/// by stepping backward from there.
#[derive(Debug, Default)]
struct BusLedger {
    /// Sorted, disjoint (start, end) busy intervals; live from `head` on.
    busy: Vec<(u64, u64)>,
    /// Index of the first live interval.
    head: usize,
    /// Strict-FIFO mode: no gap filling — behave as a monotone watermark.
    strict: bool,
    watermark: u64,
}

impl BusLedger {
    /// Pruned-prefix length that triggers a compaction. Live counts average
    /// 2–26 intervals per reservation over the Fig 10 matrix, peaking at 76
    /// (pruning drops everything older than a few tRC), so reserving twice
    /// this up front keeps the hot reserve/prune path almost free of
    /// reallocation.
    const PREALLOC: usize = 64;

    fn new() -> Self {
        BusLedger {
            busy: Vec::with_capacity(2 * Self::PREALLOC),
            head: 0,
            strict: false,
            watermark: 0,
        }
    }

    fn strict() -> Self {
        BusLedger {
            strict: true,
            ..Self::new()
        }
    }

    /// The live intervals, oldest first.
    fn live(&self) -> &[(u64, u64)] {
        &self.busy[self.head..]
    }

    /// Reserve `len > 0` cycles starting no earlier than `earliest`; returns
    /// the start of the granted slot.
    fn reserve(&mut self, earliest: u64, len: u64) -> u64 {
        debug_assert!(len > 0, "empty reservation");
        if self.strict {
            let t = earliest.max(self.watermark);
            self.watermark = t + len;
            return t;
        }
        // Ends are sorted, so every interval before `first` ends by
        // `earliest` and cannot conflict; every one from `first` on ends
        // after the candidate slot's start.
        let mut first = self.busy.len();
        while first > self.head && self.busy[first - 1].1 > earliest {
            first -= 1;
        }
        let mut t = earliest;
        for (i, &(s, e)) in self.busy.iter().enumerate().skip(first) {
            if s >= t + len {
                // The request slotted into a gap ahead of an already-booked
                // later transfer — the reordering "scheduler pick" this
                // ledger models (vs. appending in submission order).
                obs::counter!("dram.sched.gap_fills").inc();
                self.busy.insert(i, (t, t + len));
                return t;
            }
            // overlaps the candidate slot: push past this interval
            t = e;
        }
        self.busy.push((t, t + len));
        t
    }

    /// Drop intervals that end before `horizon` (arrivals are near-monotone,
    /// so old intervals can never matter again).
    fn prune(&mut self, horizon: u64) {
        while self.head < self.busy.len() && self.busy[self.head].1 < horizon {
            self.head += 1;
        }
        if self.head >= Self::PREALLOC {
            self.busy.drain(..self.head);
            self.head = 0;
        }
    }
}

/// Per-channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Read requests scheduled.
    pub reads: u64,
    /// Write requests scheduled.
    pub writes: u64,
    /// Sum over requests of (finish - arrival).
    pub total_latency: u64,
    /// Sum over requests of scheduling delay (act - arrival).
    pub total_queue_delay: u64,
}

/// One memory channel with its ranks and data bus.
pub struct Channel {
    config: MemoryConfig,
    ranks: Vec<RankState>,
    bus: BusLedger,
    stats: ChannelStats,
}

impl Channel {
    /// A channel with every bank idle and precharged at cycle 0.
    pub fn new(config: MemoryConfig) -> Channel {
        let ranks = (0..config.ranks_per_channel)
            .map(|_| RankState::new(&config))
            .collect();
        let bus = if config.strict_fifo {
            BusLedger::strict()
        } else {
            BusLedger::new()
        };
        Channel {
            config,
            ranks,
            bus,
            stats: ChannelStats::default(),
        }
    }

    /// Schedule one line access (close-page path; see
    /// [`Channel::schedule_row`] for the policy-dispatching entry point).
    pub fn schedule(
        &mut self,
        rank: usize,
        bank: usize,
        is_write: bool,
        arrival: u64,
    ) -> Completion {
        self.schedule_row(rank, bank, 0, is_write, arrival)
    }

    /// Schedule one line access to a specific row. Requests must be
    /// submitted in non-decreasing arrival order (the harness's event
    /// order). Under close page the row only matters for refresh-window
    /// avoidance; under open page it drives row hit/miss behaviour.
    pub fn schedule_row(
        &mut self,
        rank: usize,
        bank: usize,
        row: u64,
        is_write: bool,
        arrival: u64,
    ) -> Completion {
        if self.config.row_policy == RowPolicy::OpenPage {
            return self.schedule_open_page(rank, bank, row, is_write, arrival);
        }
        let t = self.config.effective_timing();
        let burst = self.config.burst_cycles();
        let threshold = self.config.powerdown_threshold;
        let r = &mut self.ranks[rank];

        // Earliest activate under bank / tRRD / tFAW constraints; the rank's
        // activate ledger gap-fills so younger requests aren't blocked by an
        // older request's bank conflict.
        let mut earliest = arrival.max(r.banks[bank].next_act);
        if self.config.model_refresh_timing {
            earliest = avoid_refresh_window(earliest, t.t_refi, t.t_rfc);
        }
        r.act_slots.prune(arrival.saturating_sub(4 * t.t_rc));
        let act = r.act_slots.reserve(earliest, r.act_slot);

        // Power-down wake-up, with idle-residency billing up to `act`.
        let wake = r.bill_idle(r.active_until, act, threshold, t.t_xp);
        let act = act + wake;

        // Column command and data-bus placement. The gap-filling ledger
        // models a reordering (Most-Pending-class) scheduler: an early-ready
        // transfer may use a bus gap before an already-booked later one.
        // (The rank-to-rank switch bubble tRTRS is folded into the ledger's
        // occupancy granularity.)
        let cas_latency = if is_write { t.t_cwl } else { t.t_cl };
        let mut rw_time = act + t.t_rcd;
        self.bus.prune(arrival.saturating_sub(4 * t.t_rc));
        // Writes book extra bus cycles for the write-to-read turnaround a
        // buffering controller amortizes (half of tWTR on average); reads
        // book the bare burst.
        let occupancy = if is_write { burst + t.t_wtr / 2 } else { burst };
        let data_start = self.bus.reserve(rw_time + cas_latency, occupancy);
        rw_time = data_start - cas_latency;
        let data_end = data_start + burst;

        // Close page: auto-precharge after the column access.
        let pre_done = if is_write {
            rw_time + t.t_cwl + burst + t.t_wr + t.t_rp
        } else {
            (act + t.t_ras).max(rw_time + burst.max(4) /* tRTP floor */) + t.t_rp
        };

        // Commit resource state.
        r.banks[bank].next_act = pre_done;
        // Energy: ACT + burst + active residency (union of busy windows).
        r.power.record_activate();
        if is_write {
            r.power.record_write_burst(burst);
        } else {
            r.power.record_read_burst(burst);
        }
        let active_from = act.max(r.active_until);
        if pre_done > active_from {
            r.power.record_active_time(pre_done - active_from);
        }
        r.active_until = r.active_until.max(pre_done);

        let finish = data_end;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.total_latency += finish - arrival;
        self.stats.total_queue_delay += act - arrival;

        if obs::metrics::enabled() {
            obs::counter!("dram.activates").inc();
            if is_write {
                obs::counter!("dram.writes").inc();
            } else {
                obs::counter!("dram.reads").inc();
            }
            obs::histogram!("dram.queue_delay").observe(act - arrival);
            let live = self.bus.live().len() as u64;
            obs::histogram!("dram.bus_occupancy").observe(live);
            obs::gauge!("dram.bus_occupancy_peak").set_max(live);
        }

        Completion {
            act,
            data_start,
            finish,
        }
    }

    /// Open-page scheduling: row hits skip the activate; row conflicts pay
    /// precharge + activate; open rows pin the rank in active standby.
    fn schedule_open_page(
        &mut self,
        rank: usize,
        bank: usize,
        row: u64,
        is_write: bool,
        arrival: u64,
    ) -> Completion {
        let t = self.config.effective_timing();
        let burst = self.config.burst_cycles();
        let r = &mut self.ranks[rank];
        let b = r.banks[bank];

        let (act, cas_earliest) = match b.open_row {
            Some(open) if open == row => {
                // Row hit: column command as soon as the bank allows.
                obs::counter!("dram.row_hits").inc();
                (None, arrival.max(b.cas_ready))
            }
            Some(_) => {
                // Conflict: precharge the open row, then activate the new one.
                obs::counter!("dram.row_conflicts").inc();
                let pre_start = arrival.max(b.cas_ready);
                let act_earliest = pre_start + t.t_rp;
                r.act_slots.prune(arrival.saturating_sub(4 * t.t_rc));
                let act = r.act_slots.reserve(act_earliest, r.act_slot);
                (Some(act), act + t.t_rcd)
            }
            None => {
                // Empty bank: plain activate.
                obs::counter!("dram.row_misses").inc();
                r.act_slots.prune(arrival.saturating_sub(4 * t.t_rc));
                let act = r.act_slots.reserve(arrival.max(b.next_act), r.act_slot);
                (Some(act), act + t.t_rcd)
            }
        };
        let mut cas_earliest = cas_earliest;
        if self.config.model_refresh_timing {
            cas_earliest = avoid_refresh_window(cas_earliest, t.t_refi, t.t_rfc);
        }

        let cas_latency = if is_write { t.t_cwl } else { t.t_cl };
        self.bus.prune(arrival.saturating_sub(4 * t.t_rc));
        let occupancy = if is_write { burst + t.t_wtr / 2 } else { burst };
        let data_start = self.bus.reserve(cas_earliest + cas_latency, occupancy);
        let rw_time = data_start - cas_latency;
        let data_end = data_start + burst;

        // Commit: the row stays open; tCCD-class spacing via cas_ready.
        let nb = &mut r.banks[bank];
        nb.open_row = Some(row);
        nb.cas_ready = rw_time
            + if is_write {
                t.t_cwl + burst + t.t_wr
            } else {
                burst
            };
        nb.next_act = nb.cas_ready + t.t_rp;

        // Energy: ACT only on misses; the rank stays in active standby from
        // its first open row until finalize (billed there).
        if act.is_some() {
            r.power.record_activate();
        }
        if is_write {
            r.power.record_write_burst(burst);
        } else {
            r.power.record_read_burst(burst);
        }
        let first_act = act.unwrap_or(rw_time);
        if r.open_since.is_none() {
            r.open_since = Some(first_act);
        }
        r.active_until = r.active_until.max(nb.cas_ready);

        let finish = data_end;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.total_latency += finish - arrival;
        self.stats.total_queue_delay += first_act.saturating_sub(arrival);

        if obs::metrics::enabled() {
            if act.is_some() {
                obs::counter!("dram.activates").inc();
            }
            if is_write {
                obs::counter!("dram.writes").inc();
            } else {
                obs::counter!("dram.reads").inc();
            }
            obs::histogram!("dram.queue_delay").observe(first_act.saturating_sub(arrival));
            let live = self.bus.live().len() as u64;
            obs::histogram!("dram.bus_occupancy").observe(live);
            obs::gauge!("dram.bus_occupancy_peak").set_max(live);
        }

        Completion {
            act: first_act,
            data_start,
            finish,
        }
    }

    /// Close the books at `end_cycle`: bill trailing idle residency and
    /// refresh energy for every rank.
    pub fn finalize(&mut self, end_cycle: u64) {
        let threshold = self.config.powerdown_threshold;
        for r in &mut self.ranks {
            if let Some(since) = r.open_since {
                // Open page: active standby from first activate to the end —
                // open rows keep CKE high (the energy cost the paper's
                // close-page choice avoids). Burst/activate windows already
                // billed nothing extra, so bill the whole span as active.
                if end_cycle > since {
                    r.power.record_active_time(end_cycle - since);
                }
                r.power.record_standby_time(since.min(end_cycle));
                r.power.finalize_refresh(end_cycle);
                continue;
            }
            let from = r.active_until;
            if end_cycle > from {
                let gap = end_cycle - from;
                if gap > threshold {
                    r.power.record_standby_time(threshold);
                    r.power.record_sleep_time(gap - threshold);
                } else {
                    r.power.record_standby_time(gap);
                }
            }
            r.power.finalize_refresh(end_cycle);
        }
    }

    /// Aggregate energy over all ranks of this channel.
    pub fn energy(&self) -> crate::power::EnergyBreakdown {
        let mut total = crate::power::EnergyBreakdown::default();
        for r in &self.ranks {
            total.add(r.power.energy());
        }
        total
    }

    /// Aggregate statistics since construction.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The configuration this channel was built from.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }
}

/// Push `t` past a per-rank refresh blackout window, if it lands in one.
/// Refresh is modeled as the first `t_rfc` cycles of every `t_refi` period.
fn avoid_refresh_window(t: u64, t_refi: u64, t_rfc: u64) -> u64 {
    let phase = t % t_refi;
    if phase < t_rfc {
        t - phase + t_rfc
    } else {
        t
    }
}

#[cfg(test)]
mod ledger_tests {
    use super::BusLedger;
    use std::collections::VecDeque;

    /// The ledger as it was first written, kept as the oracle: a deque
    /// walked from the front on every reservation.
    #[derive(Default)]
    struct RefLedger {
        busy: VecDeque<(u64, u64)>,
        strict: bool,
        watermark: u64,
    }

    impl RefLedger {
        fn reserve(&mut self, earliest: u64, len: u64) -> u64 {
            if self.strict {
                let t = earliest.max(self.watermark);
                self.watermark = t + len;
                return t;
            }
            let mut t = earliest;
            let mut pos = self.busy.len();
            for (i, &(s, e)) in self.busy.iter().enumerate() {
                if e <= t {
                    continue;
                }
                if s >= t + len {
                    pos = i;
                    break;
                }
                t = e;
            }
            if pos == self.busy.len() {
                pos = self.busy.partition_point(|&(s, _)| s < t);
            }
            self.busy.insert(pos, (t, t + len));
            t
        }

        fn prune(&mut self, horizon: u64) {
            while let Some(&(_, e)) = self.busy.front() {
                if e < horizon {
                    self.busy.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// How a generated stream picks each reservation's earliest cycle.
    #[derive(Clone, Copy, Debug)]
    enum Stream {
        /// A clock that creeps forward with small jitter either way.
        NearMonotone,
        /// Occasional bookings far ahead of the clock, then requests at it.
        FarThenEarly,
        /// Even starts and widths, so slots abut and gaps fit exactly.
        ExactFits,
    }

    /// What a stream exercised: compactions of the pruned prefix, grants
    /// that filled a gap ahead of a later booking, and of those the ones
    /// that ended exactly where that booking starts.
    #[derive(Default)]
    struct Coverage {
        compactions: usize,
        gap_fills: usize,
        exact_fits: usize,
    }

    /// Drive the ledger and the oracle with one seeded stream, comparing
    /// every granted start and the live interval list after every step.
    fn against_oracle(stream: Stream, seed: u64, strict: bool, ops: usize) -> Coverage {
        let mut ledger = if strict {
            BusLedger::strict()
        } else {
            BusLedger::new()
        };
        let mut oracle = RefLedger {
            strict,
            ..RefLedger::default()
        };
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut clock = 0u64;
        let mut seen = Coverage::default();
        for op in 0..ops {
            let r = next();
            clock += r % 9;
            let (earliest, len) = match stream {
                Stream::NearMonotone => {
                    ((clock + (r >> 8) % 24).saturating_sub(8), 2 + (r >> 16) % 5)
                }
                Stream::FarThenEarly if (r >> 8) % 16 == 0 => (clock + 200 + (r >> 12) % 400, 8),
                Stream::FarThenEarly => (clock + (r >> 12) % 6, 4 + (r >> 20) % 3),
                Stream::ExactFits => ((clock + (r >> 8) % 16) & !1, 2 * (1 + (r >> 16) % 3)),
            };
            let want = oracle.reserve(earliest, len);
            let got = ledger.reserve(earliest, len);
            assert_eq!(
                got, want,
                "{stream:?} seed {seed} op {op}: reserve({earliest}, {len})"
            );
            let live = ledger.live();
            if let Some(i) = live.iter().position(|&iv| iv == (got, got + len)) {
                if let Some(&(next_start, _)) = live.get(i + 1) {
                    seen.gap_fills += 1;
                    seen.exact_fits += usize::from(next_start == got + len);
                }
            }
            if (r >> 40) % 3 == 0 {
                let horizon = clock.saturating_sub(40);
                let before = ledger.head;
                oracle.prune(horizon);
                ledger.prune(horizon);
                seen.compactions += usize::from(ledger.head < before);
            }
            assert!(
                ledger.live().iter().eq(oracle.busy.iter()),
                "{stream:?} seed {seed} op {op}: live intervals differ"
            );
        }
        seen
    }

    #[test]
    fn matches_front_walk_oracle_on_generated_streams() {
        for stream in [
            Stream::NearMonotone,
            Stream::FarThenEarly,
            Stream::ExactFits,
        ] {
            for seed in 1..=6 {
                let seen = against_oracle(stream, seed, false, 5_000);
                assert!(
                    seen.compactions > 0,
                    "{stream:?} seed {seed} never compacted"
                );
                assert!(
                    seen.gap_fills > 0,
                    "{stream:?} seed {seed} never filled a gap"
                );
                if matches!(stream, Stream::ExactFits) {
                    assert!(seen.exact_fits > 0, "seed {seed} never fit a gap exactly");
                }
            }
        }
    }

    #[test]
    fn strict_mode_matches_oracle_watermark() {
        for stream in [
            Stream::NearMonotone,
            Stream::FarThenEarly,
            Stream::ExactFits,
        ] {
            against_oracle(stream, 9, true, 2_000);
        }
    }

    #[test]
    fn sequential_reservations_pack_tightly() {
        let mut l = BusLedger::default();
        assert_eq!(l.reserve(0, 4), 0);
        assert_eq!(l.reserve(0, 4), 4);
        assert_eq!(l.reserve(0, 4), 8);
    }

    #[test]
    fn early_request_fills_gap_before_later_booking() {
        let mut l = BusLedger::default();
        // a far-future booking...
        assert_eq!(l.reserve(100, 4), 100);
        // ...must not block an early one
        assert_eq!(l.reserve(0, 4), 0);
        // and a request that fits exactly between bookings takes the gap
        assert_eq!(l.reserve(2, 4), 4);
    }

    #[test]
    fn gap_too_small_pushes_past_interval() {
        let mut l = BusLedger::default();
        l.reserve(0, 4); // [0,4)
        l.reserve(6, 4); // [6,10)
                         // a 4-wide slot at >=1 doesn't fit in [4,6): lands at 10
        assert_eq!(l.reserve(1, 4), 10);
        // a 2-wide slot does fit the [4,6) gap
        assert_eq!(l.reserve(1, 2), 4);
    }

    #[test]
    fn reservations_never_overlap() {
        let mut l = BusLedger::default();
        let mut slots = vec![];
        let mut seed = 12345u64;
        for _ in 0..500 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let earliest = (seed >> 33) % 2000;
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let len = 1 + (seed >> 40) % 8;
            let start = l.reserve(earliest, len);
            assert!(start >= earliest);
            slots.push((start, start + len));
        }
        slots.sort();
        for w in slots.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn prune_drops_only_dead_intervals() {
        let mut l = BusLedger::default();
        l.reserve(0, 4);
        l.reserve(10, 4);
        l.reserve(100, 4);
        l.prune(50);
        // intervals ending before 50 are gone; a request at 0 can reuse them
        assert_eq!(l.reserve(0, 4), 0);
        // the [100,104) booking survives
        assert_eq!(l.reserve(99, 8), 104);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceKind, RankConfig};

    fn channel(ranks: usize) -> Channel {
        let cfg = MemoryConfig::new(1, ranks, RankConfig::uniform(DeviceKind::X8, 9), 64);
        Channel::new(cfg)
    }

    #[test]
    fn unloaded_read_latency_is_act_rcd_cl_burst() {
        let mut ch = channel(1);
        let c = ch.schedule(0, 0, false, 0);
        let t = ch.config().timing;
        assert_eq!(c.act, 0);
        assert_eq!(c.data_start, t.t_rcd + t.t_cl);
        assert_eq!(c.finish, t.t_rcd + t.t_cl + 4);
    }

    #[test]
    fn same_bank_back_to_back_pays_trc_class_delay() {
        let mut ch = channel(1);
        let a = ch.schedule(0, 0, false, 0);
        let b = ch.schedule(0, 0, false, 0);
        assert!(
            b.act >= a.act + ch.config().timing.t_ras,
            "second ACT to same bank must wait for precharge: {} vs {}",
            b.act,
            a.act
        );
    }

    #[test]
    fn different_banks_pipeline_on_act_slots() {
        let mut ch = channel(1);
        let a = ch.schedule(0, 0, false, 0);
        let b = ch.schedule(0, 1, false, 0);
        let t = ch.config().timing;
        let slot = t.t_rrd.max(t.t_faw.div_ceil(4));
        assert_eq!(b.act, a.act + slot, "activates pipeline at the slot pitch");
        // bus serializes the bursts
        assert!(b.data_start >= a.data_start + 4);
    }

    #[test]
    fn tfaw_limits_activate_bursts() {
        let mut ch = channel(1);
        let mut acts = vec![];
        for bank in 0..5 {
            acts.push(ch.schedule(0, bank, false, 0).act);
        }
        let t = ch.config().timing;
        assert!(
            acts[4] >= acts[0] + t.t_faw,
            "fifth ACT within one rank must respect tFAW"
        );
    }

    #[test]
    fn rank_parallelism_beats_single_rank() {
        // Eight accesses over 4 ranks finish sooner than over 1 rank.
        let mut one = channel(1);
        let mut four = channel(4);
        let mut end_one = 0;
        let mut end_four = 0;
        for i in 0..8 {
            end_one = end_one.max(one.schedule(0, i % 8, false, 0).finish);
            end_four = end_four.max(four.schedule(i % 4, i % 8, false, 0).finish);
        }
        assert!(
            end_four <= end_one,
            "4 ranks ({end_four}) should not be slower than 1 ({end_one})"
        );
    }

    #[test]
    fn write_books_turnaround_padding_on_the_bus() {
        // The write occupies burst + tWTR/2 of bus; a read queued behind it
        // starts no earlier than that padded slot's end.
        let mut ch = channel(1);
        let w = ch.schedule(0, 0, true, 0);
        let r = ch.schedule(0, 1, false, 0);
        let t = ch.config().timing;
        assert!(
            r.data_start >= w.finish + t.t_wtr / 2,
            "read data {} vs write end {} + pad",
            r.data_start,
            w.finish
        );
    }

    #[test]
    fn idle_rank_sleeps_and_wakes_with_txp() {
        let mut ch = channel(1);
        let a = ch.schedule(0, 0, false, 0);
        // long idle gap, well past the power-down threshold
        let arrival = a.finish + 10_000;
        let b = ch.schedule(0, 1, false, arrival);
        assert!(
            b.act >= arrival + ch.config().timing.t_xp,
            "activate after sleep must pay wake-up"
        );
        ch.finalize(arrival + 1000);
        let e = ch.energy();
        assert!(e.bg_sleep_pj > 0.0, "sleep residency must be billed");
        assert!(e.bg_active_pj > 0.0);
        assert!(e.bg_standby_pj > 0.0);
    }

    #[test]
    fn energy_monotone_in_traffic() {
        let mut quiet = channel(2);
        let mut busy = channel(2);
        for i in 0..4u64 {
            quiet.schedule((i % 2) as usize, (i % 8) as usize, false, i * 100);
        }
        for i in 0..64u64 {
            busy.schedule((i % 2) as usize, (i % 8) as usize, i % 3 == 0, i * 10);
        }
        quiet.finalize(20_000);
        busy.finalize(20_000);
        assert!(busy.energy().dynamic_pj() > quiet.energy().dynamic_pj());
        assert!(busy.energy().total_pj() > quiet.energy().total_pj());
    }

    #[test]
    fn open_page_row_hits_skip_the_activate() {
        let mut cfg = MemoryConfig::new(1, 1, RankConfig::uniform(DeviceKind::X8, 9), 64);
        cfg.row_policy = crate::config::RowPolicy::OpenPage;
        let mut ch = Channel::new(cfg);
        let t = ch.config().timing;
        let a = ch.schedule_row(0, 0, 7, false, 0);
        // same row: hit — data comes back a full tRCD sooner than a fresh
        // activate would allow
        let b = ch.schedule_row(0, 0, 7, false, a.finish + 10);
        assert!(
            b.data_start - (a.finish + 10) < t.t_rcd + t.t_cl + 2,
            "row hit must skip tRCD: latency {}",
            b.data_start - (a.finish + 10)
        );
        // different row: conflict — precharge + activate first
        let c = ch.schedule_row(0, 0, 9, false, b.finish + 10);
        assert!(
            c.data_start - (b.finish + 10) >= t.t_rp + t.t_rcd + t.t_cl,
            "row conflict must pay tRP + tRCD"
        );
    }

    #[test]
    fn open_page_forfeits_sleep_residency() {
        // The paper's justification for close page: it lets idle ranks
        // sleep. Same sparse traffic, both policies; only close page may
        // accumulate sleep energy.
        let mk = |policy| {
            let mut cfg = MemoryConfig::new(1, 1, RankConfig::uniform(DeviceKind::X8, 9), 64);
            cfg.row_policy = policy;
            let mut ch = Channel::new(cfg);
            for i in 0..20u64 {
                ch.schedule_row(0, (i % 8) as usize, 3, false, i * 2_000);
            }
            ch.finalize(60_000);
            ch.energy()
        };
        let close = mk(crate::config::RowPolicy::ClosePage);
        let open = mk(crate::config::RowPolicy::OpenPage);
        assert!(
            close.bg_sleep_pj > 0.0,
            "close page sleeps between accesses"
        );
        assert_eq!(open.bg_sleep_pj, 0.0, "open rows pin CKE high");
        assert!(
            open.background_pj() > 1.5 * close.background_pj(),
            "open page background {} must dwarf close page {}",
            open.background_pj(),
            close.background_pj()
        );
        // but open page saves activates on row hits
        assert!(open.activate_pj <= close.activate_pj);
    }

    #[test]
    fn refresh_windows_push_activates_when_modeled() {
        let mut cfg = MemoryConfig::new(1, 1, RankConfig::uniform(DeviceKind::X8, 9), 64);
        cfg.model_refresh_timing = true;
        let mut ch = Channel::new(cfg);
        let t = ch.config().timing;
        // arrival inside the refresh blackout at the start of a tREFI period
        let arrival = 2 * t.t_refi + 5;
        let c = ch.schedule(0, 0, false, arrival);
        assert!(
            c.act >= 2 * t.t_refi + t.t_rfc,
            "activate must wait out the refresh: act {} vs window end {}",
            c.act,
            2 * t.t_refi + t.t_rfc
        );
    }

    #[test]
    fn stats_count_reads_and_writes() {
        let mut ch = channel(1);
        ch.schedule(0, 0, false, 0);
        ch.schedule(0, 1, true, 0);
        ch.schedule(0, 2, true, 0);
        assert_eq!(ch.stats().reads, 1);
        assert_eq!(ch.stats().writes, 2);
        assert!(ch.stats().total_latency > 0);
    }

    #[test]
    fn any_line_size_is_one_burst_of_eight() {
        // A 128B line rides a rank with twice the data pins: same burst
        // occupancy, half the channels (the paper's pin-equivalence).
        let cfg64 = MemoryConfig::new(1, 1, RankConfig::uniform(DeviceKind::X4, 18), 64);
        let cfg128 = MemoryConfig::new(1, 1, RankConfig::uniform(DeviceKind::X4, 36), 128);
        let mut ch64 = Channel::new(cfg64);
        let mut ch128 = Channel::new(cfg128);
        let a64 = ch64.schedule(0, 0, false, 0);
        let a128 = ch128.schedule(0, 0, false, 0);
        assert_eq!(a128.finish - a128.data_start, a64.finish - a64.data_start);
    }
}
