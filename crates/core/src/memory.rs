//! A functional multi-channel memory protected by ECC Parity.
//!
//! This model stores real bytes and runs the real codes end to end:
//!
//! * each channel stores, per line, the **data** and its inline **detection
//!   bits** (computed by the underlying ECC at write time);
//! * **correction bits are not stored** — only the per-group XOR of them
//!   (the ECC parity), packed in the reserved region described by
//!   [`crate::layout::ParityLayout`];
//! * faults (from `mem-faults`) are *overlays*: reads through a faulty
//!   device return deterministically corrupted bytes for exactly the byte
//!   spans that device owns, while the underlying true values persist —
//!   matching real stuck-at device faults;
//! * the read path implements Fig 6 steps A1/B/C, the write path A2/D/E
//!   with parity update equation (1), and the scrubber drives the
//!   bank-pair error counters: page retirement below the threshold,
//!   migration of the pair to stored ECC lines at the threshold.
//!
//! Migrated pairs keep their corrupted devices, but every read corrects
//! through the stored ECC lines; their contribution is XORed out of every
//! parity group so the remaining channels retain single-channel protection
//! (the paper's defense against fault accumulation across channels).

use crate::events::{CorrectionPath, EventLog, MemEvent};
use crate::health::{HealthAction, HealthTable};
use crate::layout::{GroupId, LineLoc, ParityLayout};
use ecc_codes::traits::{ChipSpan, CorrectionSplit, DetectOutcome, Region};
use mem_faults::FaultInstance;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;

/// Shape and policy knobs of a [`ParityMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParityConfig {
    /// Channels in the system (one parity protects N-1 of them).
    pub channels: usize,
    /// Banks per channel (even; paired for health tracking).
    pub banks_per_channel: usize,
    /// Data rows per bank (a row models a 4KB physical page).
    pub data_rows: u32,
    /// Lines per DRAM row.
    pub lines_per_row: u32,
    /// Bank-pair error-counter threshold (paper default: 4).
    pub threshold: u8,
}

impl ParityConfig {
    /// A small functional-test configuration.
    pub fn small(channels: usize) -> ParityConfig {
        ParityConfig {
            channels,
            banks_per_channel: 4,
            data_rows: 2 * (channels as u32 - 1).max(1),
            lines_per_row: 4,
            threshold: 4,
        }
    }

    /// Data lines per bank.
    pub fn lines_per_bank(&self) -> u64 {
        self.data_rows as u64 * self.lines_per_row as u64
    }

    /// Data lines per channel.
    pub fn lines_per_channel(&self) -> u64 {
        self.banks_per_channel as u64 * self.lines_per_bank()
    }
}

/// Errors surfaced by memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The page was retired by the OS; software must not touch it.
    RetiredPage,
    /// Detected error beyond correction capability (e.g. faults in two
    /// channels at the same relative location while only parities exist).
    Uncorrectable,
    /// The addressed location does not exist in this memory's shape.
    BadLocation {
        /// Channel the access named.
        channel: usize,
        /// Line coordinates the access named.
        loc: LineLoc,
    },
    /// A data buffer does not match the scheme's line size.
    LengthMismatch {
        /// Bytes the scheme's lines hold.
        expected: usize,
        /// Bytes the caller supplied.
        got: usize,
    },
    /// A fault injection named a channel outside the configured system.
    FaultChannelOutOfRange {
        /// Channel the fault named.
        channel: usize,
        /// Channels the memory has.
        channels: usize,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::RetiredPage => write!(f, "access to a retired page"),
            MemError::Uncorrectable => write!(f, "uncorrectable memory error"),
            MemError::BadLocation { channel, loc } => write!(
                f,
                "no such line: channel {channel}, bank {}, row {}, line {}",
                loc.bank, loc.row, loc.line
            ),
            MemError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "data length mismatch: expected {expected} bytes, got {got}"
                )
            }
            MemError::FaultChannelOutOfRange { channel, channels } => write!(
                f,
                "fault channel {channel} out of range (memory has {channels} channels)"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// Outcome of one scrub sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Lines read by the sweep.
    pub lines_scanned: u64,
    /// Lines found inconsistent.
    pub errors_detected: u64,
    /// Pages retired as a consequence.
    pub pages_retired: u64,
    /// Bank pairs that crossed the threshold during the sweep.
    pub pairs_migrated: u64,
    /// Errors beyond the scheme's correction capability.
    pub uncorrectable: u64,
}

/// Operation counters (drive the traffic/energy accounting upstream).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Demand reads served.
    pub reads: u64,
    /// Demand writes served.
    pub writes: u64,
    /// Reads/scrubs that detected an error.
    pub detected_errors: u64,
    /// Corrections that reconstructed correction bits from the parity
    /// (Fig 6 step C) — each costs N-2 extra member reads plus the parity.
    pub parity_reconstructions: u64,
    /// Extra line reads performed for reconstructions.
    pub reconstruction_reads: u64,
    /// Corrections served by stored ECC lines (step B path).
    pub ecc_line_corrections: u64,
    /// Parity read-modify-writes on the write path (step E).
    pub parity_updates: u64,
    /// ECC-line writes on the write path to faulty banks (step D).
    pub ecc_line_updates: u64,
    /// Bank pairs migrated to stored ECC lines.
    pub pairs_migrated: u64,
    /// Errors beyond the scheme's correction capability.
    pub uncorrectable: u64,
}

#[derive(Debug, Clone)]
struct StoredLine {
    data: Vec<u8>,
    detection: Vec<u8>,
}

/// The functional ECC-Parity memory (see module docs).
pub struct ParityMemory<S: CorrectionSplit> {
    ecc: S,
    /// `ecc.chip_layout()`, built once: every device read under a fault
    /// overlay walks it.
    chip_layout: Vec<Vec<ChipSpan>>,
    cfg: ParityConfig,
    layout: ParityLayout,
    health: HealthTable,
    /// True stored contents per channel, flat-indexed by line.
    store: Vec<Vec<StoredLine>>,
    /// Parity per group, length = correction_bytes. Lazily materialized.
    parities: HashMap<GroupId, Vec<u8>>,
    /// Stored ECC correction bits of migrated pairs.
    ecc_lines: HashMap<(usize, LineLoc), Vec<u8>>,
    faults: Vec<FaultInstance>,
    stats: MemStats,
    log: EventLog,
}

impl<S: CorrectionSplit> ParityMemory<S> {
    /// A pristine memory protecting `cfg`-shaped channels with `ecc`,
    /// deriving the paper's `R` from the code's byte counts.
    pub fn new(ecc: S, cfg: ParityConfig) -> Self {
        // R as an exact fraction from the code's byte counts.
        let r_num = ecc.correction_bytes() as u32;
        let r_den = ecc.data_bytes() as u32;
        let layout = ParityLayout::new(
            cfg.channels,
            cfg.banks_per_channel,
            cfg.data_rows,
            cfg.lines_per_row,
            r_num,
            r_den,
        );
        let zero = vec![0u8; ecc.data_bytes()];
        let det0 = ecc.detection_of(&zero);
        let line = StoredLine {
            data: zero,
            detection: det0,
        };
        let per_channel = cfg.lines_per_channel() as usize;
        let store = (0..cfg.channels)
            .map(|_| vec![line.clone(); per_channel])
            .collect();
        ParityMemory {
            health: HealthTable::new(cfg.channels, cfg.banks_per_channel, cfg.threshold),
            chip_layout: ecc.chip_layout(),
            ecc,
            cfg,
            layout,
            store,
            parities: HashMap::new(),
            ecc_lines: HashMap::new(),
            faults: vec![],
            stats: MemStats::default(),
            log: EventLog::default(),
        }
    }

    /// The shape/policy knobs this memory was built with.
    pub fn config(&self) -> &ParityConfig {
        &self.cfg
    }

    /// The parity-group address math.
    pub fn layout(&self) -> &ParityLayout {
        &self.layout
    }

    /// The bank-pair health table.
    pub fn health(&self) -> &HealthTable {
        &self.health
    }

    /// Operation counters since construction.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The underlying ECC scheme.
    pub fn ecc(&self) -> &S {
        &self.ecc
    }

    /// The RAS event log (detections, retirements, migrations, ...).
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    fn idx(&self, loc: &LineLoc) -> usize {
        assert!(loc.bank < self.cfg.banks_per_channel);
        assert!(loc.row < self.cfg.data_rows);
        assert!(loc.line < self.cfg.lines_per_row);
        ((loc.bank as u64 * self.cfg.data_rows as u64 + loc.row as u64)
            * self.cfg.lines_per_row as u64
            + loc.line as u64) as usize
    }

    /// Typed bounds check for a public access: every entry point validates
    /// before `idx` so malformed addresses surface as [`MemError`]s rather
    /// than panics (the resilience soak drives arbitrary access streams).
    fn check_loc(&self, channel: usize, loc: &LineLoc) -> Result<(), MemError> {
        if channel >= self.cfg.channels
            || loc.bank >= self.cfg.banks_per_channel
            || loc.row >= self.cfg.data_rows
            || loc.line >= self.cfg.lines_per_row
        {
            return Err(MemError::BadLocation { channel, loc: *loc });
        }
        Ok(())
    }

    fn check_fault_channel(&self, fault: &FaultInstance) -> Result<(), MemError> {
        if fault.chip.channel >= self.cfg.channels {
            return Err(MemError::FaultChannelOutOfRange {
                channel: fault.chip.channel,
                channels: self.cfg.channels,
            });
        }
        Ok(())
    }

    /// Inject a *permanent* device fault: an overlay that corrupts every
    /// subsequent read whose coordinates it covers (stuck-at semantics).
    pub fn inject_fault(&mut self, fault: FaultInstance) {
        self.try_inject_fault(fault).expect("fault in range");
    }

    /// Fallible [`Self::inject_fault`]: rejects a fault whose channel lies
    /// outside this memory instead of panicking.
    pub fn try_inject_fault(&mut self, fault: FaultInstance) -> Result<(), MemError> {
        self.check_fault_channel(&fault)?;
        self.faults.push(fault);
        Ok(())
    }

    /// Inject a *transient* fault (e.g. a particle strike): the covered
    /// lines' stored bytes are corrupted once, in place. Unlike a permanent
    /// fault, a scrub sweep repairs the damage for good (the corrected data
    /// is written back), so transients never accumulate toward migration
    /// beyond their first detection.
    pub fn inject_transient(&mut self, fault: FaultInstance) {
        self.try_inject_transient(fault).expect("fault in range");
    }

    /// Fallible [`Self::inject_transient`]: rejects a fault whose channel
    /// lies outside this memory instead of panicking.
    pub fn try_inject_transient(&mut self, fault: FaultInstance) -> Result<(), MemError> {
        self.check_fault_channel(&fault)?;
        let chip = fault.chip.chip % self.ecc.chips_per_rank();
        for bank in 0..self.cfg.banks_per_channel {
            for row in 0..self.cfg.data_rows {
                for line in 0..self.cfg.lines_per_row {
                    if !fault.affects(fault.chip.rank, bank as u32, row, line) {
                        continue;
                    }
                    let loc = LineLoc { bank, row, line };
                    // Materialize this group's parity from the pre-strike
                    // contents first: the parity region models state the
                    // write path has maintained since boot, so it must
                    // reflect the data as it was *before* the strike.
                    let group = self.layout.group_of(fault.chip.channel, &loc);
                    self.parity(group);
                    let idx = self.idx(&loc);
                    let stored = &mut self.store[fault.chip.channel][idx];
                    for span in &self.chip_layout[chip] {
                        let buf: &mut [u8] = match span.region {
                            Region::Data => &mut stored.data[span.start..span.start + span.len],
                            Region::Detection => {
                                &mut stored.detection[span.start..span.start + span.len]
                            }
                            Region::Correction => continue,
                        };
                        fault.corrupt(buf, bank as u32, row, line ^ ((span.start as u32) << 8));
                    }
                }
            }
        }
        Ok(())
    }

    /// Faults currently injected.
    pub fn faults(&self) -> &[FaultInstance] {
        &self.faults
    }

    /// The exact `(data, detection)` bytes a device read of this location
    /// returns right now — true stored contents with the fault overlay
    /// applied, before any detection or correction.
    ///
    /// This is what the memory controller actually sees; external verifiers
    /// (the resilience soak) use it to decide whether a wrong-data `Ok` was
    /// an implementation failure (detection would have fired on this view)
    /// or a detection-coverage limit of the scheme itself (the view is
    /// self-consistent, e.g. a checksum-aliasing corruption).
    pub fn raw_view(&self, channel: usize, loc: &LineLoc) -> Result<(Vec<u8>, Vec<u8>), MemError> {
        self.check_loc(channel, loc)?;
        let (data, det) = self.read_raw(channel, loc);
        Ok((data.into_owned(), det.into_owned()))
    }

    /// Raw device read: true contents plus fault-overlay corruption of the
    /// byte spans owned by faulty devices. The stored bytes are borrowed,
    /// and copied only when a fault overlay covers the line.
    fn read_raw(&self, channel: usize, loc: &LineLoc) -> (Cow<'_, [u8]>, Cow<'_, [u8]>) {
        let s = &self.store[channel][self.idx(loc)];
        let mut data = Cow::Borrowed(s.data.as_slice());
        let mut det = Cow::Borrowed(s.detection.as_slice());
        let chips = self.ecc.chips_per_rank();
        for f in &self.faults {
            if f.chip.channel != channel {
                continue;
            }
            if !f.affects(f.chip.rank, loc.bank as u32, loc.row, loc.line) {
                continue;
            }
            let chip = f.chip.chip % chips;
            for span in &self.chip_layout[chip] {
                let buf: &mut [u8] = match span.region {
                    Region::Data => &mut data.to_mut()[span.start..span.start + span.len],
                    Region::Detection => &mut det.to_mut()[span.start..span.start + span.len],
                    // Correction bits are not stored inline under ECC Parity.
                    Region::Correction => continue,
                };
                f.corrupt(
                    buf,
                    loc.bank as u32,
                    loc.row,
                    loc.line ^ ((span.start as u32) << 8),
                );
            }
        }
        (data, det)
    }

    /// Current parity of a group (materializing it from member contents on
    /// first touch).
    fn parity(&mut self, group: GroupId) -> &mut Vec<u8> {
        if !self.parities.contains_key(&group) {
            let fresh = self.compute_parity_from_scratch(&group);
            self.parities.insert(group, fresh);
        }
        self.parities.get_mut(&group).unwrap()
    }

    /// Recompute a group parity from the true stored contents of its
    /// non-migrated members (ground truth; the incremental write-path
    /// updates must always agree — see the property tests).
    pub fn compute_parity_from_scratch(&self, group: &GroupId) -> Vec<u8> {
        let mut p = vec![0u8; self.ecc.correction_bytes()];
        for (mc, mloc) in self.layout.members(group) {
            if self.health.is_faulty(mc, mloc.bank) {
                continue; // migrated: contribution removed
            }
            let corr = self
                .ecc
                .correction_of(&self.store[mc][self.idx(&mloc)].data);
            for (a, b) in p.iter_mut().zip(&corr) {
                *a ^= b;
            }
        }
        p
    }

    /// Model a fault in the **reserved parity region itself**: corrupt the
    /// stored parity of `group` with a deterministic nonzero pattern.
    ///
    /// The parity region is ordinary DRAM (Fig 5) and can fail like any
    /// other row. Because reconstruction through a corrupted parity yields
    /// correction bits that fail the codec's internal verification, the
    /// outcome of a subsequent faulty-member read is a *detected*
    /// uncorrectable error, never silent corruption — the resilience soak's
    /// `parity_region_fault` scenario asserts exactly that.
    pub fn corrupt_parity(&mut self, group: GroupId, seed: u64) {
        let n = {
            let p = self.parity(group);
            let mut state = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0x2545_F491_4F6C_DD1D);
            for b in p.iter_mut() {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let flip = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u8;
                *b ^= if flip == 0 { 0xFF } else { flip };
            }
            p.len()
        };
        debug_assert_eq!(n, self.ecc.correction_bytes());
    }

    /// Repair the stored parity of `group` by recomputing it from the true
    /// member contents — the scrubber's action once a parity-region error
    /// is diagnosed (parity rows carry their own detection bits in the
    /// paper's layout, so the damage is discoverable).
    pub fn rebuild_parity(&mut self, group: GroupId) {
        let fresh = self.compute_parity_from_scratch(&group);
        self.parities.insert(group, fresh);
    }

    /// Audit every materialized group parity against a from-scratch
    /// recomputation; returns the number of inconsistent live groups.
    ///
    /// Zero is the invariant the incremental write-path updates must keep.
    /// Call **after** a scrub sweep: pending (not yet scrubbed) transient
    /// damage legitimately makes the stored parity disagree with a
    /// recomputation over the corrupted store. Groups with a retired member
    /// page are skipped — retirement freezes the page's bytes (possibly
    /// including unhealed transient damage scrub can no longer reach), and
    /// software never reads through such a group again.
    pub fn audit_parity_consistency(&self) -> usize {
        self.parities
            .iter()
            .filter(|(g, p)| {
                let retired = self
                    .layout
                    .members(g)
                    .into_iter()
                    .any(|(mc, ml)| self.health.is_retired(mc, ml.bank, ml.row));
                !retired && &self.compute_parity_from_scratch(g) != *p
            })
            .count()
    }

    /// Fig 6 step C: rebuild the correction bits of `(channel, loc)` from
    /// its group parity plus the correction bits of the other members,
    /// which are recomputed from their (verified-clean) data.
    fn reconstruct_correction(
        &mut self,
        channel: usize,
        loc: &LineLoc,
    ) -> Result<Vec<u8>, MemError> {
        let group = self.layout.group_of(channel, loc);
        let mut corr = self.parity(group).clone();
        let members = self.layout.members(&group);
        for (mc, mloc) in members {
            if mc == channel && mloc == *loc {
                continue;
            }
            if self.health.is_faulty(mc, mloc.bank) {
                continue; // already out of the parity
            }
            let mcorr = {
                let (mdata, mdet) = self.read_raw(mc, &mloc);
                (self.ecc.detect(&mdata, &mdet) == DetectOutcome::Clean)
                    .then(|| self.ecc.correction_of(&mdata))
            };
            self.stats.reconstruction_reads += 1;
            let Some(mcorr) = mcorr else {
                // Two channels faulty at the same relative location and the
                // second not yet migrated: the parity cannot help.
                return Err(MemError::Uncorrectable);
            };
            for (a, b) in corr.iter_mut().zip(&mcorr) {
                *a ^= b;
            }
        }
        self.stats.parity_reconstructions += 1;
        Ok(corr)
    }

    /// Equation (1), `ECCP_new = ECCP_old ⊕ ECC_old ⊕ ECC_new`, on the
    /// parity of the group holding `(channel, loc)`.
    fn fold_parity(&mut self, channel: usize, loc: &LineLoc, old_corr: &[u8], new_corr: &[u8]) {
        let group = self.layout.group_of(channel, loc);
        let p = self.parity(group);
        for ((a, o), n) in p.iter_mut().zip(old_corr).zip(new_corr) {
            *a ^= o ^ n;
        }
    }

    /// Correct a detect-dirty line (`data`, `det`) through the parity path
    /// and write the corrected value back. Returns false, changing nothing,
    /// when the parity cannot correct it. The parity is kept consistent by
    /// equation (1) with the reconstructed bits as `ECC_old`: they are what
    /// the parity actually holds for this line, which a recompute from the
    /// store would not be once a transient has corrupted the stored bytes.
    fn repair_through_parity(
        &mut self,
        channel: usize,
        loc: &LineLoc,
        mut data: Vec<u8>,
        det: &[u8],
    ) -> bool {
        let Ok(corr) = self.reconstruct_correction(channel, loc) else {
            return false;
        };
        if self.ecc.correct(&mut data, det, &corr, None).is_err() {
            return false;
        }
        let new_corr = self.ecc.correction_of(&data);
        self.fold_parity(channel, loc, &corr, &new_corr);
        let detection = self.ecc.detection_of(&data);
        let idx = self.idx(loc);
        self.store[channel][idx] = StoredLine { data, detection };
        true
    }

    /// Record a detected error per §III-C: increment the pair counter,
    /// retire the page (and its parity-sharing peer pages) below the
    /// threshold, migrate the pair at the threshold. Returns pages retired.
    /// Retire the page of `(channel, loc)` together with every page sharing
    /// its parities (the member pages of its parity group). Returns the
    /// number of pages newly retired.
    fn retire_group_of(&mut self, channel: usize, loc: &LineLoc) -> u64 {
        let mut retired = 0u64;
        let group = self.layout.group_of(channel, loc);
        for (mc, mloc) in self.layout.members(&group) {
            if !self.health.is_retired(mc, mloc.bank, mloc.row) {
                self.health.retire_page(mc, mloc.bank, mloc.row);
                self.log.push(MemEvent::PageRetired {
                    channel: mc,
                    bank: mloc.bank,
                    row: mloc.row,
                });
                retired += 1;
            }
        }
        retired
    }

    fn note_error(&mut self, channel: usize, loc: &LineLoc) -> (u64, bool) {
        match self.health.record_error(channel, loc.bank) {
            HealthAction::RetirePage => {
                // The page itself plus every page sharing its parities: the
                // member pages of this page's parity group.
                (self.retire_group_of(channel, loc), false)
            }
            HealthAction::MigratePair => {
                self.migrate_pair(channel, loc.bank / 2);
                (0, true)
            }
            HealthAction::AlreadyFaulty => (0, false),
        }
    }

    /// §III-B: store the actual ECC correction bits of both banks of a pair
    /// and strike their contributions from every parity group. ECC lines
    /// live cross-bank within the pair (Fig 5) with a 2R capacity charge and
    /// their own ECC protection (we model them as reliable storage).
    pub fn migrate_pair(&mut self, channel: usize, pair: usize) {
        let banks = [2 * pair, 2 * pair + 1];
        // Pass 1 — heal before trusting: the snapshot below treats the
        // store as ground truth, but a transient strike corrupts the store
        // *in place*, and freezing that damage into the ECC lines would turn
        // it into permanent silent corruption. Any detect-dirty line is
        // first corrected through the parity path (valid here because the
        // pair is not yet marked faulty); lines the parity cannot fix take
        // their whole group out of service via retirement.
        for &bank in &banks {
            for row in 0..self.cfg.data_rows {
                if self.health.is_retired(channel, bank, row) {
                    continue;
                }
                for line in 0..self.cfg.lines_per_row {
                    if self.health.is_retired(channel, bank, row) {
                        break;
                    }
                    let loc = LineLoc { bank, row, line };
                    let stored = &self.store[channel][self.idx(&loc)];
                    if self.ecc.detect(&stored.data, &stored.detection) == DetectOutcome::Clean {
                        continue;
                    }
                    let (data, det) = (stored.data.clone(), stored.detection.clone());
                    if !self.repair_through_parity(channel, &loc, data, &det) {
                        self.stats.uncorrectable += 1;
                        self.log.push(MemEvent::Uncorrectable { channel, loc });
                        self.retire_group_of(channel, &loc);
                    }
                }
            }
        }
        // Mark first so parity materialization during the sweep excludes us.
        self.health
            .mark_faulty(crate::health::PairId { channel, pair });
        for &bank in &banks {
            for row in 0..self.cfg.data_rows {
                for line in 0..self.cfg.lines_per_row {
                    let loc = LineLoc { bank, row, line };
                    // True stored data is the reconstruction target; the
                    // hardware obtains it by correcting through parities
                    // (the read path proves that works).
                    let true_data = self.store[channel][self.idx(&loc)].data.clone();
                    let corr = self.ecc.correction_of(&true_data);
                    // Remove this line's contribution from its group parity
                    // (skip if the parity was never materialized AND compute-
                    // from-scratch already excludes us via the faulty mark).
                    let group = self.layout.group_of(channel, &loc);
                    if let Some(p) = self.parities.get_mut(&group) {
                        for (a, b) in p.iter_mut().zip(&corr) {
                            *a ^= b;
                        }
                    }
                    self.ecc_lines.insert((channel, loc), corr);
                }
            }
        }
        self.stats.pairs_migrated += 1;
        self.log.push(MemEvent::PairMigrated { channel, pair });
    }

    /// Application read (Fig 6 left half).
    pub fn read(&mut self, channel: usize, loc: LineLoc) -> Result<Vec<u8>, MemError> {
        self.check_loc(channel, &loc)?;
        if self.health.is_retired(channel, loc.bank, loc.row) {
            return Err(MemError::RetiredPage);
        }
        self.stats.reads += 1;
        let faulty = self.health.is_faulty(channel, loc.bank); // step A1
        let (data, det) = self.read_raw(channel, &loc);
        if self.ecc.detect(&data, &det) == DetectOutcome::Clean {
            return Ok(data.into_owned());
        }
        let (mut data, det) = (data.into_owned(), det.into_owned());
        self.stats.detected_errors += 1;
        let corr = if faulty {
            // Step B: the ECC line was read in parallel.
            self.stats.ecc_line_corrections += 1;
            self.ecc_lines
                .get(&(channel, loc))
                .cloned()
                .unwrap_or_else(|| vec![0u8; self.ecc.correction_bytes()])
        } else {
            // Step C: reconstruct from the parity.
            match self.reconstruct_correction(channel, &loc) {
                Ok(c) => c,
                Err(e) => {
                    self.stats.uncorrectable += 1;
                    self.log.push(MemEvent::Uncorrectable { channel, loc });
                    self.note_error(channel, &loc);
                    return Err(e);
                }
            }
        };
        match self.ecc.correct(&mut data, &det, &corr, None) {
            Ok(_) => {
                self.log.push(MemEvent::ErrorDetected {
                    channel,
                    loc,
                    resolved: if faulty {
                        CorrectionPath::StoredEccLine
                    } else {
                        CorrectionPath::ParityReconstruction
                    },
                });
                if !faulty {
                    self.note_error(channel, &loc);
                }
                Ok(data)
            }
            Err(_) => {
                self.stats.uncorrectable += 1;
                self.log.push(MemEvent::Uncorrectable { channel, loc });
                if !faulty {
                    self.note_error(channel, &loc);
                }
                Err(MemError::Uncorrectable)
            }
        }
    }

    /// Application write (Fig 6 right half).
    pub fn write(&mut self, channel: usize, loc: LineLoc, new_data: &[u8]) -> Result<(), MemError> {
        self.check_loc(channel, &loc)?;
        if new_data.len() != self.ecc.data_bytes() {
            return Err(MemError::LengthMismatch {
                expected: self.ecc.data_bytes(),
                got: new_data.len(),
            });
        }
        if self.health.is_retired(channel, loc.bank, loc.row) {
            return Err(MemError::RetiredPage);
        }
        self.stats.writes += 1;
        let faulty = self.health.is_faulty(channel, loc.bank); // step A2
        let idx = self.idx(&loc);
        let new_corr = self.ecc.correction_of(new_data);
        if faulty {
            // Step D: write the ECC line alongside the data.
            self.ecc_lines.insert((channel, loc), new_corr);
            self.stats.ecc_line_updates += 1;
        } else {
            // Step E, equation (1). ECC_old comes from the line's old value
            // — on hardware, the inclusive LLC holds it (Fig 7); here, the
            // true stored value.
            let stored = &self.store[channel][idx];
            let old_corr =
                if self.ecc.detect(&stored.data, &stored.detection) == DetectOutcome::Clean {
                    self.ecc.correction_of(&stored.data)
                } else {
                    // The stored bytes were corrupted in place (a transient
                    // strike) after the parity last folded this line in, so
                    // equation (1) applied to the corrupted value would drift
                    // the parity. The contribution the parity actually holds is
                    // recoverable the same way a read recovers it: parity XOR
                    // the other members' correction bits. Never drop the parity
                    // here — a lazy recompute would fold any still-corrupted
                    // sibling's bytes in as truth, and a later read of that
                    // sibling would then reconstruct correction bits matching
                    // its corrupted data: silent corruption. (Hardware never
                    // faces this: the LLC fill read would have corrected the
                    // line before the store retired.)
                    match self.reconstruct_correction(channel, &loc) {
                        Ok(corr_in_parity) => corr_in_parity,
                        Err(_) => {
                            // Another member of the group is dirty too — beyond
                            // the single-device envelope, the line's old
                            // contribution is unrecoverable and the parity is
                            // unsalvageable. Fail visibly: machine-check the
                            // write and retire the whole group.
                            self.stats.uncorrectable += 1;
                            self.log.push(MemEvent::Uncorrectable { channel, loc });
                            self.retire_group_of(channel, &loc);
                            return Err(MemError::Uncorrectable);
                        }
                    }
                };
            self.fold_parity(channel, &loc, &old_corr, &new_corr);
            self.stats.parity_updates += 1;
        }
        let det = self.ecc.detection_of(new_data);
        self.store[channel][idx] = StoredLine {
            data: new_data.to_vec(),
            detection: det,
        };
        Ok(())
    }

    /// [`Self::write`] per item, in order. It adds nothing to `write`; it
    /// stays only because the benchmark's soak replay
    /// (`benchmark/src/soak.rs`) calls it.
    pub fn write_lines(&mut self, writes: &[(usize, LineLoc, &[u8])]) -> Vec<Result<(), MemError>> {
        writes
            .iter()
            .map(|&(c, l, d)| self.write(c, l, d))
            .collect()
    }

    /// One full scrub sweep over every non-retired line of every channel
    /// (§III-C: periodic scanning bounds the window in which a second
    /// channel can fail before a first fault is reacted to).
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for channel in 0..self.cfg.channels {
            for bank in 0..self.cfg.banks_per_channel {
                for row in 0..self.cfg.data_rows {
                    if self.health.is_retired(channel, bank, row) {
                        continue;
                    }
                    for line in 0..self.cfg.lines_per_row {
                        // Re-check retirement: an earlier error in this very
                        // sweep may have retired the page.
                        if self.health.is_retired(channel, bank, row) {
                            break;
                        }
                        let loc = LineLoc { bank, row, line };
                        report.lines_scanned += 1;
                        let (data, det) = self.read_raw(channel, &loc);
                        if self.ecc.detect(&data, &det) == DetectOutcome::Clean {
                            continue;
                        }
                        // The line needs repair: take its bytes.
                        let (mut data, det) = (data.into_owned(), det.into_owned());
                        report.errors_detected += 1;
                        if self.health.is_faulty(channel, bank) {
                            // Migrated banks stay in the scrub rotation,
                            // healing through the stored ECC line. Skipping
                            // them would let transient store damage sit
                            // unrepaired until a second, independent strike
                            // overlaps the same line — two devices' worth of
                            // damage, beyond every scheme's correction
                            // strength and a silent-corruption hazard. §III-C
                            // scrubbing exists precisely to bound that window.
                            let corr = self
                                .ecc_lines
                                .get(&(channel, loc))
                                .cloned()
                                .unwrap_or_else(|| vec![0u8; self.ecc.correction_bytes()]);
                            if self.ecc.correct(&mut data, &det, &corr, None).is_ok() {
                                let fixed_det = self.ecc.detection_of(&data);
                                let idx = self.idx(&loc);
                                self.store[channel][idx] = StoredLine {
                                    data,
                                    detection: fixed_det,
                                };
                            } else {
                                // The ECC line cannot reconstruct the line:
                                // damage exceeded the envelope before this
                                // sweep reached it. Fail visibly and retire
                                // the page. Only this page: a migrated bank's
                                // parity contributions were already struck
                                // from every group at migration, so the
                                // damage is local — group-wide retirement
                                // here would cascade healthy peers out of
                                // service for no protective benefit.
                                report.uncorrectable += 1;
                                self.stats.uncorrectable += 1;
                                self.log.push(MemEvent::Uncorrectable { channel, loc });
                                if !self.health.is_retired(channel, loc.bank, loc.row) {
                                    self.health.retire_page(channel, loc.bank, loc.row);
                                    self.log.push(MemEvent::PageRetired {
                                        channel,
                                        bank: loc.bank,
                                        row: loc.row,
                                    });
                                    report.pages_retired += 1;
                                }
                            }
                            continue;
                        }
                        // Verify correctability through the parity path and
                        // write the repair back, then act on the counter.
                        // Permanent faults re-corrupt on the next read
                        // (overlay); transient damage is healed in place.
                        let correctable = self.repair_through_parity(channel, &loc, data, &det);
                        if !correctable {
                            report.uncorrectable += 1;
                            self.stats.uncorrectable += 1;
                        }
                        let (retired, migrated) = self.note_error(channel, &loc);
                        report.pages_retired += retired;
                        if migrated {
                            report.pairs_migrated += 1;
                            break; // bank now served by ECC lines
                        }
                        if retired > 0 {
                            break; // page gone; move to next row
                        }
                    }
                }
            }
        }
        report
    }

    /// Current total capacity overhead: detection (12.5%) + parity region +
    /// 2R for every migrated pair + retired pages.
    pub fn capacity_overhead(&self) -> f64 {
        let n = self.cfg.channels as f64;
        let r = self.ecc.correction_ratio();
        let detection = self.ecc.detection_bytes() as f64 / self.ecc.data_bytes() as f64;
        let parity = 1.125 * r / (n - 1.0);
        let migrated = self.health.faulty_fraction() * 2.0 * r;
        let total_pages =
            (self.cfg.channels * self.cfg.banks_per_channel) as f64 * self.cfg.data_rows as f64;
        let retired = self.health.retired_count() as f64 / total_pages;
        detection + parity + migrated + retired
    }
}
