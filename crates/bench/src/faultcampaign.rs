//! The fault-injection campaign's work plan, run by the `campaign`
//! binary.
//!
//! [`plan`] builds the shard list from the environment
//! (`ECC_PARITY_FAST` trial geometry). Shard names, seeds and the config
//! key are pure functions of that geometry, so a resumed run rebuilds the
//! identical list and matches the journal a killed run left: any shard
//! that re-executes publishes a byte-identical payload.

use crate::harness::fast_mode;
use crate::supervisor::Shard;
use ecc_codes::lotecc::LotEcc;
use ecc_parity::layout::LineLoc;
use ecc_parity::memory::{MemError, ParityConfig, ParityMemory};
use mem_faults::{ChipLocation, FaultInstance, FaultMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Campaign name: journal stem and summary label.
pub const CAMPAIGN_NAME: &str = "campaign";

/// Per-group outcome counts of the fault-injection campaign.
#[derive(Default, Clone, Copy, Serialize, Deserialize)]
pub struct Tally {
    /// Trials executed.
    pub trials: u64,
    /// Reads that returned correct data with no correction involved.
    pub clean_reads: u64,
    /// Reads corrected on the fly (parity reconstruction / stored ECC).
    pub corrected_reads: u64,
    /// Pages retired by the health policy across the group.
    pub retired_pages: u64,
    /// Line-pair migrations performed by scrubs.
    pub migrations: u64,
    /// Detected-uncorrectable events (allowed for multi-channel faults).
    pub uncorrectable: u64,
    /// Silent corruptions — wrong data returned as if clean. Must be 0.
    pub silent: u64,
}

/// Sum two tallies field-wise.
pub fn merge(a: Tally, b: Tally) -> Tally {
    Tally {
        trials: a.trials + b.trials,
        clean_reads: a.clean_reads + b.clean_reads,
        corrected_reads: a.corrected_reads + b.corrected_reads,
        retired_pages: a.retired_pages + b.retired_pages,
        migrations: a.migrations + b.migrations,
        uncorrectable: a.uncorrectable + b.uncorrectable,
        silent: a.silent + b.silent,
    }
}

fn random_fault(
    rng: &mut StdRng,
    cfg: &ParityConfig,
    mode: FaultMode,
    channel: usize,
) -> FaultInstance {
    FaultInstance {
        chip: ChipLocation {
            channel,
            rank: 0,
            chip: rng.gen_range(0..5),
        },
        mode,
        bank: rng.gen_range(0..cfg.banks_per_channel as u32),
        row: rng.gen_range(0..cfg.data_rows),
        line: rng.gen_range(0..cfg.lines_per_row),
        pattern_seed: rng.gen(),
    }
}

/// One randomized trial: fill a 4-channel LOT-ECC5 + ECC Parity memory,
/// inject one (or two cross-channel) faults, scrub twice, audit every
/// line against the shadow copy.
pub fn run_trial(seed: u64, mode: FaultMode, double: bool) -> Tally {
    let cfg = ParityConfig::small(4);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mem = ParityMemory::new(LotEcc::five(), cfg);
    let mut shadow = vec![];
    for c in 0..cfg.channels {
        for bank in 0..cfg.banks_per_channel {
            for row in 0..cfg.data_rows {
                for line in 0..cfg.lines_per_row {
                    let d: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
                    let loc = LineLoc { bank, row, line };
                    mem.write(c, loc, &d).unwrap();
                    shadow.push((c, loc, d));
                }
            }
        }
    }
    let c1 = rng.gen_range(0..cfg.channels);
    mem.inject_fault(random_fault(&mut rng, &cfg, mode, c1));
    if double {
        let mut c2 = rng.gen_range(0..cfg.channels);
        while c2 == c1 {
            c2 = rng.gen_range(0..cfg.channels);
        }
        mem.inject_fault(random_fault(&mut rng, &cfg, mode, c2));
    }
    // Scrub twice (detection + post-migration steady state), then audit.
    let rep1 = mem.scrub();
    let rep2 = mem.scrub();
    let mut t = Tally {
        trials: 1,
        migrations: rep1.pairs_migrated + rep2.pairs_migrated,
        uncorrectable: rep1.uncorrectable + rep2.uncorrectable,
        ..Default::default()
    };
    t.retired_pages = mem.health().retired_count() as u64;
    let before_errors = mem.stats().detected_errors;
    for (c, loc, d) in &shadow {
        if mem.health().is_retired(*c, loc.bank, loc.row) {
            continue;
        }
        match mem.read(*c, *loc) {
            Ok(got) => {
                if &got == d {
                    t.clean_reads += 1;
                } else {
                    t.silent += 1; // must never happen
                }
            }
            Err(MemError::Uncorrectable) => t.uncorrectable += 1,
            Err(MemError::RetiredPage) => {}
            // Locations come from the shadow copy of successful writes, so
            // addressing errors are impossible here; surface loudly if not.
            Err(e) => panic!("unexpected memory error during campaign read: {e}"),
        }
    }
    t.corrected_reads = mem.stats().detected_errors - before_errors;
    t
}

/// The campaign's full work plan: groups, shards, and identity.
pub struct CampaignPlan {
    /// Trials per (mode, single/double) group.
    pub trials: u64,
    /// Trials per shard.
    pub chunk: u64,
    /// The (double-fault?, mode) groups in reporting order.
    pub groups: Vec<(bool, FaultMode)>,
    /// Supervised shards in submission order.
    pub shards: Vec<Shard<Tally>>,
    /// Shard index -> group index, for summing chunk tallies per group.
    pub shard_group: Vec<usize>,
}

impl CampaignPlan {
    /// Work-list identity for the journal header: a resume against a
    /// journal with a different key refuses it.
    pub fn config_key(&self) -> String {
        format!(
            "campaign-v1|trials={}|chunk={}|groups={}",
            self.trials,
            self.chunk,
            self.groups.len()
        )
    }
}

/// Build the campaign's shard list from the environment. Each (fault
/// mode, single/double) group is cut into trial chunks small enough that
/// a SIGKILL loses at most one chunk's work; seeds depend only on the
/// trial index, so the chunked tallies sum to exactly what a monolithic
/// loop would produce, whichever run of a resumed campaign executes a
/// chunk.
pub fn plan() -> CampaignPlan {
    let trials: u64 = if fast_mode() { 40 } else { 150 };
    let chunk: u64 = if fast_mode() { 10 } else { 25 };
    let groups: Vec<(bool, FaultMode)> = [false, true]
        .iter()
        .flat_map(|&double| FaultMode::ALL.iter().map(move |&mode| (double, mode)))
        .collect();
    let mut shards: Vec<Shard<Tally>> = vec![];
    let mut shard_group: Vec<usize> = vec![];
    for (gi, &(double, mode)) in groups.iter().enumerate() {
        for k in 0..trials.div_ceil(chunk) {
            let lo = k * chunk;
            let hi = (lo + chunk).min(trials);
            shards.push(Shard::new(
                format!(
                    "campaign:{mode:?}{}:chunk{k}",
                    if double { "+x2ch" } else { "" }
                ),
                move || {
                    (lo..hi)
                        .into_par_iter()
                        .map(|i| run_trial(i * 31 + mode as u64 * 7 + double as u64, mode, double))
                        .reduce(Tally::default, merge)
                },
            ));
            shard_group.push(gi);
        }
    }
    CampaignPlan {
        trials,
        chunk,
        groups,
        shards,
        shard_group,
    }
}
