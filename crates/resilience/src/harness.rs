//! The soak harness: scheme registry, classified-access environment,
//! scenario drivers, and the top-level [`SoakHarness`] runner.

use crate::scenario::ScenarioKind;
use crate::shadow::ShadowMemory;
use crate::verdict::{Verdict, VerdictCounts, VerdictRecord};
use ecc_codes::raim::RaimParityCode;
use ecc_codes::{Chipkill18, Chipkill36, ChipkillDouble, CorrectionSplit, LotEcc, LotEcc5Rs, Raim};
use ecc_parity::{GroupId, LineLoc, MemError, ParityConfig, ParityMemory};
use mem_faults::{ChipLocation, FaultInstance, FaultMode, FitTable, LifetimeSim, SystemGeometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Schemes the soak runs by default.
///
/// **`lotecc9` is deliberately absent.** Its per-chip detection is an 8-bit
/// ones'-complement checksum, so a whole corrupted chip segment aliases to
/// "clean" with probability ~1/255 *per line* — at soak scale (millions of
/// corrupted-line draws) silent corruption is statistically guaranteed.
/// That is a genuine property of the code (the paper pairs ECC Parity with
/// stronger detection tiers), not a harness defect, so the soak documents
/// it here and excludes the scheme from the zero-SDC gate. It remains
/// constructible via [`scheme_by_name`] for targeted experiments.
pub const DEFAULT_SCHEMES: &[&str] = &[
    "lotecc5",
    "lotecc5rs",
    "chipkill18",
    "chipkill36",
    "chipkill-double",
    "raim",
    "raimparity",
];

/// Error from [`scheme_by_name`]: no such scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheme {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheme `{}`; valid names: {} (and `lotecc9`, excluded from defaults for its weak 8-bit detection)",
            self.name,
            DEFAULT_SCHEMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownScheme {}

/// Construct a boxed ECC scheme by soak-registry name.
pub fn scheme_by_name(name: &str) -> Result<Box<dyn CorrectionSplit>, UnknownScheme> {
    Ok(match name {
        "lotecc5" => Box::new(LotEcc::five()),
        "lotecc9" => Box::new(LotEcc::nine()),
        "lotecc5rs" => Box::new(LotEcc5Rs::new()),
        "chipkill18" => Box::new(Chipkill18::new()),
        "chipkill36" => Box::new(Chipkill36::new()),
        "chipkill-double" => Box::new(ChipkillDouble::new()),
        "raim" => Box::new(Raim::new()),
        "raimparity" => Box::new(RaimParityCode::new()),
        _ => {
            return Err(UnknownScheme {
                name: name.to_string(),
            })
        }
    })
}

/// Knobs of one soak run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoakConfig {
    /// Master seed; every scenario invocation derives its own sub-seed.
    pub seed: u64,
    /// Minimum accesses (reads + writes) to issue per scheme.
    pub accesses: u64,
    /// Channels of the memory under test.
    pub channels: usize,
    /// Banks per channel (even).
    pub banks_per_channel: usize,
    /// Data rows per bank.
    pub data_rows: u32,
    /// Lines per row.
    pub lines_per_row: u32,
    /// Bank-pair error-counter threshold.
    pub threshold: u8,
    /// Schemes to soak (registry names).
    pub schemes: Vec<String>,
    /// Scenarios to cycle through.
    pub scenarios: Vec<ScenarioKind>,
    /// Cap on retained non-clean ledger records per scheme.
    pub ledger_limit: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 1,
            accesses: 100_000,
            channels: 4,
            banks_per_channel: 4,
            data_rows: 24,
            lines_per_row: 8,
            threshold: 4,
            schemes: DEFAULT_SCHEMES.iter().map(|s| s.to_string()).collect(),
            scenarios: ScenarioKind::all(),
            ledger_limit: 10_000,
        }
    }
}

impl SoakConfig {
    fn parity_config(&self) -> ParityConfig {
        ParityConfig {
            channels: self.channels,
            banks_per_channel: self.banks_per_channel,
            data_rows: self.data_rows,
            lines_per_row: self.lines_per_row,
            threshold: self.threshold,
        }
    }

    /// The config's full identity as a canonical string (its JSON
    /// serialization: stable field order, every knob that affects results).
    /// Checkpoint/resume machinery keys soak journals on this, so a resumed
    /// run against a *different* configuration is rejected rather than
    /// silently mixing results.
    pub fn identity_key(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| format!("unserializable-config:{e}"))
    }
}

/// Monotonicity monitor over [`ecc_parity::HealthTable`] state: error
/// counters never decrease, faulty marks never clear, the retired-page set
/// only grows. Each check compares the table's own slices and set with the
/// last ones seen, then copies them into buffers it reuses.
#[derive(Debug)]
struct HealthMonitor {
    counters: Vec<u8>,
    faulty: Vec<bool>,
    retired: HashSet<(usize, usize, u32)>,
    violations: u64,
}

impl HealthMonitor {
    fn new(mem: &ParityMemory<Box<dyn CorrectionSplit>>) -> Self {
        let health = mem.health();
        HealthMonitor {
            counters: health.counters().to_vec(),
            faulty: health.faulty_flags().to_vec(),
            retired: health.retired().clone(),
            violations: 0,
        }
    }

    fn check(&mut self, mem: &ParityMemory<Box<dyn CorrectionSplit>>) {
        let health = mem.health();
        if health
            .counters()
            .iter()
            .zip(&self.counters)
            .any(|(now, before)| now < before)
        {
            self.violations += 1;
        }
        if health
            .faulty_flags()
            .iter()
            .zip(&self.faulty)
            .any(|(now, before)| *before && !*now)
        {
            self.violations += 1;
        }
        if !self.retired.is_subset(health.retired()) {
            self.violations += 1;
        }
        self.counters.clone_from_slice(health.counters());
        self.faulty.clone_from_slice(health.faulty_flags());
        self.retired.clone_from(health.retired());
    }
}

/// How often (in accesses) the health monitor re-snapshots during traffic.
const MONITOR_STRIDE: u64 = 512;

/// One live system under chaos: the memory, its golden shadow, and the
/// classification/monitoring state.
pub struct SoakEnv {
    mem: ParityMemory<Box<dyn CorrectionSplit>>,
    shadow: ShadowMemory,
    rng: StdRng,
    counts: VerdictCounts,
    ledger: Vec<VerdictRecord>,
    ledger_limit: usize,
    accesses: u64,
    monitor: Option<HealthMonitor>,
    audit_failures: u64,
    scenario: &'static str,
    line_bytes: usize,
    shape: ParityConfig,
}

impl SoakEnv {
    /// A fresh environment for one scenario invocation.
    pub fn new(
        scheme: Box<dyn CorrectionSplit>,
        cfg: &SoakConfig,
        seed: u64,
        scenario: &'static str,
    ) -> Self {
        let shape = cfg.parity_config();
        let line_bytes = scheme.data_bytes();
        let mem = ParityMemory::new(scheme, shape);
        let monitor = Some(HealthMonitor::new(&mem));
        SoakEnv {
            mem,
            shadow: ShadowMemory::new(
                shape.channels,
                shape.banks_per_channel,
                shape.data_rows,
                shape.lines_per_row,
            ),
            rng: StdRng::seed_from_u64(seed),
            counts: VerdictCounts::default(),
            ledger: Vec::new(),
            ledger_limit: cfg.ledger_limit,
            accesses: 0,
            monitor,
            audit_failures: 0,
            scenario,
            line_bytes,
            shape,
        }
    }

    /// Accesses issued so far (reads + writes, including refused ones).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    fn random_line_bytes(&mut self) -> Vec<u8> {
        (0..self.line_bytes).map(|_| self.rng.gen()).collect()
    }

    fn random_loc(&mut self) -> LineLoc {
        LineLoc {
            bank: self.rng.gen_range(0..self.shape.banks_per_channel),
            row: self.rng.gen_range(0..self.shape.data_rows),
            line: self.rng.gen_range(0..self.shape.lines_per_row),
        }
    }

    fn random_channel(&mut self) -> usize {
        self.rng.gen_range(0..self.shape.channels)
    }

    /// A fault with coordinates clamped into this memory's shape.
    fn random_fault(&mut self, channel: usize, modes: &[FaultMode]) -> FaultInstance {
        let mode = modes[self.rng.gen_range(0..modes.len())];
        FaultInstance {
            chip: ChipLocation {
                channel,
                rank: 0,
                chip: self.rng.gen_range(0..self.mem.ecc().chips_per_rank()),
            },
            mode,
            bank: self.rng.gen_range(0..self.shape.banks_per_channel) as u32,
            row: self.rng.gen_range(0..self.shape.data_rows),
            line: self.rng.gen_range(0..self.shape.lines_per_row),
            pattern_seed: self.rng.gen(),
        }
    }

    /// Write every line of every channel so the shadow covers the whole
    /// address space before chaos begins.
    fn fill(&mut self) {
        // One `checked_write` per line. The order the lines draw their
        // bytes from the rng (channel-major) fixes every seed's output.
        for channel in 0..self.shape.channels {
            for bank in 0..self.shape.banks_per_channel {
                for row in 0..self.shape.data_rows {
                    for line in 0..self.shape.lines_per_row {
                        let data = self.random_line_bytes();
                        self.checked_write(channel, LineLoc { bank, row, line }, &data);
                    }
                }
            }
        }
    }

    /// Issue a write; on success, mirror it into the shadow.
    fn checked_write(&mut self, channel: usize, loc: LineLoc, data: &[u8]) {
        self.accesses += 1;
        match self.mem.write(channel, loc, data) {
            Ok(()) => {
                self.shadow.set(channel, &loc, data);
                self.counts.writes += 1;
            }
            Err(MemError::RetiredPage) => self.counts.retired_page_writes += 1,
            // A write into a parity group whose state is beyond the
            // single-device envelope machine-checks visibly (and retires
            // the group) rather than drifting the parity.
            Err(MemError::Uncorrectable) => self.counts.uncorrectable_writes += 1,
            Err(e) => panic!("soak write to in-range location failed: {e}"),
        }
        self.maybe_monitor();
    }

    /// Issue a read and classify the outcome against the shadow copy and
    /// the memory's own correction counters.
    fn verified_read(&mut self, channel: usize, loc: LineLoc) -> Option<Verdict> {
        self.accesses += 1;
        let pr_before = self.mem.stats().parity_reconstructions;
        let el_before = self.mem.stats().ecc_line_corrections;
        let verdict = match self.mem.read(channel, loc) {
            Ok(got) => {
                let golden = self
                    .shadow
                    .get(channel, &loc)
                    .expect("soak reads only written locations");
                if got != golden {
                    // Wrong bytes under `Ok` — but not every such read is an
                    // implementation bug. If the returned bytes produce the
                    // *same detection bits* as the golden data, no amount of
                    // correct engineering could have flagged them: the
                    // corruption aliased through the scheme's detection code
                    // (e.g. LOT-ECC5's ones'-complement checksum16 passes a
                    // whole-segment corruption with probability ~2^-16 per
                    // line — its published detection coverage). Algebraic RS
                    // detection never aliases on ≤1 corrupted chip, so for
                    // chipkill-class schemes every mismatch stays a
                    // SilentCorruption.
                    let ecc = self.mem.ecc();
                    let verdict = if ecc.detection_of(&got) == ecc.detection_of(golden) {
                        Verdict::DetectionAliased
                    } else {
                        Verdict::SilentCorruption
                    };
                    if std::env::var("SOAK_DEBUG").is_ok() {
                        let diff: Vec<usize> = got
                            .iter()
                            .zip(golden.iter())
                            .enumerate()
                            .filter(|(_, (a, b))| a != b)
                            .map(|(i, _)| i)
                            .collect();
                        eprintln!(
                            "{} ch{channel} bank{} row{} line{} access{} faulty={} pr_delta={} el_delta={} diff_bytes={:?}\n  got    {:02x?}\n  golden {:02x?}\n  faults={:?}",
                            verdict.as_str(),
                            loc.bank,
                            loc.row,
                            loc.line,
                            self.accesses,
                            self.mem.health().is_faulty(channel, loc.bank),
                            self.mem.stats().parity_reconstructions - pr_before,
                            self.mem.stats().ecc_line_corrections - el_before,
                            diff,
                            got,
                            golden,
                            self.mem.faults(),
                        );
                    }
                    verdict
                } else if self.mem.stats().parity_reconstructions > pr_before {
                    Verdict::CorrectedViaParity
                } else if self.mem.stats().ecc_line_corrections > el_before {
                    Verdict::CorrectedDegraded
                } else {
                    Verdict::CleanRead
                }
            }
            Err(MemError::Uncorrectable) => Verdict::DetectedUncorrectable,
            Err(MemError::RetiredPage) => {
                self.counts.retired_page_reads += 1;
                self.maybe_monitor();
                return None;
            }
            Err(e) => panic!("soak read of in-range location failed: {e}"),
        };
        self.counts.record(verdict);
        // Silent corruptions and detection aliases bypass the cap: they are
        // the whole point of the ledger, and a flood of benign
        // corrected-read records must never crowd out the evidence.
        let retain = verdict == Verdict::SilentCorruption
            || verdict == Verdict::DetectionAliased
            || (verdict != Verdict::CleanRead && self.ledger.len() < self.ledger_limit);
        if retain {
            self.ledger.push(VerdictRecord {
                scenario: self.scenario.to_string(),
                access: self.accesses,
                channel,
                bank: loc.bank,
                row: loc.row,
                line: loc.line,
                verdict: verdict.as_str(),
            });
        }
        self.maybe_monitor();
        Some(verdict)
    }

    fn maybe_monitor(&mut self) {
        if self.accesses.is_multiple_of(MONITOR_STRIDE) {
            self.monitor_now();
        }
    }

    fn monitor_now(&mut self) {
        if let Some(mut m) = self.monitor.take() {
            m.check(&self.mem);
            self.monitor = Some(m);
        }
    }

    /// A scrub sweep followed by the parity-consistency audit (valid only
    /// post-scrub: pending transient damage legitimately desynchronizes
    /// stored parities from a recomputation over the corrupted store).
    fn scrub_and_audit(&mut self) {
        let _ = self.mem.scrub();
        if self.mem.audit_parity_consistency() != 0 {
            self.audit_failures += 1;
        }
        self.monitor_now();
    }

    /// `n` random accesses, roughly 2:1 read:write.
    fn random_traffic(&mut self, n: u64) {
        for _ in 0..n {
            let channel = self.random_channel();
            let loc = self.random_loc();
            if self.rng.gen_range(0..3) == 0 {
                let data = self.random_line_bytes();
                self.checked_write(channel, loc, &data);
            } else {
                self.verified_read(channel, loc);
            }
        }
    }
}

/// Outcome of soaking one scheme.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoakReport {
    /// Registry name of the scheme.
    pub scheme: String,
    /// Total accesses issued.
    pub accesses: u64,
    /// Aggregate verdicts.
    pub counts: VerdictCounts,
    /// Scenario invocations completed, as `(name, runs)`.
    pub scenarios_run: Vec<(String, u64)>,
    /// Scenario invocations that panicked (their partial counts are lost).
    pub panics: u64,
    /// Health-table monotonicity violations observed.
    pub monotonicity_violations: u64,
    /// Post-scrub parity-audit failures observed.
    pub audit_failures: u64,
    /// Non-clean read records (capped at the configured ledger limit).
    pub ledger: Vec<VerdictRecord>,
}

impl SoakReport {
    /// The zero-SDC gate: no silent corruption, no panics, no health
    /// regressions, no parity drift.
    pub fn is_clean(&self) -> bool {
        self.counts.silent_corruption == 0
            && self.panics == 0
            && self.monotonicity_violations == 0
            && self.audit_failures == 0
    }
}

/// Top-level runner: cycles the scenario catalog against every configured
/// scheme until each has absorbed the configured access budget.
pub struct SoakHarness {
    cfg: SoakConfig,
}

impl SoakHarness {
    /// A harness over the given configuration.
    pub fn new(cfg: SoakConfig) -> Self {
        SoakHarness { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SoakConfig {
        &self.cfg
    }

    /// Soak a single scheme.
    pub fn run_scheme(&self, name: &str) -> Result<SoakReport, UnknownScheme> {
        scheme_by_name(name)?; // validate the name up front
        let scenarios = if self.cfg.scenarios.is_empty() {
            ScenarioKind::all()
        } else {
            self.cfg.scenarios.clone()
        };
        // Per-invocation budget: enough rounds that every scenario runs at
        // least once even for tiny access targets, bounded so big targets
        // still revisit each scenario with fresh sub-seeds.
        let budget = (self.cfg.accesses / (4 * scenarios.len() as u64)).clamp(4_096, 50_000);
        let mut report = SoakReport {
            scheme: name.to_string(),
            accesses: 0,
            counts: VerdictCounts::default(),
            scenarios_run: scenarios
                .iter()
                .map(|s| (s.name().to_string(), 0))
                .collect(),
            panics: 0,
            monotonicity_violations: 0,
            audit_failures: 0,
            ledger: Vec::new(),
        };
        let mut round = 0u64;
        'soak: loop {
            for (i, &kind) in scenarios.iter().enumerate() {
                if report.accesses >= self.cfg.accesses {
                    break 'soak;
                }
                let sub_seed = derive_seed(self.cfg.seed, name, kind.name(), round);
                let cfg = &self.cfg;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let scheme = scheme_by_name(name).expect("validated above");
                    let mut env = SoakEnv::new(scheme, cfg, sub_seed, kind.name());
                    run_scenario(&mut env, kind, budget);
                    env.monitor_now();
                    env
                }));
                match outcome {
                    Ok(env) => {
                        report.accesses += env.accesses;
                        report.counts.merge(&env.counts);
                        report.audit_failures += env.audit_failures;
                        report.monotonicity_violations +=
                            env.monitor.as_ref().map_or(0, |m| m.violations);
                        report.scenarios_run[i].1 += 1;
                        // Cap benign records, but never drop silent-corruption
                        // or detection-alias evidence (mirrors the per-env
                        // retention rule).
                        let mut room = self.cfg.ledger_limit.saturating_sub(report.ledger.len());
                        for rec in env.ledger {
                            if rec.verdict == Verdict::SilentCorruption.as_str()
                                || rec.verdict == Verdict::DetectionAliased.as_str()
                            {
                                report.ledger.push(rec);
                            } else if room > 0 {
                                room -= 1;
                                report.ledger.push(rec);
                            }
                        }
                    }
                    Err(_) => {
                        report.panics += 1;
                        obs::counter!("faults.soak.panics").inc();
                    }
                }
            }
            round += 1;
        }
        Ok(report)
    }

    /// Soak every configured scheme, in order.
    pub fn run_all(&self) -> Result<Vec<SoakReport>, UnknownScheme> {
        self.cfg
            .schemes
            .iter()
            .map(|name| self.run_scheme(name))
            .collect()
    }
}

fn derive_seed(seed: u64, scheme: &str, scenario: &str, round: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in scheme.bytes().chain(scenario.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Drive one scenario against a fresh environment until `budget` accesses.
fn run_scenario(env: &mut SoakEnv, kind: ScenarioKind, budget: u64) {
    match kind {
        ScenarioKind::LifetimeReplay => lifetime_replay(env, budget),
        ScenarioKind::TransientStorm => transient_storm(env, budget),
        ScenarioKind::BankPairCounterRace => bank_pair_counter_race(env, budget),
        ScenarioKind::MidMigrationFault => mid_migration_fault(env, budget),
        ScenarioKind::MultiChannelSimultaneous => multi_channel_simultaneous(env, budget),
        ScenarioKind::ParityRegionFault => parity_region_fault(env, budget),
        ScenarioKind::WriteHeavyDegraded => write_heavy_degraded(env, budget),
        ScenarioKind::ThresholdSaturation => threshold_saturation(env, budget),
        ScenarioKind::RetiredPageHammer => retired_page_hammer(env, budget),
        ScenarioKind::MultiFaultOneChannel => multi_fault_one_channel(env, budget),
    }
}

/// Replay a sampled device-fault lifetime, with demand traffic and scrub
/// sweeps between arrivals. FIT rates are inflated so histories actually
/// contain events at soak scale; coordinates are clamped into the shape.
fn lifetime_replay(env: &mut SoakEnv, budget: u64) {
    let sim = LifetimeSim::new(
        SystemGeometry::paper_reliability(),
        FitTable::DDR3_AVERAGE.scaled_to(40_000.0),
    );
    let mut events = sim.sample(&mut env.rng);
    events.truncate(6);
    env.fill();
    // At most one device fault per channel: clamping coordinates into the
    // small soak shape would otherwise stack independent faults onto the
    // same bank via *different* chips, putting two corrupted symbols into
    // one line. That exceeds every scheme's single-device design envelope —
    // the paper's reliability analysis counts such overlaps as system-level
    // failures, not as loads the code must correct — so the zero-SDC gate
    // replays the in-envelope model.
    let mut struck_channels = HashSet::new();
    let slices = events.len() as u64 + 1;
    for ev in events {
        let mut f = ev.fault;
        f.chip.channel %= env.shape.channels;
        f.chip.chip %= env.mem.ecc().chips_per_rank();
        f.chip.rank = 0;
        f.bank %= env.shape.banks_per_channel as u32;
        f.row %= env.shape.data_rows;
        f.line %= env.shape.lines_per_row;
        if !struck_channels.insert(f.chip.channel) {
            env.random_traffic(budget / slices);
            env.scrub_and_audit();
            continue;
        }
        env.mem
            .try_inject_fault(f)
            .expect("clamped fault is in range");
        env.random_traffic(budget / slices / 2);
        env.scrub_and_audit();
        env.random_traffic(budget / slices / 2);
    }
    while env.accesses < budget {
        env.random_traffic(256.min(budget));
    }
    env.scrub_and_audit();
}

/// Bursts of transient strikes healed by scrubbing.
fn transient_storm(env: &mut SoakEnv, budget: u64) {
    env.fill();
    let modes = [
        FaultMode::SingleBit,
        FaultMode::SingleWord,
        FaultMode::SingleRow,
        FaultMode::SingleColumn,
    ];
    while env.accesses < budget {
        let strikes = env.rng.gen_range(1..4);
        let mut struck = Vec::new();
        // Distinct (channel, bank) per strike within a burst: two strikes
        // overlapping one bank via different chips would corrupt two
        // symbols of a single line — outside every scheme's single-device
        // correction envelope, so outside the zero-SDC gate's fault model.
        let mut hit: HashSet<(usize, usize)> = HashSet::new();
        for _ in 0..strikes {
            let channel = env.random_channel();
            let f = env.random_fault(channel, &modes);
            if !hit.insert((channel, f.bank as usize)) {
                continue;
            }
            env.mem.try_inject_transient(f).expect("in-range transient");
            struck.push((
                channel,
                LineLoc {
                    bank: f.bank as usize,
                    row: f.row,
                    line: f.line,
                },
            ));
        }
        // Demand reads race the scrubber to the damage: some hit the struck
        // lines (parity correction), the rest are background traffic.
        for (channel, loc) in struck {
            env.verified_read(channel, loc);
        }
        env.random_traffic(400);
        env.scrub_and_audit();
        // Transients are gone after the sweep; faults list stays empty, so
        // post-scrub traffic must be clean.
        env.random_traffic(100);
    }
}

/// Race both banks of one pair toward their shared error counter.
fn bank_pair_counter_race(env: &mut SoakEnv, budget: u64) {
    env.fill();
    let channel = env.random_channel();
    let pair = env.rng.gen_range(0..env.shape.banks_per_channel / 2);
    let banks = [2 * pair, 2 * pair + 1];
    let mut side = 0usize;
    let mut row = 0u32;
    while env.accesses < budget {
        if !env.mem.health().is_faulty(channel, banks[0]) {
            // Alternate the error source between the two banks of the pair.
            let f = FaultInstance {
                chip: ChipLocation {
                    channel,
                    rank: 0,
                    chip: env.rng.gen_range(0..env.mem.ecc().chips_per_rank()),
                },
                mode: FaultMode::SingleWord,
                bank: banks[side] as u32,
                row: row % env.shape.data_rows,
                line: env.rng.gen_range(0..env.shape.lines_per_row),
                pattern_seed: env.rng.gen(),
            };
            env.mem.try_inject_fault(f).expect("in-range fault");
            env.verified_read(
                channel,
                LineLoc {
                    bank: f.bank as usize,
                    row: f.row,
                    line: f.line,
                },
            );
            side ^= 1;
            row += 1;
        }
        env.random_traffic(300);
        env.scrub_and_audit();
    }
}

/// Migrate a pair, then hit a different channel immediately afterwards.
fn mid_migration_fault(env: &mut SoakEnv, budget: u64) {
    env.fill();
    let channel = env.random_channel();
    let bank = env.rng.gen_range(0..env.shape.banks_per_channel);
    let f = env.random_fault(channel, &[FaultMode::SingleBank]);
    let f = FaultInstance {
        bank: bank as u32,
        ..f
    };
    env.mem.try_inject_fault(f).expect("in-range fault");
    // Scrub sweeps tick the counter to the threshold and migrate.
    while !env.mem.health().is_faulty(channel, bank) && env.accesses < budget {
        env.scrub_and_audit();
        env.random_traffic(100);
    }
    // The adversarial beat: a second channel faults right as migration
    // lands, while the first pair's parity contributions were just struck.
    let other = (channel + 1) % env.shape.channels;
    let g = env.random_fault(other, &[FaultMode::SingleRow, FaultMode::SingleWord]);
    env.mem.try_inject_fault(g).expect("in-range fault");
    env.verified_read(
        other,
        LineLoc {
            bank: g.bank as usize,
            row: g.row,
            line: g.line,
        },
    );
    while env.accesses < budget {
        env.random_traffic(400);
        env.scrub_and_audit();
    }
}

/// Permanent faults in several channels at once, including a guaranteed
/// same-group collision (the configuration parity cannot correct).
fn multi_channel_simultaneous(env: &mut SoakEnv, budget: u64) {
    env.fill();
    // A fault somewhere, plus a second fault placed exactly on a parity
    // sibling of the first: reconstruction must fail *detectably*.
    let c0 = env.random_channel();
    let loc0 = env.random_loc();
    let group = env.mem.layout().group_of(c0, &loc0);
    let members = env.mem.layout().members(&group);
    let &(c1, loc1) = members
        .iter()
        .find(|(mc, _)| *mc != c0)
        .expect("groups span multiple channels");
    for (c, loc) in [(c0, loc0), (c1, loc1)] {
        let f = FaultInstance {
            chip: ChipLocation {
                channel: c,
                rank: 0,
                chip: env.rng.gen_range(0..env.mem.ecc().chips_per_rank()),
            },
            mode: FaultMode::SingleWord,
            bank: loc.bank as u32,
            row: loc.row,
            line: loc.line,
            pattern_seed: env.rng.gen(),
        };
        env.mem.try_inject_fault(f).expect("in-range fault");
    }
    env.verified_read(c0, loc0); // both siblings dirty: detected, not silent
                                 // And an independent fault in a third channel (distinct from both
                                 // struck channels: stacking it onto c0 or c1 would put two chips'
                                 // damage into one line, outside the single-device fault envelope),
                                 // still correctable through its own group.
    if let Some(c2) = (0..env.shape.channels).find(|&c| c != c0 && c != c1) {
        let f = env.random_fault(c2, &[FaultMode::SingleRow]);
        env.mem.try_inject_fault(f).expect("in-range fault");
    }
    while env.accesses < budget {
        env.random_traffic(400);
        env.scrub_and_audit();
    }
}

/// Corrupt the reserved parity region itself and prove the damage is never
/// silently consumed.
fn parity_region_fault(env: &mut SoakEnv, budget: u64) {
    env.fill();
    // Member strikes are *permanent* and accumulate across rounds, so they
    // need the same envelope dedup as every other scenario: a second chip
    // faulting a bank that is already carrying a fault can corrupt two
    // symbols of one line — outside the single-device correction envelope.
    let mut struck: HashSet<(usize, usize)> = HashSet::new();
    while env.accesses < budget {
        let mut corrupted: Vec<GroupId> = Vec::new();
        for _ in 0..3 {
            let channel = env.random_channel();
            let loc = env.random_loc();
            if env.mem.health().is_faulty(channel, loc.bank) {
                continue;
            }
            let g = env.mem.layout().group_of(channel, &loc);
            let seed = env.rng.gen();
            env.mem.corrupt_parity(g, seed);
            corrupted.push(g);
            // A clean member read never consults the parity: still clean.
            env.verified_read(channel, loc);
        }
        // Fault a member of one corrupted group: reconstruction through the
        // damaged parity must fail the codec's verification.
        if let Some(&g) = corrupted.first() {
            let members = env.mem.layout().members(&g);
            if let Some(&(mc, mloc)) = members.first() {
                if struck.insert((mc, mloc.bank)) {
                    let f = FaultInstance {
                        chip: ChipLocation {
                            channel: mc,
                            rank: 0,
                            chip: env.rng.gen_range(0..env.mem.ecc().chips_per_rank()),
                        },
                        mode: FaultMode::SingleWord,
                        bank: mloc.bank as u32,
                        row: mloc.row,
                        line: mloc.line,
                        pattern_seed: env.rng.gen(),
                    };
                    env.mem.try_inject_fault(f).expect("in-range fault");
                }
                env.verified_read(mc, mloc);
            }
        }
        // Scrub-style repair: rebuild every corrupted parity, then audit.
        for g in corrupted {
            env.mem.rebuild_parity(g);
        }
        env.random_traffic(300);
        env.scrub_and_audit();
    }
}

/// Saturate the stored-ECC-line path of a migrated pair under writes.
fn write_heavy_degraded(env: &mut SoakEnv, budget: u64) {
    env.fill();
    let channel = env.random_channel();
    let pair = env.rng.gen_range(0..env.shape.banks_per_channel / 2);
    env.mem.migrate_pair(channel, pair);
    // A persistent whole-bank fault on the migrated pair: every read is
    // detect-dirty and corrects from the stored ECC line, indefinitely.
    let f = FaultInstance {
        chip: ChipLocation {
            channel,
            rank: 0,
            chip: env.rng.gen_range(0..env.mem.ecc().chips_per_rank()),
        },
        mode: FaultMode::SingleBank,
        bank: (2 * pair) as u32,
        row: 0,
        line: 0,
        pattern_seed: env.rng.gen(),
    };
    env.mem.try_inject_fault(f).expect("in-range fault");
    while env.accesses < budget {
        for _ in 0..200 {
            let loc = LineLoc {
                bank: 2 * pair + env.rng.gen_range(0..2usize),
                row: env.rng.gen_range(0..env.shape.data_rows),
                line: env.rng.gen_range(0..env.shape.lines_per_row),
            };
            let data = env.random_line_bytes();
            env.checked_write(channel, loc, &data);
            env.verified_read(channel, loc);
        }
        env.random_traffic(100);
        env.scrub_and_audit();
    }
}

/// Drive one pair's counter exactly to saturation and past it.
fn threshold_saturation(env: &mut SoakEnv, budget: u64) {
    env.fill();
    let channel = env.random_channel();
    let bank = env.rng.gen_range(0..env.shape.banks_per_channel);
    let mut row = 0u32;
    // One small fault per distinct row; each corrected read ticks the
    // shared counter once, so the pair crosses the threshold exactly.
    while !env.mem.health().is_faulty(channel, bank)
        && row < env.shape.data_rows
        && env.accesses < budget
    {
        let f = FaultInstance {
            chip: ChipLocation {
                channel,
                rank: 0,
                chip: env.rng.gen_range(0..env.mem.ecc().chips_per_rank()),
            },
            mode: FaultMode::SingleWord,
            bank: bank as u32,
            row,
            line: env.rng.gen_range(0..env.shape.lines_per_row),
            pattern_seed: env.rng.gen(),
        };
        env.mem.try_inject_fault(f).expect("in-range fault");
        env.verified_read(
            channel,
            LineLoc {
                bank,
                row,
                line: f.line,
            },
        );
        row += 1;
        env.random_traffic(50);
    }
    // Past saturation: more errors on the now-faulty pair must be absorbed
    // (AlreadyFaulty) without counter movement — the monitor checks that.
    while env.accesses < budget {
        env.random_traffic(400);
        env.scrub_and_audit();
    }
}

/// Hammer retired pages: every access must be refused, never served.
fn retired_page_hammer(env: &mut SoakEnv, budget: u64) {
    env.fill();
    // Manufacture retirements: transient strikes read before the scrubber
    // reaches them retire their page (and parity-sharing peers). Distinct
    // (channel, bank) per strike — overlapping strikes would exceed the
    // single-device fault envelope (see `transient_storm`).
    let mut hit: HashSet<(usize, usize)> = HashSet::new();
    for _ in 0..4 {
        let channel = env.random_channel();
        let f = env.random_fault(channel, &[FaultMode::SingleRow]);
        if !hit.insert((channel, f.bank as usize)) {
            continue;
        }
        env.mem.try_inject_transient(f).expect("in-range transient");
        env.verified_read(
            channel,
            LineLoc {
                bank: f.bank as usize,
                row: f.row,
                line: f.line,
            },
        );
    }
    env.scrub_and_audit();
    let retired = env.mem.health().retired_pages();
    while env.accesses < budget {
        if let Some(&(c, bank, row)) = retired.first() {
            for _ in 0..100 {
                let loc = LineLoc {
                    bank,
                    row,
                    line: env.rng.gen_range(0..env.shape.lines_per_row),
                };
                if env.rng.gen_range(0..2) == 0 {
                    env.verified_read(c, loc);
                } else {
                    let data = env.random_line_bytes();
                    env.checked_write(c, loc, &data);
                }
            }
        }
        env.random_traffic(300);
    }
}

/// Several distinct faults inside one channel.
fn multi_fault_one_channel(env: &mut SoakEnv, budget: u64) {
    env.fill();
    let channel = env.random_channel();
    let plans = [
        (FaultMode::SingleRow, 0usize),
        (FaultMode::SingleColumn, 1),
        (FaultMode::SingleWord, 2),
        (FaultMode::SingleBank, 3),
    ];
    for (mode, bank) in plans {
        let bank = bank % env.shape.banks_per_channel;
        let f = env.random_fault(channel, &[mode]);
        let f = FaultInstance {
            bank: bank as u32,
            ..f
        };
        env.mem.try_inject_fault(f).expect("in-range fault");
    }
    while env.accesses < budget {
        env.random_traffic(400);
        env.scrub_and_audit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_registry_builds_every_default_scheme() {
        for name in DEFAULT_SCHEMES {
            let s = scheme_by_name(name).unwrap();
            assert!(s.data_bytes() > 0, "{name}");
        }
        assert!(
            !DEFAULT_SCHEMES.contains(&"lotecc9"),
            "lotecc9 is excluded from the zero-SDC gate (8-bit detection)"
        );
        assert!(scheme_by_name("lotecc9").is_ok(), "but still constructible");
        let err = match scheme_by_name("bogus") {
            Err(e) => e,
            Ok(_) => panic!("bogus scheme must not resolve"),
        };
        assert!(err.to_string().contains("lotecc5"));
    }

    #[test]
    fn derive_seed_separates_axes() {
        let a = derive_seed(1, "lotecc5", "transient-storm", 0);
        assert_ne!(a, derive_seed(2, "lotecc5", "transient-storm", 0));
        assert_ne!(a, derive_seed(1, "chipkill18", "transient-storm", 0));
        assert_ne!(a, derive_seed(1, "lotecc5", "lifetime-replay", 0));
        assert_ne!(a, derive_seed(1, "lotecc5", "transient-storm", 1));
        assert_eq!(a, derive_seed(1, "lotecc5", "transient-storm", 0));
    }
}
