//! Tier-1 oracle for the timing stack (`SimRunner` → `Llc` → `dram-sim`).
//!
//! (a) The LLC is driven beside a naive reference LRU model on seeded
//! streams that mix data tags with the ECC, XOR and faulty-ECC region tags
//! the scheme glue allocates, at a small geometry and at the paper's.
//! Every access outcome, the statistics, `contains` and `flush_dirty` must
//! agree.
//!
//! (b) Digest pins for simulator configurations the benchmark's golden
//! matrix never runs: open page, strict FIFO, refresh blackouts, the
//! row-locality mapping, the faster speed bin, a degraded bank pair, trace
//! replay and heterogeneous per-core workloads. The expected digests were
//! recorded from the simulator as it stood before the slice-backed bus
//! ledger, the packed LLC layout and the integer core clock went in, so
//! these pins prove those changes moved no simulated number.

use ecc_parity_repro::dram_sim::{MapPolicy, RowPolicy};
use ecc_parity_repro::mem_sim::{
    AccessOutcome, DegradedConfig, Llc, LlcConfig, RunConfig, RunResult, SchemeConfig, SchemeId,
    SimRunner, SystemScale, Trace, WorkloadSpec,
};

// ---------------------------------------------------------------- (a) LLC

/// Region bases the scheme glue and the runner allocate line tags from.
const ECC_REGION: u64 = 1 << 42;
const XOR_REGION: u64 = 1 << 43;
const FAULTY_ECC_REGION: u64 = 1 << 44;

/// Reference LRU: each set is the list of its resident lines with their
/// dirty bit and last-use stamp. Stamps are unique, so the victim of a full
/// set is unambiguous.
struct RefLlc {
    sets: Vec<Vec<(u64, bool, u64)>>,
    ways: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefLlc {
    fn new(config: LlcConfig) -> RefLlc {
        RefLlc {
            sets: vec![Vec::new(); config.sets()],
            ways: config.ways,
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let nsets = self.sets.len() as u64;
        let set = &mut self.sets[(line % nsets) as usize];
        if let Some(e) = set.iter_mut().find(|e| e.0 == line) {
            e.1 |= is_write;
            e.2 = self.clock;
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.misses += 1;
        let mut writeback = None;
        if set.len() == self.ways {
            let lru = (0..set.len()).min_by_key(|&i| set[i].2).unwrap();
            let (tag, dirty, _) = set.swap_remove(lru);
            if dirty {
                self.writebacks += 1;
                writeback = Some(tag);
            }
        }
        set.push((line, is_write, self.clock));
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    fn contains(&self, line: u64) -> bool {
        let nsets = self.sets.len() as u64;
        self.sets[(line % nsets) as usize]
            .iter()
            .any(|e| e.0 == line)
    }

    fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = vec![];
        for e in self.sets.iter_mut().flatten() {
            if e.1 {
                out.push(e.0);
                e.1 = false;
            }
        }
        out.sort_unstable();
        out
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A tag from one of the four regions, concentrated on a few sets so that
/// sets overflow and evict even at the paper's 8 MiB geometry.
fn mixed_tag(rng: &mut Rng, nsets: u64, hot_sets: u64) -> u64 {
    let region = match rng.below(10) {
        0..=5 => 0,
        6 => ECC_REGION,
        7 => XOR_REGION,
        _ => FAULTY_ECC_REGION,
    };
    let set = rng.below(hot_sets);
    let depth = rng.below(24);
    region + set + depth * nsets
}

fn llc_matches_reference(config: LlcConfig, seed: u64, accesses: usize) {
    let mut llc = Llc::new(config);
    let mut reference = RefLlc::new(config);
    let nsets = config.sets() as u64;
    let mut rng = Rng(seed);
    let mut evictions = 0u64;
    for round in 0..2 {
        for i in 0..accesses {
            let tag = mixed_tag(&mut rng, nsets, 12);
            let is_write = rng.below(3) == 0;
            let got = llc.access(tag, is_write);
            let want = reference.access(tag, is_write);
            assert_eq!(got, want, "round {round} access {i}: tag {tag:#x}");
            evictions += u64::from(want.writeback.is_some());
            if i % 64 == 0 {
                let probe = mixed_tag(&mut rng, nsets, 12);
                assert_eq!(llc.contains(probe), reference.contains(probe));
                let s = llc.stats();
                assert_eq!(
                    (s.hits, s.misses, s.writebacks),
                    (reference.hits, reference.misses, reference.writebacks)
                );
            }
        }
        assert_eq!(llc.flush_dirty(), reference.flush_dirty(), "round {round}");
        assert!(llc.flush_dirty().is_empty());
    }
    assert!(
        reference.hits > 0 && evictions > 0,
        "stream must hit and evict"
    );
}

#[test]
fn llc_matches_reference_at_small_geometry() {
    let config = LlcConfig {
        capacity_bytes: 16 * 1024,
        ways: 4,
        line_bytes: 64,
    };
    for seed in [1, 2, 3] {
        llc_matches_reference(config, seed, 4_000);
    }
}

#[test]
fn llc_matches_reference_at_paper_geometry() {
    for line_bytes in [64, 128] {
        llc_matches_reference(
            LlcConfig::paper(line_bytes),
            0x5EED ^ line_bytes as u64,
            6_000,
        );
    }
}

// ------------------------------------------------------- (b) digest pins

/// FNV-1a over the little-endian words of a run's simulated outputs.
fn digest(r: &RunResult) -> u64 {
    let t = &r.traffic;
    let e = &r.energy;
    let words = [
        r.cycles,
        r.instructions,
        t.data_read_units,
        t.data_write_units,
        t.ecc_read_units,
        t.ecc_write_units,
        t.faulty_ecc_units,
        e.activate_pj.to_bits(),
        e.read_pj.to_bits(),
        e.write_pj.to_bits(),
        e.refresh_pj.to_bits(),
        e.bg_active_pj.to_bits(),
        e.bg_standby_pj.to_bits(),
        e.bg_sleep_pj.to_bits(),
        r.llc.hits,
        r.llc.misses,
        r.llc.writebacks,
        r.mem_requests,
        r.avg_mem_latency.to_bits(),
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A small-effort run: eight cores over a 256 KiB LLC so that the short
/// stream still misses, evicts and queues at the DRAM.
fn small(scheme: SchemeId, workload: &str) -> RunConfig {
    let built = SchemeConfig::build(scheme, SystemScale::QuadEquivalent);
    let line_bytes = built.mem.line_bytes;
    RunConfig {
        warmup_per_core: 1_000,
        accesses_per_core: 3_000,
        seed: 7,
        llc: Some(LlcConfig {
            capacity_bytes: 256 * 1024,
            ways: 16,
            line_bytes,
        }),
        ..RunConfig::paper(built, WorkloadSpec::by_name(workload).unwrap())
    }
}

fn pin(name: &str, cfg: RunConfig, expected: u64) -> RunResult {
    let r = SimRunner::new(cfg).run();
    assert!(
        r.llc.misses > 0 && r.mem_requests > 0,
        "{name}: no DRAM traffic"
    );
    let got = digest(&r);
    assert_eq!(got, expected, "{name}: digest {got:#018x}");
    r
}

#[test]
fn open_page_digest_is_pinned() {
    let mut cfg = small(SchemeId::Lot5Parity, "lbm");
    cfg.scheme.mem.row_policy = RowPolicy::OpenPage;
    pin("open page", cfg, 0x08ae_6248_43ea_59f8);
}

#[test]
fn strict_fifo_digest_is_pinned() {
    let mut cfg = small(SchemeId::Ck18, "mcf");
    cfg.scheme.mem.strict_fifo = true;
    pin("strict fifo", cfg, 0xd4a3_007d_3c5c_e2ba);
}

#[test]
fn refresh_timing_digest_is_pinned() {
    let mut cfg = small(SchemeId::Lot9, "milc");
    cfg.scheme.mem.model_refresh_timing = true;
    pin("refresh timing", cfg, 0x0ddb_e511_5287_60a6);
}

#[test]
fn row_locality_mapping_digest_is_pinned() {
    let mut cfg = small(SchemeId::MultiEcc, "libquantum");
    cfg.scheme.mem.map_policy = MapPolicy::RowLocality;
    pin("row locality", cfg, 0x3676_364c_a4dc_9da8);
}

#[test]
fn faster_speed_bin_digest_is_pinned() {
    let mut cfg = small(SchemeId::Ck36, "lbm");
    cfg.scheme.mem.speed_factor = 1.16;
    pin("speed 1.16", cfg, 0x9b2a_0b7b_f42d_e9cb);
}

#[test]
fn degraded_bank_pair_digest_is_pinned() {
    let mut cfg = small(SchemeId::Lot5Parity, "GemsFDTD");
    cfg.degraded = Some(DegradedConfig {
        channel: 1,
        pair: 2,
    });
    let r = pin("degraded pair", cfg, 0x1f81_ac20_52fd_c213);
    assert!(
        r.traffic.faulty_ecc_units > 0,
        "the migrated pair must see traffic"
    );
}

#[test]
fn trace_replay_digest_is_pinned() {
    let mut cfg = small(SchemeId::RaimParity, "canneal");
    cfg.cores = 4;
    let refs = cfg.warmup_per_core + cfg.accesses_per_core;
    cfg.trace = Some(Trace::record(cfg.workload, cfg.cores, refs, cfg.seed));
    pin("trace replay", cfg, 0xccb0_8082_2135_25c9);
}

#[test]
fn per_core_workloads_digest_is_pinned() {
    let mut cfg = small(SchemeId::Raim, "mcf");
    let names = [
        "mcf", "lbm", "sjeng", "gcc", "omnetpp", "soplex", "bwaves", "ferret",
    ];
    cfg.per_core_workloads = Some(
        names
            .iter()
            .map(|n| WorkloadSpec::by_name(n).unwrap())
            .collect(),
    );
    pin("per-core workloads", cfg, 0x84bd_6f83_1753_482f);
}
