//! `sim_matrix`: the Fig 10 matrix (every scheme × all sixteen workloads
//! at quad-channel-equivalent scale) simulated cold, in-process, by two
//! threads pulling cells from one queue. It is the only workload that runs
//! the `mem-sim` and `dram-sim` crates, so a simulator speed-up shows here
//! and nowhere else.

use crate::{check_golden, fastest, fnv1a64, median, secs, timed_passes, Ctx, Report};
use dram_sim::{MemRequest, MemorySystem};
use mem_sim::{
    EccTraffic, Llc, RunConfig, RunResult, SchemeConfig, SchemeId, SimRunner, SystemScale, Trace,
    WorkloadSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Warm-up LLC accesses per core: the figure binaries' `ECC_PARITY_FAST=1`
/// effort (the paper's is 50k), so that a run holds several passes of the
/// matrix and reports the fastest.
pub const WARMUP_PER_CORE: usize = 6_000;
/// Measured LLC accesses per core, at the same effort (the paper's is 100k).
pub const ACCESSES_PER_CORE: usize = 12_000;
/// Cores per simulated system (the paper's eight).
const CORES: usize = 8;
/// Host threads simulating cells.
const THREADS: usize = 2;
/// The simulator's per-core virtual address stride, in 64B lines
/// (`mem_sim::runner`'s address formula).
const CORE_STRIDE: u64 = 8 * 1024 * 1024;

/// One cell's run configuration.
pub fn cell_config(scheme: SchemeId, workload: WorkloadSpec, seed: u64) -> RunConfig {
    RunConfig {
        warmup_per_core: WARMUP_PER_CORE,
        accesses_per_core: ACCESSES_PER_CORE,
        seed,
        ..RunConfig::paper(
            SchemeConfig::build(scheme, SystemScale::QuadEquivalent),
            workload,
        )
    }
}

/// The 128 cells, scheme-major.
pub fn cells() -> Vec<(SchemeId, WorkloadSpec)> {
    SchemeId::ALL
        .iter()
        .flat_map(|&s| WorkloadSpec::all_static().iter().map(move |&w| (s, w)))
        .collect()
}

/// Digest of a cell's simulated outputs: cycles, instructions, traffic,
/// energy bits, LLC counters, requests and mean latency bits.
pub fn digest(r: &RunResult) -> u64 {
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
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// One cell's host time and digest (`None`: the simulation panicked).
type CellOutcome = (f64, Option<u64>);

/// Simulate every cell once; `THREADS` threads pull cells from a shared
/// index, so a slow cell never leaves a thread idle behind a static split.
fn pass(cells: &[(SchemeId, WorkloadSpec)], seed: u64) -> Vec<CellOutcome> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(vec![(0.0, None); cells.len()]);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(scheme, workload)) = cells.get(i) else {
                    return;
                };
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    SimRunner::new(cell_config(scheme, workload, seed)).run()
                }));
                let outcome = (secs(t.elapsed()), result.ok().as_ref().map(digest));
                out.lock().expect("cell results lock")[i] = outcome;
            });
        }
    });
    out.into_inner().expect("cell results lock")
}

/// Cell key in golden files: `<scheme>/<workload>`.
fn key(scheme: SchemeId, workload: WorkloadSpec) -> String {
    format!("{scheme:?}/{}", workload.name)
}

/// Run the `sim_matrix` workload.
pub fn run(ctx: &Ctx) -> Report {
    let cells = cells();
    // Set-up: every cell's simulator state (LLC, two memory systems, eight
    // generators) built and driven for a single access per core.
    let (setup, runs) = timed_passes(
        ctx.budget,
        || {
            for &(scheme, workload) in &cells {
                let mut cfg = cell_config(scheme, workload, ctx.seed);
                cfg.warmup_per_core = 0;
                cfg.accesses_per_core = 1;
                std::hint::black_box(SimRunner::new(cfg).run());
            }
        },
        || pass(&cells, ctx.seed),
    );

    let mut report = Report::default();
    let first: Vec<Option<u64>> = runs[0].1.iter().map(|c| c.1).collect();
    let lines: Vec<String> = cells
        .iter()
        .zip(&first)
        .map(|(&(s, w), d)| match d {
            Some(d) => format!("{} {d:016x}", key(s, w)),
            None => format!("{} panicked", key(s, w)),
        })
        .collect();
    let golden_differ = check_golden(&ctx.golden_dir, "sim_matrix", ctx.seed, &lines);
    for (_, outcome) in &runs {
        // A repeated pass must reproduce the first pass exactly; against a
        // golden file, every differing cell fails in every pass.
        let failed = outcome
            .iter()
            .zip(&first)
            .filter(|(c, f)| c.1.is_none() || c.1 != **f)
            .count() as u64;
        report.ops(cells.len() as u64, failed + golden_differ.unwrap_or(0));
    }
    // At any seed: the trace-driven path must reproduce the live generators.
    for (_, scheme, workload) in TRACED_CELLS {
        let i = cells
            .iter()
            .position(|&(s, w)| s == scheme && w.name == workload)
            .expect("a traced cell is a matrix cell");
        let mut cfg = cell_config(scheme, cells[i].1, ctx.seed);
        cfg.trace = Some(Trace::record(
            cells[i].1,
            CORES,
            WARMUP_PER_CORE + ACCESSES_PER_CORE,
            ctx.seed,
        ));
        let replayed = catch_unwind(AssertUnwindSafe(|| digest(&SimRunner::new(cfg).run())));
        report.ops(1, u64::from(replayed.ok() != first[i]));
    }
    let cell_times: Vec<f64> = runs.iter().flat_map(|r| r.1.iter().map(|c| c.0)).collect();
    let walls: Vec<f64> = runs.iter().map(|r| r.0).collect();
    eprintln!(
        "sim_matrix: passes {walls:.3?} s of {} cells, golden {}",
        cells.len(),
        golden_differ.map_or("n/a".to_string(), |d| format!("{d} differing")),
    );
    report.metric("setup_s", median(&setup), "s");
    report.metric("wall_s", fastest(&walls), "s");
    report.op_latency("simulated cell", &[cell_times]);
    report.metric(
        "peak_rss_mb",
        crate::proc::peak_rss_mb("self").expect("own /proc status"),
        "MB",
    );
    report
}

// ---- traced pass -----------------------------------------------------------

/// Cells the traced pass takes apart: `lbm` is memory-bound (Bin2),
/// `sjeng` cache-friendly (Bin1); LOT-ECC5 + ECC Parity against the
/// 36-device chipkill baseline.
pub const TRACED_CELLS: [(&str, SchemeId, &str); 4] = [
    ("lot5p-lbm", SchemeId::Lot5Parity, "lbm"),
    ("lot5p-sjeng", SchemeId::Lot5Parity, "sjeng"),
    ("ck36-lbm", SchemeId::Ck36, "lbm"),
    ("ck36-sjeng", SchemeId::Ck36, "sjeng"),
];

/// Per-cell layer metrics `(prefix, unit)`; the name is `<prefix>.<cell>`.
pub const CELL_METRICS: [(&str, &str); 10] = [
    ("sim.workloads.ns_per_ref", "ns"),
    ("sim.runner.ns_per_access", "ns"),
    ("sim.llc.ns_per_access", "ns"),
    ("dram.ns_per_request", "ns"),
    ("sim.share.workloads", "%"),
    ("sim.share.llc", "%"),
    ("sim.share.dram", "%"),
    ("sim.share.other", "%"),
    ("sim.llc.miss_ratio", "%"),
    ("dram.requests_per_kaccess", "req/kaccess"),
];

/// What replaying a reference stream through `Llc::access` produced.
struct LlcReplay {
    requests: Vec<MemRequest>,
    accesses: u64,
    /// Accesses and misses after the warm-up, as the runner counts them.
    measured: u64,
    measured_misses: u64,
}

/// Replay `trace` through a fresh LLC with the runner's address formula
/// and scheme glue (ECC/XOR line updates on stores), cores round-robin.
/// Misses become reads and dirty victims writes (an XOR-region victim a
/// read plus a write), spaced `spacing` cycles apart.
fn replay_llc(cfg: &RunConfig, trace: &Trace, spacing: f64) -> LlcReplay {
    let scheme = &cfg.scheme;
    let units = scheme.units_per_access();
    let has_ecc = !matches!(scheme.traffic, EccTraffic::Inline);
    let mut llc = Llc::new(mem_sim::LlcConfig::paper(scheme.mem.line_bytes));
    let mut replay = LlcReplay {
        requests: Vec::new(),
        accesses: 0,
        measured: 0,
        measured_misses: 0,
    };
    let request = |requests: &mut Vec<MemRequest>, line_addr: u64, is_write: bool| {
        let arrival = (requests.len() as f64 * spacing) as u64;
        requests.push(MemRequest {
            line_addr,
            is_write,
            arrival,
        });
    };
    let victim = |requests: &mut Vec<MemRequest>, tag: Option<u64>| {
        if let Some(tag) = tag {
            if tag >= mem_sim::schemes::XOR_REGION_BASE {
                request(requests, tag, false);
            }
            request(requests, tag, true);
        }
    };
    let per_core = trace.per_core.iter().map(Vec::len).min().unwrap_or(0);
    for i in 0..per_core {
        let measured = u64::from(i >= cfg.warmup_per_core);
        for (c, refs) in trace.per_core.iter().enumerate() {
            let r = refs[i];
            let phys64 = c as u64 * CORE_STRIDE + r.line;
            let out = llc.access(phys64 / units, r.is_write);
            replay.accesses += 1;
            replay.measured += measured;
            if !out.hit {
                replay.measured_misses += measured;
                request(&mut replay.requests, phys64 / units, false);
                victim(&mut replay.requests, out.writeback);
            }
            if r.is_write && has_ecc {
                let eaddr = scheme.ecc_line_of(phys64).expect("non-inline scheme");
                let out = llc.access(eaddr, true);
                replay.accesses += 1;
                replay.measured += measured;
                replay.measured_misses += measured * u64::from(!out.hit);
                victim(&mut replay.requests, out.writeback);
            }
        }
    }
    replay
}

/// The traced pass over [`TRACED_CELLS`]: time the generator
/// (`Trace::record`), the whole runner on the recorded trace
/// (`SimRunner::run`), an LLC replay of the same stream (`Llc::access`) and
/// a DRAM replay of that replay's requests (`MemorySystem::submit`).
pub fn layers(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let refs_per_core = WARMUP_PER_CORE + ACCESSES_PER_CORE;
    for (cell, scheme, workload) in TRACED_CELLS {
        let spec = WorkloadSpec::lookup(workload).expect("a paper workload");
        let mut cfg = cell_config(scheme, spec, ctx.seed);

        let t = Instant::now();
        let trace = Trace::record(spec, CORES, refs_per_core, ctx.seed);
        let gen = secs(t.elapsed());
        let refs = trace.total_refs() as f64;

        cfg.trace = Some(trace);
        let t = Instant::now();
        let result = SimRunner::new(cfg.clone()).run();
        let runner = secs(t.elapsed());
        // The trace replays the live generators exactly, so the cell must
        // match its live digest in the matrix's golden file.
        let line = format!("{} {:016x}", key(scheme, spec), digest(&result));
        let golden_path = ctx.golden_dir.join(format!("sim_matrix-{}.txt", ctx.seed));
        let golden = std::fs::read_to_string(golden_path).ok();
        let mismatch = golden.is_some_and(|g| !g.lines().any(|l| l == line));
        report.ops(1, u64::from(mismatch));

        let trace = cfg.trace.take().expect("trace set above");
        let spacing = result.cycles as f64 / result.mem_requests.max(1) as f64;
        let t = Instant::now();
        let llc = replay_llc(&cfg, &trace, spacing);
        let llc_time = secs(t.elapsed());

        let t = Instant::now();
        let mut mem = MemorySystem::new(cfg.scheme.mem.clone());
        for &req in &llc.requests {
            std::hint::black_box(mem.submit(req));
        }
        let dram = secs(t.elapsed());

        let total = gen + runner;
        let measured = (CORES * ACCESSES_PER_CORE) as f64;
        let hits_misses = (result.llc.hits + result.llc.misses).max(1) as f64;
        eprintln!(
            "layers {cell}: runner miss ratio {:.4}, replay miss ratio {:.4}, {} replayed requests",
            result.llc.misses as f64 / hits_misses,
            llc.measured_misses as f64 / llc.measured.max(1) as f64,
            llc.requests.len()
        );
        report.metric(
            format!("sim.workloads.ns_per_ref.{cell}"),
            1e9 * gen / refs,
            "ns",
        );
        report.metric(
            format!("sim.runner.ns_per_access.{cell}"),
            1e9 * runner / refs,
            "ns",
        );
        report.metric(
            format!("sim.llc.ns_per_access.{cell}"),
            1e9 * llc_time / llc.accesses.max(1) as f64,
            "ns",
        );
        report.metric(
            format!("dram.ns_per_request.{cell}"),
            1e9 * dram / llc.requests.len().max(1) as f64,
            "ns",
        );
        report.metric(
            format!("sim.share.workloads.{cell}"),
            100.0 * gen / total,
            "%",
        );
        report.metric(
            format!("sim.share.llc.{cell}"),
            100.0 * llc_time / total,
            "%",
        );
        report.metric(format!("sim.share.dram.{cell}"), 100.0 * dram / total, "%");
        report.metric(
            format!("sim.share.other.{cell}"),
            100.0 * (total - gen - llc_time - dram) / total,
            "%",
        );
        report.metric(
            format!("sim.llc.miss_ratio.{cell}"),
            100.0 * result.llc.misses as f64 / hits_misses,
            "%",
        );
        report.metric(
            format!("dram.requests_per_kaccess.{cell}"),
            1e3 * result.mem_requests as f64 / measured,
            "req/kaccess",
        );
    }
    report
}
