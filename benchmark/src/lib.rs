//! Seeded end-to-end benchmark of the ECC Parity reproduction.
//!
//! Four workloads cover the repository's three stacks:
//!
//! * `sim_matrix` — the timing stack: the Fig 10 scheme × workload matrix
//!   simulated in-process (workload generator → LLC → scheme glue → DRAM);
//! * `soak` — the functional stack: the real `soak` binary, one process
//!   per scheme and scenario (codec → `ParityMemory` → soak harness);
//! * `fleet_ingest` and `fleet_query` — the daemon stack: a real
//!   `eccparityd` under write load and under read load.
//!
//! An untraced run reports the [`END_TO_END`] metrics of one workload. A
//! traced run ([`layers`]) reports every per-layer metric instead: it calls
//! each layer's public functions from benchmark code and times them there,
//! so the program under test is built exactly as users build it. Every
//! time is host time; simulated time only enters the correctness digests.

pub mod fleet;
pub mod proc;
pub mod sim;
pub mod soak;
pub mod timed;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["sim_matrix", "soak", "fleet_ingest", "fleet_query"];

/// End-to-end metrics `(name, unit)`; an untraced run of any workload
/// reports each of them (see the README for each workload's definition).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The seed when none is given: `RunConfig::paper`'s, at which `sim_matrix`
/// simulates the cells of `ECC_PARITY_FAST=1 fig10`.
pub const DEFAULT_SEED: u64 = 0xECC9_A817;

/// Set-ups timed before each pass or round; `setup_s` is the median of all
/// the run's set-ups.
pub const SETUPS: usize = 3;

/// Per-layer metrics `(name, unit)`; a traced run reports each of them.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for cell in sim::TRACED_CELLS {
        for (prefix, unit) in sim::CELL_METRICS {
            out.push((format!("{prefix}.{}", cell.0), unit));
        }
    }
    for scheme in soak::TRACED_SCHEMES {
        for (prefix, unit) in soak::SCHEME_METRICS {
            out.push((format!("{prefix}.{scheme}"), unit));
        }
    }
    for (name, unit) in fleet::INGEST_METRICS.iter().chain(&fleet::QUERY_METRICS) {
        out.push((name.to_string(), *unit));
    }
    out
}

/// The traced run: the same for every workload, it takes all three stacks
/// apart so each per-layer metric is measured in every traced run. Spans
/// are timed around calls into each layer's public functions and kept in
/// memory; the README maps each layer metric to the workload and
/// end-to-end metric it should move. The pass repeats while the budget
/// allows, and each metric is the median over the repetitions.
pub fn layers(ctx: &Ctx) -> Report {
    // On one core, as the fleet workloads run: every section is
    // single-threaded apart from the engine's shard thread and the daemon.
    proc::pin_to_fastest_cpu();
    type Section = fn(&Ctx) -> Report;
    let sections: [(&str, Section); 4] = [
        ("sim", sim::layers),
        ("soak", soak::layers),
        ("fleet ingest", fleet::ingest_layers),
        ("fleet query", fleet::query_layers),
    ];
    let runs = passes(ctx.budget, 1, || {
        let mut report = Report::default();
        for (name, section) in sections {
            let t = Instant::now();
            report.merge(section(ctx));
            eprintln!("layers: {name} section took {:.2} s", secs(t.elapsed()));
        }
        report
    });
    let mut out = Report::default();
    for (_, run) in &runs {
        out.correct &= run.correct;
        out.attempted += run.attempted;
        out.failed += run.failed;
    }
    for (i, m) in runs[0].1.metrics.iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|(_, r)| r.metrics[i].value).collect();
        out.metric(m.name.clone(), median(&values), m.unit);
    }
    out
}

/// What one run hands to its workload.
pub struct Ctx {
    /// The run's seed; it reaches the program only through generated inputs.
    pub seed: u64,
    /// How long the run measures.
    pub budget: Duration,
    /// Absolute directory holding the `soak` and `eccparityd` binaries.
    pub bin_dir: PathBuf,
    /// Absolute directory of the golden outputs.
    pub golden_dir: PathBuf,
}

impl Ctx {
    /// Absolute path of a program under test.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

/// One metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run: the verdict, the operation counts and the metrics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output that has a reference matched it.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or produced a wrong output.
    pub failed: u64,
    /// Measured values.
    pub metrics: Vec<Metric>,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }
}

impl Report {
    /// Record one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Count operations; `failed` of them failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.correct = false;
        }
    }

    /// Record `op_p50_ms` and `op_p95_ms` of the op times (seconds) of each
    /// round: each is the lowest of the rounds' values. Print what one op
    /// is and how many were timed in each round.
    pub fn op_latency(&mut self, op: &str, rounds: &[Vec<f64>]) {
        let counts: Vec<usize> = rounds.iter().map(Vec::len).collect();
        println!("benchmark: op = one {op} | samples per round {counts:?}");
        for (name, q) in [("op_p50_ms", 0.5), ("op_p95_ms", 0.95)] {
            let per_round: Vec<f64> = rounds.iter().map(|r| quantile(r, q)).collect();
            self.metric(name, 1e3 * fastest(&per_round), "ms");
        }
    }

    /// Fold another section's report into this one.
    pub fn merge(&mut self, other: Report) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }

    /// Check that the metrics are exactly `expected`, with the same units
    /// and finite values.
    pub fn check_metrics(&self, expected: &[(String, &str)]) -> Result<(), String> {
        let mut got: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        let mut want: Vec<(&str, &str)> = expected.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
            let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
            return Err(format!(
                "metrics differ: missing {missing:?}, unexpected {extra:?}"
            ));
        }
        match self.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("metric {} is {}", m.name, m.value)),
            None => Ok(()),
        }
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Seconds as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Linear-interpolation quantile `q` in `[0, 1]` of `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The smallest of `per_round`: a time metric's value in the run's fastest
/// round.
pub fn fastest(per_round: &[f64]) -> f64 {
    per_round.iter().copied().fold(f64::INFINITY, f64::min)
}

/// FNV-1a, 64-bit: the digest of every golden output.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `pass` until `budget` is spent: a further pass starts only while
/// the slowest pass so far would still end inside the budget, and at least
/// `min` passes run whatever the budget. Returns each pass's wall time in
/// seconds with its output.
pub fn passes<T>(budget: Duration, min: usize, mut pass: impl FnMut() -> T) -> Vec<(f64, T)> {
    let start = Instant::now();
    let mut out: Vec<(f64, T)> = Vec::new();
    loop {
        let slowest = out.iter().map(|p| p.0).fold(0.0, f64::max);
        if out.len() >= min && secs(start.elapsed()) + slowest > secs(budget) {
            return out;
        }
        let t = Instant::now();
        let value = pass();
        out.push((secs(t.elapsed()), value));
    }
}

/// Passes of a workload while `budget` lasts (at least two; see
/// [`passes`]), each preceded by [`SETUPS`] timed calls of `setup`, so the
/// set-ups are spread over the run as the passes are. Returns every set-up
/// time, and each pass's own wall time with its output.
pub fn timed_passes<T>(
    budget: Duration,
    mut setup: impl FnMut(),
    mut pass: impl FnMut() -> T,
) -> (Vec<f64>, Vec<(f64, T)>) {
    let mut setups = Vec::new();
    let runs = passes(budget, 2, || {
        for _ in 0..SETUPS {
            let t = Instant::now();
            setup();
            setups.push(secs(t.elapsed()));
        }
        let t = Instant::now();
        let out = pass();
        (secs(t.elapsed()), out)
    });
    (setups, runs.into_iter().map(|(_, run)| run).collect())
}

/// Compare `lines` with the golden file of (`workload`, `seed`). Returns
/// the number of differing lines, or `None` when the seed has no golden
/// file. The lines are echoed to stderr either way, in golden-file form,
/// so a new golden file is the `golden` lines of one pass or round.
pub fn check_golden(dir: &Path, workload: &str, seed: u64, lines: &[String]) -> Option<u64> {
    for line in lines {
        eprintln!("golden {workload} {line}");
    }
    let text = std::fs::read_to_string(dir.join(format!("{workload}-{seed}.txt"))).ok()?;
    let want: Vec<&str> = text.lines().collect();
    Some(differing(lines, &want))
}

/// Lines of `got` that differ from `want`, position by position.
pub fn differing(got: &[impl AsRef<str>], want: &[impl AsRef<str>]) -> u64 {
    (0..got.len().max(want.len()))
        .filter(|&i| got.get(i).map(AsRef::as_ref) != want.get(i).map(AsRef::as_ref))
        .count() as u64
}
