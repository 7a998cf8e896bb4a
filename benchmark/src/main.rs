//! `eccparity-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]`
//!
//! Run from the repository root (as `benchmark/run.sh` does, after
//! building the programs under test). Prints a header, one line per metric
//! (name, value, unit) and, as the last line, the JSON result. Everything
//! the run writes goes to a temporary directory under the build directory,
//! removed at the end.

use eccparity_benchmark::{
    fleet, layers, per_layer_metrics, proc, sim, soak, Ctx, Report, DEFAULT_SEED, END_TO_END,
    WORKLOADS,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: eccparity-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn number(flag: &str, value: Option<String>) -> u64 {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs an unsigned integer");
        usage()
    })
}

/// The checked-out revision, read from `.git` without running git (the
/// benchmark may run outside any repository).
fn revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => std::fs::read_to_string(git.join(name))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(name))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
            .map(|h| h.trim().to_string()),
    };
    hash.map_or("unknown".to_string(), |h| h.chars().take(12).collect())
}

/// The run's working directory; removed (after stepping out of it) on drop.
struct TempDir {
    root: PathBuf,
    path: PathBuf,
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.root);
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn main() {
    let mut workload: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut seconds = 25;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = Some(number("--seed", args.next())),
            "--seconds" => seconds = number("--seconds", args.next()).max(1),
            "--trace" => trace = number("--trace", args.next()) != 0,
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    let seed = seed.unwrap_or(DEFAULT_SEED);
    if !WORKLOADS.contains(&workload.as_str()) {
        eprintln!("unknown workload `{workload}`");
        usage();
    }

    let root = std::env::current_dir().expect("a working directory");
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin_dir = root.join(&target).join("release");
    for bin in ["soak", "eccparityd"] {
        assert!(
            bin_dir.join(bin).is_file(),
            "{} is not built (run benchmark/run.sh)",
            bin_dir.join(bin).display()
        );
    }
    let tmp = TempDir {
        path: root
            .join(&target)
            .join("benchmark-tmp")
            .join(std::process::id().to_string()),
        root: root.clone(),
    };
    std::fs::create_dir_all(&tmp.path).expect("create the run's temporary directory");
    std::env::set_current_dir(&tmp.path).expect("enter the run's temporary directory");

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    proc::set_connection_budget(nproc);
    println!(
        "benchmark: workload {workload} | seed {seed} | seconds {seconds} | trace {}",
        u8::from(trace)
    );
    println!(
        "benchmark: nproc {nproc} | gf simd {} | revision {}",
        ecc_codes::gfsimd::tier().as_str(),
        revision(&root)
    );
    let ctx = Ctx {
        seed,
        budget: Duration::from_secs(seconds),
        bin_dir,
        golden_dir: root.join("benchmark").join("golden"),
    };
    let report: Report = if trace {
        layers(&ctx)
    } else {
        match workload.as_str() {
            "sim_matrix" => sim::run(&ctx),
            "soak" => soak::run(&ctx),
            "fleet_ingest" => fleet::run_ingest(&ctx),
            "fleet_query" => fleet::run_query(&ctx),
            other => unreachable!("workload {other} was checked above"),
        }
    };
    drop(tmp);

    let expected: Vec<(String, &str)> = if trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    if let Err(e) = report.check_metrics(&expected) {
        panic!("the run's metrics do not match BENCHMARK.json: {e}");
    }
    assert!(report.attempted >= 1, "the run attempted nothing");
    for m in &report.metrics {
        println!("{:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "benchmark: correct {} | attempted {} | failed {}",
        report.correct, report.attempted, report.failed
    );
    println!("{}", report.json());
}
