//! The soak workload runs only seeds from `soak::SEEDS`, so each of them
//! must have a golden file holding a clean verdict for every job, and every
//! run seed must select one of them.

use eccparity_benchmark::soak::{soak_seed, SEEDS};
use resilience::{ScenarioKind, DEFAULT_SCHEMES};
use std::path::PathBuf;

#[test]
fn every_soak_seed_has_a_clean_golden_file() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden");
    let jobs = DEFAULT_SCHEMES.len() * ScenarioKind::all().len();
    for seed in SEEDS {
        let path = dir.join(format!("soak-{seed}.txt"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), jobs, "{}", path.display());
        for line in lines {
            assert!(line.ends_with("-> CLEAN"), "{}: {line}", path.display());
        }
    }
}

#[test]
fn every_run_seed_selects_a_soak_seed() {
    for seed in SEEDS {
        assert_eq!(soak_seed(seed), seed);
    }
    for seed in [0, 8, 1_483_562_807, u64::from(u32::MAX), u64::MAX] {
        assert!(SEEDS.contains(&soak_seed(seed)), "{seed}");
    }
}
