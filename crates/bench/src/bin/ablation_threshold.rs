//! Ablation: the bank-pair error-counter threshold (paper §III-C fixes it
//! at 4). Sweeping it trades page-retirement capacity loss (low thresholds
//! migrate eagerly, high thresholds retire more pages and react slower)
//! against exposure time before a faulty region gains stored ECC bits.
//!
//! Driven end-to-end through the functional `ParityMemory` with an injected
//! bank fault: counts scrub sweeps to migration and pages retired.

use ecc_codes::lotecc::LotEcc;
use ecc_parity::layout::LineLoc;
use ecc_parity::memory::{ParityConfig, ParityMemory};
use eccparity_bench::print_table;
use mem_faults::{ChipLocation, FaultInstance, FaultMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let _run = eccparity_bench::RunMeter::start("ablation_threshold");
    let mut rows = vec![];
    for threshold in [1u8, 2, 4, 8, 16] {
        let cfg = ParityConfig {
            channels: 8,
            banks_per_channel: 4,
            data_rows: 21, // 3 blocks of 7
            lines_per_row: 4,
            threshold,
        };
        let mut mem = ParityMemory::new(LotEcc::five(), cfg);
        let mut rng = StdRng::seed_from_u64(threshold as u64);
        // Populate channel 0 bank 0 and inject a bank fault there.
        for row in 0..cfg.data_rows {
            for line in 0..cfg.lines_per_row {
                let data: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
                mem.write(0, LineLoc { bank: 0, row, line }, &data).unwrap();
            }
        }
        mem.inject_fault(FaultInstance {
            chip: ChipLocation {
                channel: 0,
                rank: 0,
                chip: 1,
            },
            mode: FaultMode::SingleBank,
            bank: 0,
            row: 0,
            line: 0,
            pattern_seed: 42,
        });
        let mut sweeps = 0;
        let mut retired_total = 0;
        for _ in 0..threshold as usize + 2 {
            sweeps += 1;
            let rep = mem.scrub();
            retired_total += rep.pages_retired;
            if rep.pairs_migrated > 0 {
                break;
            }
        }
        rows.push(vec![
            threshold.to_string(),
            sweeps.to_string(),
            retired_total.to_string(),
            format!("{}", mem.stats().pairs_migrated),
            format!("{:.2}%", mem.capacity_overhead() * 100.0),
        ]);
    }
    print_table(
        "Ablation — error-counter threshold (bank fault in one channel)",
        &[
            "threshold",
            "scrubs to migrate",
            "pages retired",
            "migrations",
            "capacity overhead",
        ],
        &rows,
    );
    println!(
        "\npaper's choice: threshold 4 — max 4*(N-1) retired pages per pair, \
         one scrub sweep to migrate a large fault (each sweep sees >=4 errors)."
    );
}
