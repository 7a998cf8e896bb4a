//! Fault-injection coverage campaign: the reproduction's validation
//! experiment. Thousands of randomized single- and double-fault trials
//! against the functional ECC Parity memory, classifying every outcome.
//!
//! The contract being validated:
//! * any single-channel fault is survivable (corrected via parity
//!   reconstruction, page retirement, or migration + stored ECC lines);
//! * multi-channel faults either correct (different relative locations, or
//!   one already migrated) or are **detected** uncorrectable;
//! * silent corruption — a read returning wrong data as if clean — never
//!   happens.
//!
//! The work plan lives in `eccparity_bench::faultcampaign`; this binary
//! runs its shards in-process under `eccparity_bench::supervisor`, so a
//! killed campaign resumes from its journal with `ECC_PARITY_RESUME=1`
//! and prints what an uninterrupted run prints.

use eccparity_bench::faultcampaign::{self, merge, Tally};
use eccparity_bench::print_table;
use eccparity_bench::supervisor::{supervise, SupervisorConfig};

fn main() {
    let run_meter = eccparity_bench::RunMeter::start(faultcampaign::CAMPAIGN_NAME);
    let plan = faultcampaign::plan();
    let sup_cfg = SupervisorConfig::from_env(faultcampaign::CAMPAIGN_NAME, plan.config_key());
    let supervised = supervise(&sup_cfg, plan.shards);
    supervised.exit_if_incomplete();

    let mut tallies = vec![Tally::default(); plan.groups.len()];
    for (t, &gi) in supervised.into_results().iter().zip(&plan.shard_group) {
        tallies[gi] = merge(tallies[gi], *t);
    }
    let mut rows = vec![];
    let mut total_silent = 0u64;
    for (&(double, mode), tally) in plan.groups.iter().zip(&tallies) {
        total_silent += tally.silent;
        rows.push(vec![
            format!("{mode:?}{}", if double { " x2ch" } else { "" }),
            tally.trials.to_string(),
            tally.clean_reads.to_string(),
            tally.corrected_reads.to_string(),
            tally.retired_pages.to_string(),
            tally.migrations.to_string(),
            tally.uncorrectable.to_string(),
            tally.silent.to_string(),
        ]);
    }
    print_table(
        "Fault-injection campaign (4-channel LOT-ECC5 + ECC Parity)",
        &[
            "fault",
            "trials",
            "clean",
            "corrected",
            "retired",
            "migrations",
            "uncorrectable",
            "SILENT",
        ],
        &rows,
    );
    println!(
        "\nsingle-channel rows must show zero uncorrectable; double-channel \
         rows may show detected-uncorrectable (the paper's accumulation \
         window) but the SILENT column must be zero everywhere."
    );
    if total_silent != 0 {
        eprintln!(
            "campaign FAILED: {total_silent} silent-corruption event(s) — \
             a read returned wrong data as if clean"
        );
        // Flush provenance/metrics before the non-zero exit (same
        // convention as the soak driver): a failing campaign is exactly
        // when the observability artifacts matter.
        drop(run_meter);
        std::process::exit(1);
    }
    println!("campaign PASSED: no silent corruption in any trial.");
}
