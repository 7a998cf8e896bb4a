//! Distributed campaign worker: attach to a campaign's checkpoint
//! journal, claim shards through the lease protocol, execute and publish
//! them until the campaign is drained.
//!
//! Usage: `eccparity-worker --campaign <name>`
//!
//! The worker rebuilds the campaign's shard list from the same
//! environment the coordinator used (`ECC_PARITY_FAST`,
//! `ECC_PARITY_CHECKPOINT_DIR`), so only campaigns with a library-side
//! work plan can run distributed; today that is `campaign`
//! (`eccparity_bench::faultcampaign`). Normally spawned by the campaign
//! binary's coordinator mode (`ECC_PARITY_WORKERS`), but can be started
//! by hand against a live journal to add capacity.
//!
//! Under `ECC_PARITY_JSON_DIR` the worker writes its own failure ledger,
//! `campaign.failures.jsonl.worker<pid>`.
//!
//! Exit status: 0 once the campaign is drained, 2 on usage errors, 3 on
//! setup failures (no journal header within the attach window), 86 for a
//! chaos-injected kill (`ECC_PARITY_CHAOS` worker faults).

use eccparity_bench::distrib::run_worker;
use eccparity_bench::faultcampaign;
use eccparity_bench::supervisor::SupervisorConfig;

fn usage() -> ! {
    eprintln!("usage: eccparity-worker --campaign <name>   (supported: campaign)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut campaign: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--campaign" => {
                i += 1;
                campaign = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(campaign) = campaign else { usage() };
    if campaign != faultcampaign::CAMPAIGN_NAME {
        eprintln!("eccparity-worker: unknown campaign {campaign:?} (supported: campaign)");
        std::process::exit(2);
    }

    let plan = faultcampaign::plan();
    let mut cfg = SupervisorConfig::from_env(faultcampaign::CAMPAIGN_NAME, plan.config_key());
    // Resume is the coordinator's decision; a worker only ever attaches.
    cfg.resume = false;
    // Creating the coordinator's ledger would truncate it: each worker
    // writes its own beside it.
    cfg.failures_path = cfg
        .failures_path
        .map(|p| format!("{}.worker{}", p.display(), std::process::id()).into());
    match run_worker(&cfg, &plan.shards) {
        Ok(report) => {
            eprintln!(
                "worker[{}]: drained: executed {}, published {}, steals {}, rejected {}",
                std::process::id(),
                report.executed,
                report.published,
                report.steals,
                report.rejected
            );
            obs::metrics::write_snapshot_if_configured("eccparity-worker");
            obs::trace::flush();
        }
        Err(e) => {
            eprintln!("worker[{}]: {e}", std::process::id());
            obs::trace::flush();
            std::process::exit(3);
        }
    }
}
