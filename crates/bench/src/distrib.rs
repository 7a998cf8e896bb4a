//! Multi-process campaign execution: the worker loop and the fleet phase.
//!
//! [`crate::supervisor`] is the one scheduler: it resumes, runs shard
//! attempts and closes the run. This module adds only what a fleet of
//! processes sharing one journal needs:
//!
//! * **Worker** ([`run_worker`]): attaches to the campaign journal, and
//!   loops — replay + [`crate::supervisor::distill_records`] to see what
//!   is settled, claim an unsettled shard through [`crate::lease`], run it
//!   through the supervisor's attempt scheduler, publish a `ShardDone`
//!   (stamped with the lease's fencing token) via the `O_APPEND` path,
//!   release, repeat — until every shard is settled. A heartbeat thread
//!   refreshes the lease while the shard runs; before publishing, the
//!   worker re-verifies ownership so a stolen lease's result is
//!   discarded, never journaled (`supervisor.lease.stale_publish_rejected`).
//! * **Fleet phase** ([`supervise_distributed`]): after the supervisor
//!   publishes the journal, spawn `ECC_PARITY_WORKERS` local
//!   `eccparity-worker` processes, reap the dead and immediately re-queue
//!   their leases (`supervisor.lease.requeued`), respawn within a bounded
//!   budget, and publish a live `eccparity-progress-v1` stamp. The
//!   supervisor takes the shards the fleet settled from the journal and
//!   runs the remainder in-process, `max_inflight` at a time — all of it
//!   when the worker binary is missing, what is left when the respawn
//!   budget burns out — so a distributed campaign never completes *less*
//!   than a local one, and prints the same stdout.
//!
//! Worker-level chaos ([`crate::chaos`]: kill-after-claim, heartbeat
//! stall, double-claim probe, stale-fencing publish) lives in
//! [`run_worker`] alone, which only worker processes run, so chaos can
//! never kill the coordinator itself.

use crate::lease::{self, ClaimOutcome, LeaseConfig};
use crate::supervisor::{
    append_record, distill_records, done_record, header_matches, replay_journal, run_attempts,
    supervise, supervise_with, AttemptEvent, JournalRecord, Ledger, OutcomeClass, Shard,
    SupervisedRun, SupervisorConfig, JOURNAL_SCHEMA,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Schema stamped into the coordinator's live progress stamp.
pub const PROGRESS_SCHEMA: &str = "eccparity-progress-v1";

/// Exit status the worker binary uses for a chaos-injected `kill -9`
/// (distinct from real failures so the coordinator can log it as
/// expected attrition).
pub const CHAOS_KILL_EXIT: i32 = 86;

/// What one worker did before the campaign drained.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkerReport {
    /// Shards this worker executed to a terminal class.
    pub executed: u64,
    /// `ShardDone` records this worker published.
    pub published: u64,
    /// Results discarded because the lease was stolen mid-run.
    pub rejected: u64,
    /// Claims that arrived via a steal (token > 1).
    pub steals: u64,
}

/// Live progress stamp (`eccparity-progress-v1`), republished atomically
/// by the coordinator every poll tick.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgressStamp {
    /// Always [`PROGRESS_SCHEMA`].
    pub schema: String,
    /// Campaign name.
    pub campaign: String,
    /// Shards the campaign submits.
    pub total_shards: u64,
    /// Shards with a terminal journal record.
    pub done: u64,
    /// Shards currently under a lease (in flight somewhere).
    pub claimed: u64,
    /// Shards neither done nor claimed.
    pub remaining: u64,
    /// Worker processes currently alive.
    pub workers_alive: u64,
    /// Coordinator wall time so far, milliseconds.
    pub elapsed_ms: u64,
    /// Naive completion estimate: mean done-shard wall time times
    /// remaining shards, divided by live workers. 0 when unknowable.
    pub eta_ms: u64,
}

/// Worker-count policy from `ECC_PARITY_WORKERS`: unset or `1` means
/// single-process supervision (the default stays exactly the old
/// behavior); `0` or `auto` means CPU-count-scaled; `N >= 2` means N.
pub fn workers_from_env() -> usize {
    match std::env::var("ECC_PARITY_WORKERS") {
        Err(_) => 1,
        Ok(v) => {
            let v = v.trim().to_string();
            if v == "0" || v.eq_ignore_ascii_case("auto") {
                let cpus = std::thread::available_parallelism().map_or(4, |n| n.get());
                (cpus / 2).clamp(2, 8)
            } else {
                v.parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("supervisor: ECC_PARITY_WORKERS={v:?} is not a count; using 1");
                    1
                })
            }
        }
    }
}

/// Distributed entry point for campaign binaries: [`supervise`], with a
/// fleet phase in front of its in-process scheduler when
/// `ECC_PARITY_WORKERS` asks for a fleet and a checkpoint directory exists
/// to share the journal through.
pub fn supervise_distributed<T>(cfg: &SupervisorConfig, shards: Vec<Shard<T>>) -> SupervisedRun<T>
where
    T: Serialize + Deserialize + Send + 'static,
{
    let workers = workers_from_env();
    if workers <= 1 || cfg.dir.is_none() {
        return supervise(cfg, shards);
    }
    let started = Instant::now();
    let run = match worker_binary() {
        Some(bin) => supervise_with(
            cfg,
            shards,
            Some(&mut |shards: &[Shard<T>]| fleet(cfg, shards, &bin, workers, started)),
        ),
        None => {
            eprintln!(
                "supervisor: {}: eccparity-worker binary not found next to this executable; \
                 running the campaign in-process",
                cfg.campaign
            );
            supervise(cfg, shards)
        }
    };
    // Every shard is settled now, by the fleet or in-process.
    if let Some(path) = cfg.progress_path() {
        let total = run.outcomes.len() as u64;
        write_progress(&path, &progress(cfg, total, total, 0, 0, started, 0));
    }
    run
}

// ---- worker ----------------------------------------------------------------

/// Append `rec` to the journal, warning on failure.
fn publish(journal: &Path, rec: &JournalRecord) {
    if let Err(e) = append_record(journal, rec) {
        crate::harness::warn_io("journal append", &e);
    }
}

/// Attach to `cfg`'s campaign journal and execute shards until every one
/// is settled. Each claimed shard runs through the supervisor's attempt
/// scheduler, whose failed attempts go to the ledger at
/// `cfg.failures_path`. Returns what this worker contributed; `Err` only
/// for setup-level problems (no checkpoint dir, header never appeared).
pub fn run_worker<T>(cfg: &SupervisorConfig, shards: &[Shard<T>]) -> Result<WorkerReport, String>
where
    T: Serialize + Deserialize + Send + 'static,
{
    let journal = cfg
        .journal_path()
        .ok_or_else(|| "worker requires a checkpoint directory".to_string())?;
    let ldir = cfg
        .lease_dir()
        .ok_or_else(|| "worker requires a checkpoint directory".to_string())?;
    let lcfg = LeaseConfig::from_env();
    let chaos = cfg.chaos;
    let total = shards.len() as u64;
    let mut ledger = Ledger::open(cfg);
    let mut report = WorkerReport::default();
    let header_wait = Instant::now();

    'drain: loop {
        let (records, _) = replay_journal(&journal);
        if !header_matches(&records, cfg, total) {
            // The coordinator publishes the header before spawning us,
            // but tolerate a short window (or an operator starting
            // workers by hand before the coordinator).
            if header_wait.elapsed() > Duration::from_secs(10) {
                return Err(format!(
                    "no matching {JOURNAL_SCHEMA} header in {} after 10s",
                    journal.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
            continue;
        }
        let view = distill_records(&records);
        if shards.iter().all(|s| view.done.contains_key(&s.name)) {
            break 'drain;
        }

        for (idx, shard) in shards.iter().enumerate() {
            if view.done.contains_key(&shard.name) {
                continue;
            }
            let lease = match lease::try_claim(&ldir, &shard.name, &lcfg) {
                Ok(ClaimOutcome::Claimed(l)) => l,
                Ok(ClaimOutcome::Busy) | Ok(ClaimOutcome::Conflict) => continue,
                Err(e) => {
                    crate::harness::warn_io("lease claim", &e);
                    continue;
                }
            };
            // `view` may predate another worker's run of this shard, which
            // publishes before it releases: only a replay after the claim
            // shows whether the shard is still unsettled.
            let (records, _) = replay_journal(&journal);
            let view = distill_records(&records);
            if view.done.contains_key(&shard.name) {
                lease.release();
                continue 'drain;
            }
            if lease.token > 1 {
                report.steals += 1;
            }
            if chaos.worker_kill_after_claim(&shard.name, lease.token) {
                eprintln!(
                    "worker[{}]: chaos: dying after claiming {} (token {})",
                    std::process::id(),
                    shard.name,
                    lease.token
                );
                // No cleanup on purpose: the lease file survives with our
                // (now dead) pid, exercising the steal path.
                std::process::exit(CHAOS_KILL_EXIT);
            }
            if chaos.worker_double_claim(&shard.name) {
                // Protocol probe: a second claim of a held shard must be
                // refused. If it is not, the lease layer is broken and
                // results can no longer be trusted.
                if let Ok(ClaimOutcome::Claimed(_)) = lease::try_claim(&ldir, &shard.name, &lcfg) {
                    eprintln!(
                        "worker[{}]: FATAL: double-claim probe acquired {} twice",
                        std::process::id(),
                        shard.name
                    );
                    std::process::exit(3);
                }
            }
            // Crash-loop guard, same threshold as single-process.
            if view.crash_counts.get(&shard.name).copied().unwrap_or(0) >= cfg.poison_threshold {
                eprintln!(
                    "worker[{}]: {}: shard {} was in flight at {}+ process deaths; poisoned",
                    std::process::id(),
                    cfg.campaign,
                    shard.name,
                    cfg.poison_threshold
                );
                let class = OutcomeClass::Poisoned;
                publish(
                    &journal,
                    &done_record::<T>(&shard.name, class, 0, 0, None, lease.token),
                );
                report.published += 1;
                lease.release();
                // Re-replay before the next claim so freshly settled
                // shards are not re-executed.
                continue 'drain;
            }

            // Heartbeat until the attempt chain settles. A chaos stall
            // leaves the thread waiting without refreshing the mtime, so
            // the lease expires mid-run and another worker steals it.
            // Dropping `stop` wakes the thread at once.
            let stall = chaos.worker_heartbeat_stall(&shard.name, lease.token);
            if stall {
                eprintln!(
                    "worker[{}]: chaos: stalling heartbeat on {} (token {})",
                    std::process::id(),
                    shard.name,
                    lease.token
                );
            }
            let (stop, stopped) = mpsc::channel::<()>();
            let hb = {
                let lease = lease.clone();
                let interval = lcfg.heartbeat;
                std::thread::spawn(move || {
                    while stall || lease.heartbeat() {
                        if stopped.recv_timeout(interval) != Err(mpsc::RecvTimeoutError::Timeout) {
                            break;
                        }
                    }
                })
            };
            let mut settled = None;
            run_attempts(cfg, shards, vec![idx], &mut ledger, |event| match event {
                AttemptEvent::Started(_) => publish(
                    &journal,
                    &JournalRecord::ShardStart {
                        shard: shard.name.clone(),
                    },
                ),
                AttemptEvent::Settled(s) => settled = Some(s),
            });
            drop(stop);
            let _ = hb.join();
            report.executed += 1;
            let s = settled.expect("the queued shard settles before the scheduler returns");

            // Fencing: publish only while the lease is still ours.
            if !lease.still_owned() {
                obs::counter!("supervisor.lease.stale_publish_rejected").inc();
                report.rejected += 1;
                eprintln!(
                    "worker[{}]: lease for {} was stolen mid-run; result discarded",
                    std::process::id(),
                    shard.name
                );
                continue 'drain;
            }
            let publish_under = |token| {
                let result = s.result.as_ref();
                let rec = done_record(&shard.name, s.class, s.attempts, s.wall_ms, result, token);
                publish(&journal, &rec);
            };
            if chaos.worker_stale_publish(&shard.name, lease.token) {
                // Zombie-writer probe: forge the publish a fenced-out
                // worker would have made (token 1), then publish the real
                // record. Replay must keep the higher token.
                eprintln!(
                    "worker[{}]: chaos: forging stale token-1 publish for {}",
                    std::process::id(),
                    shard.name
                );
                publish_under(1);
            }
            publish_under(lease.token);
            report.published += 1;
            lease.release();
            continue 'drain;
        }
        // Fell through the scan without settling anything: every
        // unsettled shard is claimed by someone alive. Wait for their
        // publishes (or their leases to go stale).
        std::thread::sleep(Duration::from_millis(40));
    }
    Ok(report)
}

// ---- fleet phase -----------------------------------------------------------

/// Count the lease files currently present (in-flight shards).
fn count_leases(ldir: &Path) -> u64 {
    std::fs::read_dir(ldir).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("lease"))
            .count() as u64
    })
}

/// A progress stamp of `cfg`'s campaign, `started` its start.
fn progress(
    cfg: &SupervisorConfig,
    total: u64,
    done: u64,
    claimed: u64,
    workers_alive: u64,
    started: Instant,
    eta_ms: u64,
) -> ProgressStamp {
    ProgressStamp {
        schema: PROGRESS_SCHEMA.to_string(),
        campaign: cfg.campaign.clone(),
        total_shards: total,
        done,
        claimed,
        remaining: total - done - claimed,
        workers_alive,
        elapsed_ms: started.elapsed().as_millis() as u64,
        eta_ms,
    }
}

/// Atomically republish the progress stamp (tmp + rename, like every
/// other published artifact).
fn write_progress(path: &Path, stamp: &ProgressStamp) {
    let Ok(json) = serde_json::to_string(stamp) else {
        return;
    };
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let ok = std::fs::write(&tmp, json.as_bytes())
        .and_then(|()| std::fs::rename(&tmp, path))
        .is_ok();
    if !ok {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Locate the worker binary: a sibling of the running executable.
fn worker_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let bin = exe.parent()?.join("eccparity-worker");
    bin.exists().then_some(bin)
}

fn spawn_worker(bin: &Path, campaign: &str, idx: usize) -> std::io::Result<std::process::Child> {
    let mut cmd = std::process::Command::new(bin);
    cmd.arg("--campaign").arg(campaign);
    // Workers must never resume-rewrite the journal the coordinator owns.
    cmd.env_remove("ECC_PARITY_RESUME");
    // Give each worker its own metrics snapshot path so the fleet does
    // not clobber one file (and the coordinator's final snapshot).
    if let Some(base) = obs::metrics::snapshot_path() {
        cmd.env(
            "ECC_PARITY_METRICS",
            format!("{}.worker{idx}", base.display()),
        );
    }
    cmd.spawn()
}

/// The fleet phase: run `workers` worker processes over the published
/// journal until every shard is settled or no worker is left to run (the
/// respawn budget burned, or spawns failing). Returns the journal's
/// records as the fleet left them.
fn fleet<T>(
    cfg: &SupervisorConfig,
    shards: &[Shard<T>],
    bin: &Path,
    workers: usize,
    started: Instant,
) -> Vec<JournalRecord> {
    let total = shards.len() as u64;
    let journal = cfg.journal_path().expect("caller checked cfg.dir");
    let ldir = cfg.lease_dir().expect("caller checked cfg.dir");
    // Leases from a previous (dead) coordinator are garbage: pids may
    // have been reused, so clear rather than steal.
    let _ = std::fs::remove_dir_all(&ldir);

    let respawn_budget = workers * 4;
    let mut spawned = 0usize;
    let mut children: Vec<(std::process::Child, u32)> = Vec::new();
    let progress_path = cfg.progress_path();
    loop {
        let (records, _) = replay_journal(&journal);
        let view = distill_records(&records);
        let done_wall: Vec<u64> = shards
            .iter()
            .filter_map(|s| view.done.get(&s.name))
            .map(|r| r.wall_ms)
            .collect();
        let done = done_wall.len() as u64;
        if let Some(ppath) = &progress_path {
            let claimed = count_leases(&ldir).min(total - done);
            let eta_ms = if done_wall.is_empty() || children.is_empty() {
                0
            } else {
                let mean = done_wall.iter().sum::<u64>() / done;
                mean * (total - done - claimed) / children.len() as u64
            };
            let alive = children.len() as u64;
            write_progress(
                ppath,
                &progress(cfg, total, done, claimed, alive, started, eta_ms),
            );
        }
        if done == total {
            // Workers notice the drained journal and exit on their own;
            // one may still be finishing a duplicate publish.
            for (mut child, _) in children {
                let _ = child.wait();
            }
            return replay_journal(&journal).0;
        }

        // Reap dead workers; their leases re-queue immediately so the
        // campaign never waits on a dead pid's TTL.
        let mut i = 0;
        while i < children.len() {
            match children[i].0.try_wait() {
                Ok(Some(status)) => {
                    let (_, pid) = children.remove(i);
                    let requeued = lease::requeue_leases_of(&ldir, pid);
                    let note = match status.code() {
                        Some(0) => "drained".to_string(),
                        Some(CHAOS_KILL_EXIT) => "chaos-killed".to_string(),
                        Some(c) => format!("exit {c}"),
                        None => "killed by signal".to_string(),
                    };
                    if !requeued.is_empty() || status.code() != Some(0) {
                        eprintln!(
                            "supervisor: {}: worker {pid} {note}; re-queued {} shard(s)",
                            cfg.campaign,
                            requeued.len()
                        );
                    }
                }
                Ok(None) => i += 1,
                Err(_) => i += 1,
            }
        }

        // Keep the fleet at strength while there is work and budget.
        while children.len() < workers && spawned < respawn_budget {
            match spawn_worker(bin, &cfg.campaign, spawned) {
                Ok(child) => {
                    let pid = child.id();
                    children.push((child, pid));
                    spawned += 1;
                }
                Err(e) => {
                    crate::harness::warn_io("worker spawn", &e);
                    break;
                }
            }
        }
        if children.is_empty() {
            eprintln!(
                "supervisor: {}: no worker left to run (respawn budget {respawn_budget}, \
                 {spawned} spawned); finishing in-process",
                cfg.campaign
            );
            return records;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Chaos;
    use crate::supervisor::quarantine_path;

    #[test]
    fn a_corrupt_record_reaches_the_quarantine_sidecar_once() {
        obs::metrics::set_enabled(true);
        let dir =
            std::env::temp_dir().join(format!("eccparity_quarantine_once_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SupervisorConfig {
            campaign: "quarantine_once".to_string(),
            config_key: "quarantine-once-v1".to_string(),
            dir: Some(dir.clone()),
            resume: false,
            timeout: Duration::from_secs(30),
            retries: 0,
            backoff: Duration::from_millis(1),
            poison_threshold: 3,
            max_inflight: 2,
            chaos: Chaos::off(),
            failures_path: None,
        };
        let shards: Vec<Shard<u64>> = (0..8u64)
            .map(|i| Shard::new(format!("campaign:quarantine:chunk{i}"), move || i))
            .collect();
        let journal = cfg.journal_path().unwrap();
        let quarantined = obs::counter!("supervisor.journal.quarantined");
        let before = quarantined.get();
        // The fleet phase: one corrupt publish lands in the journal, then a
        // worker drains every shard, distilling the journal on each loop.
        let mut fleet = |shards: &[Shard<u64>]| {
            let corrupt = JournalRecord::ShardDone {
                shard: shards[0].name.clone(),
                class: "completed".to_string(),
                attempts: 1,
                wall_ms: 1,
                checksum: 1,
                payload: "0".to_string(),
                token: 1,
            };
            append_record(&journal, &corrupt).unwrap();
            assert_eq!(run_worker(&cfg, shards).unwrap().executed, 8);
            replay_journal(&journal).0
        };
        let run = supervise_with(&cfg, shards, Some(&mut fleet));
        assert!(run.all_succeeded());
        let sidecar = std::fs::read_to_string(quarantine_path(&journal)).unwrap();
        assert_eq!(sidecar.lines().count(), 1, "{sidecar}");
        assert_eq!(quarantined.get() - before, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
