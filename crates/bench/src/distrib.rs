//! Multi-process campaign execution: worker loop and coordinator.
//!
//! [`crate::supervisor`] shards a campaign within one process; this module
//! scales the same journal out to a fleet. The pieces:
//!
//! * **Worker** ([`run_worker`]): attaches to the campaign journal, and
//!   loops — replay + [`crate::supervisor::distill_records`] to see what
//!   is settled, claim an unsettled shard through [`crate::lease`],
//!   execute it under the same catch_unwind + watchdog + bounded-retry
//!   machinery, publish a `ShardDone` (stamped with the lease's fencing
//!   token) via the `O_APPEND` path, release, repeat — until every shard
//!   is settled. A heartbeat thread refreshes the lease while the shard
//!   runs; before publishing, the worker re-verifies ownership so a
//!   stolen lease's result is discarded, never journaled
//!   (`supervisor.lease.stale_publish_rejected`).
//! * **Coordinator** ([`supervise_distributed`]): publishes the journal
//!   header, spawns `ECC_PARITY_WORKERS` local `eccparity-worker`
//!   processes, reaps the dead and immediately re-queues their leases
//!   (`supervisor.lease.requeued`), respawns within a bounded budget,
//!   publishes a live `eccparity-progress-v1` stamp, and finally merges
//!   the journal into the same [`SupervisedRun`] — and byte-identical
//!   stdout — a single-process [`supervise`] call produces. If workers
//!   cannot run (binary missing, respawn budget burned), the coordinator
//!   finishes the remainder in-process, so a distributed campaign never
//!   completes *less* than a local one.
//!
//! Worker-level chaos ([`crate::chaos`]: kill-after-claim, heartbeat
//! stall, double-claim probe, stale-fencing publish) is only honored when
//! [`WorkerOptions::worker_faults`] is set — the worker binary sets it,
//! the coordinator's in-process fallback does not, so chaos can never
//! kill the coordinator itself.

use crate::chaos::Chaos;
use crate::hash::fnv1a64;
use crate::lease::{self, ClaimOutcome, LeaseConfig};
use crate::supervisor::{
    append_record, distill_records, header_matches, panic_message, quarantine_path, replay_journal,
    supervise, JournalRecord, OutcomeClass, Shard, ShardOutcome, SupervisedRun, SupervisorConfig,
    JOURNAL_SCHEMA,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Schema stamped into the coordinator's live progress stamp.
pub const PROGRESS_SCHEMA: &str = "eccparity-progress-v1";

/// Exit status the worker binary uses for a chaos-injected `kill -9`
/// (distinct from real failures so the coordinator can log it as
/// expected attrition).
pub const CHAOS_KILL_EXIT: i32 = 86;

/// How a [`run_worker`] call should behave.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerOptions {
    /// Honor worker-level chaos faults (process kill, heartbeat stall,
    /// forged stale publish). Only the standalone worker binary sets
    /// this; in-process callers must not, or chaos would kill them.
    pub worker_faults: bool,
}

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

/// Distributed entry point for campaign binaries: single-process
/// [`supervise`] unless `ECC_PARITY_WORKERS` asks for a fleet (and a
/// checkpoint directory exists to share the journal through).
pub fn supervise_distributed<T>(cfg: &SupervisorConfig, shards: Vec<Shard<T>>) -> SupervisedRun<T>
where
    T: Serialize + Deserialize + Send + 'static,
{
    let workers = workers_from_env();
    if workers <= 1 || cfg.dir.is_none() {
        return supervise(cfg, shards);
    }
    coordinate(cfg, shards, workers)
}

// ---- worker ----------------------------------------------------------------

/// Terminal outcome of executing one shard in a worker.
struct ExecOutcome {
    class: OutcomeClass,
    attempts: u32,
    wall_ms: u64,
    payload: String,
}

/// One shard attempt chain: catch_unwind + watchdog (`recv_timeout`) +
/// exponential backoff, mirroring the in-process scheduler's semantics so
/// a worker-run shard classifies exactly like a supervised one.
fn execute_with_retries<T>(cfg: &SupervisorConfig, shard: &Shard<T>, chaos: Chaos) -> ExecOutcome
where
    T: Serialize + Deserialize + Send + 'static,
{
    let mut attempt: u32 = 1;
    loop {
        let started = Instant::now();
        let (tx, rx) = mpsc::channel();
        let work = shard.work_arc();
        let name = shard.name.clone();
        std::thread::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                if let Some(ms) = chaos.shard_delay_ms(&name, attempt) {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                if chaos.shard_panic(&name, attempt) {
                    panic!("chaos: injected shard panic");
                }
                work()
            }));
            let _ = tx.send(result.map_err(|e| panic_message(e.as_ref())));
        });
        let verdict = rx.recv_timeout(cfg.timeout);
        let wall_ms = started.elapsed().as_millis() as u64;
        match verdict {
            Ok(Ok(v)) => {
                let payload = serde_json::to_string(&v).unwrap_or_else(|e| {
                    crate::harness::warn_io("shard payload serialize", &e);
                    String::new()
                });
                return ExecOutcome {
                    class: if attempt > 1 {
                        OutcomeClass::Retried
                    } else {
                        OutcomeClass::Completed
                    },
                    attempts: attempt,
                    wall_ms,
                    payload,
                };
            }
            failed => {
                let (kind, class) = match &failed {
                    Ok(Err(_)) => ("panicked", OutcomeClass::Panicked),
                    Err(mpsc::RecvTimeoutError::Timeout) => ("timed_out", OutcomeClass::TimedOut),
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        ("panicked", OutcomeClass::Panicked)
                    }
                    Ok(Ok(_)) => unreachable!("success handled above"),
                };
                eprintln!(
                    "worker[{}]: {}: shard {} attempt {attempt} {kind}",
                    std::process::id(),
                    cfg.campaign,
                    shard.name
                );
                if attempt > cfg.retries {
                    return ExecOutcome {
                        class,
                        attempts: attempt,
                        wall_ms,
                        payload: String::new(),
                    };
                }
                let factor = 1u32 << (attempt - 1).min(16);
                std::thread::sleep(cfg.backoff * factor);
                attempt += 1;
            }
        }
    }
}

/// Attach to `cfg`'s campaign journal and execute shards until every one
/// is settled. Returns what this worker contributed; `Err` only for
/// setup-level problems (no checkpoint dir, header never appeared).
pub fn run_worker<T>(
    cfg: &SupervisorConfig,
    shards: &[Shard<T>],
    opts: WorkerOptions,
) -> Result<WorkerReport, String>
where
    T: Serialize + Deserialize + Send + 'static,
{
    let journal = cfg
        .journal_path()
        .ok_or_else(|| "worker requires a checkpoint directory".to_string())?;
    let ldir = cfg
        .lease_dir()
        .ok_or_else(|| "worker requires a checkpoint directory".to_string())?;
    let quarantine = quarantine_path(&journal);
    let lcfg = LeaseConfig::from_env();
    let chaos = cfg.chaos;
    let total = shards.len() as u64;
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
        let view = distill_records(&records, Some(&quarantine));
        if shards.iter().all(|s| view.done.contains_key(&s.name)) {
            break 'drain;
        }

        for shard in shards {
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
            if lease.token > 1 {
                report.steals += 1;
            }
            if opts.worker_faults && chaos.worker_kill_after_claim(&shard.name, lease.token) {
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
                publish_done(
                    &journal,
                    &shard.name,
                    OutcomeClass::Poisoned,
                    0,
                    0,
                    String::new(),
                    lease.token,
                );
                report.published += 1;
                lease.release();
                // Re-replay before the next claim so freshly settled
                // shards are not re-executed.
                continue 'drain;
            }
            if let Err(e) = append_record(
                &journal,
                &JournalRecord::ShardStart {
                    shard: shard.name.clone(),
                },
            ) {
                crate::harness::warn_io("journal append", &e);
            }

            // Heartbeat until the attempt chain settles. A chaos stall
            // leaves the thread sleeping without refreshing the mtime, so
            // the lease expires mid-run and another worker steals it.
            let stall =
                opts.worker_faults && chaos.worker_heartbeat_stall(&shard.name, lease.token);
            if stall {
                eprintln!(
                    "worker[{}]: chaos: stalling heartbeat on {} (token {})",
                    std::process::id(),
                    shard.name,
                    lease.token
                );
            }
            let stop = Arc::new(AtomicBool::new(false));
            let hb = {
                let lease = lease.clone();
                let stop = Arc::clone(&stop);
                let interval = lcfg.heartbeat;
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if !stall && !lease.heartbeat() {
                            break; // stolen; the publish check handles it
                        }
                        std::thread::sleep(interval);
                    }
                })
            };
            let exec = execute_with_retries(cfg, shard, chaos);
            stop.store(true, Ordering::Relaxed);
            let _ = hb.join();
            report.executed += 1;

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
            if opts.worker_faults && chaos.worker_stale_publish(&shard.name, lease.token) {
                // Zombie-writer probe: forge the publish a fenced-out
                // worker would have made (token 1), then publish the real
                // record. Replay must keep the higher token.
                eprintln!(
                    "worker[{}]: chaos: forging stale token-1 publish for {}",
                    std::process::id(),
                    shard.name
                );
                publish_done(
                    &journal,
                    &shard.name,
                    exec.class,
                    exec.attempts,
                    exec.wall_ms,
                    exec.payload.clone(),
                    1,
                );
            }
            publish_done(
                &journal,
                &shard.name,
                exec.class,
                exec.attempts,
                exec.wall_ms,
                exec.payload,
                lease.token,
            );
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

fn publish_done(
    journal: &Path,
    shard: &str,
    class: OutcomeClass,
    attempts: u32,
    wall_ms: u64,
    payload: String,
    token: u64,
) {
    let rec = JournalRecord::ShardDone {
        shard: shard.to_string(),
        class: class.as_str().to_string(),
        attempts,
        wall_ms,
        checksum: fnv1a64(payload.as_bytes()),
        payload,
        token,
    };
    if let Err(e) = append_record(journal, &rec) {
        crate::harness::warn_io("journal append", &e);
    }
}

// ---- coordinator -----------------------------------------------------------

/// Count the lease files currently present (in-flight shards).
fn count_leases(ldir: &Path) -> u64 {
    std::fs::read_dir(ldir).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("lease"))
            .count() as u64
    })
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

/// Multi-process supervision: publish the header, run `workers` local
/// worker processes to drain the journal, merge. See the module docs.
fn coordinate<T>(cfg: &SupervisorConfig, shards: Vec<Shard<T>>, workers: usize) -> SupervisedRun<T>
where
    T: Serialize + Deserialize + Send + 'static,
{
    {
        let mut seen = HashSet::new();
        for s in &shards {
            assert!(
                seen.insert(s.name.as_str()),
                "duplicate shard name {:?}",
                s.name
            );
        }
    }
    let total = shards.len() as u64;
    let journal = cfg.journal_path().expect("caller checked cfg.dir");
    let ldir = cfg.lease_dir().expect("caller checked cfg.dir");
    let quarantine = quarantine_path(&journal);
    let started = Instant::now();

    // Resume: distill the old journal and rebuild it as header + crash
    // markers + successful results only, so workers re-execute terminal
    // failures with a fresh retry budget (exactly like single-process
    // resume). Anything else starts fresh.
    let header = JournalRecord::Header {
        schema: JOURNAL_SCHEMA.to_string(),
        campaign: cfg.campaign.clone(),
        config_key: cfg.config_key.clone(),
        total_shards: total,
    };
    let mut base_records = vec![header];
    let mut resumed_names: HashSet<String> = HashSet::new();
    if cfg.resume && journal.exists() {
        let (records, _) = replay_journal(&journal);
        if header_matches(&records, cfg, total) {
            let view = distill_records(&records, Some(&quarantine));
            for (shard, n) in &view.crash_counts {
                for _ in 0..*n {
                    base_records.push(JournalRecord::ShardStart {
                        shard: shard.clone(),
                    });
                }
            }
            // Deterministic rebuild order: submission order.
            for shard in &shards {
                let Some(rec) = view.done.get(&shard.name) else {
                    continue;
                };
                if !rec.class.is_success() {
                    continue;
                }
                base_records.push(JournalRecord::ShardDone {
                    shard: shard.name.clone(),
                    class: rec.class.as_str().to_string(),
                    attempts: rec.attempts,
                    wall_ms: rec.wall_ms,
                    checksum: fnv1a64(rec.payload.as_bytes()),
                    payload: rec.payload.clone(),
                    token: rec.token,
                });
                resumed_names.insert(shard.name.clone());
            }
        } else {
            obs::counter!("supervisor.journal_discarded").inc();
            eprintln!(
                "supervisor: {}: existing journal does not match this campaign's configuration; starting fresh",
                cfg.campaign
            );
        }
    }
    // The coordinator's own publish is never chaos'd.
    crate::supervisor::Journal::start(Some(journal.clone()), base_records, Chaos::off());
    // Leases from a previous (dead) coordinator are garbage: pids may
    // have been reused, so clear rather than steal.
    let _ = std::fs::remove_dir_all(&ldir);

    let name_of: Vec<&str> = shards.iter().map(|s| s.name.as_str()).collect();
    let worker_bin = worker_binary();
    if worker_bin.is_none() {
        eprintln!(
            "supervisor: {}: eccparity-worker binary not found next to this executable; \
             running the campaign in-process",
            cfg.campaign
        );
    }
    let respawn_budget = workers * 4;
    let mut spawned = 0usize;
    let mut children: Vec<(std::process::Child, u32)> = Vec::new();
    let progress = cfg.progress_path();
    let mut fell_back = false;

    loop {
        let (records, _) = replay_journal(&journal);
        let view = distill_records(&records, Some(&quarantine));
        let done = name_of
            .iter()
            .filter(|n| view.done.contains_key(**n))
            .count() as u64;
        if let Some(ppath) = &progress {
            let claimed = count_leases(&ldir).min(total - done);
            let remaining = total - done - claimed;
            let done_wall: Vec<u64> = name_of
                .iter()
                .filter_map(|n| view.done.get(*n))
                .map(|r| r.wall_ms)
                .collect();
            let eta_ms = if done_wall.is_empty() || children.is_empty() {
                0
            } else {
                let mean = done_wall.iter().sum::<u64>() / done_wall.len() as u64;
                mean * remaining / children.len().max(1) as u64
            };
            write_progress(
                ppath,
                &ProgressStamp {
                    schema: PROGRESS_SCHEMA.to_string(),
                    campaign: cfg.campaign.clone(),
                    total_shards: total,
                    done,
                    claimed,
                    remaining,
                    workers_alive: children.len() as u64,
                    elapsed_ms: started.elapsed().as_millis() as u64,
                    eta_ms,
                },
            );
        }
        if done == total {
            break;
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
        if let Some(bin) = &worker_bin {
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
        }
        if children.is_empty() && !fell_back {
            // No fleet (missing binary, spawn failures, or budget burned
            // by chaos): finish the remainder ourselves, without worker
            // faults so chaos cannot kill the coordinator.
            fell_back = true;
            if spawned > 0 {
                eprintln!(
                    "supervisor: {}: worker respawn budget exhausted; finishing in-process",
                    cfg.campaign
                );
            }
            if let Err(e) = run_worker(cfg, &shards, WorkerOptions::default()) {
                eprintln!("supervisor: {}: in-process drain failed: {e}", cfg.campaign);
                obs::trace::flush();
                std::process::exit(3);
            }
            continue;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Workers notice the drained journal and exit on their own.
    for (mut child, _) in children {
        let _ = child.wait();
    }
    let succeeded = {
        let (records, _) = replay_journal(&journal);
        let view = distill_records(&records, Some(&quarantine));
        name_of
            .iter()
            .filter(|n| view.done.get(**n).is_some_and(|r| r.class.is_success()))
            .count() as u64
    };
    if let Err(e) = append_record(&journal, &JournalRecord::RunComplete { succeeded }) {
        crate::harness::warn_io("journal append", &e);
    }

    merge_results(cfg, shards, &journal, &quarantine, &resumed_names, total)
}

/// Distill the drained journal into a [`SupervisedRun`] in submission
/// order, re-executing in-process any shard whose payload no longer
/// deserializes (defense in depth; checksums make this near-impossible).
fn merge_results<T>(
    cfg: &SupervisorConfig,
    shards: Vec<Shard<T>>,
    journal: &Path,
    quarantine: &Path,
    resumed_names: &HashSet<String>,
    total: u64,
) -> SupervisedRun<T>
where
    T: Serialize + Deserialize + Send + 'static,
{
    let (records, _) = replay_journal(journal);
    let view = distill_records(&records, Some(quarantine));
    let mut tally: HashMap<&'static str, u64> = HashMap::new();
    let mut outcomes = Vec::with_capacity(shards.len());
    for shard in shards {
        let Some(rec) = view.done.get(&shard.name) else {
            // Unreachable: coordinate() loops until every shard is done.
            eprintln!(
                "supervisor: {}: shard {} missing from drained journal",
                cfg.campaign, shard.name
            );
            obs::trace::flush();
            std::process::exit(3);
        };
        let resumed = resumed_names.contains(&shard.name);
        let result = if rec.class.is_success() {
            match serde_json::from_str::<T>(&rec.payload) {
                Ok(v) => Some(v),
                Err(_) => {
                    obs::counter!("supervisor.journal_corrupt_payloads").inc();
                    Some(shard.run())
                }
            }
        } else {
            None
        };
        *tally.entry(rec.class.as_str()).or_insert(0) += 1;
        if resumed {
            *tally.entry("resumed").or_insert(0) += 1;
        }
        outcomes.push(ShardOutcome {
            name: shard.name.clone(),
            class: rec.class,
            attempts: rec.attempts,
            resumed,
            wall_ms: rec.wall_ms,
            result,
        });
    }
    let n = |k: &str| tally.get(k).copied().unwrap_or(0);
    obs::counter!("supervisor.shards_completed").add(n("completed"));
    obs::counter!("supervisor.shards_retried").add(n("retried"));
    obs::counter!("supervisor.shards_timed_out").add(n("timed_out"));
    obs::counter!("supervisor.shards_panicked").add(n("panicked"));
    obs::counter!("supervisor.shards_resumed").add(n("resumed"));
    eprintln!(
        "supervisor: {}: {} shards | {} resumed, {} executed | completed {}, retried {}, timed_out {}, panicked {}, poisoned {} | journal write failures {}",
        cfg.campaign,
        total,
        n("resumed"),
        total - n("resumed"),
        n("completed"),
        n("retried"),
        n("timed_out"),
        n("panicked"),
        n("poisoned"),
        0,
    );
    SupervisedRun {
        campaign: cfg.campaign.clone(),
        outcomes,
    }
}
