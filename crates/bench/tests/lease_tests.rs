//! Contract of the lease protocol and the distributed worker loop: claims
//! are exclusive, stale leases (dead pid / expired heartbeat) are stolen
//! with a fencing-token bump, racing claimants settle on one winner, and a
//! zombie's late publish never beats the thief's record.
//!
//! All tests use private temp dirs and explicit configs (never
//! `from_env`), so they are immune to `ECC_PARITY_*` in the environment.

use eccparity_bench::chaos::Chaos;
use eccparity_bench::distrib::run_worker;
use eccparity_bench::hash::fnv1a64;
use eccparity_bench::lease::{
    lease_path, requeue_leases_of, try_claim, ClaimOutcome, LeaseConfig, LeaseFile, LEASE_SCHEMA,
};
use eccparity_bench::supervisor::{
    append_record, distill_records, replay_journal, JournalRecord, Shard, SupervisorConfig,
    JOURNAL_SCHEMA,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir() -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eccparity_lease_test_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn short_ttl() -> LeaseConfig {
    LeaseConfig {
        ttl: Duration::from_millis(60),
        heartbeat: Duration::from_millis(15),
    }
}

fn claim(dir: &Path, shard: &str, cfg: &LeaseConfig) -> eccparity_bench::lease::Lease {
    match try_claim(dir, shard, cfg).unwrap() {
        ClaimOutcome::Claimed(l) => l,
        other => panic!("expected a claim on {shard}, got {other:?}"),
    }
}

#[test]
fn steal_from_dead_pid_bumps_the_fencing_token() {
    let dir = temp_dir();
    // Long TTL: only the dead pid makes it stale. Plant a lease owned
    // by a pid that cannot exist (beyond Linux's default pid_max), as a
    // crashed worker would leave behind.
    let cfg = LeaseConfig::default();
    let body = LeaseFile {
        schema: LEASE_SCHEMA.to_string(),
        shard: "campaign:dead:chunk0".to_string(),
        pid: u32::MAX - 7,
        nonce: 12345,
        token: 4,
    };
    let path = lease_path(&dir, &body.shard);
    std::fs::write(&path, serde_json::to_string(&body).unwrap()).unwrap();

    let lease = claim(&dir, "campaign:dead:chunk0", &cfg);
    assert_eq!(
        lease.token, 5,
        "a steal must publish under the previous token + 1"
    );
}

#[test]
fn heartbeat_expiry_during_long_shard_lets_another_worker_steal() {
    let dir = temp_dir();
    let cfg = short_ttl();
    // Worker A claims and then wedges (no heartbeats) while its "shard"
    // runs long. The owner pid is alive the whole time — expiry alone
    // must make the lease stealable.
    let a = claim(&dir, "campaign:slow:chunk0", &cfg);
    std::thread::sleep(cfg.ttl + Duration::from_millis(40));
    let b = claim(&dir, "campaign:slow:chunk0", &cfg);
    assert_eq!(b.token, a.token + 1);
    // The zombie is fenced out: it no longer owns the lease, so its
    // publish path must reject the result.
    assert!(!a.still_owned());
    assert!(!a.heartbeat());
    // The thief is unaffected.
    assert!(b.still_owned());
}

#[test]
fn heartbeats_keep_a_slow_shard_owned() {
    let dir = temp_dir();
    let cfg = short_ttl();
    let lease = claim(&dir, "campaign:hb:chunk0", &cfg);
    // Heartbeat for several TTLs: the lease must never become stealable.
    for _ in 0..8 {
        std::thread::sleep(cfg.heartbeat);
        assert!(lease.heartbeat());
        match try_claim(&dir, "campaign:hb:chunk0", &cfg).unwrap() {
            ClaimOutcome::Busy => {}
            other => panic!("heartbeaten lease must stay busy, got {other:?}"),
        }
    }
}

#[test]
fn two_workers_racing_one_claim_settle_on_one_winner() {
    let dir = temp_dir();
    let cfg = LeaseConfig::default();
    for round in 0..20 {
        let shard = format!("campaign:race:chunk{round}");
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let wins: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    let dir = dir.clone();
                    let shard = shard.clone();
                    s.spawn(move || {
                        barrier.wait();
                        matches!(
                            try_claim(&dir, &shard, &cfg).unwrap(),
                            ClaimOutcome::Claimed(_)
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            wins.iter().filter(|w| **w).count(),
            1,
            "exactly one racer may win round {round} (got {wins:?})"
        );
    }
}

#[test]
fn requeue_attributes_only_the_dead_workers_leases() {
    let dir = temp_dir();
    let cfg = LeaseConfig::default();
    let mine = claim(&dir, "campaign:mine:chunk0", &cfg);
    let dead_pid = u32::MAX - 13;
    let body = LeaseFile {
        schema: LEASE_SCHEMA.to_string(),
        shard: "campaign:orphan:chunk0".to_string(),
        pid: dead_pid,
        nonce: 7,
        token: 1,
    };
    std::fs::write(
        lease_path(&dir, &body.shard),
        serde_json::to_string(&body).unwrap(),
    )
    .unwrap();

    let requeued = requeue_leases_of(&dir, dead_pid);
    assert_eq!(requeued, vec!["campaign:orphan:chunk0".to_string()]);
    assert!(mine.still_owned(), "live leases must survive a requeue");
    // The lease file itself must remain: deleting it would reset the
    // fencing token; the dead pid already makes it instantly stealable.
    let orphan = claim(&dir, "campaign:orphan:chunk0", &cfg);
    assert_eq!(orphan.token, 2, "requeue must preserve fencing history");
}

// ---- worker-loop end-to-end ------------------------------------------------

fn worker_cfg(campaign: &str, dir: &Path) -> SupervisorConfig {
    SupervisorConfig {
        campaign: campaign.to_string(),
        config_key: "lease-e2e-v1".to_string(),
        dir: Some(dir.to_path_buf()),
        resume: false,
        timeout: Duration::from_secs(30),
        retries: 2,
        backoff: Duration::from_millis(1),
        poison_threshold: 3,
        max_inflight: 2,
        chaos: Chaos::off(),
        failures_path: None,
    }
}

fn publish_header(cfg: &SupervisorConfig, total: u64) {
    append_record(
        &cfg.journal_path().unwrap(),
        &JournalRecord::Header {
            schema: JOURNAL_SCHEMA.to_string(),
            campaign: cfg.campaign.clone(),
            config_key: cfg.config_key.clone(),
            total_shards: total,
        },
    )
    .unwrap();
}

#[test]
fn concurrent_workers_drain_a_campaign_exactly_once() {
    let dir = temp_dir();
    let cfg = worker_cfg("lease_e2e", &dir);
    let shards: Vec<Shard<u64>> = (0..10u64)
        .map(|i| Shard::new(format!("campaign:e2e:chunk{i}"), move || i * 3 + 1))
        .collect();
    publish_header(&cfg, shards.len() as u64);

    // Three in-process "workers" race over the same journal.
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let cfg = cfg.clone();
                let shards = shards.clone();
                s.spawn(move || run_worker(&cfg, &shards).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let published: u64 = reports.iter().map(|r| r.published).sum();
    assert!(
        published >= 10,
        "every shard must be published at least once ({published})"
    );
    let (records, _) = replay_journal(&cfg.journal_path().unwrap());
    let view = distill_records(&records);
    for (i, shard) in shards.iter().enumerate() {
        let rec = view
            .done
            .get(&shard.name)
            .unwrap_or_else(|| panic!("{} must settle", shard.name));
        assert!(rec.class.is_success());
        assert_eq!(
            serde_json::from_str::<u64>(&rec.payload).unwrap(),
            i as u64 * 3 + 1,
            "distributed result must match the work function"
        );
    }
    // No lease may outlive the drain.
    let leases = std::fs::read_dir(cfg.lease_dir().unwrap())
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(leases, 0, "drained campaign must leave no leases behind");
}

#[test]
fn zombie_publish_is_rejected_by_the_fencing_token() {
    let dir = temp_dir();
    let cfg = worker_cfg("lease_zombie", &dir);
    let journal = cfg.journal_path().unwrap();
    publish_header(&cfg, 1);
    let lcfg = short_ttl();
    let ldir = cfg.lease_dir().unwrap();

    // Zombie claims, wedges past TTL; thief steals and publishes.
    let zombie = claim(&ldir, "campaign:z:chunk0", &lcfg);
    std::thread::sleep(lcfg.ttl + Duration::from_millis(40));
    let thief = claim(&ldir, "campaign:z:chunk0", &lcfg);
    let honest = "42".to_string();
    append_record(
        &journal,
        &JournalRecord::ShardDone {
            shard: "campaign:z:chunk0".to_string(),
            class: "completed".to_string(),
            attempts: 1,
            wall_ms: 1,
            checksum: fnv1a64(honest.as_bytes()),
            payload: honest,
            token: thief.token,
        },
    )
    .unwrap();
    thief.release();

    // The fenced-out zombie wakes up. The worker loop's own guard is the
    // ownership check...
    assert!(!zombie.still_owned());
    // ...but even a worker that skips it and publishes anyway (the
    // chaos `worker_stale_publish` scenario) cannot win: its token is
    // superseded at distillation.
    let forged = "666".to_string();
    append_record(
        &journal,
        &JournalRecord::ShardDone {
            shard: "campaign:z:chunk0".to_string(),
            class: "completed".to_string(),
            attempts: 1,
            wall_ms: 1,
            checksum: fnv1a64(forged.as_bytes()),
            payload: forged,
            token: zombie.token,
        },
    )
    .unwrap();

    let (records, _) = replay_journal(&journal);
    let view = distill_records(&records);
    let rec = &view.done["campaign:z:chunk0"];
    assert_eq!(rec.payload, "42", "the thief's record must win");
    assert_eq!(rec.token, 2);
    assert_eq!(view.superseded, 1, "the zombie record must be attributed");
}

#[test]
fn worker_poisons_a_crash_looping_shard() {
    let dir = temp_dir();
    let cfg = worker_cfg("lease_poison", &dir);
    let journal = cfg.journal_path().unwrap();
    publish_header(&cfg, 1);
    // Three unmatched starts: the shard was in flight at three deaths.
    for _ in 0..3 {
        append_record(
            &journal,
            &JournalRecord::ShardStart {
                shard: "campaign:p:chunk0".to_string(),
            },
        )
        .unwrap();
    }
    let shards = vec![Shard::new("campaign:p:chunk0", || 1u64)];
    let report = run_worker(&cfg, &shards).unwrap();
    assert_eq!(report.executed, 0, "a poisoned shard must not re-execute");
    let (records, _) = replay_journal(&journal);
    let view = distill_records(&records);
    assert_eq!(
        view.done["campaign:p:chunk0"].class,
        eccparity_bench::supervisor::OutcomeClass::Poisoned
    );
}

#[test]
fn worker_settles_each_shard_without_waiting_out_a_heartbeat() {
    let dir = temp_dir();
    let cfg = worker_cfg("lease_prompt", &dir);
    let shards: Vec<Shard<u64>> = (0..4u64)
        .map(|i| Shard::new(format!("campaign:prompt:chunk{i}"), move || i))
        .collect();
    publish_header(&cfg, shards.len() as u64);
    // Stopping the heartbeat thread wakes it: a worker that waited out a
    // whole interval per shard would need four default intervals here.
    let t = Instant::now();
    let report = run_worker(&cfg, &shards).unwrap();
    let elapsed = t.elapsed();
    assert_eq!(report.executed, 4);
    assert!(
        elapsed < LeaseConfig::default().heartbeat / 2,
        "4 instant shards took {elapsed:?}"
    );
}

#[test]
fn worker_records_failed_attempts_in_its_ledger() {
    let dir = temp_dir();
    let mut cfg = worker_cfg("lease_ledger", &dir);
    let ledger = dir.join("worker.failures.jsonl");
    cfg.failures_path = Some(ledger.clone());
    publish_header(&cfg, 1);
    let calls = Arc::new(AtomicU32::new(0));
    let c = Arc::clone(&calls);
    let shards = vec![Shard::new("campaign:flaky:chunk0", move || {
        if c.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("first attempt fails");
        }
        5u64
    })];
    let report = run_worker(&cfg, &shards).unwrap();
    assert_eq!(report.published, 1);
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    let text = std::fs::read_to_string(&ledger).expect("the worker writes its ledger");
    let failed: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str::<serde_json::Value>(l).unwrap())
        .filter(|l| l["kind"].as_str() == Some("shard.attempt_failed"))
        .collect();
    assert_eq!(failed.len(), 1, "ledger: {text}");
    assert_eq!(failed[0]["fields"]["failure"].as_str(), Some("panicked"));
    assert_eq!(failed[0]["fields"]["attempt"].as_u64(), Some(1));
}

#[test]
fn racing_workers_execute_each_shard_once() {
    // A worker's view of the journal can predate another worker's publish
    // and release of a shard; claiming that shard must not run it again.
    let dir = temp_dir();
    let cfg = worker_cfg("lease_once", &dir);
    let executed = Arc::new(AtomicU32::new(0));
    let shards: Vec<Shard<u64>> = (0..300u64)
        .map(|i| {
            let executed = Arc::clone(&executed);
            Shard::new(format!("campaign:once:chunk{i}"), move || {
                executed.fetch_add(1, Ordering::Relaxed);
                i
            })
        })
        .collect();
    publish_header(&cfg, shards.len() as u64);
    let published: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| s.spawn(|| run_worker(&cfg, &shards).unwrap().published))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(executed.load(Ordering::Relaxed), 300);
    assert_eq!(published, 300);
}
