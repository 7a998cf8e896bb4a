//! Contract of the campaign supervisor: crash-safe journaling, resume
//! transparency, watchdog/retry classification, poison detection, and the
//! chaos convergence gate.
//!
//! All tests construct explicit [`SupervisorConfig`]s against private temp
//! dirs (never `from_env`), so they are immune to `ECC_PARITY_*` in the
//! environment and to each other.

use eccparity_bench::chaos::Chaos;
use eccparity_bench::hash::fnv1a64;
use eccparity_bench::supervisor::{
    distill_records, quarantine_path, replay_journal, report_distillation, supervise,
    JournalRecord, OutcomeClass, Shard, SupervisorConfig, JOURNAL_SCHEMA,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Fresh private temp dir per test (pid + counter; no tempfile dep).
fn temp_dir() -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eccparity_supervisor_test_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_cfg(campaign: &str, dir: &Path) -> SupervisorConfig {
    SupervisorConfig {
        campaign: campaign.to_string(),
        config_key: "test-v1".to_string(),
        dir: Some(dir.to_path_buf()),
        resume: false,
        timeout: Duration::from_secs(30),
        retries: 2,
        backoff: Duration::from_millis(1),
        poison_threshold: 3,
        max_inflight: 4,
        chaos: Chaos::off(),
        failures_path: None,
    }
}

/// Held by the tests that assert on the process-wide
/// `supervisor.journal.{quarantined,superseded}` counters or move them,
/// so that no other test moves them in between.
fn distill_counters() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn journal_path(dir: &Path, campaign: &str) -> PathBuf {
    dir.join(format!("{campaign}.journal.jsonl"))
}

/// Shards 0..n computing a deterministic function of their index, with an
/// execution counter so tests can assert exactly which shards ran.
fn counting_shards(n: u64, executed: &Arc<AtomicU32>) -> Vec<Shard<u64>> {
    (0..n)
        .map(|i| {
            let executed = Arc::clone(executed);
            Shard::new(format!("s{i}"), move || {
                executed.fetch_add(1, Ordering::Relaxed);
                i * i + 7
            })
        })
        .collect()
}

#[test]
fn journal_records_round_trip() {
    let records = [
        JournalRecord::Header {
            schema: JOURNAL_SCHEMA.to_string(),
            campaign: "camp".to_string(),
            config_key: "key|with|bars".to_string(),
            total_shards: 56,
        },
        JournalRecord::ShardStart {
            shard: "cell:Lot5Parity:milc".to_string(),
        },
        JournalRecord::ShardDone {
            shard: "cell:Lot5Parity:milc".to_string(),
            class: "retried".to_string(),
            attempts: 2,
            wall_ms: 1234,
            checksum: 0xdead_beef_cafe_f00d,
            payload: "{\"cycles\":42,\"note\":\"quoted \\\"string\\\"\"}".to_string(),
            token: 3,
        },
        JournalRecord::RunComplete { succeeded: 56 },
    ];
    for rec in &records {
        let line = serde_json::to_string(rec).unwrap();
        let back: JournalRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(&back, rec, "round-trip must preserve {line}");
    }
}

#[test]
fn replay_tolerates_torn_tail() {
    let dir = temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn.journal.jsonl");
    let good = [
        JournalRecord::Header {
            schema: JOURNAL_SCHEMA.to_string(),
            campaign: "torn".to_string(),
            config_key: "k".to_string(),
            total_shards: 2,
        },
        JournalRecord::ShardStart {
            shard: "a".to_string(),
        },
        JournalRecord::ShardDone {
            shard: "a".to_string(),
            class: "completed".to_string(),
            attempts: 1,
            wall_ms: 5,
            checksum: 0,
            payload: String::new(),
            token: 0,
        },
    ];
    let mut text = good
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect::<String>();
    // A write torn mid-record: valid prefix, garbage tail.
    text.push_str("{\"ShardDone\":{\"shard\":\"b\",\"class\":\"comp");
    std::fs::write(&path, text).unwrap();
    let (records, torn) = replay_journal(&path);
    assert!(torn, "the damaged tail must be reported");
    assert_eq!(records.len(), 3, "the intact prefix must replay");
    assert_eq!(&records[..], &good[..]);

    // An intact journal reports no tear.
    let clean = dir.join("clean.journal.jsonl");
    std::fs::write(&clean, serde_json::to_string(&good[0]).unwrap() + "\n").unwrap();
    let (records, torn) = replay_journal(&clean);
    assert!(!torn);
    assert_eq!(records.len(), 1);
}

#[test]
fn fresh_run_executes_everything_and_journals() {
    let dir = temp_dir();
    let cfg = test_cfg("fresh", &dir);
    let executed = Arc::new(AtomicU32::new(0));
    let run = supervise(&cfg, counting_shards(5, &executed));
    assert!(run.all_succeeded());
    assert_eq!(executed.load(Ordering::Relaxed), 5);
    let results = run.into_results();
    assert_eq!(results, (0..5).map(|i| i * i + 7).collect::<Vec<u64>>());
    let (records, torn) = replay_journal(&journal_path(&dir, "fresh"));
    assert!(!torn);
    // Header + 5 starts + 5 dones + RunComplete.
    assert_eq!(records.len(), 12);
    assert!(matches!(
        records[0],
        JournalRecord::Header {
            total_shards: 5,
            ..
        }
    ));
    assert!(matches!(
        records[11],
        JournalRecord::RunComplete { succeeded: 5 }
    ));
}

#[test]
fn resume_replays_all_completed_shards_without_execution() {
    let dir = temp_dir();
    let cfg = test_cfg("resume_all", &dir);
    let executed = Arc::new(AtomicU32::new(0));
    let first = supervise(&cfg, counting_shards(6, &executed));
    let want = first.into_results();
    assert_eq!(executed.load(Ordering::Relaxed), 6);

    let mut resume_cfg = test_cfg("resume_all", &dir);
    resume_cfg.resume = true;
    let second = supervise(&resume_cfg, counting_shards(6, &executed));
    assert_eq!(
        executed.load(Ordering::Relaxed),
        6,
        "a fully journaled run must re-execute nothing"
    );
    assert!(second.outcomes.iter().all(|o| o.resumed));
    assert_eq!(
        second.into_results(),
        want,
        "resumed results must be identical"
    );
}

#[test]
fn resume_after_partial_journal_executes_only_missing_shards() {
    let dir = temp_dir();
    let cfg = test_cfg("resume_partial", &dir);
    let executed = Arc::new(AtomicU32::new(0));
    let want = supervise(&cfg, counting_shards(6, &executed)).into_results();

    // Simulate a crash while shard s3 was in flight: drop its records (and
    // the RunComplete) from the journal, as if the process died before
    // writing them.
    let path = journal_path(&dir, "resume_partial");
    let text = std::fs::read_to_string(&path).unwrap();
    let kept: String = text
        .lines()
        .filter(|l| !l.contains("\"s3\"") && !l.contains("RunComplete"))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&path, kept).unwrap();

    executed.store(0, Ordering::Relaxed);
    let mut resume_cfg = test_cfg("resume_partial", &dir);
    resume_cfg.resume = true;
    let second = supervise(&resume_cfg, counting_shards(6, &executed));
    assert_eq!(
        executed.load(Ordering::Relaxed),
        1,
        "only the missing shard may re-execute"
    );
    let resumed: Vec<bool> = second.outcomes.iter().map(|o| o.resumed).collect();
    assert_eq!(resumed, [true, true, true, false, true, true]);
    assert_eq!(
        second.into_results(),
        want,
        "tallies must match the uninterrupted run"
    );
}

#[test]
fn mismatched_config_key_discards_the_journal() {
    let dir = temp_dir();
    let executed = Arc::new(AtomicU32::new(0));
    supervise(&test_cfg("drift", &dir), counting_shards(3, &executed));
    assert_eq!(executed.load(Ordering::Relaxed), 3);

    let mut changed = test_cfg("drift", &dir);
    changed.resume = true;
    changed.config_key = "test-v2".to_string();
    let run = supervise(&changed, counting_shards(3, &executed));
    assert_eq!(
        executed.load(Ordering::Relaxed),
        6,
        "a journal for different work must not be resumed"
    );
    assert!(run.outcomes.iter().all(|o| !o.resumed));
}

#[test]
fn first_attempt_panic_is_retried() {
    let dir = temp_dir();
    let cfg = test_cfg("retry", &dir);
    let attempts = Arc::new(AtomicU32::new(0));
    let a = Arc::clone(&attempts);
    let run = supervise(
        &cfg,
        vec![Shard::new("flaky", move || {
            if a.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("injected first-attempt failure");
            }
            99u64
        })],
    );
    let o = &run.outcomes[0];
    assert_eq!(o.class, OutcomeClass::Retried);
    assert_eq!(o.attempts, 2);
    assert_eq!(o.result, Some(99));
}

#[test]
fn persistent_panic_exhausts_to_panicked() {
    let dir = temp_dir();
    let mut cfg = test_cfg("hopeless", &dir);
    cfg.retries = 1;
    cfg.failures_path = Some(dir.join("hopeless.failures.jsonl"));
    let run = supervise(
        &cfg,
        vec![
            Shard::new("doomed", || -> u64 { panic!("always fails") }),
            Shard::new("fine", || 5u64),
        ],
    );
    assert!(!run.all_succeeded());
    assert_eq!(run.failed_shards(), ["doomed"]);
    let doomed = run.outcomes.iter().find(|o| o.name == "doomed").unwrap();
    assert_eq!(doomed.class, OutcomeClass::Panicked);
    assert_eq!(doomed.attempts, 2, "retries=1 means two attempts total");
    assert!(doomed.result.is_none());
    let fine = run.outcomes.iter().find(|o| o.name == "fine").unwrap();
    assert_eq!(fine.class, OutcomeClass::Completed);
    assert_eq!(fine.result, Some(5));

    // The failure ledger recorded both the attempts and the outcomes.
    let ledger = std::fs::read_to_string(dir.join("hopeless.failures.jsonl")).unwrap();
    assert!(
        ledger.lines().count() >= 4,
        "2 attempt failures + 2 outcomes: {ledger}"
    );
    assert!(ledger.contains("eccparity-failures-v1"));
    assert!(ledger.contains("shard.attempt_failed"));
    assert!(ledger.contains("\"failure\":\"panicked\""));
    assert!(ledger.contains("always fails"));
    assert!(ledger.contains("shard.outcome"));
}

#[test]
fn watchdog_times_out_hung_attempt_then_retry_succeeds() {
    let dir = temp_dir();
    let mut cfg = test_cfg("hang", &dir);
    cfg.timeout = Duration::from_millis(100);
    let attempts = Arc::new(AtomicU32::new(0));
    let a = Arc::clone(&attempts);
    let run = supervise(
        &cfg,
        vec![Shard::new("sleepy", move || {
            if a.fetch_add(1, Ordering::Relaxed) == 0 {
                // Far past the watchdog: the attempt gets abandoned.
                std::thread::sleep(Duration::from_millis(2_000));
            }
            11u64
        })],
    );
    let o = &run.outcomes[0];
    assert_eq!(o.class, OutcomeClass::Retried);
    assert_eq!(o.result, Some(11));
    assert!(o.attempts >= 2);
}

#[test]
fn hung_shard_with_no_retries_is_timed_out() {
    let dir = temp_dir();
    let mut cfg = test_cfg("hang2", &dir);
    cfg.timeout = Duration::from_millis(50);
    cfg.retries = 0;
    let run = supervise(
        &cfg,
        vec![Shard::new("stuck", || {
            std::thread::sleep(Duration::from_millis(2_000));
            1u64
        })],
    );
    assert_eq!(run.outcomes[0].class, OutcomeClass::TimedOut);
    assert!(run.outcomes[0].result.is_none());
}

#[test]
fn crash_looping_shard_is_poisoned_not_reexecuted() {
    let dir = temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    // A journal showing shard "bad" in flight at three process deaths:
    // three ShardStart records, never a ShardDone.
    let mut text = String::new();
    let header = JournalRecord::Header {
        schema: JOURNAL_SCHEMA.to_string(),
        campaign: "poison".to_string(),
        config_key: "test-v1".to_string(),
        total_shards: 2,
    };
    text.push_str(&(serde_json::to_string(&header).unwrap() + "\n"));
    for _ in 0..3 {
        let start = JournalRecord::ShardStart {
            shard: "bad".to_string(),
        };
        text.push_str(&(serde_json::to_string(&start).unwrap() + "\n"));
    }
    std::fs::write(journal_path(&dir, "poison"), text).unwrap();

    let mut cfg = test_cfg("poison", &dir);
    cfg.resume = true;
    let executed = Arc::new(AtomicU32::new(0));
    let e1 = Arc::clone(&executed);
    let e2 = Arc::clone(&executed);
    let run = supervise(
        &cfg,
        vec![
            Shard::new("bad", move || {
                e1.fetch_add(1, Ordering::Relaxed);
                1u64
            }),
            Shard::new("good", move || {
                e2.fetch_add(1, Ordering::Relaxed);
                2u64
            }),
        ],
    );
    let bad = run.outcomes.iter().find(|o| o.name == "bad").unwrap();
    assert_eq!(bad.class, OutcomeClass::Poisoned);
    assert!(bad.result.is_none());
    let good = run.outcomes.iter().find(|o| o.name == "good").unwrap();
    assert_eq!(good.class, OutcomeClass::Completed);
    assert_eq!(
        executed.load(Ordering::Relaxed),
        1,
        "the poisoned shard must never run again"
    );

    // The verdict is journaled: every later resume keeps the shard
    // poisoned without running it (and resumes "good").
    for resume in 2..=3 {
        let executed = Arc::new(AtomicU32::new(0));
        let e1 = Arc::clone(&executed);
        let e2 = Arc::clone(&executed);
        let run = supervise(
            &cfg,
            vec![
                Shard::new("bad", move || {
                    e1.fetch_add(1, Ordering::Relaxed);
                    1u64
                }),
                Shard::new("good", move || {
                    e2.fetch_add(1, Ordering::Relaxed);
                    2u64
                }),
            ],
        );
        let bad = run.outcomes.iter().find(|o| o.name == "bad").unwrap();
        assert_eq!(bad.class, OutcomeClass::Poisoned, "resume {resume}");
        let good = run.outcomes.iter().find(|o| o.name == "good").unwrap();
        assert!(good.resumed, "resume {resume}");
        assert_eq!(good.result, Some(2));
        assert_eq!(executed.load(Ordering::Relaxed), 0, "resume {resume}");
    }
}

#[test]
fn two_crashes_is_below_the_poison_threshold() {
    let dir = temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut text = String::new();
    let header = JournalRecord::Header {
        schema: JOURNAL_SCHEMA.to_string(),
        campaign: "twice".to_string(),
        config_key: "test-v1".to_string(),
        total_shards: 1,
    };
    text.push_str(&(serde_json::to_string(&header).unwrap() + "\n"));
    for _ in 0..2 {
        let start = JournalRecord::ShardStart {
            shard: "s".to_string(),
        };
        text.push_str(&(serde_json::to_string(&start).unwrap() + "\n"));
    }
    std::fs::write(journal_path(&dir, "twice"), text).unwrap();
    let mut cfg = test_cfg("twice", &dir);
    cfg.resume = true;
    let run = supervise(&cfg, vec![Shard::new("s", || 3u64)]);
    assert_eq!(run.outcomes[0].class, OutcomeClass::Completed);
    assert_eq!(run.outcomes[0].result, Some(3));
}

#[test]
fn corrupt_journal_payload_reexecutes_that_shard() {
    let _counters = distill_counters();
    let dir = temp_dir();
    let cfg = test_cfg("corrupt", &dir);
    let executed = Arc::new(AtomicU32::new(0));
    let want = supervise(&cfg, counting_shards(3, &executed)).into_results();

    // Flip the payload of s1's Done record without fixing its checksum.
    let path = journal_path(&dir, "corrupt");
    let text = std::fs::read_to_string(&path).unwrap();
    let patched: String = text
        .lines()
        .map(|l| {
            if l.contains("\"s1\"") && l.contains("ShardDone") {
                l.replace("\"payload\":\"8\"", "\"payload\":\"9\"")
            } else {
                l.to_string()
            }
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(patched, text, "the patch must hit s1's payload (1*1+7 = 8)");
    std::fs::write(&path, patched).unwrap();

    executed.store(0, Ordering::Relaxed);
    let mut resume_cfg = test_cfg("corrupt", &dir);
    resume_cfg.resume = true;
    let second = supervise(&resume_cfg, counting_shards(3, &executed));
    assert_eq!(
        executed.load(Ordering::Relaxed),
        1,
        "the checksum-mismatched shard must re-execute"
    );
    assert_eq!(
        second.into_results(),
        want,
        "and still converge to the right value"
    );
}

/// The chaos acceptance gate: a run with deterministic infrastructure
/// faults injected (shard panics, stalls, journal write failures) must
/// converge to exactly the fault-free results, with zero lost shards.
#[test]
fn chaos_soak_converges_to_fault_free_results() {
    let make_shards = || -> Vec<Shard<u64>> {
        (0..16u64)
            .map(|i| {
                Shard::new(format!("cell{i}"), move || {
                    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7
                })
            })
            .collect()
    };
    let clean_dir = temp_dir();
    let clean = supervise(&test_cfg("chaos_base", &clean_dir), make_shards());
    assert!(clean.all_succeeded());
    let want = clean.into_results();

    let mut injected_any = false;
    for seed in [1u64, 7, 13] {
        let dir = temp_dir();
        let mut cfg = test_cfg(&format!("chaos_{seed}"), &dir);
        cfg.chaos = Chaos::from_seed(seed);
        let run = supervise(&cfg, make_shards());
        assert_eq!(run.outcomes.len(), 16, "no shard may be lost (seed {seed})");
        assert!(
            run.all_succeeded(),
            "chaos must never cause terminal failures (seed {seed}): {:?}",
            run.failed_shards()
        );
        injected_any |= run
            .outcomes
            .iter()
            .any(|o| o.class == OutcomeClass::Retried);
        assert_eq!(
            run.into_results(),
            want,
            "chaos run must produce fault-free results (seed {seed})"
        );
    }
    assert!(
        injected_any,
        "at least one chaos seed must actually inject a shard fault"
    );
}

#[test]
#[should_panic(expected = "duplicate shard name")]
fn duplicate_shard_names_are_rejected() {
    // Duplicate names would corrupt the journal keying.
    supervise(
        &test_cfg("dup", &temp_dir()),
        vec![Shard::new("x", || 1u64), Shard::new("x", || 2u64)],
    );
}

// ---- scheduler wake-ups -----------------------------------------------------

/// Spin until `flag` is set (ten seconds at most: a test that waits longer
/// has failed anyway, and its assertions say how).
fn wait_until(flag: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn abandoned_attempt_finishing_during_its_retry_is_ignored() {
    let dir = temp_dir();
    let mut cfg = test_cfg("stale", &dir);
    cfg.timeout = Duration::from_millis(200);
    let calls = Arc::new(AtomicU32::new(0));
    let retry_started = Arc::new(AtomicBool::new(false));
    let first_done = Arc::new(AtomicBool::new(false));
    let (r, f) = (Arc::clone(&retry_started), Arc::clone(&first_done));
    let run = supervise(
        &cfg,
        vec![Shard::new("late", move || {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                // Outlive the watchdog, then report while the retry runs.
                wait_until(&r);
                f.store(true, Ordering::SeqCst);
                1u64
            } else {
                r.store(true, Ordering::SeqCst);
                wait_until(&f);
                // Let the abandoned attempt's report land first.
                std::thread::sleep(Duration::from_millis(20));
                2u64
            }
        })],
    );
    assert!(first_done.load(Ordering::SeqCst));
    let o = &run.outcomes[0];
    assert_eq!(o.class, OutcomeClass::Retried);
    assert_eq!(o.attempts, 2);
    assert_eq!(
        o.result,
        Some(2),
        "the abandoned attempt's result must not count"
    );
    let (records, _) = replay_journal(&journal_path(&dir, "stale"));
    let payloads: Vec<&str> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::ShardDone { payload, .. } => Some(payload.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(payloads, ["2"]);
}

#[test]
fn retry_waits_out_its_backoff_while_other_shards_run() {
    let dir = temp_dir();
    let mut cfg = test_cfg("backoff", &dir);
    cfg.backoff = Duration::from_millis(150);
    let calls = Arc::new(Mutex::new(Vec::<Instant>::new()));
    let c = Arc::clone(&calls);
    let run = supervise(
        &cfg,
        vec![
            Shard::new("flaky", move || {
                let mut calls = c.lock().unwrap();
                calls.push(Instant::now());
                if calls.len() == 1 {
                    drop(calls);
                    panic!("injected first-attempt failure");
                }
                1u64
            }),
            Shard::new("slow", || {
                std::thread::sleep(Duration::from_millis(1_500));
                2u64
            }),
        ],
    );
    let end = Instant::now();
    assert_eq!(run.outcomes[0].class, OutcomeClass::Retried);
    assert_eq!(run.outcomes[1].result, Some(2));
    let calls = calls.lock().unwrap();
    let gap = calls[1] - calls[0];
    assert!(gap >= cfg.backoff, "retry began {gap:?} after the failure");
    // The retry's slot was free, so it starts when its backoff expires,
    // not when the slow shard's report next wakes the scheduler.
    assert!(
        end - calls[1] > Duration::from_millis(500),
        "retry began only {:?} before the slow shard ended",
        end - calls[1]
    );
}

#[test]
fn instant_shards_settle_without_a_poll_quantum() {
    // Each shard settles the moment it reports: a 2 ms polling loop would
    // need at least 256 ms for 128 shards run one at a time.
    let mut cfg = test_cfg("instant", &temp_dir());
    cfg.dir = None;
    cfg.max_inflight = 1;
    let shards: Vec<Shard<u64>> = (0..128u64)
        .map(|i| Shard::new(format!("i{i}"), move || i))
        .collect();
    let t = Instant::now();
    let run = supervise(&cfg, shards);
    let elapsed = t.elapsed();
    assert_eq!(run.into_results(), (0..128u64).collect::<Vec<u64>>());
    assert!(
        elapsed < Duration::from_millis(100),
        "128 instant shards took {elapsed:?}"
    );
}

// ---- single-process journal discipline -------------------------------------

/// `records` with every `wall_ms` zeroed (the one field that varies run to
/// run).
fn without_wall_ms(records: &[JournalRecord]) -> Vec<JournalRecord> {
    records
        .iter()
        .cloned()
        .map(|mut r| {
            if let JournalRecord::ShardDone { wall_ms, .. } = &mut r {
                *wall_ms = 0;
            }
            r
        })
        .collect()
}

/// The journal a clean one-at-a-time run of `counting_shards(n)` writes.
fn expected_journal(campaign: &str, n: u64) -> Vec<JournalRecord> {
    let mut want = vec![JournalRecord::Header {
        schema: JOURNAL_SCHEMA.to_string(),
        campaign: campaign.to_string(),
        config_key: "test-v1".to_string(),
        total_shards: n,
    }];
    for i in 0..n {
        let payload = (i * i + 7).to_string();
        want.push(JournalRecord::ShardStart {
            shard: format!("s{i}"),
        });
        want.push(JournalRecord::ShardDone {
            shard: format!("s{i}"),
            class: "completed".to_string(),
            attempts: 1,
            wall_ms: 0,
            checksum: fnv1a64(payload.as_bytes()),
            payload,
            token: 0,
        });
    }
    want.push(JournalRecord::RunComplete { succeeded: n });
    want
}

#[test]
fn fresh_journal_is_published_once_then_appended() {
    let dir = temp_dir();
    let mut cfg = test_cfg("appends", &dir);
    cfg.max_inflight = 1;
    let path = journal_path(&dir, "appends");
    // What each shard found on disk when it ran, and the journal file as
    // the first shard found it, held open to the end.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let held = Arc::new(Mutex::new(None));
    let shards: Vec<Shard<u64>> = (0..4u64)
        .map(|i| {
            let (path, seen, held) = (path.clone(), Arc::clone(&seen), Arc::clone(&held));
            Shard::new(format!("s{i}"), move || {
                let (records, damaged) = replay_journal(&path);
                assert!(!damaged);
                seen.lock().unwrap().push(without_wall_ms(&records));
                held.lock()
                    .unwrap()
                    .get_or_insert_with(|| std::fs::File::open(&path).unwrap());
                i * i + 7
            })
        })
        .collect();
    assert!(supervise(&cfg, shards).all_succeeded());

    let want = expected_journal("appends", 4);
    let (records, damaged) = replay_journal(&path);
    assert!(!damaged);
    assert_eq!(without_wall_ms(&records), want);
    // Every record is on disk before the run moves on: shard i sees the
    // header, the i shards before it, and its own start.
    for (i, prefix) in seen.lock().unwrap().iter().enumerate() {
        assert_eq!(
            prefix[..],
            want[..2 + 2 * i],
            "journal as shard s{i} saw it"
        );
    }
    // The file the first shard opened is the finished journal: nothing
    // after the header was published by replacing the file.
    let mut text = String::new();
    use std::io::Read;
    held.lock()
        .unwrap()
        .take()
        .unwrap()
        .read_to_string(&mut text)
        .unwrap();
    assert_eq!(text, std::fs::read_to_string(&path).unwrap());
}

#[test]
fn resume_compacts_a_torn_final_line_and_keeps_every_record() {
    let dir = temp_dir();
    let mut cfg = test_cfg("torn_resume", &dir);
    cfg.max_inflight = 1;
    let executed = Arc::new(AtomicU32::new(0));
    let want = supervise(&cfg, counting_shards(3, &executed)).into_results();

    // A crash mid-append of s2's start: the journal ends in half a line.
    let path = journal_path(&dir, "torn_resume");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut kept = String::new();
    let mut torn = String::new();
    for line in text.lines() {
        if line.contains("\"s2\"") || line.contains("RunComplete") {
            if torn.is_empty() {
                torn = line[..line.len() / 2].to_string();
            }
        } else {
            kept.push_str(line);
            kept.push('\n');
        }
    }
    std::fs::write(&path, format!("{kept}{torn}")).unwrap();
    let (before, damaged) = replay_journal(&path);
    assert!(damaged, "the fixture must end in a torn line");

    executed.store(0, Ordering::Relaxed);
    cfg.resume = true;
    let second = supervise(&cfg, counting_shards(3, &executed));
    assert_eq!(executed.load(Ordering::Relaxed), 1, "only s2 re-executes");
    assert_eq!(second.into_results(), want);

    let (after, damaged) = replay_journal(&path);
    assert!(!damaged, "the resumed run must compact the torn line away");
    assert_eq!(after[..before.len()], before[..], "no record may be lost");
    assert_eq!(
        without_wall_ms(&after[before.len()..]),
        expected_journal("torn_resume", 3)[5..]
    );
}

#[test]
fn resume_skips_a_non_utf8_line_and_replays_the_rest() {
    obs::metrics::set_enabled(true);
    let dir = temp_dir();
    let mut cfg = test_cfg("non_utf8", &dir);
    let executed = Arc::new(AtomicU32::new(0));
    let want = supervise(&cfg, counting_shards(4, &executed)).into_results();

    // One byte that is not UTF-8, in a line of its own after the header.
    let path = journal_path(&dir, "non_utf8");
    let mut bytes = std::fs::read(&path).unwrap();
    let (intact, _) = replay_journal(&path);
    let after_header = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes.splice(
        after_header..after_header,
        b"{\"ShardStart\":{\"shard\":\"s\xff\"}}\n".iter().copied(),
    );
    std::fs::write(&path, &bytes).unwrap();
    let damaged_lines = || obs::counter!("supervisor.journal.damaged_lines").get();
    let before = damaged_lines();
    let (records, damaged) = replay_journal(&path);
    assert!(damaged, "the line must count as damaged");
    assert!(damaged_lines() > before);
    assert_eq!(records, intact, "every other line replays");

    executed.store(0, Ordering::Relaxed);
    cfg.resume = true;
    let second = supervise(&cfg, counting_shards(4, &executed));
    assert_eq!(executed.load(Ordering::Relaxed), 0, "nothing re-executes");
    assert!(second.outcomes.iter().all(|o| o.resumed));
    assert_eq!(second.into_results(), want);
}

#[test]
fn a_reexecuted_shard_beats_a_lease_stamped_failure_on_the_next_resume() {
    // A journal an older build's worker fleet left: s0 completed under
    // lease token 1, s1 timed out under token 2.
    let dir = temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut timed_out = done("s1", "", 2);
    if let JournalRecord::ShardDone { class, .. } = &mut timed_out {
        *class = "timed_out".to_string();
    }
    let records = [
        JournalRecord::Header {
            schema: JOURNAL_SCHEMA.to_string(),
            campaign: "stale_failure".to_string(),
            config_key: "test-v1".to_string(),
            total_shards: 2,
        },
        JournalRecord::ShardStart {
            shard: "s0".to_string(),
        },
        done("s0", "7", 1),
        JournalRecord::ShardStart {
            shard: "s1".to_string(),
        },
        timed_out,
    ];
    let text: String = records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect();
    let path = journal_path(&dir, "stale_failure");
    std::fs::write(&path, text).unwrap();

    let mut cfg = test_cfg("stale_failure", &dir);
    cfg.resume = true;
    let executed = Arc::new(AtomicU32::new(0));
    let first = supervise(&cfg, counting_shards(2, &executed));
    assert_eq!(executed.load(Ordering::Relaxed), 1, "only s1 re-executes");
    let resumed: Vec<bool> = first.outcomes.iter().map(|o| o.resumed).collect();
    assert_eq!(resumed, [true, false]);
    assert_eq!(first.into_results(), [7, 8]);
    let (after, _) = replay_journal(&path);
    let view = distill_records(&after);
    assert_eq!(view.done["s1"].class, OutcomeClass::Completed);
    assert_eq!(view.crash_counts.get("s1"), None, "no crash is invented");

    let second = supervise(&cfg, counting_shards(2, &executed));
    assert_eq!(executed.load(Ordering::Relaxed), 1, "nothing re-executes");
    assert!(second.outcomes.iter().all(|o| o.resumed));
    assert_eq!(second.into_results(), [7, 8]);
}

/// `records` as journal text, one serde line each.
fn journal_text(records: &[JournalRecord]) -> String {
    records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect()
}

#[test]
fn a_corrupt_record_reaches_the_quarantine_sidecar_once() {
    obs::metrics::set_enabled(true);
    let _counters = distill_counters();
    let dir = temp_dir();
    let mut cfg = test_cfg("quarantine_once", &dir);
    let executed = Arc::new(AtomicU32::new(0));
    let want = supervise(&cfg, counting_shards(4, &executed)).into_results();
    // A ShardDone for s0 whose payload fails its checksum, after the
    // finished run's records.
    let path = journal_path(&dir, "quarantine_once");
    let mut corrupt = done("s0", "7", 0);
    if let JournalRecord::ShardDone { checksum, .. } = &mut corrupt {
        *checksum ^= 1;
    }
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str(&journal_text(&[corrupt.clone()]));
    std::fs::write(&path, text).unwrap();

    let quarantined = obs::counter!("supervisor.journal.quarantined");
    let before = quarantined.get();
    cfg.resume = true;
    for _ in 0..2 {
        executed.store(0, Ordering::Relaxed);
        let run = supervise(&cfg, counting_shards(4, &executed));
        assert_eq!(executed.load(Ordering::Relaxed), 0, "s0's good record wins");
        assert_eq!(run.into_results(), want);
    }
    // The first resume quarantines the record and drops it from the
    // journal it republishes, so the second finds nothing to quarantine.
    let sidecar = std::fs::read_to_string(quarantine_path(&path)).unwrap();
    assert_eq!(sidecar.lines().count(), 1, "{sidecar}");
    assert_eq!(
        serde_json::from_str::<JournalRecord>(sidecar.trim()).unwrap(),
        corrupt
    );
    assert_eq!(quarantined.get() - before, 1);
}

#[test]
fn a_higher_token_done_beats_a_stale_one_on_resume() {
    // The distill half of a fenced-out zombie publish, as journals from
    // worker fleets hold it: the token-2 record landed first, then a late
    // token-1 record for the same shard with another payload.
    obs::metrics::set_enabled(true);
    let _counters = distill_counters();
    let dir = temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let start = JournalRecord::ShardStart {
        shard: "s0".to_string(),
    };
    let records = [
        JournalRecord::Header {
            schema: JOURNAL_SCHEMA.to_string(),
            campaign: "superseded".to_string(),
            config_key: "test-v1".to_string(),
            total_shards: 1,
        },
        start.clone(),
        done("s0", "7", 2),
        start,
        done("s0", "666", 1),
    ];
    let path = journal_path(&dir, "superseded");
    std::fs::write(&path, journal_text(&records)).unwrap();

    let superseded = obs::counter!("supervisor.journal.superseded");
    let before = superseded.get();
    let mut cfg = test_cfg("superseded", &dir);
    cfg.resume = true;
    let executed = Arc::new(AtomicU32::new(0));
    let run = supervise(&cfg, counting_shards(1, &executed));
    assert_eq!(executed.load(Ordering::Relaxed), 0, "nothing re-executes");
    assert!(run.outcomes[0].resumed);
    assert_eq!(run.into_results(), [7], "the token-2 result wins");
    assert_eq!(superseded.get() - before, 1);
    assert!(!quarantine_path(&path).exists());
}

// ---- journal damage and duplicate records ----------------------------------

#[test]
fn replay_keeps_records_after_interior_damage() {
    // A stray writer can interleave or tear a line in the *middle* of the
    // journal; everything after it must still replay.
    let dir = temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("interior.journal.jsonl");
    let a = JournalRecord::ShardStart {
        shard: "a".to_string(),
    };
    let b = JournalRecord::ShardStart {
        shard: "b".to_string(),
    };
    let text = format!(
        "{}\n{{\"ShardDone\":{{\"shard\":\"x\",\"cla GARBAGE\n{}\n",
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
    );
    std::fs::write(&path, text).unwrap();
    let (records, damaged) = replay_journal(&path);
    assert!(damaged);
    assert_eq!(records, vec![a, b], "records after the damage must survive");
}

fn done(shard: &str, payload: &str, token: u64) -> JournalRecord {
    JournalRecord::ShardDone {
        shard: shard.to_string(),
        class: "completed".to_string(),
        attempts: 1,
        wall_ms: 1,
        checksum: fnv1a64(payload.as_bytes()),
        payload: payload.to_string(),
        token,
    }
}

#[test]
fn distill_rejects_zombie_publish_with_stale_token() {
    // The token-2 record landed first; the later token-1 record for the
    // same shard must be discarded, not trusted.
    let records = vec![done("s", "2", 2), done("s", "1", 1)];
    let view = distill_records(&records);
    assert_eq!(view.done["s"].payload, "2");
    assert_eq!(view.done["s"].token, 2);
    assert_eq!(view.superseded, 1);
    assert!(view.quarantined.is_empty());
}

#[test]
fn distill_prefers_higher_token_regardless_of_order() {
    // The token-1 record landed first: the higher token still wins.
    let records = vec![done("s", "1", 1), done("s", "2", 2)];
    let view = distill_records(&records);
    assert_eq!(view.done["s"].payload, "2");
    assert_eq!(view.superseded, 1);
}

#[test]
fn distill_equal_tokens_last_valid_wins() {
    // Two records at one token: deterministic work makes the payloads
    // identical in practice, but the rule is last-valid-wins.
    let records = vec![done("s", "first", 1), done("s", "second", 1)];
    let view = distill_records(&records);
    assert_eq!(view.done["s"].payload, "second");
    assert_eq!(view.superseded, 1);
}

#[test]
fn distill_quarantines_checksum_mismatch() {
    let _counters = distill_counters();
    let dir = temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let qpath = dir.join("j.journal.jsonl.quarantine");
    let mut bad = done("s", "honest", 1);
    if let JournalRecord::ShardDone { checksum, .. } = &mut bad {
        *checksum ^= 1;
    }
    let good = done("s", "honest", 1);
    let records = [bad.clone(), good];
    let view = distill_records(&records);
    assert_eq!(view.quarantined, [0]);
    assert!(!qpath.exists(), "distillation writes nothing");
    report_distillation(&qpath, &records, &view);
    assert_eq!(
        view.done["s"].payload, "honest",
        "the valid record must still win"
    );
    // A corrupt record is never silently dropped: it lands in the
    // quarantine sidecar for post-mortems.
    let q = std::fs::read_to_string(&qpath).unwrap();
    assert_eq!(
        serde_json::from_str::<JournalRecord>(q.trim()).unwrap(),
        bad
    );

    // Quarantined-only shards stay unsettled (they must re-execute).
    let view = distill_records(&[bad]);
    assert!(view.done.is_empty());
    assert_eq!(view.quarantined, [0]);
}

#[test]
fn distill_tracks_unmatched_starts_as_crashes() {
    let records = vec![
        JournalRecord::ShardStart {
            shard: "dead".to_string(),
        },
        JournalRecord::ShardStart {
            shard: "dead".to_string(),
        },
        JournalRecord::ShardStart {
            shard: "fine".to_string(),
        },
        done("fine", "ok", 1),
    ];
    let view = distill_records(&records);
    assert_eq!(view.crash_counts.get("dead"), Some(&2));
    assert_eq!(view.crash_counts.get("fine"), None);
}
