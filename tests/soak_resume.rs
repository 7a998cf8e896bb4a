//! SIGKILL-and-resume equality for the real `soak` binary: a soak killed
//! once its checkpoint journal holds a finished scheme, then rerun with
//! `ECC_PARITY_RESUME=1`, prints exactly what an uninterrupted soak
//! prints, and its journal ends with one successful `ShardDone` per
//! scheme. Each run publishes its journal whole once and appends every
//! later record, as its metrics snapshot counts.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const SCHEMES: [&str; 3] = ["lotecc5", "chipkill18", "raim"];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eccparity-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `soak --seed 1 --accesses 4096` over [`SCHEMES`], journaling under
/// `ckpt`, with no other `ECC_PARITY_*` knob from the ambient environment.
fn soak(ckpt: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_soak"));
    for (k, _) in std::env::vars() {
        if k.starts_with("ECC_PARITY_") {
            cmd.env_remove(k);
        }
    }
    cmd.args(["--seed", "1", "--accesses", "4096", "--schemes"])
        .arg(SCHEMES.join(","))
        .env("ECC_PARITY_CHECKPOINT_DIR", ckpt);
    cmd
}

/// `(publishes, appends)` of the journal, from a metrics snapshot.
fn journal_writes(metrics: &Path) -> (u64, u64) {
    let text = std::fs::read_to_string(metrics).expect("metrics snapshot");
    let snap: serde_json::Value = serde_json::from_str(&text).expect("metrics json");
    let count = |name: &str| snap["counters"][name].as_u64().unwrap_or(0);
    (
        count("supervisor.journal.publishes"),
        count("supervisor.journal.appends"),
    )
}

fn succeeded(out: &Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn killed_soak_resumes_to_the_uninterrupted_output() {
    let dir = scratch("resume");
    let metrics = dir.join("golden.metrics.json");
    let golden = succeeded(
        &soak(&dir.join("golden"))
            .env("ECC_PARITY_METRICS", &metrics)
            .output()
            .expect("run soak"),
        "uninterrupted soak",
    );
    // The header, then a start and a done per scheme and the RunComplete.
    assert_eq!(journal_writes(&metrics), (1, 2 * SCHEMES.len() as u64 + 1));

    // SIGKILL the second run as soon as one scheme is journaled done.
    let ckpt = dir.join("killed");
    let journal = ckpt.join("soak.journal.jsonl");
    let mut child = soak(&ckpt)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soak");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !std::fs::read_to_string(&journal).is_ok_and(|t| t.contains("ShardDone")) {
        assert!(
            child.try_wait().expect("poll soak").is_none(),
            "soak exited before journaling a finished scheme"
        );
        assert!(Instant::now() < deadline, "no ShardDone in {journal:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL soak");
    child.wait().expect("reap soak");

    let metrics = dir.join("resumed.metrics.json");
    let resumed = soak(&ckpt)
        .env("ECC_PARITY_RESUME", "1")
        .env("ECC_PARITY_METRICS", &metrics)
        .output()
        .expect("resume soak");
    let stderr = String::from_utf8_lossy(&resumed.stderr).into_owned();
    assert_eq!(
        succeeded(&resumed, "resumed soak"),
        golden,
        "resumed soak must print the uninterrupted verdicts"
    );
    assert!(
        !stderr.contains("| 0 resumed,"),
        "the journaled scheme must be replayed, not re-run: {stderr}"
    );
    assert_eq!(journal_writes(&metrics).0, 1, "one whole-file publish");

    let (records, _) = eccparity_bench::supervisor::replay_journal(&journal);
    for scheme in SCHEMES {
        let done = records
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    eccparity_bench::supervisor::JournalRecord::ShardDone { shard, class, .. }
                        if *shard == format!("scheme:{scheme}")
                            && (class == "completed" || class == "retried")
                )
            })
            .count();
        assert_eq!(done, 1, "successful ShardDone records for {scheme}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
