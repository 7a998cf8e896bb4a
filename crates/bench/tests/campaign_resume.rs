//! SIGKILL-and-resume equality for the real `campaign` binary at fast
//! scale: a campaign killed once its journal holds a finished shard, whose
//! journal then takes half a line and a line that is not UTF-8, resumes
//! with `ECC_PARITY_RESUME=1` to exactly the stdout of an uninterrupted
//! run. The resumed journal and failure ledger hold one terminal record
//! per shard, and a chaos run (`ECC_PARITY_CHAOS=7`) prints the same
//! stdout too.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eccparity-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A fast-scale `campaign` journaling under `ckpt`, with no other
/// `ECC_PARITY_*` knob from the ambient environment.
fn campaign(ckpt: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    for (k, _) in std::env::vars() {
        if k.starts_with("ECC_PARITY_") {
            cmd.env_remove(k);
        }
    }
    cmd.env("ECC_PARITY_FAST", "1")
        .env("ECC_PARITY_CHECKPOINT_DIR", ckpt);
    cmd
}

fn succeeded(out: &Output, what: &str) -> (String, String) {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{what} failed: {stderr}");
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8 stdout");
    (stdout, stderr)
}

fn json_lines(path: &Path) -> Vec<serde_json::Value> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines()
        .map(|l| {
            serde_json::from_str(l).unwrap_or_else(|e| panic!("{}: {e}: {l:?}", path.display()))
        })
        .collect()
}

#[test]
fn killed_campaign_resumes_through_a_damaged_journal_to_the_uninterrupted_output() {
    let dir = scratch("resume");
    let (golden, _) = succeeded(
        &campaign(&dir.join("golden"))
            .output()
            .expect("run campaign"),
        "uninterrupted campaign",
    );

    // SIGKILL a second run as soon as one shard is journaled done.
    let ckpt = dir.join("killed");
    let journal = ckpt.join("campaign.journal.jsonl");
    let mut child = campaign(&ckpt)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn campaign");
    let deadline = Instant::now() + Duration::from_secs(300);
    while !std::fs::read_to_string(&journal).is_ok_and(|t| t.contains("ShardDone")) {
        assert!(
            child.try_wait().expect("poll campaign").is_none(),
            "campaign exited before journaling a finished shard"
        );
        assert!(Instant::now() < deadline, "no ShardDone in {journal:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL campaign");
    child.wait().expect("reap campaign");

    // Damage the journal as a crash and a stray writer can: half a line,
    // then a line that is not UTF-8. Each costs only itself.
    let head: Vec<u8> = std::fs::read(&journal).expect("read journal")[..40].to_vec();
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .expect("open journal");
    f.write_all(&head).expect("append half a line");
    f.write_all(b"\n\xff\xfe not UTF-8\n")
        .expect("append a non-UTF-8 line");
    drop(f);

    let ledger_dir = dir.join("resume-out");
    let (resumed, stderr) = succeeded(
        &campaign(&ckpt)
            .env("ECC_PARITY_RESUME", "1")
            .env("ECC_PARITY_JSON_DIR", &ledger_dir)
            .output()
            .expect("resume campaign"),
        "resumed campaign",
    );
    assert!(stderr.contains("supervisor: campaign:"), "{stderr}");
    assert!(
        stderr.contains("journal had torn/damaged lines"),
        "the damage must be reported: {stderr}"
    );
    assert!(
        !stderr.contains("starting fresh"),
        "the damaged journal was discarded instead of replayed: {stderr}"
    );
    assert_eq!(
        resumed, golden,
        "a resumed campaign prints the uninterrupted output"
    );

    // The resumed run republished the journal without the damaged lines,
    // finished it, and holds one successful ShardDone per shard.
    let records = json_lines(&journal);
    let header = &records[0]["Header"];
    assert_eq!(header["schema"].as_str(), Some("eccparity-journal-v1"));
    assert_eq!(header["campaign"].as_str(), Some("campaign"));
    let total = header["total_shards"].as_u64().expect("total_shards");
    assert!(total > 0);
    assert!(
        records
            .last()
            .is_some_and(|r| r.get("RunComplete").is_some()),
        "the resumed run must finish the journal"
    );
    let done: Vec<&serde_json::Value> = records.iter().filter_map(|r| r.get("ShardDone")).collect();
    assert_eq!(done.len() as u64, total);
    assert!(done
        .iter()
        .all(|d| matches!(d["class"].as_str(), Some("completed" | "retried"))));

    // The failure ledger has one outcome per shard, some of them resumed.
    let ledger = json_lines(&ledger_dir.join("campaign.failures.jsonl"));
    assert!(ledger
        .iter()
        .all(|l| l["schema"].as_str() == Some("eccparity-failures-v1")));
    let outcomes: Vec<&serde_json::Value> = ledger
        .iter()
        .filter(|l| l["kind"].as_str() == Some("shard.outcome"))
        .collect();
    assert_eq!(outcomes.len() as u64, total);
    assert!(
        outcomes
            .iter()
            .any(|l| l["fields"]["resumed"].as_bool() == Some(true)),
        "the journaled shards resume without re-execution"
    );

    // A chaos run converges to the same output.
    let (chaos, stderr) = succeeded(
        &campaign(&dir.join("chaos"))
            .env("ECC_PARITY_CHAOS", "7")
            .output()
            .expect("run chaos campaign"),
        "chaos campaign",
    );
    assert!(stderr.contains("chaos: armed with seed 7"), "{stderr}");
    assert_eq!(chaos, golden, "a chaos run prints the fault-free output");
    let _ = std::fs::remove_dir_all(&dir);
}
