//! End-to-end network chaos: `eccparity-loadgen` driving `eccparityd`
//! *through* `eccparity-chaosproxy`, as real processes over real Unix
//! sockets — the same topology CI's `chaos-smoke` job runs at scale.
//!
//! The properties under test are the hostile-fleet contract:
//!
//! 1. **Chaos-transparent transcripts.** Torn frames, drip-fed bytes,
//!    and a flood of sacrificial garbage/oversized/geometry-bad lines
//!    (plus the daemon's own injected batch panics via
//!    `ECC_PARITY_SERVICE_CHAOS`) must not change a single byte of the
//!    query transcript relative to an in-process engine fed the same
//!    stream with no socket and no chaos — even at a different shard
//!    count.
//! 2. **Exact rejection attribution.** Every hostile line the proxy
//!    injects shows up in exactly one `service.reject.*` bucket: the
//!    chaosproxy summary and the daemon's `stats` must agree to the
//!    line.
//! 3. **Kill-and-resume after chaos.** A SIGKILL'd post-chaos daemon
//!    restarted with `--resume` (different shard count again) still
//!    answers byte-identically to the golden.

mod common;

use resilience::loadgen::StreamConfig;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eccparity-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn start_daemon(
    sock: &Path,
    shards: u32,
    state: Option<&Path>,
    resume: bool,
    chaos: bool,
) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eccparityd"));
    cmd.arg("--socket")
        .arg(sock)
        .arg("--shards")
        .arg(shards.to_string())
        .arg("--name")
        .arg("chaos-smoke")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(dir) = state {
        cmd.arg("--state-dir").arg(dir);
    }
    if resume {
        cmd.arg("--resume");
    }
    if chaos {
        cmd.env("ECC_PARITY_SERVICE_CHAOS", "9");
    }
    let child = cmd.spawn().expect("spawn eccparityd");
    common::wait_listening(sock);
    child
}

fn loadgen(sock: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_eccparity-loadgen"))
        .arg("--socket")
        .arg(sock)
        .args(args)
        .output()
        .expect("run eccparity-loadgen");
    assert!(
        out.status.success(),
        "loadgen {:?} failed: {}\n{}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One direct query against the daemon; returns the response line.
fn query(sock: &Path, line: &str) -> String {
    let stream = UnixStream::connect(sock).expect("connect for query");
    let mut w = stream.try_clone().expect("clone query stream");
    let mut r = BufReader::new(stream);
    w.write_all(line.as_bytes()).unwrap();
    w.write_all(b"\n").unwrap();
    w.flush().unwrap();
    let mut resp = String::new();
    r.read_line(&mut resp).expect("query response");
    assert!(!resp.is_empty(), "EOF instead of a response to {line}");
    resp.trim_end().to_string()
}

fn field(json: &serde_json::Value, name: &str) -> u64 {
    json[name]
        .as_u64()
        .unwrap_or_else(|| panic!("field {name} missing: {json:?}"))
}

#[test]
fn chaosproxy_run_matches_golden_and_attributes_every_reject_evented() {
    let dir = scratch("smoke");
    let ingest: &[&str] = &["--events", "30000", "--nodes", "64", "--seed", "33"];

    // Golden: the same stream answered in process, 4 shards, no chaos.
    let golden = common::in_process_transcript(StreamConfig {
        events: 30_000,
        nodes: 64,
        seed: 33,
        ..StreamConfig::default()
    });

    // Chaos: 3 shards, internal chaos armed, loadgen through the proxy.
    let sock = dir.join("victim.sock");
    let state = dir.join("state");
    let proxy_sock = dir.join("proxy.sock");
    let summary_file = dir.join("summary.json");
    let chaos_out = dir.join("chaos.txt");
    let mut daemon = start_daemon(&sock, 3, Some(&state), false, true);
    let mut proxy = Command::new(env!("CARGO_BIN_EXE_eccparity-chaosproxy"))
        .arg("--listen-socket")
        .arg(&proxy_sock)
        .arg("--upstream-socket")
        .arg(&sock)
        .arg("--seed")
        .arg("7")
        .arg("--abuse-lines")
        .arg("12")
        .arg("--torn-disconnects")
        .arg("3")
        .arg("--once")
        .arg("--summary")
        .arg(&summary_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn chaosproxy");
    // No readiness probe: a `--once` proxy relays exactly one connection,
    // so a probe would take the loadgen's place. The loadgen retries its
    // connect until the proxy listens.
    //
    // Checkpoint after ingest (through the proxy), so the later SIGKILL
    // has a journal to resume from; queries written for the transcript
    // comparison. No --shutdown: the daemon must outlive the proxy.
    let mut args = ingest.to_vec();
    args.extend(["--checkpoint", "--queries", chaos_out.to_str().unwrap()]);
    loadgen(&proxy_sock, &args);
    assert!(
        proxy.wait().expect("proxy exit").success(),
        "chaosproxy failed"
    );

    // 1. Transcript equality, chaos vs golden, across shard counts.
    let chaosd = std::fs::read_to_string(&chaos_out).expect("chaos transcript");
    assert!(!golden.is_empty() && golden.contains("\"ok\":true"));
    assert_eq!(golden, chaosd, "network chaos changed the transcript");

    // 2. Exact attribution: proxy summary vs daemon counters.
    let summary: serde_json::Value = serde_json::from_str(
        std::fs::read_to_string(&summary_file)
            .expect("summary")
            .trim(),
    )
    .expect("summary JSON");
    assert_eq!(summary["schema"].as_str(), Some("eccparity-netchaos-v1"));
    let expected_parse = field(&summary, "garbage_lines")
        + field(&summary, "utf8_lines")
        + field(&summary, "torn_disconnects");
    // The torn disconnects surface asynchronously (their connections die
    // with no response to wait on), so poll stats briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let resp = query(&sock, "{\"kind\":\"query\",\"op\":\"stats\"}");
        let v: serde_json::Value = serde_json::from_str(&resp).expect("stats JSON");
        let result = v["result"].clone();
        if field(&result, "rejected_parse") >= expected_parse || Instant::now() >= deadline {
            break result;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(field(&stats, "rejected_parse"), expected_parse, "{stats:?}");
    assert_eq!(
        field(&stats, "rejected_oversized"),
        field(&summary, "oversized_lines"),
        "{stats:?}"
    );
    assert_eq!(
        field(&stats, "rejected_geometry"),
        field(&summary, "geometry_bad_lines"),
        "{stats:?}"
    );
    // Internal chaos really fired, and its retry discipline lost nothing.
    assert!(field(&stats, "batch_panics") > 0, "{stats:?}");
    assert_eq!(field(&stats, "panic_lost_lines"), 0, "{stats:?}");
    assert_eq!(field(&stats, "shed_lines"), 0, "block policy is lossless");
    assert_eq!(field(&stats, "events_ingested"), 30_000, "{stats:?}");

    // 3. SIGKILL, then resume at a different shard count: byte-identical.
    daemon.kill().expect("SIGKILL daemon");
    daemon.wait().expect("reap daemon");
    let resumed_out = dir.join("resumed.txt");
    let mut daemon = start_daemon(&sock, 5, Some(&state), true, false);
    loadgen(
        &sock,
        &[
            "--skip-ingest",
            "--nodes",
            "64",
            "--queries",
            resumed_out.to_str().unwrap(),
            "--shutdown",
        ],
    );
    assert!(daemon.wait().expect("resumed daemon exit").success());
    let resumed = std::fs::read_to_string(&resumed_out).expect("resumed transcript");
    assert_eq!(
        golden, resumed,
        "post-chaos resume answers differently from the golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
