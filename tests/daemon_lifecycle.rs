//! Daemon lifecycle tests: the `eccparityd` + `eccparity-loadgen` pair,
//! exercised as real processes over a real Unix socket.
//!
//! Three properties the daemon documents and CI's `daemon-smoke` job
//! re-checks at scale:
//!
//! 1. **Shard-partition determinism** — the same event stream produces
//!    byte-identical query transcripts regardless of `--shards`.
//! 2. **Kill-and-restart equality** — checkpoint, SIGKILL, restart with
//!    `--resume` (even at a different shard count) answers queries
//!    byte-identically to a daemon that was never killed.
//! 3. **Malformed-event rejection** — garbage lines get error responses
//!    and rejection counters, never a dead shard or daemon.
//!
//! Event volumes are kept small (tens of thousands) so the suite stays
//! well under a second of ingest; the ≥1M events/s throughput gate lives
//! in CI where the measurement is meaningful, with only a generous
//! ~50k events/s sanity floor here (slow CI boxes under load must not
//! flake tier-1).

mod common;

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn daemon_bin() -> &'static str {
    env!("CARGO_BIN_EXE_eccparityd")
}

fn loadgen_bin() -> &'static str {
    env!("CARGO_BIN_EXE_eccparity-loadgen")
}

/// Scratch directory unique to one test.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("eccparityd-lifecycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn start_daemon(sock: &Path, shards: u32, state_dir: Option<&Path>, resume: bool) -> Child {
    let mut cmd = Command::new(daemon_bin());
    cmd.arg("--socket")
        .arg(sock)
        .arg("--shards")
        .arg(shards.to_string())
        .arg("--name")
        .arg("lifecycle")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(dir) = state_dir {
        cmd.arg("--state-dir").arg(dir);
    }
    if resume {
        cmd.arg("--resume");
    }
    let child = cmd.spawn().expect("spawn eccparityd");
    common::wait_listening(sock);
    child
}

/// Run the loadgen with `args`; returns stdout. Panics on nonzero exit.
fn loadgen(sock: &Path, args: &[&str]) -> String {
    let out = Command::new(loadgen_bin())
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
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn same_stream_same_transcript_across_shard_counts() {
    let dir = scratch("shards");
    let mut transcripts = Vec::new();
    for shards in [1u32, 3, 8] {
        let sock = dir.join(format!("d{shards}.sock"));
        let out = dir.join(format!("q{shards}.txt"));
        let mut daemon = start_daemon(&sock, shards, None, false);
        loadgen(
            &sock,
            &[
                "--events",
                "40000",
                "--nodes",
                "64",
                "--seed",
                "11",
                "--min-rate",
                "50000",
                "--queries",
                out.to_str().unwrap(),
                "--shutdown",
            ],
        );
        assert!(daemon.wait().expect("daemon exit").success());
        transcripts.push(std::fs::read_to_string(&out).expect("read transcript"));
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "1-shard and 3-shard transcripts differ"
    );
    assert_eq!(
        transcripts[1], transcripts[2],
        "3-shard and 8-shard transcripts differ"
    );
    assert!(transcripts[0].contains("\"op\":\"fleet\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_then_resume_matches_unkilled_golden() {
    let dir = scratch("kill");
    let ingest: &[&str] = &[
        "--events",
        "40000",
        "--nodes",
        "64",
        "--seed",
        "23",
        "--checkpoint",
    ];

    // Golden: ingest, checkpoint, query, clean shutdown — never killed.
    let golden_sock = dir.join("golden.sock");
    let golden_out = dir.join("golden.txt");
    let mut daemon = start_daemon(&golden_sock, 4, Some(&dir.join("golden-state")), false);
    let mut args = ingest.to_vec();
    args.extend(["--queries", golden_out.to_str().unwrap(), "--shutdown"]);
    loadgen(&golden_sock, &args);
    assert!(daemon.wait().expect("daemon exit").success());

    // Victim: same ingest and checkpoint, then SIGKILL — no goodbye.
    let sock = dir.join("victim.sock");
    let state = dir.join("victim-state");
    let mut daemon = start_daemon(&sock, 4, Some(&state), false);
    loadgen(&sock, ingest); // returns only after the checkpoint response
    daemon.kill().expect("SIGKILL daemon");
    daemon.wait().expect("reap daemon");

    // Restart from the checkpoint at a different shard count.
    let resumed_out = dir.join("resumed.txt");
    let mut daemon = start_daemon(&sock, 7, Some(&state), true);
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
    assert!(daemon.wait().expect("daemon exit").success());

    let golden = std::fs::read_to_string(&golden_out).expect("golden transcript");
    let resumed = std::fs::read_to_string(&resumed_out).expect("resumed transcript");
    assert!(!golden.is_empty() && golden.contains("\"ok\":true"));
    assert_eq!(
        golden, resumed,
        "resumed daemon answers differently from the unkilled golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_events_are_rejected_not_fatal() {
    let dir = scratch("malformed");
    let sock = dir.join("d.sock");
    let mut daemon = start_daemon(&sock, 2, None, false);

    let stream = UnixStream::connect(&sock).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut expect_line = |what: &str| -> String {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect(what);
        assert!(!resp.is_empty(), "EOF while waiting for {what}");
        resp
    };

    // Garbage gets an error response; the connection stays up.
    writer.write_all(b"this is not json\n").unwrap();
    writer.flush().unwrap();
    let resp = expect_line("garbage error response");
    assert!(resp.contains("\"ok\":false"), "{resp}");

    // A structurally valid event outside the geometry is rejected by the
    // shard (no response — events are fire-and-forget) and counted.
    writer
        .write_all(b"{\"kind\":\"event\",\"node\":1,\"channel\":9999,\"bank\":0,\"row\":0}\n")
        .unwrap();
    // A valid event still lands after all of the above.
    writer
        .write_all(b"{\"kind\":\"event\",\"node\":1,\"channel\":0,\"bank\":0,\"row\":7}\n")
        .unwrap();
    writer
        .write_all(b"{\"kind\":\"query\",\"op\":\"stats\"}\n")
        .unwrap();
    writer.flush().unwrap();
    let stats = expect_line("stats response");
    assert!(stats.contains("\"events_ingested\":1"), "{stats}");
    assert!(stats.contains("\"events_rejected\":2"), "{stats}");

    // The daemon still shuts down cleanly afterwards.
    writer
        .write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
        .unwrap();
    writer.flush().unwrap();
    let bye = expect_line("shutdown response");
    assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
    assert!(daemon.wait().expect("daemon exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_ingest_suite_attributes_every_rejection() {
    let dir = scratch("hostile");
    let sock = dir.join("d.sock");
    let mut cmd = Command::new(daemon_bin());
    cmd.arg("--socket")
        .arg(&sock)
        .arg("--shards")
        .arg("2")
        .arg("--max-line-bytes")
        .arg("4096")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let mut daemon = cmd.spawn().expect("spawn eccparityd");
    common::wait_listening(&sock);

    let stream = UnixStream::connect(&sock).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut expect_line = |what: &str| -> String {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect(what);
        assert!(!resp.is_empty(), "EOF while waiting for {what}");
        resp
    };

    // Invalid UTF-8: parse reject with an error response.
    writer.write_all(&[0xff, 0xfe, 0x80, b'{', b'\n']).unwrap();
    // Garbage JSON: parse reject with an error response.
    writer.write_all(b"{{{ nope\n").unwrap();
    // Oversized: a 16 KiB line against the 4 KiB cap gets a structured
    // refusal and is discarded without desyncing the stream.
    let mut big = vec![b'x'; 16 * 1024];
    big.push(b'\n');
    writer.write_all(&big).unwrap();
    // Interleaved garbage between valid events: both events must land.
    writer
        .write_all(b"{\"kind\":\"event\",\"node\":1,\"channel\":0,\"bank\":0,\"row\":7}\n")
        .unwrap();
    writer.write_all(b"interleaved garbage!\n").unwrap();
    writer
        .write_all(b"{\"kind\":\"event\",\"node\":2,\"channel\":1,\"bank\":1,\"row\":9}\n")
        .unwrap();
    // Geometry-bad event: shard-level reject, no response line.
    writer
        .write_all(b"{\"kind\":\"event\",\"node\":3,\"channel\":9999,\"bank\":0,\"row\":0}\n")
        .unwrap();
    writer.flush().unwrap();

    for what in [
        "utf8 error response",
        "garbage error response",
        "oversized refusal",
        "interleaved error response",
    ] {
        let resp = expect_line(what);
        assert!(resp.contains("\"ok\":false"), "{what}: {resp}");
        if what == "oversized refusal" {
            assert!(resp.contains("\"code\":\"oversized\""), "{resp}");
        }
    }

    // A truncated final line on a second connection (mid-line disconnect)
    // is processed at EOF and counted as one more parse reject.
    let torn = UnixStream::connect(&sock).expect("connect torn");
    let mut torn_w = torn.try_clone().expect("clone torn");
    torn_w.write_all(b"{\"kind\":\"event\",\"no").unwrap();
    torn_w.flush().unwrap();
    drop(torn_w);
    drop(torn);

    // Poll until the torn connection's reject lands, then assert the
    // full attribution: every hostile line is counted exactly once.
    let poll_deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        writer
            .write_all(b"{\"kind\":\"query\",\"op\":\"stats\"}\n")
            .unwrap();
        writer.flush().unwrap();
        let resp = expect_line("stats response");
        if resp.contains("\"rejected_parse\":4") || Instant::now() >= poll_deadline {
            break resp;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(stats.contains("\"events_ingested\":2"), "{stats}");
    assert!(stats.contains("\"rejected_parse\":4"), "{stats}");
    assert!(stats.contains("\"rejected_oversized\":1"), "{stats}");
    assert!(stats.contains("\"rejected_geometry\":1"), "{stats}");
    assert!(stats.contains("\"events_rejected\":6"), "{stats}");
    assert!(stats.contains("\"degraded_shards\":0"), "{stats}");

    writer
        .write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
        .unwrap();
    writer.flush().unwrap();
    let bye = expect_line("shutdown response");
    assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
    assert!(daemon.wait().expect("daemon exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_inflight_events_into_final_checkpoint() {
    let dir = scratch("drain");
    let sock = dir.join("d.sock");
    let state = dir.join("state");
    let mut daemon = start_daemon(&sock, 4, Some(&state), false);

    // Connection A: a burst of events with NO barrier query, then EOF —
    // when the shutdown lands these may still be queued or buffered.
    let total = 20_000u64;
    {
        let stream = UnixStream::connect(&sock).expect("connect burst");
        let mut w = stream.try_clone().expect("clone burst");
        let mut buf = Vec::with_capacity(total as usize * 64);
        for i in 0..total {
            buf.extend_from_slice(
                format!(
                    "{{\"kind\":\"event\",\"node\":{},\"channel\":{},\"bank\":{},\"row\":{}}}\n",
                    i % 50,
                    i % 8,
                    i % 16,
                    i % 1024
                )
                .as_bytes(),
            );
        }
        w.write_all(&buf).unwrap();
        w.flush().unwrap();
    } // dropped: EOF

    // Connection B: immediate shutdown. The drained final checkpoint
    // must still contain every event from connection A.
    let stream = UnixStream::connect(&sock).expect("connect ctl");
    let mut w = stream.try_clone().expect("clone ctl");
    let mut r = BufReader::new(stream);
    w.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
        .unwrap();
    w.flush().unwrap();
    let mut resp = String::new();
    r.read_line(&mut resp).expect("shutdown response");
    assert!(resp.contains("\"op\":\"shutdown\""), "{resp}");
    assert!(daemon.wait().expect("daemon exit").success());

    // Resume and count: all 20k events survived the shutdown race.
    let mut daemon = start_daemon(&sock, 4, Some(&state), true);
    let stream = UnixStream::connect(&sock).expect("connect resumed");
    let mut w = stream.try_clone().expect("clone resumed");
    let mut r = BufReader::new(stream);
    w.write_all(b"{\"kind\":\"query\",\"op\":\"fleet\"}\n")
        .unwrap();
    w.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
        .unwrap();
    w.flush().unwrap();
    let mut fleet = String::new();
    r.read_line(&mut fleet).expect("fleet response");
    assert!(
        fleet.contains(&format!("\"events\":{total}")),
        "shutdown lost in-flight events: {fleet}"
    );
    resp.clear();
    r.read_line(&mut resp).expect("shutdown response");
    assert!(daemon.wait().expect("daemon exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}
