//! The daemon against an in-process golden: `eccparityd` over a real
//! socket must answer exactly what an in-process `Engine` answers for the
//! same request stream — same responses, same transcripts, same push
//! lines — however the request bytes are framed on the wire and on
//! either poller backend.
//!
//! The golden involves no socket at all: it feeds the same lines to an
//! `Engine` through a `Router` and answers the queries directly. The
//! adversarial framing here is a byte-at-a-time drip, so every line
//! crosses a read-chunk boundary at every position; the portable
//! `poll(2)` backend (`ECC_PARITY_FORCE_POLL=1`, the path non-Linux
//! platforms run) gets its own legs.

mod common;

use eccparity_service::engine::{Engine, EngineConfig, Router};
use eccparity_service::rpc::{self, Query, Request};
use resilience::loadgen::StreamConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eccparityd-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Start a 2-shard daemon; `force_poll` selects the `poll(2)` backend.
fn start_daemon(sock: &Path, force_poll: bool, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eccparityd"));
    cmd.arg("--socket")
        .arg(sock)
        .arg("--shards")
        .arg("2")
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if force_poll {
        cmd.env("ECC_PARITY_FORCE_POLL", "1");
    }
    let child = cmd.spawn().expect("spawn eccparityd");
    common::wait_listening(sock);
    child
}

/// The request script: events (no response), a parse error (error
/// response), queries (one response each). Deterministic end to end.
const SCRIPT: &[&str] = &[
    "{\"kind\":\"event\",\"node\":1,\"channel\":0,\"bank\":0,\"row\":7}",
    "this line is not json",
    "{\"kind\":\"event\",\"node\":2,\"channel\":1,\"bank\":1,\"row\":9}",
    "{\"kind\":\"query\",\"op\":\"node_risk\",\"node\":1}",
    "{\"kind\":\"query\",\"op\":\"fleet\"}",
    "{\"kind\":\"query\",\"op\":\"shutdown\"}",
];

/// The script's answers from an in-process engine: events go through a
/// router, a query is answered after a flush and a barrier, a parse
/// error is the error response, and `shutdown` is its ack.
fn in_process_answers() -> String {
    let engine = Engine::start(EngineConfig {
        shards: 2,
        ..EngineConfig::default()
    });
    let mut router = Router::new(&engine);
    let mut out = String::new();
    for line in SCRIPT {
        let resp = match rpc::parse_line(line.as_bytes()) {
            Ok(Request::Event(_)) => {
                router.push_line(&engine, line.as_bytes());
                continue;
            }
            Ok(Request::Query(Query::Shutdown)) => {
                rpc::ok_response("shutdown", false, "\"stopping\"")
            }
            Ok(Request::Query(q)) => {
                router.flush(&engine);
                engine.barrier();
                engine.query(&q)
            }
            Err(msg) => rpc::error_response(&msg),
        };
        out.push_str(&resp);
        out.push('\n');
    }
    engine.shutdown();
    out
}

/// Run the script against one daemon; `drip` writes it one byte at a
/// time (flushing each byte) instead of as a single bulk write.
fn run_script(drip: bool, force_poll: bool, tag: &str) -> String {
    let dir = scratch(tag);
    let sock = dir.join("d.sock");
    let mut daemon = start_daemon(&sock, force_poll, &[]);

    let stream = UnixStream::connect(&sock).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut bytes = Vec::new();
    for line in SCRIPT {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    if drip {
        for b in &bytes {
            writer.write_all(std::slice::from_ref(b)).unwrap();
            writer.flush().unwrap();
        }
    } else {
        writer.write_all(&bytes).unwrap();
        writer.flush().unwrap();
    }

    // The daemon closes the connection after the shutdown ack.
    let mut responses = String::new();
    reader
        .read_to_string(&mut responses)
        .expect("read responses");
    assert!(daemon.wait().expect("daemon exit").success());
    let _ = std::fs::remove_dir_all(&dir);
    responses
}

#[test]
fn dripped_bulk_and_poll_backend_responses_match_in_process_engine() {
    let golden = in_process_answers();
    assert!(golden.contains("\"ok\":false"), "{golden}");
    assert!(golden.contains("\"op\":\"fleet\""), "{golden}");
    for (drip, force_poll, tag) in [
        (false, false, "bulk"),
        (true, false, "drip"),
        (true, true, "drip-poll"),
    ] {
        assert_eq!(
            run_script(drip, force_poll, tag),
            golden,
            "{tag}: daemon responses differ from the in-process engine"
        );
    }
}

/// A multi-connection loadgen run's `--queries` transcript.
fn loadgen_transcript(force_poll: bool, tag: &str) -> String {
    let dir = scratch(tag);
    let sock = dir.join("d.sock");
    let out = dir.join("transcript.txt");
    let mut daemon = start_daemon(&sock, force_poll, &["--max-conns", "64"]);
    let status = Command::new(env!("CARGO_BIN_EXE_eccparity-loadgen"))
        .arg("--socket")
        .arg(&sock)
        .args([
            "--events",
            "20000",
            "--nodes",
            "64",
            "--seed",
            "7",
            "--connections",
            "4",
            "--queries",
            out.to_str().unwrap(),
            "--shutdown",
        ])
        .stdout(Stdio::null())
        .status()
        .expect("run loadgen");
    assert!(status.success(), "{tag}: loadgen failed");
    assert!(daemon.wait().expect("daemon exit").success());
    let transcript = std::fs::read_to_string(&out).expect("read transcript");
    let _ = std::fs::remove_dir_all(&dir);
    transcript
}

#[test]
fn multiconn_loadgen_transcript_matches_in_process_engine() {
    let golden = common::in_process_transcript(StreamConfig {
        events: 20_000,
        nodes: 64,
        seed: 7,
        ..StreamConfig::default()
    });
    assert!(golden.contains("\"events\":20000"), "{golden}");
    assert_eq!(
        loadgen_transcript(false, "transcript"),
        golden,
        "daemon transcript differs from the in-process engine"
    );
    assert_eq!(
        loadgen_transcript(true, "transcript-poll"),
        golden,
        "poll(2) backend transcript differs from the in-process engine"
    );
}

#[test]
fn subscribe_push_line_matches_in_process_engine() {
    // One threshold-reaching event migrates a pair: Nominal -> Watch.
    let event = "{\"kind\":\"event\",\"node\":9,\"channel\":0,\"bank\":0,\"row\":1,\"count\":4}";

    let engine = Engine::start(EngineConfig {
        shards: 2,
        ..EngineConfig::default()
    });
    let (_, rx) = engine.push_hub().subscribe(None);
    let mut router = Router::new(&engine);
    router.push_line(&engine, event.as_bytes());
    router.flush(&engine);
    engine.barrier();
    let golden = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("in-process push line");
    engine.shutdown();

    let dir = scratch("subscribe");
    let sock = dir.join("d.sock");
    let mut daemon = start_daemon(&sock, false, &[]);
    // Subscriber first: reading the ack guarantees registration, so the
    // transition below cannot be missed.
    let sub = UnixStream::connect(&sock).expect("connect subscriber");
    let mut sub_w = sub.try_clone().expect("clone subscriber");
    let mut sub_r = BufReader::new(sub);
    sub_w
        .write_all(b"{\"kind\":\"query\",\"op\":\"subscribe\"}\n")
        .unwrap();
    sub_w.flush().unwrap();
    let mut ack = String::new();
    sub_r.read_line(&mut ack).expect("subscribe ack");
    assert!(ack.contains("\"streaming\":true"), "{ack}");

    let feeder = UnixStream::connect(&sock).expect("connect feeder");
    let mut fw = feeder.try_clone().expect("clone feeder");
    let mut fr = BufReader::new(feeder);
    // The trailing query is the barrier: events are fire-and-forget and
    // ride the connection router's batch buffer, so a lone event would
    // not flush until EOF.
    fw.write_all(format!("{event}\n{{\"kind\":\"query\",\"op\":\"stats\"}}\n").as_bytes())
        .unwrap();
    fw.flush().unwrap();
    let mut stats = String::new();
    fr.read_line(&mut stats).expect("stats barrier");
    assert!(stats.contains("\"push_subscribers\":1"), "{stats}");

    let mut push = String::new();
    sub_r.read_line(&mut push).expect("push line");
    assert!(push.contains("\"kind\":\"push\""), "{push}");
    assert_eq!(
        push.trim_end(),
        &*golden,
        "push line differs from the in-process engine"
    );

    fw.write_all(b"{\"kind\":\"query\",\"op\":\"shutdown\"}\n")
        .unwrap();
    fw.flush().unwrap();
    let mut bye = String::new();
    fr.read_line(&mut bye).expect("shutdown response");
    assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
    drop(sub_r);
    drop(sub_w);
    assert!(daemon.wait().expect("daemon exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}
