//! `eccparityd` — the long-lived fleet reliability daemon.
//!
//! Ingests newline-delimited JSON fault / corrected-error telemetry
//! (`eccparity-rpc-v1`) over a Unix-domain socket or TCP, shards per-node
//! [`ecc_parity::health::HealthTable`] state across worker threads, and
//! answers fleet-health queries: per-node UE risk, fleet SDC posture,
//! HARP-style top-K at-risk pages, and per-region scheme recommendations.
//!
//! ```text
//! eccparityd [--socket PATH | --tcp HOST:PORT]
//!            [--shards N] [--state-dir DIR] [--resume] [--name NAME]
//!            [--channels N] [--banks N] [--threshold N]
//!            [--max-conns N] [--idle-timeout-ms MS] [--max-line-bytes N]
//!            [--checkpoint-interval-ms MS] [--queue-depth N]
//!            [--overload-policy block|shed] [--watchdog-ms MS]
//!            [--io-shards N] [--push-queue N]
//! ```
//!
//! Defaults: `--socket eccparityd.sock` in the working directory, shard
//! count from `ECC_PARITY_SERVICE_SHARDS` (else 4), state dir from
//! `ECC_PARITY_SERVICE_DIR` (else none — checkpoints disabled). The
//! hostile-fleet knobs also read the environment:
//! `ECC_PARITY_SERVICE_MAX_CONNS`, `ECC_PARITY_SERVICE_IDLE_TIMEOUT_MS`,
//! `ECC_PARITY_SERVICE_MAX_LINE`, `ECC_PARITY_SERVICE_CHECKPOINT_MS`,
//! `ECC_PARITY_SERVICE_QUEUE_DEPTH`, `ECC_PARITY_SERVICE_OVERLOAD`
//! (`block` | `shed`), `ECC_PARITY_SERVICE_WATCHDOG_MS`,
//! `ECC_PARITY_SERVICE_IO_SHARDS`, and `ECC_PARITY_SERVICE_PUSH_QUEUE`;
//! flags win over environment. `ECC_PARITY_SERVICE_CHAOS=<seed>` arms deterministic
//! fault injection against the daemon's own shard workers (CI only).
//!
//! With a state dir, a `checkpoint` query (and clean shutdown) publishes
//! the whole fleet state as an `eccparity-journal-v1` journal,
//! tmp+fsync+rename; `--resume` replays it on start, so a SIGKILL'd
//! daemon restarts to exactly its last checkpoint. With
//! `--checkpoint-interval-ms` the daemon self-checkpoints on that cadence
//! without operator involvement. See `docs/OPERATIONS.md` for the
//! run-book and `docs/KNOBS.md` for every knob.
//!
//! Exit status: 0 clean shutdown, 2 usage error, 3 listener failure.

use eccparity_service::chaos;
use eccparity_service::engine::{Engine, EngineConfig};
use eccparity_service::queue::OverloadPolicy;
use eccparity_service::server::{serve, Listen, ServerConfig};
use eccparity_service::state::Geometry;
use std::path::PathBuf;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: eccparityd [--socket PATH | --tcp HOST:PORT] [--shards N]\n\
         \x20                 [--state-dir DIR] [--resume] [--name NAME]\n\
         \x20                 [--channels N] [--banks N] [--threshold N]\n\
         \x20                 [--max-conns N] [--idle-timeout-ms MS]\n\
         \x20                 [--max-line-bytes N] [--checkpoint-interval-ms MS]\n\
         \x20                 [--queue-depth N] [--overload-policy block|shed]\n\
         \x20                 [--watchdog-ms MS] [--io-shards N] [--push-queue N]\n\
         \n\
         env: ECC_PARITY_SERVICE_SHARDS (default shard count)\n\
         \x20    ECC_PARITY_SERVICE_DIR    (default state dir)\n\
         \x20    plus the hostile-fleet knobs listed in docs/KNOBS.md"
    );
    std::process::exit(2);
}

fn parse_u64(flag: &str, value: Option<String>) -> u64 {
    match value.as_deref().map(str::parse) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("eccparityd: {flag} needs an unsigned integer argument");
            usage();
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match raw.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("eccparityd: ignoring non-integer {name}={raw}");
            None
        }
    }
}

fn parse_overload(raw: &str) -> Option<OverloadPolicy> {
    match raw {
        "block" => Some(OverloadPolicy::Block),
        "shed" => Some(OverloadPolicy::Shed),
        _ => None,
    }
}

fn main() {
    let mut listen: Option<Listen> = None;
    let mut cfg = EngineConfig {
        shards: env_u64("ECC_PARITY_SERVICE_SHARDS").unwrap_or(4).max(1) as usize,
        state_dir: std::env::var("ECC_PARITY_SERVICE_DIR")
            .ok()
            .filter(|s| !s.is_empty())
            .map(PathBuf::from),
        chaos: chaos::global(),
        ..EngineConfig::default()
    };
    if let Some(n) = env_u64("ECC_PARITY_SERVICE_QUEUE_DEPTH") {
        cfg.queue_depth = n.max(1) as usize;
    }
    if let Some(n) = env_u64("ECC_PARITY_SERVICE_WATCHDOG_MS") {
        cfg.watchdog_ms = n;
    }
    if let Some(n) = env_u64("ECC_PARITY_SERVICE_CHECKPOINT_MS") {
        cfg.checkpoint_interval_ms = n;
    }
    if let Ok(raw) = std::env::var("ECC_PARITY_SERVICE_OVERLOAD") {
        match parse_overload(raw.trim()) {
            Some(p) => cfg.overload = p,
            None => eprintln!(
                "eccparityd: ignoring ECC_PARITY_SERVICE_OVERLOAD={raw} (want block|shed)"
            ),
        }
    }
    let mut srv = ServerConfig::default();
    if let Some(n) = env_u64("ECC_PARITY_SERVICE_MAX_CONNS") {
        srv.max_conns = n.max(1) as usize;
    }
    if let Some(n) = env_u64("ECC_PARITY_SERVICE_IDLE_TIMEOUT_MS") {
        srv.idle_timeout_ms = n;
    }
    if let Some(n) = env_u64("ECC_PARITY_SERVICE_MAX_LINE") {
        srv.max_line_bytes = n.max(1024) as usize;
    }
    if let Some(n) = env_u64("ECC_PARITY_SERVICE_IO_SHARDS") {
        srv.io_shards = n.max(1) as usize;
    }
    if let Some(n) = env_u64("ECC_PARITY_SERVICE_PUSH_QUEUE") {
        cfg.push_queue = n.max(1) as usize;
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                let Some(p) = args.next() else { usage() };
                listen = Some(Listen::Unix(PathBuf::from(p)));
            }
            "--tcp" => {
                let Some(a) = args.next() else { usage() };
                listen = Some(Listen::Tcp(a));
            }
            "--shards" => cfg.shards = parse_u64("--shards", args.next()).max(1) as usize,
            "--state-dir" => {
                let Some(d) = args.next() else { usage() };
                cfg.state_dir = Some(PathBuf::from(d));
            }
            "--resume" => cfg.resume = true,
            "--name" => {
                let Some(n) = args.next() else { usage() };
                cfg.name = n;
            }
            "--channels" => cfg.geom.channels = parse_u64("--channels", args.next()).max(1) as u32,
            "--banks" => cfg.geom.banks = parse_u64("--banks", args.next()).max(2) as u32,
            "--threshold" => {
                cfg.geom.threshold = parse_u64("--threshold", args.next()).clamp(1, 255) as u8
            }
            "--max-conns" => srv.max_conns = parse_u64("--max-conns", args.next()).max(1) as usize,
            "--idle-timeout-ms" => {
                srv.idle_timeout_ms = parse_u64("--idle-timeout-ms", args.next())
            }
            "--max-line-bytes" => {
                srv.max_line_bytes = parse_u64("--max-line-bytes", args.next()).max(1024) as usize
            }
            "--checkpoint-interval-ms" => {
                cfg.checkpoint_interval_ms = parse_u64("--checkpoint-interval-ms", args.next())
            }
            "--queue-depth" => {
                cfg.queue_depth = parse_u64("--queue-depth", args.next()).max(1) as usize
            }
            "--overload-policy" => {
                let Some(raw) = args.next() else { usage() };
                let Some(p) = parse_overload(raw.trim()) else {
                    eprintln!("eccparityd: --overload-policy wants block|shed, got `{raw}`");
                    usage();
                };
                cfg.overload = p;
            }
            "--watchdog-ms" => cfg.watchdog_ms = parse_u64("--watchdog-ms", args.next()),
            "--io-shards" => srv.io_shards = parse_u64("--io-shards", args.next()).max(1) as usize,
            "--push-queue" => {
                cfg.push_queue = parse_u64("--push-queue", args.next()).max(1) as usize
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("eccparityd: unknown flag `{other}`");
                usage();
            }
        }
    }
    if !cfg.geom.banks.is_multiple_of(2) {
        eprintln!("eccparityd: --banks must be even (banks pair within a channel)");
        usage();
    }
    if cfg.checkpoint_interval_ms > 0 && cfg.state_dir.is_none() {
        eprintln!("eccparityd: --checkpoint-interval-ms needs --state-dir");
        usage();
    }
    let listen = listen.unwrap_or_else(|| Listen::Unix(PathBuf::from("eccparityd.sock")));
    let geom: Geometry = cfg.geom;
    eprintln!(
        "eccparityd: {} shards, geometry {}x{} threshold {}, state {}",
        cfg.shards,
        geom.channels,
        geom.banks,
        geom.threshold,
        cfg.state_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "(none — checkpoints disabled)".to_string()),
    );
    let engine = Arc::new(Engine::start(cfg));
    if let Err(e) = serve(Arc::clone(&engine), listen, srv) {
        eprintln!("eccparityd: listener failed: {e}");
        std::process::exit(3);
    }
    // Clean shutdown: serve() has processed what every connection sent
    // and flushed its router, so this checkpoint sees every event written
    // before the shutdown request and the next --resume start matches
    // what clients observed.
    if engine.config().state_dir.is_some() {
        match engine.checkpoint() {
            Ok(info) => eprintln!(
                "eccparityd: final checkpoint {} ({} nodes)",
                info.path.display(),
                info.nodes
            ),
            Err(e) => eprintln!("eccparityd: final checkpoint failed: {e}"),
        }
    }
    engine.shutdown();
    obs::metrics::write_snapshot_if_configured("eccparityd");
}
