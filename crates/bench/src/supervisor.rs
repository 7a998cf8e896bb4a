//! Crash-safe campaign supervision: checkpointed shards, watchdog
//! deadlines, bounded retry, and a structured failure ledger.
//!
//! Long-running bench work — the fault-injection campaign's trial blocks,
//! the soak harness's per-scheme runs, a comparison figure's 128
//! workload×scheme cells — restarts from zero on a crash without this
//! module. The supervisor shards such work into independently
//! checkpointable units:
//!
//! 1. Every shard's result is journaled to
//!    `results/checkpoints/<campaign>.journal.jsonl` the moment it
//!    completes. A run's first persist publishes the whole journal (a
//!    temp file, fsynced and renamed over it): the fresh header, or on
//!    resume the replayed records. Every later record is one `O_APPEND`
//!    line plus fsync, so a run writes each record once. A crash mid-append
//!    can tear the final line; replay skips damaged lines and keeps every
//!    record around them, and the resumed run's first publish drops the
//!    torn line from the file.
//! 2. `ECC_PARITY_RESUME=1` replays the journal: shards with a valid,
//!    checksummed result are *not* re-executed — their recorded payloads
//!    deserialize to bit-identical results (the same serde round-trip the
//!    run cache already relies on), so final stdout is byte-identical to
//!    an uninterrupted run. Only shards that were in flight at the kill
//!    re-execute.
//! 3. Each shard attempt runs on its own thread under
//!    [`std::panic::catch_unwind`] with a watchdog deadline
//!    (`ECC_PARITY_SHARD_TIMEOUT_MS`); failures retry with exponential
//!    backoff up to `ECC_PARITY_SHARD_RETRIES` times. The scheduler
//!    sleeps until an attempt reports, a deadline passes, or a backoff
//!    expires, so a shard settles the moment it finishes. Outcomes classify as
//!    [`OutcomeClass::Completed`] / [`Retried`](OutcomeClass::Retried) /
//!    [`TimedOut`](OutcomeClass::TimedOut) /
//!    [`Panicked`](OutcomeClass::Panicked) /
//!    [`Poisoned`](OutcomeClass::Poisoned), with per-class `supervisor.*`
//!    counters and a JSONL failure ledger (schema
//!    [`FAILURES_SCHEMA`]) under `ECC_PARITY_JSON_DIR`.
//! 4. A shard that repeatedly kills the whole process (journal shows
//!    `poison_threshold` starts with no completion) is classified
//!    `Poisoned` and skipped instead of crash-looping the campaign. The
//!    verdict is journaled and holds on every later resume; only a fresh
//!    run clears it.
//!
//! This is the campaigns' one scheduler, and it runs every shard
//! in-process. A process death — a `kill -9`, an abort, an OOM kill — is
//! survived by the journal: the next `ECC_PARITY_RESUME=1` run replays it,
//! and the crash-loop guard (4.) keeps a shard that kills every run from
//! blocking the rest.
//!
//! The chaos layer ([`crate::chaos`], `ECC_PARITY_CHAOS=<seed>`)
//! deterministically injects infrastructure faults — corrupt cache
//! entries, failed journal persists, first-attempt shard panics and
//! stalls — and `tests/supervisor_tests.rs::chaos_soak` proves a chaos run
//! converges to the fault-free results with zero lost shards.

use crate::chaos::Chaos;
use crate::hash::{fnv1a64, fnv1a64_step, FNV1A64_EMPTY};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema stamped into the checkpoint journal's header record.
pub const JOURNAL_SCHEMA: &str = "eccparity-journal-v1";

/// Schema stamped into every failure-ledger line.
pub const FAILURES_SCHEMA: &str = "eccparity-failures-v1";

// ---- journal ---------------------------------------------------------------

/// One record of the checkpoint journal (externally tagged JSON, one per
/// line). Lines are written and read by [`JournalRecord::write_line`] and
/// [`replay_lines`]; the serde derive is the reference those are held to
/// (`tests/journal_codec_oracle.rs`), not a production path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// First line: identifies the campaign and the exact work list. A
    /// resume against a journal whose header does not match starts fresh.
    Header {
        /// Always [`JOURNAL_SCHEMA`].
        schema: String,
        /// Campaign name (journal file stem).
        campaign: String,
        /// Caller-supplied identity of the work (config digest, knobs).
        config_key: String,
        /// Number of shards the campaign submits.
        total_shards: u64,
    },
    /// A shard began executing (written once per process-run of the
    /// shard, before its first attempt). A `ShardStart` with no matching
    /// `ShardDone` marks the shard as in-flight at a crash.
    ShardStart {
        /// Shard name.
        shard: String,
    },
    /// A shard reached a terminal class. Success classes carry the
    /// serialized result; `checksum` is FNV-1a over `payload`'s bytes.
    ShardDone {
        /// Shard name.
        shard: String,
        /// Terminal [`OutcomeClass`], as its string form.
        class: String,
        /// Attempts consumed (1 = clean first try).
        attempts: u32,
        /// Wall time of the successful (or final) attempt, milliseconds.
        wall_ms: u64,
        /// FNV-1a over `payload`.
        checksum: u64,
        /// Serialized shard result (empty for failure classes).
        payload: String,
        /// Fencing token. This build always writes 0; journals from
        /// builds that ran multi-process fleets carry higher tokens. When
        /// a journal holds two records for one shard the higher token
        /// wins and the lower is discarded as superseded (see
        /// [`distill_records`]).
        token: u64,
    },
    /// Every shard reached a terminal class; the campaign finished.
    RunComplete {
        /// Shards that completed or resumed successfully.
        succeeded: u64,
    },
}

/// A [`JournalRecord`] whose strings are borrowed from the journal bytes
/// [`replay_lines`] decoded them in, so no payload is copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the fields are those of `JournalRecord`
pub enum RecordRef<'a> {
    Header {
        schema: &'a str,
        campaign: &'a str,
        config_key: &'a str,
        total_shards: u64,
    },
    ShardStart {
        shard: &'a str,
    },
    ShardDone {
        shard: &'a str,
        class: &'a str,
        attempts: u32,
        wall_ms: u64,
        checksum: u64,
        payload: &'a str,
        token: u64,
    },
    RunComplete {
        succeeded: u64,
    },
}

impl RecordRef<'_> {
    /// The owned record.
    pub fn to_record(self) -> JournalRecord {
        match self {
            RecordRef::Header {
                schema,
                campaign,
                config_key,
                total_shards,
            } => JournalRecord::Header {
                schema: schema.to_string(),
                campaign: campaign.to_string(),
                config_key: config_key.to_string(),
                total_shards,
            },
            RecordRef::ShardStart { shard } => JournalRecord::ShardStart {
                shard: shard.to_string(),
            },
            RecordRef::ShardDone {
                shard,
                class,
                attempts,
                wall_ms,
                checksum,
                payload,
                token,
            } => JournalRecord::ShardDone {
                shard: shard.to_string(),
                class: class.to_string(),
                attempts,
                wall_ms,
                checksum,
                payload: payload.to_string(),
                token,
            },
            RecordRef::RunComplete { succeeded } => JournalRecord::RunComplete { succeeded },
        }
    }
}

impl JournalRecord {
    /// Append this record's journal line, newline included. The line is
    /// the canonical form: exactly the bytes `serde_json::to_string` writes
    /// for the record (externally tagged, fields in declaration order, no
    /// whitespace), which is the only form [`replay_lines`] reads.
    pub fn write_line(&self, out: &mut String) {
        use std::fmt::Write;
        // Writing to a `String` cannot fail.
        let _ = match self {
            JournalRecord::Header {
                schema,
                campaign,
                config_key,
                total_shards,
            } => write!(
                out,
                "{{\"Header\":{{\"schema\":{},\"campaign\":{},\"config_key\":{},\"total_shards\":{total_shards}",
                JsonStr(schema),
                JsonStr(campaign),
                JsonStr(config_key)
            ),
            JournalRecord::ShardStart { shard } => {
                write!(out, "{{\"ShardStart\":{{\"shard\":{}", JsonStr(shard))
            }
            JournalRecord::ShardDone {
                shard,
                class,
                attempts,
                wall_ms,
                checksum,
                payload,
                token,
            } => write!(
                out,
                "{{\"ShardDone\":{{\"shard\":{},\"class\":{},\"attempts\":{attempts},\"wall_ms\":{wall_ms},\"checksum\":{checksum},\"payload\":{},\"token\":{token}",
                JsonStr(shard),
                JsonStr(class),
                JsonStr(payload)
            ),
            JournalRecord::RunComplete { succeeded } => {
                write!(out, "{{\"RunComplete\":{{\"succeeded\":{succeeded}")
            }
        };
        out.push_str("}}\n");
    }
}

/// A string written as JSON the way serde_json writes one: `"` and `\`
/// backslashed, `\n \r \t \b \f` by their short escapes, every other
/// control character as `\u00xx`, and everything else (DEL and non-ASCII
/// included) as is.
struct JsonStr<'a>(&'a str);

impl std::fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.0;
        f.write_str("\"")?;
        let mut run = 0;
        for (i, &c) in s.as_bytes().iter().enumerate() {
            let short = match c {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0x20.. => continue,
                _ => "",
            };
            // `c` is ASCII, so `i` is a char boundary.
            f.write_str(&s[run..i])?;
            run = i + 1;
            match short {
                "" => write!(f, "\\u{:04x}", c)?,
                short => f.write_str(short)?,
            }
        }
        f.write_str(&s[run..])?;
        f.write_str("\"")
    }
}

/// Reads one canonical line at the front of a buffer, unescaping its
/// strings in place. `rest` is the unread part of the buffer, `at` its
/// offset. Every byte before `at` has been checked and none is a newline;
/// a string's unescaped bytes are written over its escaped ones, never at
/// or past `at`. So when a line is refused at `at`, the line's newline is
/// still the first one at or after `at`.
struct LineReader<'a> {
    rest: &'a mut [u8],
    at: usize,
}

impl<'a> LineReader<'a> {
    /// Move the first `n` bytes of `rest` behind the reader.
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = std::mem::take(&mut self.rest).split_at_mut(n);
        self.rest = tail;
        self.at += n;
        head
    }

    /// Consume exactly `lit`.
    fn lit(&mut self, lit: &str) -> Result<(), usize> {
        if !self.rest.starts_with(lit.as_bytes()) {
            return Err(self.at);
        }
        self.take(lit.len());
        Ok(())
    }

    /// `lit`, then a decimal integer in `0..=max` without sign or leading
    /// zeros.
    fn uint(&mut self, lit: &str, max: u64) -> Result<u64, usize> {
        self.lit(lit)?;
        let digits = self.rest.iter().take_while(|c| c.is_ascii_digit()).count();
        let mut v = 0u64;
        for (i, &d) in self.rest[..digits].iter().enumerate() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .filter(|&v| v <= max)
                .ok_or(self.at + i)?;
        }
        if digits == 0 || (digits > 1 && self.rest[0] == b'0') {
            return Err(self.at);
        }
        self.take(digits);
        Ok(v)
    }

    /// `lit`, then a canonical JSON string, unescaped in place. Returns it
    /// and its FNV-1a, taken in the same pass.
    fn string(&mut self, lit: &str) -> Result<(&'a str, u64), usize> {
        self.lit(lit)?;
        self.lit("\"")?;
        let b = &mut *self.rest;
        let (at, mut r, mut w, mut hash) = (self.at, 0, 0, FNV1A64_EMPTY);
        loop {
            let (c, len) = match *b.get(r).ok_or(at + r)? {
                b'"' => break,
                b'\\' => match b.get(r + 1).copied() {
                    Some(b'"') => (b'"', 2),
                    Some(b'\\') => (b'\\', 2),
                    Some(b'n') => (b'\n', 2),
                    Some(b'r') => (b'\r', 2),
                    Some(b't') => (b'\t', 2),
                    Some(b'b') => (0x08, 2),
                    Some(b'f') => (0x0c, 2),
                    // `\u00xx` in lowercase hex, only for the control
                    // characters without a short escape.
                    Some(b'u') => match b.get(r + 2..r + 6) {
                        Some(
                            &[b'0', b'0', hi @ (b'0' | b'1'), lo @ (b'0'..=b'9' | b'a'..=b'f')],
                        ) => {
                            let lo = if lo <= b'9' {
                                lo - b'0'
                            } else {
                                lo - b'a' + 10
                            };
                            match ((hi - b'0') << 4) | lo {
                                0x08 | b'\t' | b'\n' | 0x0c | b'\r' => return Err(at + r),
                                c => (c, 6),
                            }
                        }
                        _ => return Err(at + r),
                    },
                    _ => return Err(at + r),
                },
                c if c < 0x20 => return Err(at + r),
                c => (c, 1),
            };
            b[w] = c;
            w += 1;
            r += len;
            hash = fnv1a64_step(hash, c);
        }
        // Escapes are ASCII, so the string is UTF-8 exactly when its raw
        // runs are, escaped or not.
        let s = std::str::from_utf8(&self.take(r + 1)[..w]).map_err(|_| at + r)?;
        Ok((s, hash))
    }

    /// Read one whole record: the canonical line, then `\n` or the end of
    /// the buffer. Returns the record, the FNV-1a of its payload (of the
    /// empty string for records without one) and where its line ends, or
    /// the offset at which the line stopped being canonical.
    fn record(mut self) -> Result<(RecordRef<'a>, u64, usize), usize> {
        let mut payload_fnv = FNV1A64_EMPTY;
        self.lit("{\"")?;
        // Struct expressions evaluate their fields in the order written,
        // which is the order of the line.
        let rec = if self.lit("Header\":{").is_ok() {
            RecordRef::Header {
                schema: self.string("\"schema\":")?.0,
                campaign: self.string(",\"campaign\":")?.0,
                config_key: self.string(",\"config_key\":")?.0,
                total_shards: self.uint(",\"total_shards\":", u64::MAX)?,
            }
        } else if self.lit("ShardStart\":{").is_ok() {
            RecordRef::ShardStart {
                shard: self.string("\"shard\":")?.0,
            }
        } else if self.lit("ShardDone\":{").is_ok() {
            RecordRef::ShardDone {
                shard: self.string("\"shard\":")?.0,
                class: self.string(",\"class\":")?.0,
                attempts: self.uint(",\"attempts\":", u64::from(u32::MAX))? as u32,
                wall_ms: self.uint(",\"wall_ms\":", u64::MAX)?,
                checksum: self.uint(",\"checksum\":", u64::MAX)?,
                payload: {
                    let (payload, fnv) = self.string(",\"payload\":")?;
                    payload_fnv = fnv;
                    payload
                },
                token: self.uint(",\"token\":", u64::MAX)?,
            }
        } else {
            self.lit("RunComplete\":{")?;
            RecordRef::RunComplete {
                succeeded: self.uint("\"succeeded\":", u64::MAX)?,
            }
        };
        self.lit("}}")?;
        match self.rest.first() {
            None | Some(b'\n') => Ok((rec, payload_fnv, self.at)),
            Some(_) => Err(self.at),
        }
    }
}

/// Decode a journal's bytes line by line, in place: each string is
/// unescaped over its own escaped bytes, so no payload is copied. `visit`
/// gets every canonical line's record, in file order, with the FNV-1a of
/// its payload taken during the unescape. Any other non-blank line — torn,
/// interleaved, not UTF-8, or JSON in another form — is damaged: it is
/// skipped, counted in `supervisor.journal.damaged_lines`, and replay goes
/// on with the next line. Returns whether any line was damaged.
pub fn replay_lines(bytes: &mut [u8], mut visit: impl FnMut(RecordRef<'_>, u64)) -> bool {
    let mut damaged = false;
    let mut start = 0;
    while start < bytes.len() {
        let reader = LineReader {
            rest: &mut bytes[start..],
            at: 0,
        };
        let stop = match reader.record() {
            Ok((rec, fnv, end)) => {
                visit(rec, fnv);
                start += end + 1;
                continue;
            }
            Err(at) => start + at,
        };
        let end = bytes[stop..]
            .iter()
            .position(|&c| c == b'\n')
            .map_or(bytes.len(), |n| stop + n);
        if !bytes[start..end].iter().all(u8::is_ascii_whitespace) {
            damaged = true;
            obs::counter!("supervisor.journal.damaged_lines").inc();
        }
        start = end + 1;
    }
    damaged
}

/// Read a journal file with [`replay_lines`], tolerating damage anywhere:
/// a crash tears the final line, and a stray writer (or an older build's
/// concurrent appenders) can damage one mid-file, which must not cost the
/// records after it. Returns the records and whether any damaged line was skipped; a missing
/// or unreadable file has neither.
pub fn replay_journal(path: &Path) -> (Vec<JournalRecord>, bool) {
    let Ok(mut bytes) = std::fs::read(path) else {
        return (Vec::new(), false);
    };
    let mut records = Vec::new();
    let damaged = replay_lines(&mut bytes, |rec, _| records.push(rec.to_record()));
    (records, damaged)
}

/// Append one record to a journal as a single `O_APPEND` line write plus
/// fsync. Every record after a run's first publish goes this way;
/// [`replay_journal`]'s skip-damaged-lines tolerance covers a line torn by
/// a crash.
fn append_record(path: &Path, rec: &JournalRecord) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut line = String::new();
    rec.write_line(&mut line);
    append_line(path, &line)?.sync_all()
}

/// Publish `text` — journal lines as [`JournalRecord::write_line`] writes
/// them — as the whole journal at `path`: write a pid-suffixed temp file,
/// fsync, and rename it over the journal, so a reader sees the old file
/// or the new one and never a mix.
pub fn publish_journal(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

/// The checkpoint journal as one process writes it. Its first persist
/// publishes the whole record list ([`publish_journal`]); every later
/// record is one fsynced append ([`append_record`]). A failed persist
/// clears `in_sync`, so the next one publishes every record again.
pub(crate) struct Journal {
    path: Option<PathBuf>,
    records: Vec<JournalRecord>,
    chaos: Chaos,
    persists: u64,
    write_failures: u64,
    /// The last persist succeeded: the file holds every record pushed
    /// before the newest, so the newest can go by append.
    in_sync: bool,
}

impl Journal {
    /// A journal of `records`, published whole at once: a fresh run's
    /// header, or a resumed run's replayed records, which drops any torn
    /// line a crash left at the tail.
    pub(crate) fn start(
        path: Option<PathBuf>,
        records: Vec<JournalRecord>,
        chaos: Chaos,
    ) -> Journal {
        let mut journal = Journal {
            path,
            records,
            chaos,
            persists: 0,
            write_failures: 0,
            in_sync: false,
        };
        journal.persist();
        journal
    }

    fn append(&mut self, rec: JournalRecord) {
        self.records.push(rec);
        self.persist();
    }

    /// Make the file hold every record, fsynced: append the newest record
    /// when the file holds all the others, else publish the whole list.
    /// Failures (real, or chaos-simulated ENOSPC) are counted and the run
    /// continues — the journal is a durability optimization, never a
    /// correctness dependency; the records stay in memory, so the next
    /// successful persist publishes everything.
    fn persist(&mut self) {
        let Some(path) = self.path.clone() else {
            return;
        };
        self.persists += 1;
        let written = if self.chaos.fail_journal_write(self.persists) {
            Err("chaos: simulated ENOSPC".to_string())
        } else if let (true, Some(last)) = (self.in_sync, self.records.last()) {
            obs::counter!("supervisor.journal.appends").inc();
            append_record(&path, last).map_err(|e| e.to_string())
        } else {
            obs::counter!("supervisor.journal.publishes").inc();
            let mut text = String::new();
            for rec in &self.records {
                rec.write_line(&mut text);
            }
            publish_journal(&path, &text).map_err(|e| e.to_string())
        };
        self.in_sync = written.is_ok();
        if let Err(why) = written {
            self.note_write_failure(&path, &why);
        }
    }

    fn note_write_failure(&mut self, path: &Path, why: &str) {
        self.write_failures += 1;
        obs::counter!("supervisor.journal_write_failures").inc();
        eprintln!(
            "supervisor: journal persist to {} failed ({why}); continuing without this checkpoint",
            path.display()
        );
    }
}

// ---- configuration ---------------------------------------------------------

/// Default per-attempt watchdog deadline (10 minutes — far above any
/// healthy shard, so it only fires on genuine hangs).
pub const DEFAULT_TIMEOUT_MS: u64 = 600_000;

/// Default extra attempts after the first.
pub const DEFAULT_RETRIES: u32 = 2;

/// Default base backoff between attempts (doubles per retry).
pub const DEFAULT_BACKOFF_MS: u64 = 50;

/// Default crash-loop guard: a shard seen in flight at this many process
/// deaths is poisoned instead of re-executed.
pub const DEFAULT_POISON_THRESHOLD: u32 = 3;

/// Knobs of one supervised campaign.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Campaign name: journal file stem, ledger stamp, summary label.
    pub campaign: String,
    /// Identity of the work list (model version, scale, trial counts…).
    /// A journal with a different key is discarded on resume.
    pub config_key: String,
    /// Checkpoint directory; `None` disables journaling entirely.
    pub dir: Option<PathBuf>,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Watchdog deadline per attempt.
    pub timeout: Duration,
    /// Extra attempts after the first.
    pub retries: u32,
    /// Base backoff before a retry; doubles each further retry.
    pub backoff: Duration,
    /// Crash-loop guard (see [`DEFAULT_POISON_THRESHOLD`]).
    pub poison_threshold: u32,
    /// Shards allowed in flight at once.
    pub max_inflight: usize,
    /// Infrastructure-fault injector.
    pub chaos: Chaos,
    /// Failure-ledger path (`None` = no ledger file).
    pub failures_path: Option<PathBuf>,
}

/// Checkpoint directory: `ECC_PARITY_CHECKPOINT_DIR`, default
/// `results/checkpoints`.
pub fn checkpoint_dir() -> PathBuf {
    std::env::var("ECC_PARITY_CHECKPOINT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results/checkpoints"))
}

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            eprintln!("supervisor: {name}={v:?} is not an integer; using {default}");
            default
        }),
        Err(_) => default,
    }
}

impl SupervisorConfig {
    /// The environment-configured setup every bench binary uses:
    /// checkpoints under [`checkpoint_dir`], resume via
    /// `ECC_PARITY_RESUME=1`, watchdog/retry knobs via
    /// `ECC_PARITY_SHARD_TIMEOUT_MS` / `ECC_PARITY_SHARD_RETRIES` /
    /// `ECC_PARITY_RETRY_BACKOFF_MS`, chaos via `ECC_PARITY_CHAOS`, and
    /// the failure ledger under `ECC_PARITY_JSON_DIR`.
    pub fn from_env(campaign: &str, config_key: String) -> SupervisorConfig {
        SupervisorConfig {
            campaign: campaign.to_string(),
            config_key,
            dir: Some(checkpoint_dir()),
            resume: std::env::var("ECC_PARITY_RESUME")
                .map(|v| v == "1")
                .unwrap_or(false),
            timeout: Duration::from_millis(env_u64(
                "ECC_PARITY_SHARD_TIMEOUT_MS",
                DEFAULT_TIMEOUT_MS,
            )),
            retries: env_u64("ECC_PARITY_SHARD_RETRIES", u64::from(DEFAULT_RETRIES)) as u32,
            backoff: Duration::from_millis(env_u64(
                "ECC_PARITY_RETRY_BACKOFF_MS",
                DEFAULT_BACKOFF_MS,
            )),
            poison_threshold: DEFAULT_POISON_THRESHOLD,
            max_inflight: std::thread::available_parallelism().map_or(4, |n| n.get()),
            chaos: crate::chaos::global(),
            failures_path: crate::harness::json_dir()
                .map(|d| d.join(format!("{campaign}.failures.jsonl"))),
        }
    }

    /// Filesystem-safe stem derived from the campaign name.
    fn stem(&self) -> String {
        self.campaign
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    /// The journal file this configuration reads and writes, if
    /// journaling is enabled.
    pub fn journal_path(&self) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        Some(dir.join(format!("{}.journal.jsonl", self.stem())))
    }
}

// ---- shards and outcomes ---------------------------------------------------

/// One independently checkpointable unit of work.
pub struct Shard<T> {
    /// Stable name: the journal key, so it must not change between a run
    /// and its resume.
    pub name: String,
    work: Arc<dyn Fn() -> T + Send + Sync + 'static>,
}

impl<T> Shard<T> {
    /// A shard running `work`. `work` may be invoked multiple times
    /// (retries) and must be deterministic for resume to be
    /// output-transparent.
    pub fn new(name: impl Into<String>, work: impl Fn() -> T + Send + Sync + 'static) -> Shard<T> {
        Shard {
            name: name.into(),
            work: Arc::new(work),
        }
    }
}

impl<T> Clone for Shard<T> {
    fn clone(&self) -> Shard<T> {
        Shard {
            name: self.name.clone(),
            work: Arc::clone(&self.work),
        }
    }
}

/// Terminal classification of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Succeeded on the first attempt.
    Completed,
    /// Succeeded after at least one failed attempt.
    Retried,
    /// Every attempt exceeded the watchdog deadline.
    TimedOut,
    /// Every attempt panicked.
    Panicked,
    /// Skipped: the journal shows the shard was in flight at
    /// `poison_threshold` process deaths (crash-loop guard).
    Poisoned,
}

impl OutcomeClass {
    /// Stable string form (journal records, ledger lines, counters).
    pub fn as_str(self) -> &'static str {
        match self {
            OutcomeClass::Completed => "completed",
            OutcomeClass::Retried => "retried",
            OutcomeClass::TimedOut => "timed_out",
            OutcomeClass::Panicked => "panicked",
            OutcomeClass::Poisoned => "poisoned",
        }
    }

    /// Did the shard produce a result?
    pub fn is_success(self) -> bool {
        matches!(self, OutcomeClass::Completed | OutcomeClass::Retried)
    }

    fn from_str(s: &str) -> Option<OutcomeClass> {
        Some(match s {
            "completed" => OutcomeClass::Completed,
            "retried" => OutcomeClass::Retried,
            "timed_out" => OutcomeClass::TimedOut,
            "panicked" => OutcomeClass::Panicked,
            "poisoned" => OutcomeClass::Poisoned,
            _ => return None,
        })
    }
}

/// Final state of one shard after supervision.
pub struct ShardOutcome<T> {
    /// Shard name.
    pub name: String,
    /// Terminal classification.
    pub class: OutcomeClass,
    /// Attempts consumed this process-run (0 if resumed or poisoned).
    pub attempts: u32,
    /// True when the result came from the journal, not execution.
    pub resumed: bool,
    /// Wall time of the deciding attempt, in milliseconds.
    pub wall_ms: u64,
    /// The shard's result; `None` for failure classes.
    pub result: Option<T>,
}

/// Everything a supervised campaign produced, in submission order.
pub struct SupervisedRun<T> {
    /// Campaign name.
    pub campaign: String,
    /// One outcome per submitted shard, in submission order.
    pub outcomes: Vec<ShardOutcome<T>>,
}

impl<T> SupervisedRun<T> {
    /// Did every shard produce a result?
    pub fn all_succeeded(&self) -> bool {
        self.outcomes.iter().all(|o| o.class.is_success())
    }

    /// Names of shards that failed terminally.
    pub fn failed_shards(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| !o.class.is_success())
            .map(|o| o.name.as_str())
            .collect()
    }

    /// Successful results in submission order, consuming the run.
    ///
    /// A shard without a result is an infrastructure failure, not a bug in
    /// the caller, so this never panics: it reports every failed shard to
    /// stderr, flushes observability artifacts, and exits with status 3 —
    /// the same exit-code discipline as [`Self::exit_if_incomplete`]
    /// (1 validation failure / 2 usage error / 3 shard failure).
    pub fn into_results(self) -> Vec<T> {
        self.exit_if_incomplete();
        self.outcomes
            .into_iter()
            .map(|o| match o.result {
                Some(v) => v,
                None => {
                    // Unreachable after exit_if_incomplete, but keep the
                    // structured path rather than a panic if an outcome
                    // class and its result ever disagree.
                    eprintln!(
                        "supervisor: shard {} classified {} but carries no result",
                        o.name,
                        o.class.as_str()
                    );
                    obs::trace::flush();
                    std::process::exit(3);
                }
            })
            .collect()
    }

    /// Binary-facing guard: if any shard failed, print the failures to
    /// stderr and exit with status 3 — the "infrastructure failure" code,
    /// distinct from validation failure (1) and usage error (2).
    pub fn exit_if_incomplete(&self) {
        if self.all_succeeded() {
            return;
        }
        let failed = self.failed_shards().join(", ");
        eprintln!(
            "supervisor: {}: unrecoverable shard failures: {failed}",
            self.campaign
        );
        obs::metrics::write_snapshot_if_configured(&self.campaign);
        obs::trace::flush();
        std::process::exit(3);
    }
}

// ---- journal distillation --------------------------------------------------

/// One shard's settled state, distilled from its (possibly many) journal
/// records.
#[derive(Debug, Clone)]
pub struct DoneRecord {
    /// Terminal classification the record carries.
    pub class: OutcomeClass,
    /// Attempts the run that published it consumed.
    pub attempts: u32,
    /// Wall time of the deciding attempt, milliseconds.
    pub wall_ms: u64,
    /// Serialized result (empty for failure classes).
    pub payload: String,
    /// Fencing token the record was published under.
    pub token: u64,
    /// Index of the winning record in the distilled slice.
    pub(crate) record: usize,
}

/// A journal's records distilled into per-shard terminal state, tolerating
/// duplicate done-records for one shard (including the superseded fencing
/// tokens of journals that older builds' worker fleets wrote) and payloads
/// that fail their checksum.
#[derive(Debug, Default)]
pub struct JournalView {
    /// Shard name -> winning terminal record (any class). The winner among
    /// duplicates is the record with the highest fencing token;
    /// ties go to the latest record in file order (last-valid-wins).
    pub done: HashMap<String, DoneRecord>,
    /// Shard name -> `ShardStart`s with no matching `ShardDone` (times the
    /// shard was in flight at a process death).
    pub crash_counts: HashMap<String, u32>,
    /// Valid-but-losing duplicates discarded (stale fencing token or
    /// superseded by a later equal-token record).
    pub superseded: u64,
    /// Indices, in file order, of the records whose payload failed its
    /// checksum: quarantined rather than trusted.
    pub quarantined: Vec<usize>,
}

/// Distill journal records into per-shard terminal state. Duplicate
/// done-records resolve by fencing token (highest wins; equal tokens:
/// last-valid-wins). A record whose payload fails its FNV-1a checksum is
/// never trusted, and is listed in [`JournalView::quarantined`].
///
/// Distillation writes and counts nothing; a resume reports what it found
/// once, with [`report_distillation`].
pub fn distill_records(records: &[JournalRecord]) -> JournalView {
    let mut view = JournalView::default();
    for (i, rec) in records.iter().enumerate() {
        match rec {
            JournalRecord::ShardStart { shard } => {
                *view.crash_counts.entry(shard.clone()).or_insert(0) += 1;
            }
            JournalRecord::ShardDone {
                shard,
                class,
                attempts,
                wall_ms,
                checksum,
                payload,
                token,
            } => {
                view.crash_counts
                    .entry(shard.clone())
                    .and_modify(|n| *n = n.saturating_sub(1));
                let Some(class) = OutcomeClass::from_str(class) else {
                    continue;
                };
                if *checksum != fnv1a64(payload.as_bytes()) {
                    view.quarantined.push(i);
                    continue;
                }
                let incoming = DoneRecord {
                    class,
                    attempts: *attempts,
                    wall_ms: *wall_ms,
                    payload: payload.clone(),
                    token: *token,
                    record: i,
                };
                match view.done.get_mut(shard) {
                    Some(existing) if existing.token > incoming.token => {
                        view.superseded += 1;
                    }
                    Some(existing) => {
                        *existing = incoming;
                        view.superseded += 1;
                    }
                    None => {
                        view.done.insert(shard.clone(), incoming);
                    }
                }
            }
            JournalRecord::Header { .. } | JournalRecord::RunComplete { .. } => {}
        }
    }
    view.crash_counts.retain(|_, n| *n > 0);
    view
}

/// The report of `view`, a distillation of `records`: superseded
/// duplicates are counted in `supervisor.journal.superseded`, and each
/// quarantined record is counted in `supervisor.journal.quarantined` and
/// appended to the sidecar `quarantine` as one JSON line for post-mortems.
/// A resume calls this once, so each record lands in the sidecar once.
pub fn report_distillation(quarantine: &Path, records: &[JournalRecord], view: &JournalView) {
    obs::counter!("supervisor.journal.superseded").add(view.superseded);
    for &i in &view.quarantined {
        obs::counter!("supervisor.journal.quarantined").inc();
        let mut line = String::new();
        records[i].write_line(&mut line);
        let _ = append_line(quarantine, &line);
    }
}

/// Append `line`, newline included, in one `O_APPEND` write.
fn append_line(path: &Path, line: &str) -> std::io::Result<std::fs::File> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    Ok(f)
}

/// The sidecar path where [`report_distillation`] quarantines
/// checksum-mismatched journal records.
pub fn quarantine_path(journal: &Path) -> PathBuf {
    let mut name = journal
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "journal".to_string());
    name.push_str(".quarantine");
    journal.with_file_name(name)
}

/// Does the journal's first record identify exactly this campaign?
fn header_matches(records: &[JournalRecord], cfg: &SupervisorConfig, total_shards: u64) -> bool {
    matches!(
        records.first(),
        Some(JournalRecord::Header { schema, campaign, config_key, total_shards: t })
            if schema == JOURNAL_SCHEMA
                && *campaign == cfg.campaign
                && *config_key == cfg.config_key
                && *t == total_shards
    )
}

// ---- resume ----------------------------------------------------------------

/// Journal replay distilled into resume state.
struct ResumeState {
    /// Shard name -> journaled success or crash-loop poisoning.
    done: HashMap<String, DoneRecord>,
    /// Shard name -> times it was in flight at a process death.
    crash_counts: HashMap<String, u32>,
    /// Records carried into the continued journal.
    records: Vec<JournalRecord>,
}

/// Distill a journal for a resumed run. Each shard's winner is the one
/// [`distill_records`] picks; a successful or poisoned winner is not
/// re-executed. The continued journal keeps every record in file order but
/// the `ShardDone`s that do not carry such a winner (a prior run's
/// terminal failure, a superseded duplicate, a quarantined or
/// unclassifiable record), each dropped with the `ShardStart` it closed, so
/// crash counts do not change and a shard re-executed now is the only
/// record of it on the next resume.
fn load_resume_state(
    cfg: &SupervisorConfig,
    path: &Path,
    total_shards: u64,
) -> Option<ResumeState> {
    let (records, damaged) = replay_journal(path);
    if damaged {
        obs::counter!("supervisor.journal_torn_tail").inc();
        eprintln!(
            "supervisor: {}: journal had torn/damaged lines; replaying the intact records",
            cfg.campaign
        );
    }
    if !header_matches(&records, cfg, total_shards) {
        obs::counter!("supervisor.journal_discarded").inc();
        eprintln!(
            "supervisor: {}: existing journal does not match this campaign's configuration; starting fresh",
            cfg.campaign
        );
        return None;
    }
    let mut view = distill_records(&records);
    report_distillation(&quarantine_path(path), &records, &view);
    if !view.quarantined.is_empty() {
        obs::counter!("supervisor.journal_corrupt_payloads").add(view.quarantined.len() as u64);
    }
    // Terminal failures are re-executed on resume (fresh retry budget);
    // only checksummed successes and the crash-loop guard's verdict
    // short-circuit. A poisoned `ShardDone` closes no `ShardStart` of its
    // own, so dropping it would also drop one of the crashes that poisoned
    // the shard and let the next resume run it again.
    view.done
        .retain(|_, rec| rec.class.is_success() || rec.class == OutcomeClass::Poisoned);
    let mut keep = vec![true; records.len()];
    let mut open_starts: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        match rec {
            JournalRecord::ShardStart { shard } => {
                open_starts.entry(shard).or_default().push(i);
            }
            JournalRecord::ShardDone { shard, .. } => {
                let start = open_starts.get_mut(shard.as_str()).and_then(Vec::pop);
                if view.done.get(shard).is_none_or(|d| d.record != i) {
                    keep[i] = false;
                    if let Some(s) = start {
                        keep[s] = false;
                    }
                }
            }
            JournalRecord::Header { .. } | JournalRecord::RunComplete { .. } => {}
        }
    }
    let records = records
        .into_iter()
        .zip(keep)
        .filter_map(|(rec, keep)| keep.then_some(rec))
        .collect();
    Some(ResumeState {
        done: view.done,
        crash_counts: view.crash_counts,
        records,
    })
}

// ---- attempts --------------------------------------------------------------

/// The failure ledger (`cfg.failures_path`, schema [`FAILURES_SCHEMA`]).
struct Ledger {
    sink: Option<obs::jsonl::JsonlSink>,
}

impl Ledger {
    /// Create (truncating) the ledger file, if `cfg` names one.
    fn open(cfg: &SupervisorConfig) -> Ledger {
        let sink = cfg.failures_path.as_ref().and_then(|p| {
            obs::jsonl::JsonlSink::create(p, FAILURES_SCHEMA)
                .map_err(|e| {
                    crate::harness::warn_io("failure ledger create", &e);
                })
                .ok()
        });
        Ledger { sink }
    }

    fn attempt_failed(
        &mut self,
        campaign: &str,
        shard: &str,
        attempt: u32,
        kind: &str,
        detail: &str,
        wall_ms: u64,
    ) {
        obs::counter!("supervisor.attempt_failures").inc();
        if obs::trace::enabled() {
            obs::trace::event(
                "supervisor.attempt_failed",
                &[
                    ("shard", obs::trace::Value::Str(shard)),
                    ("attempt", obs::trace::Value::U64(u64::from(attempt))),
                    ("kind", obs::trace::Value::Str(kind)),
                ],
            );
        }
        if let Some(sink) = &mut self.sink {
            let _ = sink.append(
                "shard.attempt_failed",
                &[
                    ("campaign", obs::trace::Value::Str(campaign)),
                    ("shard", obs::trace::Value::Str(shard)),
                    ("attempt", obs::trace::Value::U64(u64::from(attempt))),
                    ("failure", obs::trace::Value::Str(kind)),
                    ("detail", obs::trace::Value::Str(detail)),
                    ("wall_ms", obs::trace::Value::U64(wall_ms)),
                ],
            );
        }
    }

    fn outcome(
        &mut self,
        campaign: &str,
        o_name: &str,
        class: OutcomeClass,
        attempts: u32,
        resumed: bool,
        wall_ms: u64,
    ) {
        if let Some(sink) = &mut self.sink {
            let _ = sink.append(
                "shard.outcome",
                &[
                    ("campaign", obs::trace::Value::Str(campaign)),
                    ("shard", obs::trace::Value::Str(o_name)),
                    ("class", obs::trace::Value::Str(class.as_str())),
                    ("attempts", obs::trace::Value::U64(u64::from(attempts))),
                    ("resumed", obs::trace::Value::Bool(resumed)),
                    ("wall_ms", obs::trace::Value::U64(wall_ms)),
                ],
            );
        }
    }
}

/// One shard's attempt chain, ended.
struct Settled<T> {
    /// Index of the shard in the slice [`run_attempts`] was given.
    idx: usize,
    class: OutcomeClass,
    attempts: u32,
    /// Wall time of the deciding attempt, milliseconds.
    wall_ms: u64,
    /// The result, for a success class.
    result: Option<T>,
}

/// What [`run_attempts`] reports to the code journaling around it.
enum AttemptEvent<T> {
    /// The shard's first attempt is about to launch.
    Started(usize),
    /// The shard's attempt chain ended.
    Settled(Settled<T>),
}

/// One in-flight shard attempt.
struct Running {
    idx: usize,
    attempt: u32,
    started: Instant,
    deadline: Instant,
}

/// What an attempt thread reports: shard index, attempt number, and the
/// result or panic message.
type Report<T> = (usize, u32, Result<T, String>);

/// A shard waiting to run (or to retry after backoff).
struct Pending {
    idx: usize,
    attempts_done: u32,
    ready_at: Instant,
}

/// Run the attempt chains of the shards `queue` names (indices into
/// `shards`), up to `cfg.max_inflight` attempts at once. Each attempt runs
/// on its own thread under [`catch_unwind`], after any chaos stall or
/// panic, with a `cfg.timeout` watchdog; a failed attempt goes to the
/// ledger and retries after exponential backoff until `cfg.retries` are
/// spent. Every executed shard's outcome goes to the ledger too. `report`
/// hears of each shard's first launch and of its settling; this returns
/// once every queued shard has settled.
///
/// The loop sleeps until an attempt reports, the earliest watchdog
/// deadline, or — with a slot free — the earliest backoff expiry,
/// whichever comes first.
fn run_attempts<T: Send + 'static>(
    cfg: &SupervisorConfig,
    shards: &[Shard<T>],
    queue: Vec<usize>,
    ledger: &mut Ledger,
    mut report: impl FnMut(AttemptEvent<T>),
) {
    let mut pending: Vec<Pending> = queue
        .into_iter()
        .map(|idx| Pending {
            idx,
            attempts_done: 0,
            ready_at: Instant::now(),
        })
        .collect();
    let max_inflight = cfg.max_inflight.max(1);
    let (tx, rx) = mpsc::channel::<Report<T>>();
    let mut running: Vec<Running> = Vec::new();
    while !pending.is_empty() || !running.is_empty() {
        // Launch ready shards into free slots.
        while running.len() < max_inflight {
            let now = Instant::now();
            let Some(pos) = pending.iter().position(|p| p.ready_at <= now) else {
                break;
            };
            let p = pending.remove(pos);
            if p.attempts_done == 0 {
                report(AttemptEvent::Started(p.idx));
            }
            let attempt = p.attempts_done + 1;
            let tx = tx.clone();
            let idx = p.idx;
            let work = Arc::clone(&shards[idx].work);
            let name = shards[idx].name.clone();
            let chaos = cfg.chaos;
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
                let _ = tx.send((idx, attempt, result.map_err(|e| panic_message(e.as_ref()))));
            });
            let started = Instant::now();
            running.push(Running {
                idx,
                attempt,
                started,
                deadline: started + cfg.timeout,
            });
        }

        // Past the launches, a free slot means no pending shard is ready
        // yet, and no free slot means an attempt is running: either way
        // there is a time to wake at.
        let slot_free = running.len() < max_inflight;
        let wake = running
            .iter()
            .map(|r| r.deadline)
            .chain(pending.iter().filter(|_| slot_free).map(|p| p.ready_at))
            .min()
            .expect("a running attempt or a pending shard");
        // The loop holds `tx`, so the channel never disconnects; an error
        // is the timeout.
        let mut settled: Vec<(Running, Option<Result<T, String>>)> = Vec::new();
        if let Ok((idx, attempt, res)) =
            rx.recv_timeout(wake.saturating_duration_since(Instant::now()))
        {
            // A report from an attempt the watchdog gave up on is dropped.
            if let Some(pos) = running
                .iter()
                .position(|r| r.idx == idx && r.attempt == attempt)
            {
                settled.push((running.remove(pos), Some(res)));
            }
        }
        let now = Instant::now();
        while let Some(pos) = running.iter().position(|r| r.deadline <= now) {
            settled.push((running.remove(pos), None));
        }
        for (run, verdict) in settled {
            let wall_ms = run.started.elapsed().as_millis() as u64;
            let name = &shards[run.idx].name;
            let (class, result) = match verdict {
                Some(Ok(v)) if run.attempt > 1 => (OutcomeClass::Retried, Some(v)),
                Some(Ok(v)) => (OutcomeClass::Completed, Some(v)),
                failure => {
                    let (class, detail) = match failure {
                        Some(Err(msg)) => (OutcomeClass::Panicked, msg),
                        _ => (
                            OutcomeClass::TimedOut,
                            format!("watchdog deadline {:?} exceeded", cfg.timeout),
                        ),
                    };
                    let kind = class.as_str();
                    ledger.attempt_failed(&cfg.campaign, name, run.attempt, kind, &detail, wall_ms);
                    eprintln!(
                        "supervisor: {}: shard {} attempt {} {kind} ({detail})",
                        cfg.campaign, name, run.attempt
                    );
                    if run.attempt <= cfg.retries {
                        // Exponential backoff: base << (attempts already used - 1).
                        let factor = 1u32 << (run.attempt - 1).min(16);
                        pending.push(Pending {
                            idx: run.idx,
                            attempts_done: run.attempt,
                            ready_at: Instant::now() + cfg.backoff * factor,
                        });
                        continue;
                    }
                    (class, None)
                }
            };
            ledger.outcome(&cfg.campaign, name, class, run.attempt, false, wall_ms);
            report(AttemptEvent::Settled(Settled {
                idx: run.idx,
                class,
                attempts: run.attempt,
                wall_ms,
                result,
            }));
        }
    }
}

/// The `ShardDone` record of a settled shard, at fencing token 0. The
/// payload is the serialized result: empty for a failure, and for a result
/// that does not serialize (the run still has the result, but the
/// checkpoint cannot cover the shard).
fn done_record<T: Serialize>(
    shard: &str,
    class: OutcomeClass,
    attempts: u32,
    wall_ms: u64,
    result: Option<&T>,
) -> JournalRecord {
    let payload = result.map_or_else(String::new, |v| {
        serde_json::to_string(v).unwrap_or_else(|e| {
            crate::harness::warn_io("shard payload serialize", &e);
            String::new()
        })
    });
    JournalRecord::ShardDone {
        shard: shard.to_string(),
        class: class.as_str().to_string(),
        attempts,
        wall_ms,
        checksum: fnv1a64(payload.as_bytes()),
        payload,
        token: 0,
    }
}

// ---- supervision -----------------------------------------------------------

/// Run `shards` under the supervisor. Returns one outcome per shard in
/// submission order. See the module docs for the full contract.
///
/// Panics if two shards share a name (the journal keys by name).
pub fn supervise<T>(cfg: &SupervisorConfig, shards: Vec<Shard<T>>) -> SupervisedRun<T>
where
    T: Serialize + Deserialize + Send + 'static,
{
    {
        let mut seen = std::collections::HashSet::new();
        for s in &shards {
            assert!(
                seen.insert(s.name.as_str()),
                "duplicate shard name {:?}",
                s.name
            );
        }
    }
    let total = shards.len() as u64;
    let journal_path = cfg.journal_path();

    // Resume (or not): distill any matching journal into prior state.
    let resume_state = match (&journal_path, cfg.resume) {
        (Some(path), true) if path.exists() => load_resume_state(cfg, path, total),
        _ => None,
    };
    let (done, crash_counts, records) = match resume_state {
        Some(s) => (s.done, s.crash_counts, s.records),
        None => (
            HashMap::new(),
            HashMap::new(),
            vec![JournalRecord::Header {
                schema: JOURNAL_SCHEMA.to_string(),
                campaign: cfg.campaign.clone(),
                config_key: cfg.config_key.clone(),
                total_shards: total,
            }],
        ),
    };
    // Publish the fresh header, or the resumed records, before any work
    // runs; every later record is an append.
    let mut journal = Journal::start(journal_path, records, cfg.chaos);

    let mut ledger = Ledger::open(cfg);
    let mut outcomes: Vec<Option<ShardOutcome<T>>> = shards.iter().map(|_| None).collect();
    let mut queue = Vec::new();

    // Settle resumed and poisoned shards; queue the rest. Resume state
    // holds successes and poisonings only.
    for (idx, shard) in shards.iter().enumerate() {
        let prior = done.get(&shard.name);
        if let Some(rec) = prior.filter(|rec| rec.class.is_success()) {
            if let Ok(result) = serde_json::from_str::<T>(&rec.payload) {
                ledger.outcome(
                    &cfg.campaign,
                    &shard.name,
                    rec.class,
                    rec.attempts,
                    true,
                    rec.wall_ms,
                );
                outcomes[idx] = Some(ShardOutcome {
                    name: shard.name.clone(),
                    class: rec.class,
                    attempts: 0,
                    resumed: true,
                    wall_ms: rec.wall_ms,
                    result: Some(result),
                });
                continue;
            }
            // A checksummed payload that no longer deserializes: re-execute.
            obs::counter!("supervisor.journal_corrupt_payloads").inc();
        }
        let poisoned_before = prior.is_some_and(|rec| rec.class == OutcomeClass::Poisoned);
        if poisoned_before
            || crash_counts.get(&shard.name).copied().unwrap_or(0) >= cfg.poison_threshold
        {
            obs::counter!("supervisor.shards_poisoned").inc();
            if obs::trace::enabled() {
                obs::trace::event(
                    "supervisor.shard_poisoned",
                    &[("shard", obs::trace::Value::Str(&shard.name))],
                );
            }
            eprintln!(
                "supervisor: {}: shard {} was in flight at {}+ process deaths; poisoned (crash-loop guard)",
                cfg.campaign, shard.name, cfg.poison_threshold
            );
            let class = OutcomeClass::Poisoned;
            ledger.outcome(&cfg.campaign, &shard.name, class, 0, false, 0);
            if !poisoned_before {
                journal.append(done_record::<T>(&shard.name, class, 0, 0, None));
            }
            outcomes[idx] = Some(ShardOutcome {
                name: shard.name.clone(),
                class,
                attempts: 0,
                resumed: false,
                wall_ms: 0,
                result: None,
            });
            continue;
        }
        queue.push(idx);
    }

    run_attempts(cfg, &shards, queue, &mut ledger, |event| match event {
        AttemptEvent::Started(idx) => journal.append(JournalRecord::ShardStart {
            shard: shards[idx].name.clone(),
        }),
        AttemptEvent::Settled(s) => {
            let name = &shards[s.idx].name;
            journal.append(done_record(
                name,
                s.class,
                s.attempts,
                s.wall_ms,
                s.result.as_ref(),
            ));
            outcomes[s.idx] = Some(ShardOutcome {
                name: name.clone(),
                class: s.class,
                attempts: s.attempts,
                resumed: false,
                wall_ms: s.wall_ms,
                result: s.result,
            });
        }
    });

    finish(
        cfg,
        &mut journal,
        outcomes
            .into_iter()
            .map(|o| o.expect("every shard settles before the scheduler returns"))
            .collect(),
    )
}

/// The per-class tallies of one supervised run (summary line + counters).
#[derive(Default)]
struct ClassTally {
    completed: u64,
    retried: u64,
    timed_out: u64,
    panicked: u64,
    poisoned: u64,
    resumed: u64,
}

/// Close a run: append `RunComplete`, add the per-class counters, print
/// the summary line, and hand back the outcomes.
fn finish<T>(
    cfg: &SupervisorConfig,
    journal: &mut Journal,
    outcomes: Vec<ShardOutcome<T>>,
) -> SupervisedRun<T> {
    // A resumed shard is tallied under its journaled class too, so the
    // two success classes already count it.
    let mut tally = ClassTally::default();
    for o in &outcomes {
        tally.resumed += u64::from(o.resumed);
        match o.class {
            OutcomeClass::Completed => tally.completed += 1,
            OutcomeClass::Retried => tally.retried += 1,
            OutcomeClass::TimedOut => tally.timed_out += 1,
            OutcomeClass::Panicked => tally.panicked += 1,
            OutcomeClass::Poisoned => tally.poisoned += 1,
        }
    }
    journal.append(JournalRecord::RunComplete {
        succeeded: tally.completed + tally.retried,
    });

    // Per-class counters (obs-gated like every other hook).
    obs::counter!("supervisor.shards_completed").add(tally.completed);
    obs::counter!("supervisor.shards_retried").add(tally.retried);
    obs::counter!("supervisor.shards_timed_out").add(tally.timed_out);
    obs::counter!("supervisor.shards_panicked").add(tally.panicked);
    obs::counter!("supervisor.shards_resumed").add(tally.resumed);

    let total = outcomes.len() as u64;
    eprintln!(
        "supervisor: {}: {} shards | {} resumed, {} executed | completed {}, retried {}, timed_out {}, panicked {}, poisoned {} | journal write failures {}",
        cfg.campaign,
        total,
        tally.resumed,
        total - tally.resumed,
        tally.completed,
        tally.retried,
        tally.timed_out,
        tally.panicked,
        tally.poisoned,
        journal.write_failures,
    );

    SupervisedRun {
        campaign: cfg.campaign.clone(),
        outcomes,
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn start(shard: &str) -> JournalRecord {
        JournalRecord::ShardStart {
            shard: shard.to_string(),
        }
    }

    #[test]
    fn a_failed_append_is_followed_by_a_full_republish() {
        // A chaos seed that fails the third persist and only that one of
        // the first five.
        let chaos = (0..10_000)
            .map(Chaos::from_seed)
            .find(|c| {
                (1..=5)
                    .map(|n| c.fail_journal_write(n))
                    .eq([false, false, true, false, false])
            })
            .expect("some seed fails exactly the third persist");
        let dir =
            std::env::temp_dir().join(format!("eccparity_journal_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("j.journal.jsonl");
        let on_disk = || replay_journal(&path).0;

        // Persist 1 publishes the first record, persist 2 appends.
        let mut journal = Journal::start(Some(path.clone()), vec![start("header")], chaos);
        journal.append(start("a"));
        assert_eq!(on_disk(), journal.records);
        // Persist 3 fails: the record stays in memory only.
        journal.append(start("b"));
        assert_eq!(journal.write_failures, 1);
        assert_eq!(on_disk(), journal.records[..2]);
        // Persist 4 republishes every record, replacing the file.
        let mut old = std::fs::File::open(&path).unwrap();
        journal.append(start("c"));
        assert_eq!(on_disk(), journal.records);
        assert_eq!(on_disk().len(), 4);
        let mut old_text = String::new();
        old.read_to_string(&mut old_text).unwrap();
        assert_eq!(old_text.lines().count(), 2, "the republish is a new file");
        // Persist 5 appends again, to the same file.
        let mut current = std::fs::File::open(&path).unwrap();
        journal.append(start("d"));
        assert_eq!(on_disk(), journal.records);
        let mut text = String::new();
        current.read_to_string(&mut text).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert_eq!(journal.write_failures, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
