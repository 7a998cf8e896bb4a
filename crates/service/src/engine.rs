//! The sharded ingest/query engine behind `eccparityd`.
//!
//! Actor-per-shard: [`Engine::start`] spawns one worker thread per shard,
//! each exclusively owning a [`ShardState`] partition (`node % shards`).
//! Connections route raw event lines to shards through bounded
//! [`ShardQueue`] mailboxes (backpressure — or, under
//! [`OverloadPolicy::Shed`], oldest-batch shedding with every dropped
//! line counted); queries fan out to every shard and merge
//! deterministically, so responses are byte-identical regardless of
//! shard count or thread schedule.
//!
//! **Degraded-shard mode.** A monitor thread watches every worker: a
//! worker that panics outside its per-batch guard, or stays busy past
//! the watchdog deadline, is *quarantined* — its mailbox generation is
//! bumped (so a hung-but-alive worker can never race its replacement)
//! and, after an exponential backoff, a replacement worker is respawned
//! from the shard's partition of the last checkpoint. Queued messages
//! survive quarantine and are applied by the replacement. While any
//! shard is quarantined the engine answers queries from that shard's
//! last-checkpoint partition instead of blocking, and stamps every
//! response envelope `"degraded":true`. Events the dead worker applied
//! after the last checkpoint are lost and counted
//! (`service.shed.quarantine_events`).
//!
//! **Timer checkpoints.** With [`EngineConfig::checkpoint_interval_ms`]
//! set (and a state dir), a maintenance thread self-checkpoints on that
//! cadence, with bounded retry/backoff when the persist fails — an
//! operator never has to remember to checkpoint.
//!
//! Persistence reuses the `eccparity-journal-v1` checkpoint discipline
//! from [`eccparity_bench::supervisor`]: a checkpoint serializes every
//! shard's partition into `ShardDone` records behind a `Header`, publishes
//! the whole journal tmp+fsync+rename (readers never see a torn file),
//! and [`Engine::start`] with [`EngineConfig::resume`] replays it —
//! checksum-verified, torn-tail-tolerant — so a SIGKILL'd daemon restarts
//! to exactly the state of its last checkpoint.

use crate::chaos::ServiceChaos;
use crate::push::PushHub;
use crate::queue::{OverloadPolicy, Popped, Pushed, ShardQueue};
use crate::rpc::{self, Query};
use crate::state::{
    merge_top_pages, Geometry, NodeSnapshot, NodeView, PageRisk, RegionRec, ShardAgg,
    ShardSnapshot, ShardState,
};
use eccparity_bench::hash::fnv1a64;
use eccparity_bench::supervisor::{replay_journal, JournalRecord, JOURNAL_SCHEMA};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Router flushes a per-shard buffer once it holds this many bytes.
const BATCH_BYTES: usize = 64 * 1024;

/// Longest the query plane waits on shard replies before substituting
/// last-checkpoint fallbacks (pathological-hang escape hatch; quarantine
/// + respawn normally answers far sooner).
const GATHER_DEADLINE: Duration = Duration::from_secs(10);

/// Monitor thread tick.
const MONITOR_TICK: Duration = Duration::from_millis(25);

/// Cap on the quarantine respawn backoff.
const MAX_BACKOFF_MS: u64 = 5_000;

/// Timer-checkpoint persist attempts per cadence before giving up until
/// the next interval.
const CHECKPOINT_ATTEMPTS: u32 = 3;

/// Configuration of one engine instance.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Shard (worker thread) count, ≥ 1.
    pub shards: usize,
    /// Per-node health-table geometry.
    pub geom: Geometry,
    /// Checkpoint directory; `None` disables persistence.
    pub state_dir: Option<PathBuf>,
    /// Instance name: journal file stem and metrics title.
    pub name: String,
    /// Load the existing checkpoint journal on start.
    pub resume: bool,
    /// Batches a shard mailbox holds before the overload policy applies.
    pub queue_depth: usize,
    /// What to do when a shard mailbox is full: block the pusher
    /// (lossless backpressure, the default) or shed the oldest batch.
    pub overload: OverloadPolicy,
    /// Quarantine a worker busy on one message longer than this
    /// (milliseconds; 0 disables the watchdog).
    pub watchdog_ms: u64,
    /// Self-checkpoint cadence in milliseconds (0 disables; needs a
    /// state dir).
    pub checkpoint_interval_ms: u64,
    /// Base respawn backoff after a quarantine; doubles per consecutive
    /// failure, capped at 5 s.
    pub quarantine_backoff_ms: u64,
    /// Retries for a batch whose application panicked before consuming
    /// any line (injected chaos panics always qualify).
    pub batch_retries: u32,
    /// Lines one `subscribe`d connection may have queued before further
    /// pushes to it are shed (counted in `service.push.shed`).
    pub push_queue: usize,
    /// Deterministic fault injection for this engine's own machinery.
    pub chaos: ServiceChaos,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            geom: Geometry::default(),
            state_dir: None,
            name: "eccparityd".to_string(),
            resume: false,
            queue_depth: 256,
            overload: OverloadPolicy::Block,
            watchdog_ms: 5_000,
            checkpoint_interval_ms: 0,
            quarantine_backoff_ms: 50,
            batch_retries: 2,
            push_queue: crate::push::DEFAULT_PUSH_QUEUE,
            chaos: ServiceChaos::off(),
        }
    }
}

impl EngineConfig {
    /// Path of this instance's checkpoint journal, if persistence is on.
    pub fn journal_path(&self) -> Option<PathBuf> {
        let dir = self.state_dir.as_ref()?;
        let stem: String = self
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        Some(dir.join(format!("{stem}.journal.jsonl")))
    }
}

/// Messages a shard worker consumes from its mailbox. Public because
/// [`crate::queue::ShardQueue`] stores them; constructed only inside
/// this crate.
#[derive(Debug)]
pub enum ShardMsg {
    /// Newline-separated raw request lines owned by this shard.
    Batch(Vec<u8>),
    /// Reply with the shard id once everything enqueued earlier has been
    /// applied.
    Barrier(Sender<u64>),
    /// Reply with this shard's additive aggregate.
    Agg(Sender<(u64, ShardAgg)>),
    /// Reply with one node's view (single-shard query).
    NodeView(u64, Sender<Option<NodeView>>),
    /// Reply with this shard's top-k pages.
    TopPages(usize, Sender<(u64, Vec<PageRisk>)>),
    /// Reply with one node's recommendations (single-shard query).
    Recommend(u64, Sender<Option<Vec<RegionRec>>>),
    /// Reply with this shard's serialized partition.
    Snapshot(Sender<(u64, ShardSnapshot)>),
}

/// What a checkpoint wrote.
#[derive(Debug, Clone)]
pub struct CheckpointInfo {
    /// Journal file published.
    pub path: PathBuf,
    /// Shards serialized.
    pub shards: u64,
    /// Nodes serialized across all shards.
    pub nodes: u64,
}

/// Reasons the front-end rejected input before it reached a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectKind {
    /// Line failed to parse at the connection reader.
    Parse,
    /// Line exceeded the configured size cap.
    Oversized,
    /// Connection refused by the admission cap.
    ConnLimit,
}

const STATUS_HEALTHY: u8 = 0;
const STATUS_QUARANTINED: u8 = 1;

/// One shard's slot: mailbox plus worker-health bookkeeping.
struct ShardSlot {
    queue: Arc<ShardQueue>,
    /// `STATUS_HEALTHY` or `STATUS_QUARANTINED`.
    status: AtomicU8,
    /// Engine-relative ms when the worker started its current message;
    /// 0 = idle. The watchdog quarantines on a stale non-zero value.
    busy_since_ms: AtomicU64,
    /// Set by a worker whose run loop panicked (escaped the per-batch
    /// guard); the monitor turns it into a quarantine.
    worker_died: AtomicBool,
    /// Monotonic per-shard batch numbering (continues across respawns,
    /// which is what makes one-shot chaos poisons one-shot).
    batches_seen: AtomicU64,
    /// Events applied since the last checkpoint — the amount lost if the
    /// worker dies now.
    applied_since_ckpt: AtomicU64,
    /// Consecutive quarantines (drives the exponential backoff).
    failures: AtomicU64,
    quarantined_at_ms: AtomicU64,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ShardSlot {
    fn healthy(&self) -> bool {
        self.status.load(Ordering::SeqCst) == STATUS_HEALTHY
    }
}

struct EngineInner {
    cfg: EngineConfig,
    slots: Vec<ShardSlot>,
    epoch: Instant,
    stop: AtomicBool,
    /// Serializes concurrent checkpoint() callers (timer vs query).
    ckpt_lock: Mutex<()>,
    /// Every node snapshot of the last successful checkpoint (or resume
    /// load) — the state a quarantined shard falls back to and respawns
    /// from.
    last_checkpoint: Mutex<Vec<NodeSnapshot>>,
    // Front-end reject accounting.
    reader_parse_rejects: AtomicU64,
    oversized_rejects: AtomicU64,
    conn_limit_rejects: AtomicU64,
    idle_closed: AtomicU64,
    // Overload/loss accounting.
    shed_batches: AtomicU64,
    shed_lines: AtomicU64,
    panic_lost_lines: AtomicU64,
    quarantine_lost_events: AtomicU64,
    // Degradation accounting.
    batch_panics: AtomicU64,
    quarantines: AtomicU64,
    restarts: AtomicU64,
    // Checkpoint accounting.
    checkpoints: AtomicU64,
    auto_checkpoints: AtomicU64,
    checkpoint_failures: AtomicU64,
    resumed_nodes: u64,
    /// Posture-transition fan-out to `subscribe`d connections.
    push: PushHub,
}

/// The running engine: shard workers, monitor/timer maintenance threads,
/// and the routing/query front-end.
pub struct Engine {
    inner: Arc<EngineInner>,
    maint: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// `(Threads, VmRSS-in-kB)` of this process from `/proc/self/status`,
/// `(0, 0)` where procfs is unavailable. Surfaced by the `stats` query so
/// the evented front-end's thread economy is observable (CI gates the
/// idle-fleet run on `os_threads`); like every `stats` field it is
/// process-local and excluded from determinism transcripts.
fn proc_thread_and_rss() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let mut threads = 0;
    let mut rss = 0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("Threads:") {
            threads = rest.trim().parse().unwrap_or(0);
        } else if let Some(rest) = line.strip_prefix("VmRSS:") {
            rss = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
        }
    }
    (threads, rss)
}

fn count_lines(bytes: &[u8]) -> u64 {
    bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count() as u64
}

fn backoff_ms(base: u64, failures: u64) -> u64 {
    base.max(1)
        .saturating_mul(1u64 << failures.saturating_sub(1).min(10))
        .min(MAX_BACKOFF_MS)
}

impl EngineInner {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn degraded(&self) -> bool {
        self.slots.iter().any(|s| !s.healthy())
    }

    fn degraded_shards(&self) -> u64 {
        self.slots.iter().filter(|s| !s.healthy()).count() as u64
    }

    /// A quarantined shard's stand-in state: its partition of the last
    /// checkpoint (exactly what its replacement worker will restore).
    fn fallback_state(&self, shard: usize) -> ShardState {
        let nodes = self.checkpoint_partition(shard);
        ShardState::restore(self.cfg.geom, nodes)
    }

    fn checkpoint_partition(&self, shard: usize) -> Vec<NodeSnapshot> {
        self.last_checkpoint
            .lock()
            .expect("last-checkpoint lock")
            .iter()
            .filter(|n| (n.node % self.cfg.shards as u64) as usize == shard)
            .cloned()
            .collect()
    }

    /// Fan a control message out to every *healthy* shard, substituting
    /// last-checkpoint fallbacks for quarantined shards (and, as a
    /// pathology escape hatch, for shards that miss the deadline).
    /// Results come back sorted by shard — deterministic merge order.
    fn gather<R>(
        &self,
        mk: impl Fn(Sender<(u64, R)>) -> ShardMsg,
        fallback: impl Fn(&ShardState, u64) -> R,
    ) -> Vec<(u64, R)> {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut out: Vec<(u64, R)> = Vec::with_capacity(self.cfg.shards);
        let mut expected = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.healthy() {
                slot.queue.push_ctl(mk(tx.clone()));
                expected += 1;
            } else {
                out.push((i as u64, fallback(&self.fallback_state(i), i as u64)));
            }
        }
        drop(tx);
        let deadline = Instant::now() + GATHER_DEADLINE;
        while expected > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left.max(Duration::from_millis(1))) {
                Ok(pair) => {
                    out.push(pair);
                    expected -= 1;
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        obs::counter!("service.gather_timeouts").inc();
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for i in 0..self.cfg.shards {
            if !out.iter().any(|(s, _)| *s == i as u64) {
                out.push((i as u64, fallback(&self.fallback_state(i), i as u64)));
            }
        }
        out.sort_by_key(|(s, _)| *s);
        out
    }

    /// Wait until every healthy shard has drained everything enqueued
    /// before the call (the read-your-writes barrier). Quarantined
    /// shards are skipped — their answers come from the last checkpoint
    /// anyway.
    fn barrier(&self) {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut expected = 0usize;
        for slot in &self.slots {
            if slot.healthy() {
                slot.queue.push_ctl(ShardMsg::Barrier(tx.clone()));
                expected += 1;
            }
        }
        drop(tx);
        let deadline = Instant::now() + GATHER_DEADLINE;
        while expected > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left.max(Duration::from_millis(1))) {
                Ok(_) => expected -= 1,
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        obs::counter!("service.barrier_timeouts").inc();
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    fn merged_agg(&self) -> ShardAgg {
        let mut total = ShardAgg::default();
        for (_, a) in self.gather(ShardMsg::Agg, |st, _| st.agg()) {
            total.merge(&a);
        }
        total
    }

    fn node_view_of(&self, node: u64) -> Option<NodeView> {
        let shard = (node % self.cfg.shards as u64) as usize;
        if self.slots[shard].healthy() {
            let (tx, rx) = std::sync::mpsc::channel();
            self.slots[shard]
                .queue
                .push_ctl(ShardMsg::NodeView(node, tx));
            if let Ok(v) = rx.recv_timeout(GATHER_DEADLINE) {
                return v;
            }
            obs::counter!("service.gather_timeouts").inc();
        }
        self.fallback_state(shard).node_view(node)
    }

    fn recommend_of(&self, node: u64) -> Option<Vec<RegionRec>> {
        let shard = (node % self.cfg.shards as u64) as usize;
        if self.slots[shard].healthy() {
            let (tx, rx) = std::sync::mpsc::channel();
            self.slots[shard]
                .queue
                .push_ctl(ShardMsg::Recommend(node, tx));
            if let Ok(v) = rx.recv_timeout(GATHER_DEADLINE) {
                return v;
            }
            obs::counter!("service.gather_timeouts").inc();
        }
        self.fallback_state(shard).recommend(node)
    }

    /// Quarantine `shard`: bump its mailbox generation (stale-proofing
    /// any still-running worker), account the events lost since the last
    /// checkpoint, and schedule a respawn after backoff.
    fn quarantine(&self, shard: usize, reason: &str) {
        let slot = &self.slots[shard];
        slot.queue.bump_generation();
        slot.status.store(STATUS_QUARANTINED, Ordering::SeqCst);
        slot.busy_since_ms.store(0, Ordering::SeqCst);
        slot.quarantined_at_ms
            .store(self.now_ms().max(1), Ordering::SeqCst);
        let failures = slot.failures.fetch_add(1, Ordering::SeqCst) + 1;
        let lost = slot.applied_since_ckpt.swap(0, Ordering::SeqCst);
        self.quarantine_lost_events
            .fetch_add(lost, Ordering::Relaxed);
        self.quarantines.fetch_add(1, Ordering::Relaxed);
        obs::counter!("service.shard.quarantines").inc();
        if lost > 0 {
            obs::counter!("service.shed.quarantine_events").add(lost);
        }
        // A dead worker's thread has finished and can be reaped; a hung
        // one cannot be joined — drop the handle and let the generation
        // bump retire it whenever it wakes.
        if let Some(h) = slot.handle.lock().expect("slot handle lock").take() {
            if h.is_finished() {
                let _ = h.join();
            }
        }
        eprintln!(
            "eccparityd: shard {shard} quarantined ({reason}); {lost} events since last \
             checkpoint lost, respawn in {} ms",
            backoff_ms(self.cfg.quarantine_backoff_ms, failures)
        );
        if obs::trace::enabled() {
            obs::trace::event(
                "service.quarantine",
                &[
                    ("shard", obs::trace::Value::U64(shard as u64)),
                    ("reason", obs::trace::Value::Str(reason)),
                    ("lost_events", obs::trace::Value::U64(lost)),
                ],
            );
        }
    }

    /// Checkpoint every shard's partition to the journal. Runs a barrier
    /// first, so everything enqueued by the calling connection is
    /// captured. Quarantined shards contribute their last-checkpoint
    /// partition (fresh state for them no longer exists).
    fn checkpoint(&self) -> std::io::Result<CheckpointInfo> {
        let path = self.cfg.journal_path().ok_or_else(|| {
            std::io::Error::other("no state dir configured (--state-dir / ECC_PARITY_SERVICE_DIR)")
        })?;
        let _serialize = self.ckpt_lock.lock().expect("checkpoint lock");
        let t0 = obs::metrics::enabled().then(Instant::now);
        self.barrier();
        let snaps: Vec<ShardSnapshot> = self
            .gather(ShardMsg::Snapshot, |st, shard| st.snapshot(shard))
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let nodes: u64 = snaps.iter().map(|s| s.nodes.len() as u64).sum();
        let mut records = Vec::with_capacity(snaps.len() + 2);
        records.push(JournalRecord::Header {
            schema: JOURNAL_SCHEMA.to_string(),
            campaign: self.cfg.name.clone(),
            config_key: self.cfg.geom.config_key(),
            total_shards: snaps.len() as u64,
        });
        for snap in &snaps {
            let payload = snap.encode();
            records.push(JournalRecord::ShardDone {
                shard: format!("shard-{}", snap.shard),
                class: "completed".to_string(),
                attempts: 1,
                wall_ms: 0,
                checksum: fnv1a64(payload.as_bytes()),
                payload,
                token: 0,
            });
        }
        records.push(JournalRecord::RunComplete {
            succeeded: snaps.len() as u64,
        });
        publish_journal(&path, &records)?;
        if let Some(t0) = t0 {
            obs::histogram!("service.checkpoint.publish_ns")
                .observe(t0.elapsed().as_nanos() as u64);
        }
        // Only after a durable publish does this become the state
        // quarantined shards fall back to / respawn from.
        *self.last_checkpoint.lock().expect("last-checkpoint lock") =
            snaps.into_iter().flat_map(|s| s.nodes).collect();
        for slot in &self.slots {
            if slot.healthy() {
                slot.applied_since_ckpt.store(0, Ordering::SeqCst);
            }
        }
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        obs::counter!("service.checkpoints").inc();
        if obs::trace::enabled() {
            obs::trace::event(
                "service.checkpoint",
                &[
                    (
                        "journal",
                        obs::trace::Value::Str(&path.display().to_string()),
                    ),
                    ("nodes", obs::trace::Value::U64(nodes)),
                ],
            );
        }
        obs::metrics::write_snapshot_if_configured(&self.cfg.name);
        Ok(CheckpointInfo {
            path,
            shards: self.cfg.shards as u64,
            nodes,
        })
    }
}

// ---- worker ----------------------------------------------------------------

/// Apply one batch with panic containment and convergent retry. Returns
/// `true` when the chaos layer wants the worker poisoned afterwards.
fn apply_batch(inner: &EngineInner, shard: usize, state: &mut ShardState, bytes: Vec<u8>) -> bool {
    let slot = &inner.slots[shard];
    let chaos = inner.cfg.chaos;
    let batch_no = slot.batches_seen.fetch_add(1, Ordering::SeqCst);
    if let Some(ms) = chaos.batch_stall_ms(shard as u64, batch_no) {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let total_lines = count_lines(&bytes);
    let batch_start_lines = state.lines_consumed();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let before_applied = state.applied;
        let before_rejected = state.rejected;
        let before_parse = state.rejected_parse;
        let before_geom = state.rejected_geometry;
        let before_lines = state.lines_consumed();
        let t0 = Instant::now();
        // The batch bytes live *outside* this guard, so a panicked
        // attempt retains them for retry. Injected chaos panics fire
        // before any line is consumed, which is what makes the retry
        // converge to the fault-free state.
        let res = catch_unwind(AssertUnwindSafe(|| {
            if chaos.batch_panic(shard as u64, batch_no, attempt) {
                panic!("injected batch panic (service chaos)");
            }
            for line in bytes.split(|&b| b == b'\n') {
                if !line.is_empty() {
                    state.apply_line(line);
                }
            }
        }));
        let applied = state.applied - before_applied;
        let rejected = state.rejected - before_rejected;
        if obs::metrics::enabled() {
            obs::counter!("service.events_ingested").add(applied);
            obs::counter!("service.events_rejected").add(rejected);
            obs::counter!("service.reject.parse").add(state.rejected_parse - before_parse);
            obs::counter!("service.reject.geometry").add(state.rejected_geometry - before_geom);
            obs::histogram!("service.ingest.batch_events").observe(applied);
            obs::histogram!("service.ingest.batch_ns").observe(t0.elapsed().as_nanos() as u64);
        }
        match res {
            Ok(()) => {
                slot.applied_since_ckpt.fetch_add(applied, Ordering::SeqCst);
                break;
            }
            Err(_) => {
                inner.batch_panics.fetch_add(1, Ordering::Relaxed);
                obs::counter!("service.shard_panics").inc();
                obs::counter!("service.shard.batch_panics").inc();
                let consumed_this_attempt = state.lines_consumed() - before_lines;
                if consumed_this_attempt == 0 && attempt <= inner.cfg.batch_retries {
                    // No line was consumed, so a retry cannot double-apply.
                    continue;
                }
                // Mid-line panic (or retries exhausted): abandoning the
                // batch is the only safe move — count every line that
                // never landed.
                let consumed = state.lines_consumed() - batch_start_lines;
                let lost = total_lines.saturating_sub(consumed);
                slot.applied_since_ckpt.fetch_add(applied, Ordering::SeqCst);
                inner.panic_lost_lines.fetch_add(lost, Ordering::Relaxed);
                if lost > 0 {
                    obs::counter!("service.shed.panic_lines").add(lost);
                }
                eprintln!(
                    "eccparityd: shard {shard} abandoned batch {batch_no} after panic \
                     (attempt {attempt}); {lost} lines lost"
                );
                break;
            }
        }
    }
    chaos.worker_poison(shard as u64, batch_no)
}

fn run_worker(inner: &EngineInner, shard: usize, my_gen: u64, nodes: Vec<NodeSnapshot>) {
    let mut state = ShardState::restore(inner.cfg.geom, nodes);
    let slot = &inner.slots[shard];
    loop {
        match slot.queue.pop(my_gen) {
            Popped::Stale | Popped::Closed => return,
            Popped::Msg(msg) => {
                slot.busy_since_ms
                    .store(inner.now_ms().max(1), Ordering::SeqCst);
                let poison = match msg {
                    ShardMsg::Batch(bytes) => {
                        let poison = apply_batch(inner, shard, &mut state, bytes);
                        let transitions = state.take_transitions();
                        if !transitions.is_empty() && inner.push.has_subscribers() {
                            for t in &transitions {
                                inner.push.publish(t);
                            }
                        }
                        poison
                    }
                    ShardMsg::Barrier(tx) => {
                        let _ = tx.send(shard as u64);
                        false
                    }
                    ShardMsg::Agg(tx) => {
                        let _ = tx.send((shard as u64, state.agg()));
                        false
                    }
                    ShardMsg::NodeView(node, tx) => {
                        let _ = tx.send(state.node_view(node));
                        false
                    }
                    ShardMsg::TopPages(k, tx) => {
                        let _ = tx.send((shard as u64, state.top_pages(k)));
                        false
                    }
                    ShardMsg::Recommend(node, tx) => {
                        let _ = tx.send(state.recommend(node));
                        false
                    }
                    ShardMsg::Snapshot(tx) => {
                        let _ = tx.send((shard as u64, state.snapshot(shard as u64)));
                        false
                    }
                };
                slot.busy_since_ms.store(0, Ordering::SeqCst);
                if poison {
                    panic!("injected worker poison (service chaos)");
                }
            }
        }
    }
}

fn spawn_worker(
    inner: &Arc<EngineInner>,
    shard: usize,
    my_gen: u64,
    nodes: Vec<NodeSnapshot>,
) -> std::thread::JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("shard-{shard}"))
        .spawn(move || {
            let worker_inner = Arc::clone(&inner);
            let died = catch_unwind(AssertUnwindSafe(move || {
                run_worker(&worker_inner, shard, my_gen, nodes)
            }))
            .is_err();
            if died {
                inner.slots[shard].worker_died.store(true, Ordering::SeqCst);
            }
        })
        .expect("spawn shard worker")
}

// ---- maintenance threads ---------------------------------------------------

fn run_monitor(inner: Arc<EngineInner>) {
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(MONITOR_TICK);
        let now = inner.now_ms();
        for (i, slot) in inner.slots.iter().enumerate() {
            match slot.status.load(Ordering::SeqCst) {
                STATUS_HEALTHY => {
                    let died = slot.worker_died.swap(false, Ordering::SeqCst);
                    let busy = slot.busy_since_ms.load(Ordering::SeqCst);
                    let hung = inner.cfg.watchdog_ms > 0
                        && busy > 0
                        && now.saturating_sub(busy) > inner.cfg.watchdog_ms;
                    if died {
                        inner.quarantine(i, "worker panicked");
                    } else if hung {
                        inner.quarantine(i, "watchdog deadline exceeded");
                    }
                }
                _ => {
                    let since = now.saturating_sub(slot.quarantined_at_ms.load(Ordering::SeqCst));
                    let failures = slot.failures.load(Ordering::SeqCst);
                    if since >= backoff_ms(inner.cfg.quarantine_backoff_ms, failures) {
                        let gen = slot.queue.generation();
                        let nodes = inner.checkpoint_partition(i);
                        let handle = spawn_worker(&inner, i, gen, nodes);
                        *slot.handle.lock().expect("slot handle lock") = Some(handle);
                        slot.worker_died.store(false, Ordering::SeqCst);
                        slot.status.store(STATUS_HEALTHY, Ordering::SeqCst);
                        inner.restarts.fetch_add(1, Ordering::Relaxed);
                        obs::counter!("service.shard.restarts").inc();
                        eprintln!(
                            "eccparityd: shard {i} respawned from last checkpoint \
                             (restart #{})",
                            inner.restarts.load(Ordering::Relaxed)
                        );
                    }
                }
            }
        }
    }
}

fn run_checkpoint_timer(inner: Arc<EngineInner>) {
    let interval = Duration::from_millis(inner.cfg.checkpoint_interval_ms);
    let mut last = Instant::now();
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(MONITOR_TICK);
        if last.elapsed() < interval {
            continue;
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match inner.checkpoint() {
                Ok(info) => {
                    inner.auto_checkpoints.fetch_add(1, Ordering::Relaxed);
                    obs::counter!("service.checkpoint.auto").inc();
                    if obs::trace::enabled() {
                        obs::trace::event(
                            "service.checkpoint_auto",
                            &[("nodes", obs::trace::Value::U64(info.nodes))],
                        );
                    }
                    break;
                }
                Err(e) => {
                    inner.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                    obs::counter!("service.checkpoint.failures").inc();
                    eprintln!(
                        "eccparityd: timer checkpoint failed (attempt {attempt}/{}): {e}",
                        CHECKPOINT_ATTEMPTS
                    );
                    if attempt >= CHECKPOINT_ATTEMPTS || inner.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Bounded backoff between persist retries.
                    std::thread::sleep(Duration::from_millis(50u64 << attempt.min(6)));
                }
            }
        }
        last = Instant::now();
    }
}

// ---- engine front-end ------------------------------------------------------

impl Engine {
    /// Spawn the shard workers and maintenance threads, loading the
    /// checkpoint journal first when `cfg.resume` is set and a valid
    /// journal exists.
    pub fn start(cfg: EngineConfig) -> Engine {
        assert!(cfg.shards >= 1, "need at least one shard");
        let mut resumed: Vec<NodeSnapshot> = Vec::new();
        // Set when resuming with metrics on: times journal read, decode
        // and restore for `service.resume.load_ms`.
        let mut resume_t0 = None;
        if cfg.resume {
            if let Some(path) = cfg.journal_path() {
                if path.exists() {
                    resume_t0 = obs::metrics::enabled().then(Instant::now);
                    resumed = load_checkpoint(&path, &cfg.name, &cfg.geom.config_key());
                    obs::counter!("service.resumes").inc();
                    if obs::trace::enabled() {
                        obs::trace::event(
                            "service.resume",
                            &[
                                (
                                    "journal",
                                    obs::trace::Value::Str(&path.display().to_string()),
                                ),
                                ("nodes", obs::trace::Value::U64(resumed.len() as u64)),
                            ],
                        );
                    }
                }
            }
        }
        let resumed_nodes = resumed.len() as u64;
        let slots: Vec<ShardSlot> = (0..cfg.shards)
            .map(|_| ShardSlot {
                queue: Arc::new(ShardQueue::new(cfg.queue_depth)),
                status: AtomicU8::new(STATUS_HEALTHY),
                busy_since_ms: AtomicU64::new(0),
                worker_died: AtomicBool::new(false),
                batches_seen: AtomicU64::new(0),
                applied_since_ckpt: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                quarantined_at_ms: AtomicU64::new(0),
                handle: Mutex::new(None),
            })
            .collect();
        let timer_enabled = cfg.checkpoint_interval_ms > 0 && cfg.state_dir.is_some();
        let push_queue = cfg.push_queue;
        let inner = Arc::new(EngineInner {
            cfg,
            slots,
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            ckpt_lock: Mutex::new(()),
            last_checkpoint: Mutex::new(resumed),
            reader_parse_rejects: AtomicU64::new(0),
            oversized_rejects: AtomicU64::new(0),
            conn_limit_rejects: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            shed_batches: AtomicU64::new(0),
            shed_lines: AtomicU64::new(0),
            panic_lost_lines: AtomicU64::new(0),
            quarantine_lost_events: AtomicU64::new(0),
            batch_panics: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            auto_checkpoints: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            resumed_nodes,
            push: PushHub::new(push_queue),
        });
        for i in 0..inner.cfg.shards {
            let nodes = inner.checkpoint_partition(i);
            let handle = spawn_worker(&inner, i, 0, nodes);
            *inner.slots[i].handle.lock().expect("slot handle lock") = Some(handle);
        }
        if let Some(t0) = resume_t0 {
            // A worker restores its partition before it takes its first
            // message, so the barrier returns once every restore is done.
            inner.barrier();
            obs::gauge!("service.resume.load_ms").set(t0.elapsed().as_millis() as u64);
        }
        let mut maint = Vec::new();
        {
            let inner = Arc::clone(&inner);
            maint.push(
                std::thread::Builder::new()
                    .name("shard-monitor".to_string())
                    .spawn(move || run_monitor(inner))
                    .expect("spawn monitor"),
            );
        }
        if timer_enabled {
            let inner = Arc::clone(&inner);
            maint.push(
                std::thread::Builder::new()
                    .name("ckpt-timer".to_string())
                    .spawn(move || run_checkpoint_timer(inner))
                    .expect("spawn checkpoint timer"),
            );
        }
        if obs::trace::enabled() {
            obs::trace::event(
                "service.start",
                &[
                    ("shards", obs::trace::Value::U64(inner.cfg.shards as u64)),
                    ("resumed_nodes", obs::trace::Value::U64(resumed_nodes)),
                ],
            );
        }
        Engine {
            inner,
            maint: Mutex::new(maint),
        }
    }

    /// This engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.cfg
    }

    /// Shard owning `node`.
    pub fn shard_of(&self, node: u64) -> usize {
        (node % self.inner.cfg.shards as u64) as usize
    }

    /// Is any shard currently quarantined? Responses produced while this
    /// holds carry `"degraded":true`.
    pub fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    /// Enqueue a raw batch for `shard`. Under [`OverloadPolicy::Block`]
    /// this blocks when the shard is `queue_depth` batches behind
    /// (backpressure to the socket); under [`OverloadPolicy::Shed`] the
    /// oldest queued batch is dropped instead, every line counted.
    pub fn send_batch(&self, shard: usize, bytes: Vec<u8>) {
        match self.inner.slots[shard]
            .queue
            .push_batch(bytes, self.inner.cfg.overload)
        {
            Pushed::Ok => {}
            Pushed::Shed { bytes } => {
                let lines = count_lines(&bytes);
                self.inner.shed_batches.fetch_add(1, Ordering::Relaxed);
                self.inner.shed_lines.fetch_add(lines, Ordering::Relaxed);
                obs::counter!("service.shed.batches").inc();
                obs::counter!("service.shed.lines").add(lines);
            }
            Pushed::Closed { bytes } => {
                // Engine shutting down; the server drains connections
                // first, so a straggler batch here is rare — but never
                // silent.
                let lines = count_lines(&bytes);
                self.inner.shed_batches.fetch_add(1, Ordering::Relaxed);
                self.inner.shed_lines.fetch_add(lines, Ordering::Relaxed);
                obs::counter!("service.shed.batches").inc();
                obs::counter!("service.shed.lines").add(lines);
            }
        }
    }

    /// Count a line the connection front-end rejected before routing.
    pub fn note_reject(&self, kind: RejectKind) {
        match kind {
            RejectKind::Parse => {
                self.inner
                    .reader_parse_rejects
                    .fetch_add(1, Ordering::Relaxed);
                obs::counter!("service.events_rejected").inc();
                obs::counter!("service.reject.parse").inc();
            }
            RejectKind::Oversized => {
                self.inner.oversized_rejects.fetch_add(1, Ordering::Relaxed);
                obs::counter!("service.events_rejected").inc();
                obs::counter!("service.reject.oversized").inc();
            }
            RejectKind::ConnLimit => {
                self.inner
                    .conn_limit_rejects
                    .fetch_add(1, Ordering::Relaxed);
                obs::counter!("service.reject.conn_limit").inc();
            }
        }
    }

    /// Count a connection closed by the idle timeout.
    pub fn note_idle_close(&self) {
        self.inner.idle_closed.fetch_add(1, Ordering::Relaxed);
        obs::counter!("service.conn.idle_closed").inc();
    }

    /// Wait until every healthy shard has drained everything enqueued
    /// before the call (the read-your-writes barrier queries rely on).
    pub fn barrier(&self) {
        self.inner.barrier();
    }

    /// Answer one query. The caller is responsible for flushing its
    /// router and calling [`Engine::barrier`] first. `Checkpoint`,
    /// `Shutdown`, and `Subscribe` are *not* answered here — the server
    /// owns their side effects — and render as errors if they reach this
    /// path.
    pub fn query(&self, q: &Query) -> String {
        let mut out = String::with_capacity(256);
        self.query_into(q, &mut out);
        out
    }

    /// [`Engine::query`], appending the response line (no newline) to a
    /// caller-owned buffer — the connection loops clear and reuse one
    /// buffer per connection instead of allocating a `String` per reply.
    pub fn query_into(&self, q: &Query, out: &mut String) {
        use std::fmt::Write as _;
        obs::counter!("service.queries").inc();
        let inner = &self.inner;
        let degraded = inner.degraded();
        match *q {
            Query::Ping => {
                rpc::ok_response_open(out, "ping", degraded);
                out.push_str("\"pong\"");
                rpc::ok_response_close(out);
            }
            Query::NodeRisk { node } => {
                rpc::ok_response_open(out, "node_risk", degraded);
                match inner.node_view_of(node) {
                    Some(v) => {
                        let _ = write!(
                            out,
                            "{{\"node\":{},\"known\":true,\"risk_ppm\":{},\"events\":{},\"faulty_pairs\":{},\"retired_pages\":{},\"active_counter_sum\":{}}}",
                            v.node, v.risk_ppm, v.events, v.faulty_pairs, v.retired_pages,
                            v.active_counter_sum
                        );
                    }
                    None => {
                        let _ = write!(
                            out,
                            "{{\"node\":{node},\"known\":false,\"risk_ppm\":0,\"events\":0,\"faulty_pairs\":0,\"retired_pages\":0,\"active_counter_sum\":0}}"
                        );
                    }
                }
                rpc::ok_response_close(out);
            }
            Query::Fleet => {
                let a = inner.merged_agg();
                rpc::ok_response_open(out, "fleet", degraded);
                let _ = write!(
                    out,
                    "{{\"nodes\":{},\"events\":{},\"faulty_pairs\":{},\"retired_pages\":{},\"active_counter_sum\":{},\"at_risk_nodes\":{},\"posture\":\"{}\"}}",
                    a.nodes,
                    a.events,
                    a.faulty_pairs,
                    a.retired_pages,
                    a.active_counter_sum,
                    a.at_risk_nodes,
                    a.posture()
                );
                rpc::ok_response_close(out);
            }
            Query::TopPages { k } => {
                let lists: Vec<Vec<PageRisk>> = inner
                    .gather(|tx| ShardMsg::TopPages(k, tx), |st, _| st.top_pages(k))
                    .into_iter()
                    .map(|(_, l)| l)
                    .collect();
                let top = merge_top_pages(lists, k);
                rpc::ok_response_open(out, "top_pages", degraded);
                let _ = write!(out, "{{\"k\":{k},\"pages\":[");
                for (i, p) in top.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"node\":{},\"channel\":{},\"bank\":{},\"row\":{},\"ce\":{},\"retired\":{}}}",
                        p.node, p.channel, p.bank, p.row, p.ce, p.retired
                    );
                }
                out.push_str("]}");
                rpc::ok_response_close(out);
            }
            Query::Recommend { node } => {
                rpc::ok_response_open(out, "recommend", degraded);
                match inner.recommend_of(node) {
                    Some(recs) => {
                        let _ = write!(
                            out,
                            "{{\"node\":{node},\"known\":true,\"threshold\":{},\"regions\":[",
                            inner.cfg.geom.threshold
                        );
                        for (i, r) in recs.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            let _ = write!(
                                out,
                                "{{\"channel\":{},\"action\":\"{}\"}}",
                                r.channel, r.action
                            );
                        }
                        out.push_str("]}");
                    }
                    None => {
                        let _ = write!(
                            out,
                            "{{\"node\":{node},\"known\":false,\"threshold\":{},\"regions\":[]}}",
                            inner.cfg.geom.threshold
                        );
                    }
                }
                rpc::ok_response_close(out);
            }
            Query::Stats => {
                let a = inner.merged_agg();
                let rejected_total = a.rejected
                    + inner.reader_parse_rejects.load(Ordering::Relaxed)
                    + inner.oversized_rejects.load(Ordering::Relaxed);
                let (os_threads, rss_kb) = proc_thread_and_rss();
                rpc::ok_response_open(out, "stats", degraded);
                let _ = write!(
                    out,
                    "{{\"shards\":{},\"nodes\":{},\"events_ingested\":{},\"events_rejected\":{},\"rejected_parse\":{},\"rejected_geometry\":{},\"rejected_oversized\":{},\"rejected_conn_limit\":{},\"shed_batches\":{},\"shed_lines\":{},\"panic_lost_lines\":{},\"quarantine_lost_events\":{},\"batch_panics\":{},\"quarantines\":{},\"shard_restarts\":{},\"degraded_shards\":{},\"idle_closed_conns\":{},\"checkpoints\":{},\"auto_checkpoints\":{},\"checkpoint_failures\":{},\"resumed_nodes\":{},\"push_subscribers\":{},\"push_shed\":{},\"os_threads\":{os_threads},\"rss_kb\":{rss_kb}}}",
                    inner.cfg.shards,
                    a.nodes,
                    a.applied,
                    rejected_total,
                    a.rejected_parse + inner.reader_parse_rejects.load(Ordering::Relaxed),
                    a.rejected_geometry,
                    inner.oversized_rejects.load(Ordering::Relaxed),
                    inner.conn_limit_rejects.load(Ordering::Relaxed),
                    inner.shed_batches.load(Ordering::Relaxed),
                    inner.shed_lines.load(Ordering::Relaxed),
                    inner.panic_lost_lines.load(Ordering::Relaxed),
                    inner.quarantine_lost_events.load(Ordering::Relaxed),
                    inner.batch_panics.load(Ordering::Relaxed),
                    inner.quarantines.load(Ordering::Relaxed),
                    inner.restarts.load(Ordering::Relaxed),
                    inner.degraded_shards(),
                    inner.idle_closed.load(Ordering::Relaxed),
                    inner.checkpoints.load(Ordering::Relaxed),
                    inner.auto_checkpoints.load(Ordering::Relaxed),
                    inner.checkpoint_failures.load(Ordering::Relaxed),
                    inner.resumed_nodes,
                    inner.push.subscriber_count(),
                    inner.push.shed_total(),
                );
                rpc::ok_response_close(out);
            }
            Query::Checkpoint | Query::Shutdown | Query::Subscribe => {
                rpc::error_response_into(
                    out,
                    "checkpoint/shutdown/subscribe must be handled by the server",
                );
            }
        }
    }

    /// The posture-transition fan-out hub (for the server front-ends).
    pub fn push_hub(&self) -> &PushHub {
        &self.inner.push
    }

    /// Checkpoint every shard's partition to the journal (see
    /// [`EngineInner`-level docs]: barrier first, quarantined shards
    /// contribute their last-checkpoint partition).
    pub fn checkpoint(&self) -> std::io::Result<CheckpointInfo> {
        self.inner.checkpoint()
    }

    /// Stop maintenance threads and shard workers, draining every queued
    /// message first (close-then-drain, so nothing accepted before
    /// shutdown is silently dropped).
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Maintenance first: no respawns may race the queue close.
        for h in self.maint.lock().expect("maint lock").drain(..) {
            let _ = h.join();
        }
        for slot in &self.inner.slots {
            slot.queue.close();
        }
        for slot in &self.inner.slots {
            if let Some(h) = slot.handle.lock().expect("slot handle lock").take() {
                let _ = h.join();
            }
        }
    }
}

/// Publish `records` to `path` atomically: one JSON line per record,
/// written to a pid-suffixed temp file, fsynced, renamed over the
/// journal — the same discipline as the campaign supervisor's journal.
fn publish_journal(path: &Path, records: &[JournalRecord]) -> std::io::Result<()> {
    use std::io::Write;
    let mut text = String::new();
    for rec in records {
        let line = serde_json::to_string(rec)
            .map_err(|e| std::io::Error::other(format!("serialize journal record: {e}")))?;
        text.push_str(&line);
        text.push('\n');
    }
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

/// Load a checkpoint journal: validate the header against this daemon's
/// identity, verify each shard payload's checksum, decode it against the
/// geometry `config_key` names ([`ShardSnapshot::decode`]), and return
/// every recovered node snapshot. A shard payload that fails its
/// checksum, fails to decode, or repeats a node an earlier payload
/// already holds is skipped and counted in
/// `service.journal_corrupt_payloads` (partial recovery beats none); a
/// mismatched header recovers nothing.
pub fn load_checkpoint(path: &Path, name: &str, config_key: &str) -> Vec<NodeSnapshot> {
    let (records, torn) = replay_journal(path);
    if torn {
        obs::counter!("service.journal_torn_tail").inc();
        eprintln!(
            "eccparityd: checkpoint journal {} had a torn/damaged tail; replaying the intact prefix",
            path.display()
        );
    }
    let header_ok = matches!(
        records.first(),
        Some(JournalRecord::Header { schema, campaign, config_key: ck, .. })
            if schema == JOURNAL_SCHEMA && campaign == name && ck == config_key
    );
    let Some(geom) = Geometry::from_config_key(config_key).filter(|_| header_ok) else {
        obs::counter!("service.journal_discarded").inc();
        eprintln!(
            "eccparityd: checkpoint journal {} does not match this instance (name/geometry); starting empty",
            path.display()
        );
        return Vec::new();
    };
    let mut nodes = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    for rec in &records {
        if let JournalRecord::ShardDone {
            shard,
            checksum,
            payload,
            ..
        } = rec
        {
            if *checksum != fnv1a64(payload.as_bytes()) {
                obs::counter!("service.journal_corrupt_payloads").inc();
                eprintln!("eccparityd: checkpoint shard {shard} failed its checksum; skipping");
                continue;
            }
            let refusal = match ShardSnapshot::decode(payload.as_bytes(), geom) {
                Ok(snap) => match snap.nodes.iter().find(|n| seen.contains(&n.node)) {
                    Some(dup) => format!("repeats node {} of an earlier shard", dup.node),
                    None => {
                        seen.extend(snap.nodes.iter().map(|n| n.node));
                        nodes.extend(snap.nodes);
                        continue;
                    }
                },
                Err(e) => format!("failed to decode ({e})"),
            };
            obs::counter!("service.journal_corrupt_payloads").inc();
            eprintln!("eccparityd: checkpoint shard {shard} {refusal}; skipping");
        }
    }
    nodes
}

// ---- router ----------------------------------------------------------------

/// Per-connection batcher: accumulates raw event lines per shard and
/// flushes them as bulk batches, amortizing channel traffic.
pub struct Router {
    bufs: Vec<Vec<u8>>,
}

impl Router {
    /// A router for `engine`'s shard count.
    pub fn new(engine: &Engine) -> Router {
        Router {
            bufs: (0..engine.config().shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Route one raw request line. Event lines go to their owning shard;
    /// anything unrecognized still goes to shard 0 so rejection is
    /// counted exactly once, in one place.
    pub fn push_line(&mut self, engine: &Engine, line: &[u8]) {
        let shard = match rpc::fast_route(line) {
            Some(node) => engine.shard_of(node),
            None => match rpc::parse_line(line) {
                Ok(rpc::Request::Event(ev)) => engine.shard_of(ev.node),
                _ => 0,
            },
        };
        self.push_routed(engine, shard, line);
    }

    /// Append a line the caller has already routed (the connection reader
    /// runs [`rpc::fast_route`] once and hands the shard in, so the hot
    /// path never scans a line twice).
    pub fn push_routed(&mut self, engine: &Engine, shard: usize, line: &[u8]) {
        let buf = &mut self.bufs[shard];
        buf.extend_from_slice(line);
        buf.push(b'\n');
        if buf.len() >= BATCH_BYTES {
            engine.send_batch(shard, std::mem::take(buf));
        }
    }

    /// Flush every non-empty per-shard buffer.
    pub fn flush(&mut self, engine: &Engine) {
        for (shard, buf) in self.bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                engine.send_batch(shard, std::mem::take(buf));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::Event;
    use serde_json::Value;

    fn line(node: u64, ch: u32, bank: u32, row: u32) -> String {
        rpc::render_event(&Event {
            node,
            channel: ch,
            bank,
            row,
            count: 1,
            bank_fault: false,
        })
    }

    fn drive(engine: &Engine, lines: &[String]) {
        let mut router = Router::new(engine);
        for l in lines {
            router.push_line(engine, l.as_bytes());
        }
        router.flush(engine);
        engine.barrier();
    }

    fn stats_field(engine: &Engine, field: &str) -> u64 {
        let v: Value = serde_json::from_str(&engine.query(&Query::Stats)).unwrap();
        v["result"][field]
            .as_u64()
            .unwrap_or_else(|| panic!("stats field {field} missing: {v:?}"))
    }

    #[test]
    fn queries_identical_across_shard_counts() {
        let lines: Vec<String> = (0..500)
            .map(|i| {
                line(
                    i % 37,
                    (i % 8) as u32,
                    (i % 16) as u32,
                    (i * 13 % 97) as u32,
                )
            })
            .collect();
        let mut golden: Option<Vec<String>> = None;
        for shards in [1usize, 2, 3, 8] {
            let engine = Engine::start(EngineConfig {
                shards,
                ..EngineConfig::default()
            });
            drive(&engine, &lines);
            let responses: Vec<String> = [
                Query::Fleet,
                Query::TopPages { k: 12 },
                Query::NodeRisk { node: 5 },
                Query::NodeRisk { node: 9999 },
                Query::Recommend { node: 5 },
            ]
            .iter()
            .map(|q| engine.query(q))
            .collect();
            engine.shutdown();
            match &golden {
                None => golden = Some(responses),
                Some(g) => assert_eq!(g, &responses, "shards={shards}"),
            }
        }
    }

    #[test]
    fn checkpoint_resume_round_trip_across_shard_counts() {
        let dir = std::env::temp_dir().join(format!("eccparityd-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<String> = (0..300)
            .map(|i| line(i % 23, (i % 8) as u32, (i % 16) as u32, (i % 41) as u32))
            .collect();
        let cfg = EngineConfig {
            shards: 3,
            state_dir: Some(dir.clone()),
            name: "ckpt-test".to_string(),
            ..EngineConfig::default()
        };
        let engine = Engine::start(cfg.clone());
        drive(&engine, &lines);
        let queries = [
            Query::Fleet,
            Query::TopPages { k: 20 },
            Query::NodeRisk { node: 7 },
            Query::Recommend { node: 7 },
        ];
        let golden: Vec<String> = queries.iter().map(|q| engine.query(q)).collect();
        let info = engine.checkpoint().unwrap();
        assert_eq!(info.shards, 3);
        assert!(info.nodes > 0);
        engine.shutdown();

        // Restart with a different shard count: resume repartitions.
        for shards in [1usize, 5] {
            let engine = Engine::start(EngineConfig {
                shards,
                resume: true,
                ..cfg.clone()
            });
            let resumed: Vec<String> = queries.iter().map(|q| engine.query(q)).collect();
            assert_eq!(golden, resumed, "resume with shards={shards}");
            engine.shutdown();
        }

        // A mismatched geometry refuses the journal.
        let engine = Engine::start(EngineConfig {
            shards: 2,
            resume: true,
            geom: Geometry {
                channels: 4,
                banks: 8,
                threshold: 2,
            },
            ..cfg.clone()
        });
        let fleet = engine.query(&Query::Fleet);
        assert!(fleet.contains("\"nodes\":0"), "{fleet}");
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_publish_and_resume_are_metered() {
        obs::metrics::set_enabled(true);
        let dir = std::env::temp_dir().join(format!("eccparityd-meters-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            shards: 2,
            state_dir: Some(dir.clone()),
            name: "meters".to_string(),
            ..EngineConfig::default()
        };
        let engine = Engine::start(cfg.clone());
        drive(&engine, &[line(3, 1, 2, 9)]);
        let publish = || {
            obs::histogram!("service.checkpoint.publish_ns")
                .snapshot()
                .count
        };
        let before = publish();
        engine.checkpoint().unwrap();
        assert!(
            publish() > before,
            "one observation per published checkpoint"
        );
        engine.shutdown();

        Engine::start(EngineConfig {
            resume: true,
            ..cfg
        })
        .shutdown();
        assert!(
            obs::metrics::snapshot()
                .iter()
                .any(|(name, _)| *name == "service.resume.load_ms"),
            "resume sets its load gauge"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_reject_with_attribution() {
        let engine = Engine::start(EngineConfig::default());
        let mut router = Router::new(&engine);
        router.push_line(&engine, b"garbage that is not json");
        router.push_line(
            &engine,
            b"{\"kind\":\"event\",\"node\":1,\"channel\":77,\"bank\":0,\"row\":0}",
        );
        router.push_line(&engine, line(1, 0, 0, 5).as_bytes());
        router.flush(&engine);
        engine.barrier();
        let stats = engine.query(&Query::Stats);
        assert!(stats.contains("\"events_ingested\":1"), "{stats}");
        assert!(stats.contains("\"events_rejected\":2"), "{stats}");
        assert_eq!(stats_field(&engine, "rejected_parse"), 1);
        assert_eq!(stats_field(&engine, "rejected_geometry"), 1);
        // Shards are still alive and answering, undegraded.
        let fleet = engine.query(&Query::Fleet);
        assert!(fleet.contains("\"events\":1"), "{fleet}");
        assert!(fleet.contains("\"degraded\":false"), "{fleet}");
        engine.shutdown();
    }

    #[test]
    fn injected_batch_panics_retry_and_converge() {
        let lines: Vec<String> = (0..400)
            .map(|i| line(i % 19, (i % 8) as u32, (i % 16) as u32, (i % 53) as u32))
            .collect();
        // Golden: no chaos.
        let engine = Engine::start(EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        });
        drive(&engine, &lines);
        let queries = [
            Query::Fleet,
            Query::TopPages { k: 15 },
            Query::NodeRisk { node: 3 },
        ];
        let golden: Vec<String> = queries.iter().map(|q| engine.query(q)).collect();
        engine.shutdown();
        // Chaos: panic roughly every other batch, first attempt only.
        let engine = Engine::start(EngineConfig {
            shards: 2,
            chaos: ServiceChaos::explicit(9, 2, 0),
            ..EngineConfig::default()
        });
        // Small batches so plenty of injection sites exist.
        let mut router = Router::new(&engine);
        for (i, l) in lines.iter().enumerate() {
            router.push_line(&engine, l.as_bytes());
            if i % 16 == 15 {
                router.flush(&engine);
            }
        }
        router.flush(&engine);
        engine.barrier();
        let chaosed: Vec<String> = queries.iter().map(|q| engine.query(q)).collect();
        assert_eq!(golden, chaosed, "first-attempt panics must converge");
        assert!(
            stats_field(&engine, "batch_panics") > 0,
            "chaos must actually inject"
        );
        assert_eq!(stats_field(&engine, "panic_lost_lines"), 0);
        assert_eq!(stats_field(&engine, "quarantines"), 0);
        engine.shutdown();
    }

    #[test]
    fn shed_policy_accounts_every_dropped_line() {
        let engine = Engine::start(EngineConfig {
            shards: 1,
            queue_depth: 1,
            overload: OverloadPolicy::Shed,
            // Stall every batch 1-20 ms so the pusher outruns the worker.
            chaos: ServiceChaos::explicit(5, 0, 1),
            ..EngineConfig::default()
        });
        let total = 60u64;
        for i in 0..total {
            let mut batch = line(0, (i % 8) as u32, (i % 16) as u32, i as u32).into_bytes();
            batch.push(b'\n');
            engine.send_batch(0, batch);
        }
        engine.barrier();
        let applied = stats_field(&engine, "events_ingested");
        let shed = stats_field(&engine, "shed_lines");
        assert_eq!(applied + shed, total, "every line applied or counted shed");
        assert!(shed > 0, "depth-1 queue with stalls must shed");
        assert_eq!(stats_field(&engine, "shed_batches"), shed, "1-line batches");
        engine.shutdown();
    }

    #[test]
    fn poisoned_worker_quarantines_restarts_and_stamps_degraded() {
        let dir = std::env::temp_dir().join(format!("eccparityd-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::start(EngineConfig {
            shards: 1,
            state_dir: Some(dir.clone()),
            name: "poison-test".to_string(),
            // Worker dies after applying its second batch (batch_no 1).
            chaos: ServiceChaos::off().with_poison_batch(1),
            quarantine_backoff_ms: 150,
            ..EngineConfig::default()
        });
        // Batch 0: two events, then checkpoint (retained as fallback).
        engine.send_batch(
            0,
            format!("{}\n{}\n", line(0, 0, 0, 1), line(0, 1, 1, 2)).into_bytes(),
        );
        engine.barrier();
        engine.checkpoint().unwrap();
        // Batch 1: applied, then the worker dies -> its post-checkpoint
        // work is lost and the shard is quarantined.
        engine.send_batch(0, format!("{}\n", line(0, 2, 2, 3)).into_bytes());
        // Wait for the monitor to notice the death.
        let mut saw_degraded = false;
        for _ in 0..100 {
            if engine.degraded() {
                saw_degraded = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(saw_degraded, "monitor must quarantine the dead worker");
        // A query during quarantine answers from the checkpoint, stamped.
        let fleet = engine.query(&Query::Fleet);
        assert!(fleet.contains("\"degraded\":true"), "{fleet}");
        assert!(fleet.contains("\"events\":2"), "checkpoint state: {fleet}");
        // Wait for the respawn, then verify the shard serves again.
        for _ in 0..200 {
            if !engine.degraded() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!engine.degraded(), "shard must respawn after backoff");
        engine.send_batch(0, format!("{}\n", line(0, 3, 3, 4)).into_bytes());
        engine.barrier();
        let fleet = engine.query(&Query::Fleet);
        assert!(fleet.contains("\"degraded\":false"), "{fleet}");
        assert!(
            fleet.contains("\"events\":3"),
            "2 checkpointed + 1 new; poisoned batch lost: {fleet}"
        );
        assert_eq!(stats_field(&engine, "quarantines"), 1);
        assert_eq!(stats_field(&engine, "shard_restarts"), 1);
        assert_eq!(
            stats_field(&engine, "quarantine_lost_events"),
            1,
            "the event applied after the checkpoint is accounted"
        );
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timer_checkpoints_fire_and_resume() {
        let dir = std::env::temp_dir().join(format!("eccparityd-timer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            shards: 2,
            state_dir: Some(dir.clone()),
            name: "timer-test".to_string(),
            checkpoint_interval_ms: 100,
            ..EngineConfig::default()
        };
        let engine = Engine::start(cfg.clone());
        drive(&engine, &[line(1, 0, 0, 9), line(2, 1, 1, 9)]);
        let mut fired = false;
        for _ in 0..200 {
            if stats_field(&engine, "auto_checkpoints") > 0 {
                fired = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(fired, "timer checkpoint must fire without an operator");
        let golden = engine.query(&Query::Fleet);
        engine.shutdown();
        // The published journal resumes cleanly.
        let engine = Engine::start(EngineConfig {
            resume: true,
            checkpoint_interval_ms: 0,
            ..cfg
        });
        assert_eq!(engine.query(&Query::Fleet), golden);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timer_checkpoint_failures_are_counted_not_fatal() {
        let dir = std::env::temp_dir().join(format!("eccparityd-badckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Make the journal path unwritable: a plain file where the state
        // *directory* should be.
        std::fs::write(&dir, b"not a directory").unwrap();
        let engine = Engine::start(EngineConfig {
            shards: 1,
            state_dir: Some(dir.clone()),
            name: "badckpt-test".to_string(),
            checkpoint_interval_ms: 80,
            ..EngineConfig::default()
        });
        drive(&engine, &[line(1, 0, 0, 3)]);
        let mut failures = 0;
        for _ in 0..200 {
            failures = stats_field(&engine, "checkpoint_failures");
            if failures > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(failures > 0, "persist failure must be counted");
        // The daemon keeps answering normally.
        let fleet = engine.query(&Query::Fleet);
        assert!(fleet.contains("\"events\":1"), "{fleet}");
        engine.shutdown();
        let _ = std::fs::remove_file(&dir);
    }
}
