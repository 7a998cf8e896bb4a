//! `eccparity-service`: the long-lived fleet reliability daemon behind
//! the `eccparityd` binary.
//!
//! The batch pipeline in this repository answers "what *would* each ECC
//! scheme's reliability be" by Monte-Carlo simulation; this crate answers
//! the operational question that motivates ECC Parity deployment in the
//! first place: *given the corrected-error and fault events my fleet is
//! reporting right now, which nodes are at uncorrected-error risk, which
//! pages should be retired (HARP-style), and which memory regions should
//! be promoted to stored-ECC or pre-migrated* (paper §5's counter-mode
//! policy, run continuously instead of per-simulation).
//!
//! Layering, bottom-up:
//!
//! - [`rpc`] — the `eccparity-rpc-v1` wire protocol: newline-delimited
//!   JSON requests (events + queries) and response rendering, with a
//!   byte-scanner fast path for compact event lines.
//! - [`state`] — per-shard state: a [`ecc_parity::health::HealthTable`]
//!   per node plus page CE ledgers, risk scoring, per-region scheme
//!   recommendation, and serde snapshot types.
//! - [`queue`] — bounded, generation-aware shard mailboxes: blocking
//!   backpressure or oldest-batch shedding under overload, with every
//!   shed line returned for accounting.
//! - [`chaos`] — deterministic fault injection against the daemon's own
//!   machinery (batch panics, stalls, worker poisoning), armed by
//!   `ECC_PARITY_SERVICE_CHAOS`.
//! - [`engine`] — actor-per-shard execution (`node % shards` routing,
//!   bounded mailboxes, deterministic merged queries), degraded-shard
//!   quarantine/respawn, timer-driven self-checkpointing, and the
//!   `eccparity-journal-v1` checkpoint/resume discipline.
//! - [`push`] — the `eccparity-push-v1` posture-transition channel: a
//!   fan-out hub from shard workers to `subscribe`d operator
//!   connections, with per-subscriber bounded queues and counted
//!   shedding (`service.push.shed`).
//! - [`server`] — the socket front-end (Unix-domain or TCP): its limits,
//!   chunk-boundary-safe line reassembly, and the per-line state machine
//!   that enforces read-your-writes barriers before queries, bounded
//!   line reads, connection admission caps, and idle timeouts.
//! - [`evented`] — the nonblocking readiness loops every connection is
//!   multiplexed over: per-connection read reassembly and write outboxes
//!   with watermark backpressure and interest re-arming over the vendored
//!   `mio`-style poller, and a shutdown that processes every byte
//!   clients sent before it.
//!
//! Determinism is load-bearing: the same event stream produces
//! byte-identical query responses regardless of shard count, thread
//! schedule, or an intervening SIGKILL+restart from a checkpoint. The
//! daemon-lifecycle integration tests and the CI `daemon-smoke` job both
//! `cmp` response transcripts to enforce this.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod engine;
pub mod evented;
pub mod push;
pub mod queue;
pub mod rpc;
pub mod server;
pub mod state;
