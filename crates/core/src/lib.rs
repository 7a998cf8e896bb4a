//! # ecc-parity — the paper's contribution
//!
//! *"ECC Parity: A Technique for Efficient Memory Error Resilience for
//! Multi-Channel Memory Systems"* (Jian & Kumar, SC 2014) observes that
//! memory channels fail independently, so error **correction** resources are
//! normally needed for only one channel at a time. Instead of storing every
//! channel's ECC correction bits, this crate stores one cross-channel
//! bitwise XOR of them — the **ECC parity** — and reconstructs a faulty
//! channel's correction bits on demand from the parity plus the (clean)
//! other channels. Detection bits stay inline per channel so every read is
//! still checked on the fly.
//!
//! Components:
//!
//! * [`layout`] — parity-group construction and physical placement: groups
//!   of N−1 lines from N−1 different channels (rotated RAID-5 style, Fig 3),
//!   parities packed into rows reserved at the top of every bank (Fig 4),
//!   and the cross-bank ECC-line layout used after migration (Fig 5).
//! * [`health`] — the bank-pair health table: per-pair error counters with
//!   threshold (default 4), page retirement for small faults, and the
//!   faulty-pair marking that triggers migration (§III-B/III-C).
//! * [`memory`] — a *functional* multi-channel memory: real bytes, real
//!   codes, real fault overlays. Implements the paper's read path (steps
//!   A1/B/C of Fig 6), write path (A2/D/E, parity update equation (1)),
//!   the scrubber, and migration of faulty bank pairs to stored ECC
//!   correction bits.
//! * [`events`] — a bounded RAS event log (detections, retirements,
//!   migrations, uncorrectables) like real machine-check telemetry.
//! * [`xorcache`] — the LLC XOR-cacheline compaction of §III-D: dirty
//!   lines' `ECC_old ⊕ ECC_new` accumulate in cachelines addressed by
//!   parity line, halving parity-update traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod health;
pub mod layout;
pub mod memory;
pub mod xorcache;

pub use events::{CorrectionPath, EventLog, MemEvent};
pub use health::{HealthAction, HealthTable, PairId};
pub use layout::{GroupId, LineLoc, ParityLayout};
pub use memory::{MemError, ParityConfig, ParityMemory, ScrubReport};
pub use xorcache::XorCache;
