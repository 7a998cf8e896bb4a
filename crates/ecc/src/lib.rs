//! # ecc-codes — functional memory ECC implementations
//!
//! This crate implements, bit-for-bit, the memory error-correction codes that
//! the ECC Parity paper (Jian & Kumar, SC 2014) evaluates or builds upon:
//!
//! * [`chipkill36`] — the 36-device commercial chipkill-correct code: a
//!   four-check-symbol Reed–Solomon code per word striped over 36 x4 DRAM
//!   devices (SSC-DSD: single-symbol correct, double-symbol detect).
//! * [`chipkill18`] — the 18-device commercial chipkill-correct code with two
//!   check symbols per word (SSC with reduced detection guarantees).
//! * [`chipkill_double`] — double chipkill correct (two device failures per
//!   rank), demonstrating the "double chipkill" generality the paper claims.
//! * [`lotecc`] — LOT-ECC in its nine-chip (`LOT-ECC9`) and five-chip
//!   (`LOT-ECC5`) per-rank implementations: tiered intra-chip checksums for
//!   detection/localization plus inter-chip parity for erasure correction.
//! * [`multiecc`] — Multi-ECC: per-line detection in a dedicated ECC device
//!   plus a shared multi-line correction code.
//! * [`raim`] — IBM-style RAIM DIMM-kill correct: data striped over four
//!   DIMMs plus one XOR parity DIMM, with intra-DIMM Reed–Solomon detection.
//!
//! All codes implement the [`traits::MemoryEcc`] interface, and every code
//! exposes its **detection bits / correction bits split** through
//! [`traits::CorrectionSplit`]; that split is precisely what the ECC Parity
//! optimization operates on (it stores only the XOR of the *correction* bits
//! of different channels).
//!
//! The underlying machinery — [`gf`] (GF(2^8) and GF(2^16) arithmetic:
//! the flat multiplication table and per-multiplier `MulCtx` rows), [`rs`]
//! (a systematic Reed–Solomon encoder and errors-and-erasures decoder with
//! slice-by-4 syndromes) and [`linear`] (the table-driven encoder every
//! Reed–Solomon codec computes its check symbols with) — is general and
//! independently tested. [`gfsimd`] only reports the host CPU's vector
//! tier; no codec dispatches on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buslayout;
pub mod checksum;
pub mod chipkill18;
pub mod chipkill36;
pub mod chipkill_double;
pub mod gf;
pub mod gfsimd;
pub mod linear;
pub mod lotecc;
pub mod multiecc;
pub mod overhead;
pub mod raim;
pub mod rs;
pub mod traits;

pub use buslayout::{BusLayout, WireSlot};
pub use chipkill18::Chipkill18;
pub use chipkill36::Chipkill36;
pub use chipkill_double::ChipkillDouble;
pub use lotecc::{LotEcc, LotEcc5Rs, LotEccVariant};
pub use multiecc::MultiEcc;
pub use overhead::{CapacityBreakdown, OverheadModel};
pub use raim::Raim;
pub use traits::{Codeword, CorrectOutcome, CorrectionSplit, DetectOutcome, EccError, MemoryEcc};
