//! The common interface implemented by every memory ECC in this crate.
//!
//! The central abstraction is the **detection / correction split**: every
//! code's redundancy decomposes into *detection bits*, which must stay inline
//! with the data so every read can be checked on the fly, and *correction
//! bits*, which are only consulted after an error is detected. ECC Parity
//! (the paper's contribution, in the `ecc-parity` crate) replaces the
//! per-channel storage of the correction bits with one cross-channel XOR.

/// Which region of a codeword a chip's bytes belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Application data bytes.
    Data,
    /// Detection bits (always stored inline with the data in the rank).
    Detection,
    /// Correction bits (stored inline by baselines; via parity by ECC Parity).
    Correction,
}

/// A contiguous byte range owned by one chip within one codeword region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipSpan {
    /// Which codeword region the span belongs to.
    pub region: Region,
    /// Byte offset within the region.
    pub start: usize,
    /// Number of bytes.
    pub len: usize,
}

/// One encoded memory line: data plus split redundancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Codeword {
    /// Application data bytes.
    pub data: Vec<u8>,
    /// Detection bits (stored inline with the data).
    pub detection: Vec<u8>,
    /// Correction bits (inline in baselines; via parity under ECC Parity).
    pub correction: Vec<u8>,
}

/// Result of an on-the-fly detection check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectOutcome {
    /// Data and detection bits are consistent.
    Clean,
    /// An inconsistency was found; correction is required.
    ErrorDetected,
}

/// Result of a successful correction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectOutcome {
    /// Number of data bytes whose value was repaired.
    pub repaired_bytes: usize,
}

/// Correction failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccError {
    /// The error pattern exceeds the code's correction capability.
    Uncorrectable,
    /// A buffer handed to the codec has the wrong length for this code
    /// (caller bug surfaced as a typed error instead of a panic).
    InputLength {
        /// Expected byte length.
        expected: usize,
        /// Actual byte length received.
        got: usize,
    },
}

impl std::fmt::Display for EccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EccError::Uncorrectable => write!(f, "uncorrectable memory error"),
            EccError::InputLength { expected, got } => {
                write!(
                    f,
                    "codec input length mismatch: expected {expected} bytes, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for EccError {}

/// A memory error-correction code operating on one cache-line-sized unit.
///
/// # Example
///
/// Encode a line, corrupt one chip, then detect and repair the damage:
///
/// ```
/// use ecc_codes::traits::inject_chip_error;
/// use ecc_codes::{Chipkill36, DetectOutcome, MemoryEcc};
///
/// let code = Chipkill36::new();
/// let line = vec![0xA5u8; code.data_bytes()];
/// let mut cw = code.encode(&line);
/// inject_chip_error(&code, &mut cw, 7, |b| *b ^= 0x0F);
/// assert_eq!(code.detect(&cw.data, &cw.detection), DetectOutcome::ErrorDetected);
/// let out = code
///     .correct(&mut cw.data, &cw.detection, &cw.correction, None)
///     .unwrap();
/// assert!(out.repaired_bytes > 0);
/// assert_eq!(cw.data, line);
/// ```
pub trait MemoryEcc: Send + Sync {
    /// Human-readable scheme name (matches the paper's terminology).
    fn name(&self) -> &'static str;

    /// Data bytes per protected line (64 or 128 in the paper's systems).
    fn data_bytes(&self) -> usize;

    /// Detection bits per line, in bytes. Always stored inline.
    fn detection_bytes(&self) -> usize;

    /// Correction bits per line, in bytes. This is the quantity ECC Parity
    /// compresses across channels; its ratio to [`Self::data_bytes`] is the
    /// paper's `R`.
    fn correction_bytes(&self) -> usize;

    /// Total DRAM devices per rank (data + redundancy).
    fn chips_per_rank(&self) -> usize;

    /// Byte-ownership map: `layout()[chip]` lists the spans chip `chip`
    /// stores. Chips owning no bytes of a region simply omit it. A span with
    /// `Region::Correction` is meaningful only when correction bits are
    /// stored inline (the baseline organization).
    fn chip_layout(&self) -> Vec<Vec<ChipSpan>>;

    /// Encode a data line into a full codeword.
    fn encode(&self, data: &[u8]) -> Codeword;

    /// Encode a batch of lines: `lines.iter().map(|l| self.encode(l))`.
    /// No scheme overrides it and no workspace code calls it; it stays
    /// only because the benchmark's timing wrapper
    /// (`benchmark/src/timed.rs`) overrides it.
    fn encode_lines(&self, lines: &[&[u8]]) -> Vec<Codeword> {
        lines.iter().map(|l| self.encode(l)).collect()
    }

    /// On-the-fly check of `data` against stored `detection` bits.
    fn detect(&self, data: &[u8], detection: &[u8]) -> DetectOutcome;

    /// Correct `data` in place using detection and correction bits.
    ///
    /// `erased_chip`: a chip index the caller already knows is faulty (e.g.
    /// from the bank-health table or DIMM marking); enables erasure decoding.
    fn correct(
        &self,
        data: &mut [u8],
        detection: &[u8],
        correction: &[u8],
        erased_chip: Option<usize>,
    ) -> Result<CorrectOutcome, EccError>;

    /// The paper's `R`: correction-bit size over data-line size.
    fn correction_ratio(&self) -> f64 {
        self.correction_bytes() as f64 / self.data_bytes() as f64
    }

    /// Static capacity overhead of the *baseline* organization (all
    /// redundancy stored inline): (detection + correction) / data.
    fn baseline_overhead(&self) -> f64 {
        (self.detection_bytes() + self.correction_bytes()) as f64 / self.data_bytes() as f64
    }
}

/// Extension trait for codes whose correction bits can be recomputed from
/// clean data alone — the property ECC Parity relies on: the correction bits
/// of healthy channels are derived on demand, never read from memory.
///
/// # Example
///
/// ```
/// use ecc_codes::{Chipkill36, CorrectionSplit, MemoryEcc};
///
/// let code = Chipkill36::new();
/// let line = vec![3u8; code.data_bytes()];
/// // Correction bits derived from clean data match the encoder's output.
/// assert_eq!(code.correction_of(&line), code.encode(&line).correction);
/// ```
pub trait CorrectionSplit: MemoryEcc {
    /// Compute only the correction bits for a clean data line.
    fn correction_of(&self, data: &[u8]) -> Vec<u8> {
        self.encode(data).correction
    }

    /// Compute only the detection bits for a clean data line.
    fn detection_of(&self, data: &[u8]) -> Vec<u8> {
        self.encode(data).detection
    }

    /// Correction bits of a batch of clean lines:
    /// `lines.iter().map(|l| self.correction_of(l))`. Kept, like
    /// [`MemoryEcc::encode_lines`], only because `benchmark/src/timed.rs`
    /// overrides it.
    fn correction_of_lines(&self, lines: &[&[u8]]) -> Vec<Vec<u8>> {
        lines.iter().map(|l| self.correction_of(l)).collect()
    }

    /// Detection bits of a batch of clean lines:
    /// `lines.iter().map(|l| self.detection_of(l))`. Kept, like
    /// [`MemoryEcc::encode_lines`], only because `benchmark/src/timed.rs`
    /// overrides it.
    fn detection_of_lines(&self, lines: &[&[u8]]) -> Vec<Vec<u8>> {
        lines.iter().map(|l| self.detection_of(l)).collect()
    }
}

impl MemoryEcc for Box<dyn CorrectionSplit> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn data_bytes(&self) -> usize {
        (**self).data_bytes()
    }
    fn detection_bytes(&self) -> usize {
        (**self).detection_bytes()
    }
    fn correction_bytes(&self) -> usize {
        (**self).correction_bytes()
    }
    fn chips_per_rank(&self) -> usize {
        (**self).chips_per_rank()
    }
    fn chip_layout(&self) -> Vec<Vec<ChipSpan>> {
        (**self).chip_layout()
    }
    fn encode(&self, data: &[u8]) -> Codeword {
        (**self).encode(data)
    }
    fn detect(&self, data: &[u8], detection: &[u8]) -> DetectOutcome {
        (**self).detect(data, detection)
    }
    fn correct(
        &self,
        data: &mut [u8],
        detection: &[u8],
        correction: &[u8],
        erased_chip: Option<usize>,
    ) -> Result<CorrectOutcome, EccError> {
        (**self).correct(data, detection, correction, erased_chip)
    }
}

/// Boxed codes delegate the split too, so `ParityMemory<Box<dyn
/// CorrectionSplit>>` works — the resilience soak harness drives every
/// scheme through one memory type this way.
impl CorrectionSplit for Box<dyn CorrectionSplit> {
    fn correction_of(&self, data: &[u8]) -> Vec<u8> {
        (**self).correction_of(data)
    }
    fn detection_of(&self, data: &[u8]) -> Vec<u8> {
        (**self).detection_of(data)
    }
}

/// Record a successful correction in the observability registry (`obs`
/// crate). Every codec calls this on its repair path; while
/// `ECC_PARITY_METRICS` is unset the call is one relaxed load and a branch.
///
/// Emits a global `ecc.corrections` counter, a per-scheme
/// `ecc.corrections.<name>` counter, and an `ecc.repaired_bytes` histogram
/// of the repair size in bytes.
pub fn record_correction(code: &'static str, repaired_bytes: usize) {
    if !obs::metrics::enabled() {
        return;
    }
    obs::counter!("ecc.corrections").inc();
    obs::histogram!("ecc.repaired_bytes").observe(repaired_bytes as u64);
    per_code_counter(code).inc();
}

/// Per-scheme counters are keyed by the scheme's `name()`; the composed
/// metric name is leaked once per scheme (a handful of schemes exist).
fn per_code_counter(code: &'static str) -> &'static obs::Counter {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<&'static str, &'static obs::Counter>>> = OnceLock::new();
    let mut map = CACHE.get_or_init(Default::default).lock().unwrap();
    map.entry(code).or_insert_with(|| {
        obs::metrics::counter(Box::leak(
            format!("ecc.corrections.{code}").into_boxed_str(),
        ))
    })
}

/// Helper: corrupt every byte a chip owns within a codeword. Used by tests
/// and the fault-injection machinery to model whole-chip failures.
pub fn inject_chip_error(
    ecc: &dyn MemoryEcc,
    cw: &mut Codeword,
    chip: usize,
    mut mutate: impl FnMut(&mut u8),
) {
    let layout = ecc.chip_layout();
    assert!(chip < layout.len(), "chip index out of range");
    for span in &layout[chip] {
        let region: &mut Vec<u8> = match span.region {
            Region::Data => &mut cw.data,
            Region::Detection => &mut cw.detection,
            Region::Correction => &mut cw.correction,
        };
        for b in &mut region[span.start..span.start + span.len] {
            mutate(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl MemoryEcc for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn data_bytes(&self) -> usize {
            64
        }
        fn detection_bytes(&self) -> usize {
            8
        }
        fn correction_bytes(&self) -> usize {
            16
        }
        fn chips_per_rank(&self) -> usize {
            2
        }
        fn chip_layout(&self) -> Vec<Vec<ChipSpan>> {
            vec![
                vec![ChipSpan {
                    region: Region::Data,
                    start: 0,
                    len: 32,
                }],
                vec![ChipSpan {
                    region: Region::Data,
                    start: 32,
                    len: 32,
                }],
            ]
        }
        fn encode(&self, data: &[u8]) -> Codeword {
            Codeword {
                data: data.to_vec(),
                detection: vec![0; 8],
                correction: vec![0; 16],
            }
        }
        fn detect(&self, _: &[u8], _: &[u8]) -> DetectOutcome {
            DetectOutcome::Clean
        }
        fn correct(
            &self,
            _: &mut [u8],
            _: &[u8],
            _: &[u8],
            _: Option<usize>,
        ) -> Result<CorrectOutcome, EccError> {
            Ok(CorrectOutcome { repaired_bytes: 0 })
        }
    }

    #[test]
    fn ratio_and_overhead_arithmetic() {
        let d = Dummy;
        assert!((d.correction_ratio() - 0.25).abs() < 1e-12);
        assert!((d.baseline_overhead() - 24.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn inject_touches_only_owned_bytes() {
        let d = Dummy;
        let mut cw = d.encode(&[7u8; 64]);
        inject_chip_error(&d, &mut cw, 0, |b| *b ^= 0xff);
        assert!(cw.data[..32].iter().all(|&b| b == 7 ^ 0xff));
        assert!(cw.data[32..].iter().all(|&b| b == 7));
        assert!(cw.detection.iter().all(|&b| b == 0));
    }
}
