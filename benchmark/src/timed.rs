//! A codec wrapper that times every call into the codec layer.
//!
//! `ParityMemory::new(Timed::new(scheme), shape)` runs the unchanged
//! memory over the unchanged codec; the wrapper only forwards each call and
//! adds its duration to a counter. `tests/timed_identity.rs` shows the
//! memory then behaves byte for byte as over the bare codec.

use ecc_codes::traits::ChipSpan;
use ecc_codes::{Codeword, CorrectOutcome, CorrectionSplit, DetectOutcome, EccError, MemoryEcc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `inner` with a running total of the time spent inside it.
pub struct Timed<C> {
    inner: C,
    ns: AtomicU64,
    calls: AtomicU64,
}

impl<C> Timed<C> {
    /// Wrap a codec.
    pub fn new(inner: C) -> Timed<C> {
        Timed {
            inner,
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Nanoseconds spent in timed codec calls so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Timed codec calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<C: MemoryEcc> MemoryEcc for Timed<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn data_bytes(&self) -> usize {
        self.inner.data_bytes()
    }
    fn detection_bytes(&self) -> usize {
        self.inner.detection_bytes()
    }
    fn correction_bytes(&self) -> usize {
        self.inner.correction_bytes()
    }
    fn chips_per_rank(&self) -> usize {
        self.inner.chips_per_rank()
    }
    fn chip_layout(&self) -> Vec<Vec<ChipSpan>> {
        self.time(|| self.inner.chip_layout())
    }
    fn encode(&self, data: &[u8]) -> Codeword {
        self.time(|| self.inner.encode(data))
    }
    fn encode_lines(&self, lines: &[&[u8]]) -> Vec<Codeword> {
        self.time(|| self.inner.encode_lines(lines))
    }
    fn detect(&self, data: &[u8], detection: &[u8]) -> DetectOutcome {
        self.time(|| self.inner.detect(data, detection))
    }
    fn correct(
        &self,
        data: &mut [u8],
        detection: &[u8],
        correction: &[u8],
        erased_chip: Option<usize>,
    ) -> Result<CorrectOutcome, EccError> {
        self.time(|| self.inner.correct(data, detection, correction, erased_chip))
    }
}

impl<C: CorrectionSplit> CorrectionSplit for Timed<C> {
    fn correction_of(&self, data: &[u8]) -> Vec<u8> {
        self.time(|| self.inner.correction_of(data))
    }
    fn detection_of(&self, data: &[u8]) -> Vec<u8> {
        self.time(|| self.inner.detection_of(data))
    }
    fn correction_of_lines(&self, lines: &[&[u8]]) -> Vec<Vec<u8>> {
        self.time(|| self.inner.correction_of_lines(lines))
    }
    fn detection_of_lines(&self, lines: &[&[u8]]) -> Vec<Vec<u8>> {
        self.time(|| self.inner.detection_of_lines(lines))
    }
}
