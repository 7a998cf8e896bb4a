//! Double-chipkill correct: tolerates **two** simultaneous device failures
//! per rank. The paper lists it among the ECCs its optimization applies to
//! ("chipkill correct, double chipkill correct, DIMM-kill correct"); this
//! implementation demonstrates that generality end to end.
//!
//! Organization: a 40-device x4 rank moving 128B lines; each ECC word has
//! 32 data symbols and **eight** Reed–Solomon check symbols over GF(2^8).
//! Four check symbols are the detection tier (guaranteeing detection of up
//! to four symbol errors when compared on the fly) and four are the
//! correction tier; jointly the eight-symbol redundancy corrects any two
//! symbol errors (DSC) and, with the bank-health erasure hints, up to four
//! erased symbols. `R = 16B / 128B = 0.125`, so ECC Parity stores the
//! double-chipkill correction bits at `0.125/(N-1)` of data capacity.

use crate::gf::Gf256;
use crate::linear::LinearMap;
use crate::rs::{ReedSolomon, RsError};
use crate::traits::{
    ChipSpan, Codeword, CorrectOutcome, CorrectionSplit, DetectOutcome, EccError, MemoryEcc, Region,
};
use std::ops::Range;
use std::sync::OnceLock;

const DATA_SYMBOLS: usize = 32;
const CHECK_SYMBOLS: usize = 8;
const WORDS_PER_LINE: usize = 4;
const LINE_BYTES: usize = DATA_SYMBOLS * WORDS_PER_LINE; // 128
/// Check-symbol bytes of a word that are detection bits.
const DETECTION: Range<usize> = 0..4;
/// Check-symbol bytes of a word that are correction bits.
const CORRECTION: Range<usize> = 4..8;

/// Double chipkill correct over a 40-device rank (see module docs).
pub struct ChipkillDouble {
    rs: ReedSolomon<Gf256>,
}

impl Default for ChipkillDouble {
    fn default() -> Self {
        Self::new()
    }
}

impl ChipkillDouble {
    /// The 40-device double-chipkill code with its RS decoder.
    pub fn new() -> Self {
        Self {
            rs: ReedSolomon::new(CHECK_SYMBOLS),
        }
    }

    /// The table-driven encoder of one 32-byte word: byte `j` of its image,
    /// little-endian, is check symbol `j` as [`ReedSolomon::encode`]
    /// computes it. Built once per process, on first use.
    pub fn check_map(&self) -> &'static LinearMap<u64> {
        static CHECKS: OnceLock<LinearMap<u64>> = OnceLock::new();
        CHECKS.get_or_init(|| {
            LinearMap::from_fn(DATA_SYMBOLS, |word| {
                let c = self.rs.encode(word);
                u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
            })
        })
    }

    fn assemble(
        data: &[u8],
        detection: &[u8],
        correction: &[u8],
        w: usize,
    ) -> [u8; DATA_SYMBOLS + CHECK_SYMBOLS] {
        let mut cw = [0u8; DATA_SYMBOLS + CHECK_SYMBOLS];
        cw[..DATA_SYMBOLS].copy_from_slice(&data[w * DATA_SYMBOLS..(w + 1) * DATA_SYMBOLS]);
        cw[DATA_SYMBOLS..DATA_SYMBOLS + 4].copy_from_slice(&detection[w * 4..(w + 1) * 4]);
        cw[DATA_SYMBOLS + 4..].copy_from_slice(&correction[w * 4..(w + 1) * 4]);
        cw
    }
}

impl MemoryEcc for ChipkillDouble {
    fn name(&self) -> &'static str {
        "double chipkill correct (40-device)"
    }

    fn data_bytes(&self) -> usize {
        LINE_BYTES
    }

    fn detection_bytes(&self) -> usize {
        4 * WORDS_PER_LINE
    }

    fn correction_bytes(&self) -> usize {
        4 * WORDS_PER_LINE
    }

    fn chips_per_rank(&self) -> usize {
        DATA_SYMBOLS + CHECK_SYMBOLS
    }

    fn chip_layout(&self) -> Vec<Vec<ChipSpan>> {
        let mut layout = Vec::with_capacity(40);
        for chip in 0..40 {
            let spans = (0..WORDS_PER_LINE)
                .map(|w| {
                    if chip < DATA_SYMBOLS {
                        ChipSpan {
                            region: Region::Data,
                            start: w * DATA_SYMBOLS + chip,
                            len: 1,
                        }
                    } else if chip < DATA_SYMBOLS + 4 {
                        ChipSpan {
                            region: Region::Detection,
                            start: w * 4 + (chip - DATA_SYMBOLS),
                            len: 1,
                        }
                    } else {
                        ChipSpan {
                            region: Region::Correction,
                            start: w * 4 + (chip - DATA_SYMBOLS - 4),
                            len: 1,
                        }
                    }
                })
                .collect();
            layout.push(spans);
        }
        layout
    }

    fn encode(&self, data: &[u8]) -> Codeword {
        Codeword {
            data: data.to_vec(),
            detection: self.detection_of(data),
            correction: self.correction_of(data),
        }
    }

    fn detect(&self, data: &[u8], detection: &[u8]) -> DetectOutcome {
        assert_eq!(data.len(), LINE_BYTES);
        assert_eq!(detection.len(), self.detection_bytes());
        if self.check_map().matches(data, DETECTION, detection) {
            DetectOutcome::Clean
        } else {
            DetectOutcome::ErrorDetected
        }
    }

    fn correct(
        &self,
        data: &mut [u8],
        detection: &[u8],
        correction: &[u8],
        erased_chip: Option<usize>,
    ) -> Result<CorrectOutcome, EccError> {
        if data.len() != LINE_BYTES {
            return Err(EccError::InputLength {
                expected: LINE_BYTES,
                got: data.len(),
            });
        }
        let mut repaired = 0usize;
        for w in 0..WORDS_PER_LINE {
            let mut cw = Self::assemble(data, detection, correction, w);
            let erasures: Vec<usize> = erased_chip.into_iter().collect();
            // Policy: correct up to two symbol errors (double chipkill),
            // keeping two syndromes' worth of guaranteed detection margin.
            match self.rs.decode(&mut cw, &erasures, Some(2)) {
                Ok(info) => {
                    repaired += info.corrected.len();
                    data[w * DATA_SYMBOLS..(w + 1) * DATA_SYMBOLS]
                        .copy_from_slice(&cw[..DATA_SYMBOLS]);
                }
                Err(RsError::DetectedUncorrectable) => return Err(EccError::Uncorrectable),
            }
        }
        crate::traits::record_correction(self.name(), repaired);
        Ok(CorrectOutcome {
            repaired_bytes: repaired,
        })
    }
}

impl CorrectionSplit for ChipkillDouble {
    fn correction_of(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), LINE_BYTES);
        self.check_map().gather(data, CORRECTION)
    }

    fn detection_of(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), LINE_BYTES);
        self.check_map().gather(data, DETECTION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::inject_chip_error;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn line(rng: &mut StdRng) -> Vec<u8> {
        (0..LINE_BYTES).map(|_| rng.gen()).collect()
    }

    #[test]
    fn overhead_split() {
        let d = ChipkillDouble::new();
        assert_eq!(d.chips_per_rank(), 40);
        assert!((d.baseline_overhead() - 0.25).abs() < 1e-12);
        assert!((d.correction_ratio() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn two_simultaneous_chip_failures_corrected() {
        let d = ChipkillDouble::new();
        let mut rng = StdRng::seed_from_u64(60);
        for _ in 0..25 {
            let data = line(&mut rng);
            let cw = d.encode(&data);
            let c1 = rng.gen_range(0..40);
            let mut c2 = rng.gen_range(0..40);
            while c2 == c1 {
                c2 = rng.gen_range(0..40);
            }
            let mut noisy = cw.clone();
            inject_chip_error(&d, &mut noisy, c1, |b| *b = rng.gen());
            inject_chip_error(&d, &mut noisy, c2, |b| *b ^= 0x3c);
            let mut fixed = noisy.data.clone();
            d.correct(&mut fixed, &noisy.detection, &noisy.correction, None)
                .expect("double chipkill corrects two chips");
            assert_eq!(fixed, data);
        }
    }

    #[test]
    fn three_chip_failures_detected_uncorrectable() {
        let d = ChipkillDouble::new();
        let mut rng = StdRng::seed_from_u64(61);
        let data = line(&mut rng);
        let cw = d.encode(&data);
        let mut noisy = cw.clone();
        for c in [3, 11, 27] {
            inject_chip_error(&d, &mut noisy, c, |b| *b ^= 0x99);
        }
        let mut fixed = noisy.data.clone();
        assert_eq!(
            d.correct(&mut fixed, &noisy.detection, &noisy.correction, None),
            Err(EccError::Uncorrectable)
        );
    }

    #[test]
    fn detection_tier_sees_up_to_two_data_chip_errors() {
        let d = ChipkillDouble::new();
        let mut rng = StdRng::seed_from_u64(62);
        for _ in 0..30 {
            let data = line(&mut rng);
            let cw = d.encode(&data);
            let mut noisy = cw.data.clone();
            let c1 = rng.gen_range(0..DATA_SYMBOLS);
            let c2 = (c1 + 1 + rng.gen_range(0..DATA_SYMBOLS - 1)) % DATA_SYMBOLS;
            for w in 0..WORDS_PER_LINE {
                noisy[w * DATA_SYMBOLS + c1] ^= 0x41;
                noisy[w * DATA_SYMBOLS + c2] ^= 0x87;
            }
            assert_eq!(
                d.detect(&noisy, &cw.detection),
                DetectOutcome::ErrorDetected
            );
        }
    }

    #[test]
    fn erasure_hint_plus_two_errors() {
        // 2e + f <= 8 with e = 2, f = 1.
        let d = ChipkillDouble::new();
        let mut rng = StdRng::seed_from_u64(63);
        let data = line(&mut rng);
        let cw = d.encode(&data);
        let mut noisy = cw.clone();
        inject_chip_error(&d, &mut noisy, 7, |b| *b = rng.gen());
        inject_chip_error(&d, &mut noisy, 19, |b| *b ^= 0x11);
        inject_chip_error(&d, &mut noisy, 33, |b| *b ^= 0x22);
        let mut fixed = noisy.data.clone();
        d.correct(&mut fixed, &noisy.detection, &noisy.correction, Some(7))
            .unwrap();
        assert_eq!(fixed, data);
    }
}
