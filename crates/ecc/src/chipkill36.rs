//! The 36-device commercial chipkill-correct ECC (AMD-style).
//!
//! Each rank has 36 x4 DRAM devices; a memory access moves a 128-byte line.
//! Every ECC *word* consists of 36 eight-bit symbols — one per device (two
//! x4 beats) — of which 32 are data and 4 are Reed–Solomon check symbols
//! over GF(2^8). Per the paper (and Yoon & Erez), **two** of the four check
//! symbols suffice for error detection while the other **two** are needed
//! only for correcting detected errors; this SSC-DSD organization corrects
//! any single-symbol (= single-chip) error and is guaranteed to detect any
//! double-symbol error.
//!
//! A 128B line therefore contains 4 words: 8 detection bytes + 8 correction
//! bytes per line, a 12.5% capacity overhead split evenly between detection
//! and correction (Fig. 1 of the paper).

use crate::gf::Gf256;
use crate::linear::LinearMap;
use crate::rs::{ReedSolomon, RsError};
use crate::traits::{
    ChipSpan, Codeword, CorrectOutcome, CorrectionSplit, DetectOutcome, EccError, MemoryEcc, Region,
};
use std::ops::Range;
use std::sync::OnceLock;

const DATA_SYMBOLS: usize = 32;
const CHECK_SYMBOLS: usize = 4;
const WORDS_PER_LINE: usize = 4;
const LINE_BYTES: usize = DATA_SYMBOLS * WORDS_PER_LINE; // 128
/// Check-symbol bytes of a word that are detection bits.
const DETECTION: Range<usize> = 0..2;
/// Check-symbol bytes of a word that are correction bits.
const CORRECTION: Range<usize> = 2..4;

/// 36-device commercial chipkill correct (see module docs).
pub struct Chipkill36 {
    rs: ReedSolomon<Gf256>,
}

impl Default for Chipkill36 {
    fn default() -> Self {
        Self::new()
    }
}

impl Chipkill36 {
    /// The 36-device chipkill-correct code with its RS decoder.
    pub fn new() -> Self {
        Self {
            rs: ReedSolomon::new(CHECK_SYMBOLS),
        }
    }

    /// The table-driven encoder of one 32-byte word: byte `j` of its image,
    /// little-endian, is check symbol `j` as [`ReedSolomon::encode`]
    /// computes it. Built once per process, on first use.
    pub fn check_map(&self) -> &'static LinearMap<u32> {
        static CHECKS: OnceLock<LinearMap<u32>> = OnceLock::new();
        CHECKS.get_or_init(|| {
            LinearMap::from_fn(DATA_SYMBOLS, |word| {
                let c = self.rs.encode(word);
                u32::from_le_bytes([c[0], c[1], c[2], c[3]])
            })
        })
    }

    /// Assemble the full 36-symbol codeword of word `w`.
    fn assemble(
        data: &[u8],
        detection: &[u8],
        correction: &[u8],
        w: usize,
    ) -> [u8; DATA_SYMBOLS + CHECK_SYMBOLS] {
        let mut cw = [0u8; DATA_SYMBOLS + CHECK_SYMBOLS];
        cw[..DATA_SYMBOLS].copy_from_slice(&data[w * DATA_SYMBOLS..(w + 1) * DATA_SYMBOLS]);
        cw[DATA_SYMBOLS] = detection[w * 2];
        cw[DATA_SYMBOLS + 1] = detection[w * 2 + 1];
        cw[DATA_SYMBOLS + 2] = correction[w * 2];
        cw[DATA_SYMBOLS + 3] = correction[w * 2 + 1];
        cw
    }
}

impl MemoryEcc for Chipkill36 {
    fn name(&self) -> &'static str {
        "36-device commercial chipkill correct"
    }

    fn data_bytes(&self) -> usize {
        LINE_BYTES
    }

    fn detection_bytes(&self) -> usize {
        2 * WORDS_PER_LINE // first two check symbols of each word
    }

    fn correction_bytes(&self) -> usize {
        2 * WORDS_PER_LINE // last two check symbols of each word
    }

    fn chips_per_rank(&self) -> usize {
        36
    }

    fn chip_layout(&self) -> Vec<Vec<ChipSpan>> {
        let mut layout = Vec::with_capacity(36);
        for chip in 0..36 {
            let mut spans = Vec::with_capacity(WORDS_PER_LINE);
            for w in 0..WORDS_PER_LINE {
                let span = if chip < DATA_SYMBOLS {
                    ChipSpan {
                        region: Region::Data,
                        start: w * DATA_SYMBOLS + chip,
                        len: 1,
                    }
                } else if chip < DATA_SYMBOLS + 2 {
                    ChipSpan {
                        region: Region::Detection,
                        start: w * 2 + (chip - DATA_SYMBOLS),
                        len: 1,
                    }
                } else {
                    ChipSpan {
                        region: Region::Correction,
                        start: w * 2 + (chip - DATA_SYMBOLS - 2),
                        len: 1,
                    }
                };
                spans.push(span);
            }
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
            // Chip index equals symbol position in the word codeword.
            let erasures: Vec<usize> = erased_chip.into_iter().collect();
            match self.rs.decode(&mut cw, &erasures, Some(1)) {
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

impl CorrectionSplit for Chipkill36 {
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

    fn random_line(rng: &mut StdRng) -> Vec<u8> {
        (0..LINE_BYTES).map(|_| rng.gen()).collect()
    }

    #[test]
    fn clean_line_detects_clean() {
        let ck = Chipkill36::new();
        let mut rng = StdRng::seed_from_u64(1);
        let data = random_line(&mut rng);
        let cw = ck.encode(&data);
        assert_eq!(ck.detect(&cw.data, &cw.detection), DetectOutcome::Clean);
    }

    #[test]
    fn single_chip_error_detected_and_corrected() {
        let ck = Chipkill36::new();
        let mut rng = StdRng::seed_from_u64(2);
        for chip in 0..36 {
            let data = random_line(&mut rng);
            let mut cw = ck.encode(&data);
            inject_chip_error(&ck, &mut cw, chip, |b| *b ^= 0xA5);
            if chip < DATA_SYMBOLS {
                assert_eq!(
                    ck.detect(&cw.data, &cw.detection),
                    DetectOutcome::ErrorDetected,
                    "data chip {chip} error must be detected on the fly"
                );
            }
            let mut noisy = cw.data.clone();
            ck.correct(&mut noisy, &cw.detection, &cw.correction, None)
                .expect("single chip error must be correctable");
            assert_eq!(noisy, data);
        }
    }

    #[test]
    fn whole_chip_random_failure_corrected_with_erasure_hint() {
        let ck = Chipkill36::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let chip = rng.gen_range(0..36);
            let data = random_line(&mut rng);
            let mut cw = ck.encode(&data);
            inject_chip_error(&ck, &mut cw, chip, |b| *b = rng.gen());
            let mut noisy = cw.data.clone();
            ck.correct(&mut noisy, &cw.detection, &cw.correction, Some(chip))
                .expect("erased chip must be correctable");
            assert_eq!(noisy, data);
        }
    }

    #[test]
    fn double_chip_error_is_detected_not_miscorrected() {
        let ck = Chipkill36::new();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let data = random_line(&mut rng);
            let mut cw = ck.encode(&data);
            let c1 = rng.gen_range(0..32);
            let mut c2 = rng.gen_range(0..32);
            while c2 == c1 {
                c2 = rng.gen_range(0..32);
            }
            inject_chip_error(&ck, &mut cw, c1, |b| *b ^= 0x3c);
            inject_chip_error(&ck, &mut cw, c2, |b| *b ^= 0xd2);
            assert_eq!(
                ck.detect(&cw.data, &cw.detection),
                DetectOutcome::ErrorDetected
            );
            let mut noisy = cw.data.clone();
            assert_eq!(
                ck.correct(&mut noisy, &cw.detection, &cw.correction, None),
                Err(EccError::Uncorrectable),
                "SSC-DSD must refuse to correct a double-chip error"
            );
        }
    }

    #[test]
    fn erasure_plus_one_error_corrected() {
        // 2e + f <= 4 with e = 1, f = 1: a marked-faulty chip plus a new
        // error elsewhere is still correctable.
        let ck = Chipkill36::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let data = random_line(&mut rng);
            let mut cw = ck.encode(&data);
            inject_chip_error(&ck, &mut cw, 7, |b| *b = rng.gen());
            inject_chip_error(&ck, &mut cw, 21, |b| *b ^= 0x11);
            let mut noisy = cw.data.clone();
            ck.correct(&mut noisy, &cw.detection, &cw.correction, Some(7))
                .unwrap();
            assert_eq!(noisy, data);
        }
    }

    #[test]
    fn overhead_matches_paper() {
        let ck = Chipkill36::new();
        assert_eq!(ck.data_bytes(), 128);
        assert_eq!(ck.detection_bytes(), 8);
        assert_eq!(ck.correction_bytes(), 8);
        assert!((ck.baseline_overhead() - 0.125).abs() < 1e-12);
        assert!((ck.correction_ratio() - 0.0625).abs() < 1e-12);
        assert_eq!(ck.chips_per_rank(), 36);
    }

    #[test]
    fn chip_layout_covers_every_byte_exactly_once() {
        let ck = Chipkill36::new();
        let layout = ck.chip_layout();
        let mut data_seen = vec![0u32; ck.data_bytes()];
        let mut det_seen = vec![0u32; ck.detection_bytes()];
        let mut corr_seen = vec![0u32; ck.correction_bytes()];
        for spans in &layout {
            for s in spans {
                let target = match s.region {
                    Region::Data => &mut data_seen,
                    Region::Detection => &mut det_seen,
                    Region::Correction => &mut corr_seen,
                };
                for t in target.iter_mut().skip(s.start).take(s.len) {
                    *t += 1;
                }
            }
        }
        assert!(data_seen.iter().all(|&c| c == 1));
        assert!(det_seen.iter().all(|&c| c == 1));
        assert!(corr_seen.iter().all(|&c| c == 1));
    }
}
