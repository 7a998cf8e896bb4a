//! LOT-ECC (Udipi et al., ISCA 2012): localized and tiered chipkill correct.
//!
//! Tier-1 (detection + localization): each chip stores an *intra-chip
//! checksum* over the bytes it contributes to a line; a mismatch both
//! detects an error and identifies the faulty chip. Tier-2 (correction):
//! a bitwise XOR parity across the per-chip segments, stored in ordinary
//! data memory, erasure-corrects the localized chip.
//!
//! Two rank organizations from the paper:
//!
//! * **LOT-ECC9** ("LOT-ECC I"): nine x8 chips per rank — 8 data chips
//!   (8B/line each) + 1 chip holding the 8 one-byte checksums.
//!   Correction = 8B XOR parity per line. Total overhead 12.5% + 14.1% ≈ 26.5%.
//! * **LOT-ECC5** ("LOT-ECC II"): four x16 data chips (16B/line each) + one
//!   half-capacity x8 chip holding the four two-byte checksums.
//!   Correction = 16B XOR parity per line, stored as one 72B ECC line per
//!   four 72B data lines ⇒ overhead (8·4+72)/(64·4) = 40.6% (paper, §II).
//!
//! [`LotEcc5Rs`] additionally implements the Section VI-D variant that swaps
//! the inter-device parity for a GF(2^16) Reed–Solomon code so address
//! decoder errors become detectable: two 16-bit check symbols per
//! eight-symbol word, the first stored in the x8 chip for on-the-fly
//! detection, the second (plus the intra-chip checksums) stored via ECC
//! parity.

use crate::checksum::{checksum16, checksum8};
use crate::gf::Gf65536;
use crate::linear::LinearMap;
use crate::rs::ReedSolomon;
use crate::traits::{
    ChipSpan, Codeword, CorrectOutcome, CorrectionSplit, DetectOutcome, EccError, MemoryEcc, Region,
};
use std::ops::Range;
use std::sync::OnceLock;

/// Which LOT-ECC rank organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LotEccVariant {
    /// Four x16 data chips + one x8 checksum chip (the paper's LOT-ECC5).
    Five,
    /// Eight x8 data chips + one x8 checksum chip (the paper's LOT-ECC9).
    Nine,
}

/// LOT-ECC with checksum tier-1 and XOR-parity tier-2 (see module docs).
pub struct LotEcc {
    variant: LotEccVariant,
}

impl LotEcc {
    /// A LOT-ECC instance of the given tier-1 variant.
    pub fn new(variant: LotEccVariant) -> Self {
        Self { variant }
    }

    /// LOT-ECC5: five x16 devices per rank.
    pub fn five() -> Self {
        Self::new(LotEccVariant::Five)
    }

    /// LOT-ECC9: nine x8 devices per rank.
    pub fn nine() -> Self {
        Self::new(LotEccVariant::Nine)
    }

    /// Which tier-1 variant this instance implements.
    pub fn variant(&self) -> LotEccVariant {
        self.variant
    }

    /// Number of data chips.
    fn data_chips(&self) -> usize {
        match self.variant {
            LotEccVariant::Five => 4,
            LotEccVariant::Nine => 8,
        }
    }

    /// Bytes of the line each data chip supplies.
    fn seg_bytes(&self) -> usize {
        64 / self.data_chips()
    }

    /// Checksum bytes per chip.
    fn sum_bytes(&self) -> usize {
        match self.variant {
            LotEccVariant::Five => 2,
            LotEccVariant::Nine => 1,
        }
    }

    fn segment<'a>(&self, data: &'a [u8], chip: usize) -> &'a [u8] {
        let s = self.seg_bytes();
        &data[chip * s..(chip + 1) * s]
    }

    fn chip_checksum(&self, seg: &[u8]) -> Vec<u8> {
        match self.variant {
            LotEccVariant::Five => checksum16(seg).to_be_bytes().to_vec(),
            LotEccVariant::Nine => vec![checksum8(seg)],
        }
    }

    /// Which data chips' stored checksums disagree with their segments.
    fn mismatched_chips(&self, data: &[u8], detection: &[u8]) -> Vec<usize> {
        let sb = self.sum_bytes();
        (0..self.data_chips())
            .filter(|&c| {
                self.chip_checksum(self.segment(data, c)) != detection[c * sb..(c + 1) * sb]
            })
            .collect()
    }

    /// XOR parity across all data-chip segments.
    fn parity(&self, data: &[u8]) -> Vec<u8> {
        let s = self.seg_bytes();
        let mut p = vec![0u8; s];
        for c in 0..self.data_chips() {
            for (i, &b) in self.segment(data, c).iter().enumerate() {
                p[i] ^= b;
            }
        }
        p
    }
}

impl MemoryEcc for LotEcc {
    fn name(&self) -> &'static str {
        match self.variant {
            LotEccVariant::Five => "LOT-ECC5",
            LotEccVariant::Nine => "LOT-ECC9",
        }
    }

    fn data_bytes(&self) -> usize {
        64
    }

    fn detection_bytes(&self) -> usize {
        8 // per-chip checksums fill the dedicated ECC chip: 12.5%
    }

    fn correction_bytes(&self) -> usize {
        self.seg_bytes() // XOR parity of the segments
    }

    fn chips_per_rank(&self) -> usize {
        self.data_chips() + 1
    }

    fn chip_layout(&self) -> Vec<Vec<ChipSpan>> {
        let s = self.seg_bytes();
        let sb = self.sum_bytes();
        let nd = self.data_chips();
        let mut layout: Vec<Vec<ChipSpan>> = Vec::with_capacity(nd + 1);
        // Correction parity physically lives in data memory of the same
        // chips; attribute it evenly so a chip failure also hits the slice of
        // parity that chip stores.
        let corr_per_chip = self.correction_bytes() / nd;
        for c in 0..nd {
            layout.push(vec![
                ChipSpan {
                    region: Region::Data,
                    start: c * s,
                    len: s,
                },
                ChipSpan {
                    region: Region::Correction,
                    start: c * corr_per_chip,
                    len: corr_per_chip,
                },
            ]);
        }
        layout.push(
            (0..nd)
                .map(|c| ChipSpan {
                    region: Region::Detection,
                    start: c * sb,
                    len: sb,
                })
                .collect(),
        );
        layout
    }

    fn encode(&self, data: &[u8]) -> Codeword {
        assert_eq!(data.len(), 64);
        let mut detection = Vec::with_capacity(self.detection_bytes());
        for c in 0..self.data_chips() {
            detection.extend(self.chip_checksum(self.segment(data, c)));
        }
        Codeword {
            data: data.to_vec(),
            detection,
            correction: self.parity(data),
        }
    }

    fn detect(&self, data: &[u8], detection: &[u8]) -> DetectOutcome {
        if self.mismatched_chips(data, detection).is_empty() {
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
        if data.len() != 64 {
            return Err(EccError::InputLength {
                expected: 64,
                got: data.len(),
            });
        }
        let mut bad = self.mismatched_chips(data, detection);
        if let Some(ch) = erased_chip {
            if ch < self.data_chips() && !bad.contains(&ch) {
                bad.push(ch);
            }
        }

        if bad.is_empty() {
            // Either clean, or the checksum chip itself failed (then the data
            // is fine). Verify against the parity for confidence.
            return Ok(CorrectOutcome { repaired_bytes: 0 });
        }

        if bad.len() > 1 {
            // Multiple mismatches: either a multi-chip error (uncorrectable)
            // or a failure of the checksum chip making every comparison lie.
            // Disambiguate with the tier-2 parity: if the data is consistent
            // with the parity, the data is clean and only detection bits are
            // wrong.
            if self.parity(data) == correction {
                return Ok(CorrectOutcome { repaired_bytes: 0 });
            }
            return Err(EccError::Uncorrectable);
        }

        // Exactly one faulty data chip: erasure-correct it from the parity.
        let victim = bad[0];
        let s = self.seg_bytes();
        let mut rebuilt = correction.to_vec();
        for c in 0..self.data_chips() {
            if c == victim {
                continue;
            }
            for (i, &b) in self.segment(data, c).iter().enumerate() {
                rebuilt[i] ^= b;
            }
        }
        // Verify the reconstruction against the stored checksum (unless the
        // caller erased the chip on external knowledge and the checksum chip
        // may itself be stale).
        let sb = self.sum_bytes();
        let expect = &detection[victim * sb..(victim + 1) * sb];
        if self.chip_checksum(&rebuilt) != expect && erased_chip != Some(victim) {
            return Err(EccError::Uncorrectable);
        }
        let changed = self
            .segment(data, victim)
            .iter()
            .zip(&rebuilt)
            .filter(|(a, b)| a != b)
            .count();
        data[victim * s..(victim + 1) * s].copy_from_slice(&rebuilt);
        crate::traits::record_correction(self.name(), changed);
        Ok(CorrectOutcome {
            repaired_bytes: changed,
        })
    }
}

impl CorrectionSplit for LotEcc {}

/// Section VI-D variant of LOT-ECC5: a GF(2^16) Reed–Solomon inter-device
/// code replaces the XOR parity so that address decoder errors (which
/// intra-chip checksums cannot see) are reliably detected.
///
/// Per eight-symbol (16B) word striped over the four x16 chips, the code has
/// two 16-bit check symbols. Check symbol #1 is stored in the x8 chip and
/// compared on every read (detection); check symbol #2 and the four
/// intra-chip checksums are correction bits (stored via ECC parity).
pub struct LotEcc5Rs {
    rs: ReedSolomon<Gf65536>,
}

const RS5_WORDS: usize = 4; // 4 words of 8 sixteen-bit symbols = 64B
const RS5_SYMS: usize = 8;
const RS5_WORD_BYTES: usize = 2 * RS5_SYMS;
/// Stored check bytes of a word that are detection bits (check symbol #1).
const DETECTION: Range<usize> = 0..2;
/// Stored check bytes of a word that are correction bits (check symbol #2).
const CORRECTION: Range<usize> = 2..4;

impl Default for LotEcc5Rs {
    fn default() -> Self {
        Self::new()
    }
}

impl LotEcc5Rs {
    /// The RS inter-device LOT-ECC5 variant (paper §VI-D).
    pub fn new() -> Self {
        Self {
            rs: ReedSolomon::new(2),
        }
    }

    /// The table-driven encoder of one 16-byte word: its image, as
    /// little-endian bytes, is the word's two GF(2^16) check symbols as
    /// [`ReedSolomon::encode`] computes them, each stored big-endian.
    /// Built once per process, on first use.
    pub fn check_map(&self) -> &'static LinearMap<u32> {
        static CHECKS: OnceLock<LinearMap<u32>> = OnceLock::new();
        CHECKS.get_or_init(|| {
            LinearMap::from_fn(RS5_WORD_BYTES, |word| {
                let c = self.rs.encode(&Self::word_symbols(word, 0));
                let ([a, b], [x, y]) = (c[0].to_be_bytes(), c[1].to_be_bytes());
                u32::from_le_bytes([a, b, x, y])
            })
        })
    }

    /// Data symbols of word `w`; symbol `j` lives on chip `j % 4`.
    fn word_symbols(data: &[u8], w: usize) -> [u16; RS5_SYMS] {
        let mut out = [0u16; RS5_SYMS];
        for (j, o) in out.iter_mut().enumerate() {
            let off = w * 16 + j * 2;
            *o = u16::from_be_bytes([data[off], data[off + 1]]);
        }
        out
    }

    fn write_word_symbols(data: &mut [u8], w: usize, syms: &[u16]) {
        for (j, &s) in syms.iter().enumerate() {
            let off = w * 16 + j * 2;
            data[off..off + 2].copy_from_slice(&s.to_be_bytes());
        }
    }

    fn chip_of_symbol(j: usize) -> usize {
        j % 4
    }

    /// The 16 data bytes chip `c` contributes to the line (symbols j with
    /// j % 4 == c across all words).
    fn chip_bytes(data: &[u8], c: usize) -> [u8; 16] {
        let mut out = [0u8; 16];
        let mut k = 0;
        for w in 0..RS5_WORDS {
            for j in (c..RS5_SYMS).step_by(4) {
                let off = w * 16 + j * 2;
                out[k..k + 2].copy_from_slice(&data[off..off + 2]);
                k += 2;
            }
        }
        out
    }
}

impl MemoryEcc for LotEcc5Rs {
    fn name(&self) -> &'static str {
        "LOT-ECC5 (RS inter-device variant, §VI-D)"
    }

    fn data_bytes(&self) -> usize {
        64
    }

    fn detection_bytes(&self) -> usize {
        2 * RS5_WORDS // first RS check symbol per word, in the x8 chip
    }

    fn correction_bytes(&self) -> usize {
        2 * RS5_WORDS + 2 * 4 // second check symbol per word + 4 chip checksums
    }

    fn chips_per_rank(&self) -> usize {
        5
    }

    fn chip_layout(&self) -> Vec<Vec<ChipSpan>> {
        let mut layout: Vec<Vec<ChipSpan>> = Vec::with_capacity(5);
        for c in 0..4 {
            let mut spans = Vec::new();
            for w in 0..RS5_WORDS {
                for j in 0..RS5_SYMS {
                    if Self::chip_of_symbol(j) == c {
                        spans.push(ChipSpan {
                            region: Region::Data,
                            start: w * 16 + j * 2,
                            len: 2,
                        });
                    }
                }
            }
            layout.push(spans);
        }
        layout.push(
            (0..RS5_WORDS)
                .map(|w| ChipSpan {
                    region: Region::Detection,
                    start: w * 2,
                    len: 2,
                })
                .collect(),
        );
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
        assert_eq!(data.len(), 64);
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
        if data.len() != 64 {
            return Err(EccError::InputLength {
                expected: 64,
                got: data.len(),
            });
        }
        // Localize via the intra-chip checksums in the correction bits.
        let mut bad: Vec<usize> = (0..4)
            .filter(|&c| {
                let stored = &correction[2 * RS5_WORDS + c * 2..2 * RS5_WORDS + c * 2 + 2];
                checksum16(&Self::chip_bytes(data, c)).to_be_bytes() != stored
            })
            .collect();
        if let Some(ch) = erased_chip {
            if ch < 4 && !bad.contains(&ch) {
                bad.push(ch);
            }
        }
        if bad.len() > 1 {
            return Err(EccError::Uncorrectable);
        }

        let mut repaired = 0usize;
        for w in 0..RS5_WORDS {
            let syms = Self::word_symbols(data, w);
            let mut cw: Vec<u16> = syms.to_vec();
            cw.push(u16::from_be_bytes([detection[w * 2], detection[w * 2 + 1]]));
            cw.push(u16::from_be_bytes([
                correction[w * 2],
                correction[w * 2 + 1],
            ]));
            let erasures: Vec<usize> = if let Some(&c) = bad.first() {
                (0..RS5_SYMS)
                    .filter(|&j| Self::chip_of_symbol(j) == c)
                    .collect()
            } else {
                vec![]
            };
            // A localized x16 chip erases two symbols per word; two check
            // symbols erasure-correct both. Unlocalized single-symbol errors
            // are still correctable (2e <= 2).
            let before = cw.clone();
            match self.rs.decode(&mut cw, &erasures, Some(1)) {
                Ok(_) => {
                    repaired += cw
                        .iter()
                        .zip(&before)
                        .take(RS5_SYMS)
                        .filter(|(a, b)| a != b)
                        .count()
                        * 2;
                    Self::write_word_symbols(data, w, &cw[..RS5_SYMS]);
                }
                Err(_) => return Err(EccError::Uncorrectable),
            }
        }
        crate::traits::record_correction(self.name(), repaired);
        Ok(CorrectOutcome {
            repaired_bytes: repaired,
        })
    }
}

impl CorrectionSplit for LotEcc5Rs {
    fn correction_of(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), 64);
        let mut out = self.check_map().gather(data, CORRECTION);
        for c in 0..4 {
            out.extend(checksum16(&Self::chip_bytes(data, c)).to_be_bytes());
        }
        out
    }

    fn detection_of(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), 64);
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
        (0..64).map(|_| rng.gen()).collect()
    }

    #[test]
    fn lot5_overhead_constants() {
        let l = LotEcc::five();
        assert_eq!(l.detection_bytes(), 8);
        assert_eq!(l.correction_bytes(), 16);
        assert!((l.correction_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(l.chips_per_rank(), 5);
    }

    #[test]
    fn lot9_overhead_constants() {
        let l = LotEcc::nine();
        assert_eq!(l.detection_bytes(), 8);
        assert_eq!(l.correction_bytes(), 8);
        assert!((l.correction_ratio() - 0.125).abs() < 1e-12);
        assert_eq!(l.chips_per_rank(), 9);
    }

    #[test]
    fn lot5_single_data_chip_corrected() {
        let l = LotEcc::five();
        let mut rng = StdRng::seed_from_u64(20);
        for chip in 0..4 {
            let data = line(&mut rng);
            let cw = l.encode(&data);
            let mut noisy = cw.data.clone();
            for b in &mut noisy[chip * 16..(chip + 1) * 16] {
                *b = rng.gen();
            }
            assert_eq!(
                l.detect(&noisy, &cw.detection),
                DetectOutcome::ErrorDetected
            );
            l.correct(&mut noisy, &cw.detection, &cw.correction, None)
                .expect("single chip erasure must correct");
            assert_eq!(noisy, data);
        }
    }

    #[test]
    fn lot9_single_data_chip_corrected() {
        let l = LotEcc::nine();
        let mut rng = StdRng::seed_from_u64(21);
        for chip in 0..8 {
            let data = line(&mut rng);
            let cw = l.encode(&data);
            let mut noisy = cw.data.clone();
            for b in &mut noisy[chip * 8..(chip + 1) * 8] {
                *b ^= 0x5A;
            }
            l.correct(&mut noisy, &cw.detection, &cw.correction, None)
                .unwrap();
            assert_eq!(noisy, data);
        }
    }

    #[test]
    fn lot5_checksum_chip_failure_leaves_data_intact() {
        let l = LotEcc::five();
        let mut rng = StdRng::seed_from_u64(22);
        let data = line(&mut rng);
        let mut cw = l.encode(&data);
        // Kill the checksum chip (index 4): detection bits scrambled.
        inject_chip_error(&l, &mut cw, 4, |b| *b = rng.gen());
        let mut noisy = cw.data.clone();
        let out = l
            .correct(&mut noisy, &cw.detection, &cw.correction, None)
            .expect("checksum-chip failure must not corrupt data");
        assert_eq!(out.repaired_bytes, 0);
        assert_eq!(noisy, data);
    }

    #[test]
    fn lot_two_chip_failure_uncorrectable() {
        for l in [LotEcc::five(), LotEcc::nine()] {
            let mut rng = StdRng::seed_from_u64(23);
            let data = line(&mut rng);
            let cw = l.encode(&data);
            let s = 64 / (l.chips_per_rank() - 1);
            let mut noisy = cw.data.clone();
            for b in &mut noisy[0..s] {
                *b ^= 0x0f;
            }
            for b in &mut noisy[s..2 * s] {
                *b ^= 0xf0;
            }
            assert_eq!(
                l.correct(&mut noisy, &cw.detection, &cw.correction, None),
                Err(EccError::Uncorrectable)
            );
        }
    }

    #[test]
    fn lot5_erasure_hint_skips_checksum_verify() {
        let l = LotEcc::five();
        let mut rng = StdRng::seed_from_u64(24);
        let data = line(&mut rng);
        let cw = l.encode(&data);
        let mut noisy = cw.data.clone();
        for b in &mut noisy[32..48] {
            *b = rng.gen();
        }
        l.correct(&mut noisy, &cw.detection, &cw.correction, Some(2))
            .unwrap();
        assert_eq!(noisy, data);
    }

    #[test]
    fn lot5rs_detects_and_corrects_chip_failure() {
        let l = LotEcc5Rs::new();
        let mut rng = StdRng::seed_from_u64(25);
        for chip in 0..4 {
            let data = line(&mut rng);
            let cw = l.encode(&data);
            let mut noisy = cw.data.clone();
            // corrupt every byte the chip owns
            for w in 0..4 {
                for j in 0..8 {
                    if j % 4 == chip {
                        let off = w * 16 + j * 2;
                        noisy[off] ^= 0xde;
                        noisy[off + 1] ^= 0xad;
                    }
                }
            }
            assert_eq!(
                l.detect(&noisy, &cw.detection),
                DetectOutcome::ErrorDetected,
                "inter-chip RS detection must see a whole-chip error"
            );
            let mut fixed = noisy.clone();
            l.correct(&mut fixed, &cw.detection, &cw.correction, None)
                .unwrap();
            assert_eq!(fixed, data);
        }
    }

    #[test]
    fn lot5rs_detects_address_error_pattern() {
        // An address decoder error returns a *different but internally
        // checksum-consistent* line from one chip. Intra-chip checksums by
        // definition can miss it if the checksums travel with the data; the
        // inter-chip RS detection symbol must catch the inconsistency.
        let l = LotEcc5Rs::new();
        let mut rng = StdRng::seed_from_u64(26);
        let a = line(&mut rng);
        let b = line(&mut rng);
        let cw_a = l.encode(&a);
        // chip 1 of line A answers with chip 1 of line B
        let mut noisy = a.clone();
        for w in 0..4 {
            for j in 0..8 {
                if j % 4 == 1 {
                    let off = w * 16 + j * 2;
                    noisy[off] = b[off];
                    noisy[off + 1] = b[off + 1];
                }
            }
        }
        if noisy != a {
            assert_eq!(
                l.detect(&noisy, &cw_a.detection),
                DetectOutcome::ErrorDetected
            );
        }
    }

    #[test]
    fn lot5rs_overheads() {
        let l = LotEcc5Rs::new();
        assert_eq!(l.detection_bytes(), 8);
        assert_eq!(l.correction_bytes(), 16);
        // Same split as baseline LOT-ECC5: no rank or capacity change (§VI-D).
        let base = LotEcc::five();
        assert_eq!(l.detection_bytes(), base.detection_bytes());
        assert_eq!(l.correction_bytes(), base.correction_bytes());
    }
}
