//! Differential oracle for the table-driven Reed–Solomon check symbols.
//!
//! `Chipkill18`, `Chipkill36`, `ChipkillDouble` and `LotEcc5Rs` compute
//! their check symbols through a per-process `LinearMap`. This test holds
//! each map, and each codec built on it, to the bit-serial LFSR in
//! `ReedSolomon::encode`:
//! - the map against the LFSR on every word with one nonzero byte, on the
//!   all-zero and all-0xFF words and on 10,000 seeded words;
//! - each codec's `encode`, `detect`, `detection_of`, `correction_of` and
//!   `*_of_lines` against a reference assembled from LFSR check symbols,
//!   on valid lines and on mutants with one or two bytes changed.

use ecc_codes::checksum::checksum16;
use ecc_codes::gf::{Gf256, Gf65536};
use ecc_codes::linear::{LinearMap, Row};
use ecc_codes::rs::ReedSolomon;
use ecc_codes::{
    Chipkill18, Chipkill36, ChipkillDouble, CorrectionSplit, DetectOutcome, LotEcc5Rs,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::ops::Range;

const SEEDED_WORDS: usize = 10_000;

/// The map must equal `reference` on every unit word, the all-zero and
/// all-0xFF words, and `SEEDED_WORDS` seeded words.
fn check_map<R>(name: &str, map: &LinearMap<R>, reference: impl Fn(&[u8]) -> R)
where
    R: Row + Eq + Debug,
{
    let k = map.inputs();
    assert!(map.table_bytes() <= 64 * 1024, "{name}: table over 64 KiB");
    let mut word = vec![0u8; k];
    for pos in 0..k {
        for v in 1..=255u8 {
            word[pos] = v;
            assert_eq!(
                map.apply(&word),
                reference(&word),
                "{name}: unit {v:#04x} at {pos}"
            );
        }
        word[pos] = 0;
    }
    assert_eq!(map.apply(&word), reference(&word), "{name}: zero word");
    let ones = vec![0xFF; k];
    assert_eq!(map.apply(&ones), reference(&ones), "{name}: all-0xFF word");
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for i in 0..SEEDED_WORDS {
        rng.fill(word.as_mut_slice());
        assert_eq!(
            map.apply(&word),
            reference(&word),
            "{name}: seeded word {i}"
        );
    }
}

/// LFSR check symbols of a GF(2^8) word.
fn gf256_checks(nroots: usize) -> impl Fn(&[u8]) -> Vec<u8> {
    let rs = ReedSolomon::<Gf256>::new(nroots);
    move |w| rs.encode(w)
}

/// LFSR check symbols of a `LotEcc5Rs` word (eight big-endian GF(2^16)
/// symbols), as the bytes it stores: each check symbol big-endian.
fn lot5rs_checks() -> impl Fn(&[u8]) -> Vec<u8> {
    let rs = ReedSolomon::<Gf65536>::new(2);
    move |w| {
        let syms: Vec<u16> = w
            .chunks_exact(2)
            .map(|b| u16::from_be_bytes([b[0], b[1]]))
            .collect();
        rs.encode(&syms)
            .iter()
            .flat_map(|c| c.to_be_bytes())
            .collect()
    }
}

#[test]
fn chipkill18_map_matches_lfsr() {
    let checks = gf256_checks(2);
    check_map("chipkill18", Chipkill18::new().check_map(), |w| {
        let c = checks(w);
        u16::from_le_bytes([c[0], c[1]])
    });
}

#[test]
fn chipkill36_map_matches_lfsr() {
    let checks = gf256_checks(4);
    check_map("chipkill36", Chipkill36::new().check_map(), |w| {
        let c = checks(w);
        u32::from_le_bytes([c[0], c[1], c[2], c[3]])
    });
}

#[test]
fn chipkill_double_map_matches_lfsr() {
    let checks = gf256_checks(8);
    check_map("chipkill-double", ChipkillDouble::new().check_map(), |w| {
        let c = checks(w);
        u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
    });
}

#[test]
fn lotecc5rs_map_matches_lfsr() {
    let checks = lot5rs_checks();
    check_map("lotecc5rs", LotEcc5Rs::new().check_map(), |w| {
        let c = checks(w);
        u32::from_le_bytes([c[0], c[1], c[2], c[3]])
    });
}

/// The stored check bytes of one word.
type WordChecks = Box<dyn Fn(&[u8]) -> Vec<u8>>;

/// A codec's split, rebuilt from LFSR check symbols: each word's stored
/// check bytes split into a detection part and a correction part.
struct Reference {
    word_bytes: usize,
    checks: WordChecks,
    detection: Range<usize>,
    correction: Range<usize>,
    /// Correction bytes that follow the words' check bytes (the
    /// `LotEcc5Rs` intra-chip checksums).
    trailer: fn(&[u8]) -> Vec<u8>,
}

impl Reference {
    fn gather(&self, line: &[u8], part: &Range<usize>) -> Vec<u8> {
        line.chunks_exact(self.word_bytes)
            .flat_map(|w| (self.checks)(w)[part.clone()].to_vec())
            .collect()
    }

    fn detection_of(&self, line: &[u8]) -> Vec<u8> {
        self.gather(line, &self.detection)
    }

    fn correction_of(&self, line: &[u8]) -> Vec<u8> {
        let mut out = self.gather(line, &self.correction);
        out.extend((self.trailer)(line));
        out
    }

    fn detect(&self, line: &[u8], detection: &[u8]) -> DetectOutcome {
        if self.detection_of(line) == detection {
            DetectOutcome::Clean
        } else {
            DetectOutcome::ErrorDetected
        }
    }
}

fn no_trailer(_: &[u8]) -> Vec<u8> {
    Vec::new()
}

/// `LotEcc5Rs`'s intra-chip checksums: symbol `j` of every word lives on
/// chip `j % 4`, and each chip's 16 bytes carry a big-endian checksum16.
fn lot5rs_chip_checksums(line: &[u8]) -> Vec<u8> {
    (0..4)
        .flat_map(|chip| {
            let bytes: Vec<u8> = line
                .chunks_exact(2)
                .enumerate()
                .filter(|(sym, _)| sym % 8 % 4 == chip)
                .flat_map(|(_, b)| b.to_vec())
                .collect();
            checksum16(&bytes).to_be_bytes()
        })
        .collect()
}

/// Valid lines (zero, all-0xFF, seeded) plus, for each seeded line, one
/// mutant with one changed byte and one with two.
fn lines(n: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut out = vec![vec![0u8; n], vec![0xFF; n]];
    for _ in 0..40 {
        let line: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
        for flips in 1..=2 {
            let mut m = line.clone();
            for _ in 0..flips {
                let at = rng.gen_range(0..n);
                m[at] ^= rng.gen_range(1..=255u8);
            }
            out.push(m);
        }
        out.push(line);
    }
    out
}

fn check_codec(name: &str, codec: &dyn CorrectionSplit, reference: Reference) {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let pool = lines(codec.data_bytes(), &mut rng);
    for (i, line) in pool.iter().enumerate() {
        let det = reference.detection_of(line);
        let corr = reference.correction_of(line);
        assert_eq!(
            codec.detection_of(line),
            det,
            "{name}: detection_of line {i}"
        );
        assert_eq!(
            codec.correction_of(line),
            corr,
            "{name}: correction_of line {i}"
        );
        let cw = codec.encode(line);
        assert_eq!(
            (&cw.data, &cw.detection, &cw.correction),
            (line, &det, &corr),
            "{name}: encode line {i}"
        );
        assert_eq!(
            codec.detect(line, &det),
            DetectOutcome::Clean,
            "{name}: line {i}"
        );
        // The stored detection bits of this line against mutants of its
        // data, and mutants of its detection bits against its data.
        for flips in 1..=2 {
            let mut data = line.clone();
            let mut stored = det.clone();
            for _ in 0..flips {
                let (d, s) = (rng.gen_range(0..data.len()), rng.gen_range(0..stored.len()));
                data[d] ^= rng.gen_range(1..=255u8);
                stored[s] ^= rng.gen_range(1..=255u8);
            }
            assert_eq!(
                codec.detect(&data, &det),
                reference.detect(&data, &det),
                "{name}: detect data mutant of line {i}"
            );
            assert_eq!(
                codec.detect(line, &stored),
                reference.detect(line, &stored),
                "{name}: detect detection mutant of line {i}"
            );
        }
    }
    let refs: Vec<&[u8]> = pool.iter().map(Vec::as_slice).collect();
    for batch in [0, 1, 7, refs.len()] {
        let batch = &refs[..batch];
        let encoded = codec.encode_lines(batch);
        let dets = codec.detection_of_lines(batch);
        let corrs = codec.correction_of_lines(batch);
        assert_eq!(encoded.len(), batch.len(), "{name}");
        for (i, line) in batch.iter().enumerate() {
            let (det, corr) = (reference.detection_of(line), reference.correction_of(line));
            assert_eq!(encoded[i].detection, det, "{name}: encode_lines[{i}]");
            assert_eq!(encoded[i].correction, corr, "{name}: encode_lines[{i}]");
            assert_eq!(dets[i], det, "{name}: detection_of_lines[{i}]");
            assert_eq!(corrs[i], corr, "{name}: correction_of_lines[{i}]");
        }
    }
}

#[test]
fn chipkill18_codec_matches_lfsr_reference() {
    let reference = Reference {
        word_bytes: 16,
        checks: Box::new(gf256_checks(2)),
        detection: 0..1,
        correction: 1..2,
        trailer: no_trailer,
    };
    check_codec("chipkill18", &Chipkill18::new(), reference);
}

#[test]
fn chipkill36_codec_matches_lfsr_reference() {
    let reference = Reference {
        word_bytes: 32,
        checks: Box::new(gf256_checks(4)),
        detection: 0..2,
        correction: 2..4,
        trailer: no_trailer,
    };
    check_codec("chipkill36", &Chipkill36::new(), reference);
}

#[test]
fn chipkill_double_codec_matches_lfsr_reference() {
    let reference = Reference {
        word_bytes: 32,
        checks: Box::new(gf256_checks(8)),
        detection: 0..4,
        correction: 4..8,
        trailer: no_trailer,
    };
    check_codec("chipkill-double", &ChipkillDouble::new(), reference);
}

#[test]
fn lotecc5rs_codec_matches_lfsr_reference() {
    let reference = Reference {
        word_bytes: 16,
        checks: Box::new(lot5rs_checks()),
        detection: 0..2,
        correction: 2..4,
        trailer: lot5rs_chip_checksums,
    };
    check_codec("lotecc5rs", &LotEcc5Rs::new(), reference);
}
