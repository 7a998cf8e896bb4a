//! GF(2)-linear byte maps evaluated by table lookup.
//!
//! The check symbols of a systematic Reed–Solomon code are a linear
//! function of its data: the encoder only adds symbols and multiplies them
//! by fixed generator coefficients, and multiplying by a constant of
//! GF(2^m) is GF(2)-linear on the bits. So `checks(a ⊕ b) = checks(a) ⊕
//! checks(b)`, and the checks of a word are the XOR, over its byte
//! positions, of the checks of the word holding that one byte alone. That
//! holds for GF(2^16) symbols split into two bytes as well.
//!
//! A [`LinearMap`] stores those per-byte results, 256 rows per input
//! position, so evaluating a word costs one table load and one XOR per
//! input byte. The codecs build their map once per process from
//! [`crate::rs::ReedSolomon::encode`], which stays the reference encoder.

use std::ops::{BitXor, Range};

/// The packed image of one word: an unsigned integer whose little-endian
/// bytes are the map's output bytes.
pub trait Row: Copy + Default + BitXor<Output = Self> {
    /// The output bytes, `[u8; size_of::<Self>()]`.
    type Bytes: AsRef<[u8]>;
    /// The row as its output bytes.
    fn to_le_bytes(self) -> Self::Bytes;
}

macro_rules! rows {
    ($($t:ty),*) => {$(
        impl Row for $t {
            type Bytes = [u8; std::mem::size_of::<$t>()];
            fn to_le_bytes(self) -> Self::Bytes {
                <$t>::to_le_bytes(self)
            }
        }
    )*};
}
rows!(u16, u32, u64);

/// A GF(2)-linear map from `inputs` bytes to one packed row `R` (the codecs
/// pack their check symbols into a `u16`, `u32` or `u64`).
///
/// ```
/// use ecc_codes::gf::Gf256;
/// use ecc_codes::linear::LinearMap;
/// use ecc_codes::rs::ReedSolomon;
///
/// let rs = ReedSolomon::<Gf256>::new(4);
/// let pack = |c: Vec<u8>| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
/// let map = LinearMap::from_fn(32, |w| pack(rs.encode(w)));
/// let word: Vec<u8> = (0..32).map(|i| i * 7 + 1).collect();
/// assert_eq!(map.apply(&word), pack(rs.encode(&word)));
/// ```
pub struct LinearMap<R> {
    /// `rows[i][v]`: the image of the word whose only nonzero byte is `v`
    /// at position `i`.
    rows: Vec<[R; 256]>,
}

impl<R: Row> LinearMap<R> {
    /// Tabulate `f` over `inputs`-byte words. `f` must be GF(2)-linear; it
    /// is called on the eight one-bit words of each position, and every
    /// other row is the XOR of the rows of its set bits.
    pub fn from_fn(inputs: usize, mut f: impl FnMut(&[u8]) -> R) -> Self {
        let mut unit = vec![0u8; inputs];
        let rows = (0..inputs)
            .map(|i| {
                let mut row = [R::default(); 256];
                for bit in 0..8 {
                    unit[i] = 1 << bit;
                    let image = f(&unit);
                    for v in 1usize << bit..2 << bit {
                        row[v] = row[v ^ (1 << bit)] ^ image;
                    }
                }
                unit[i] = 0;
                row
            })
            .collect();
        LinearMap { rows }
    }

    /// The image of `input`: the XOR of one table row per byte.
    #[inline]
    pub fn apply(&self, input: &[u8]) -> R {
        assert_eq!(input.len(), self.rows.len(), "linear map input length");
        self.rows
            .iter()
            .zip(input)
            .fold(R::default(), |acc, (row, &b)| acc ^ row[usize::from(b)])
    }

    /// Output bytes `part` of every word of `line`, word after word. A line
    /// is a run of `inputs`-byte words; a shorter tail is ignored.
    pub fn gather(&self, line: &[u8], part: Range<usize>) -> Vec<u8> {
        let mut out = Vec::with_capacity(line.len() / self.inputs() * part.len());
        for word in line.chunks_exact(self.inputs()) {
            out.extend_from_slice(&self.apply(word).to_le_bytes().as_ref()[part.clone()]);
        }
        out
    }

    /// Whether `stored` is what [`Self::gather`] returns for `line` and
    /// `part`, computed without building it.
    pub fn matches(&self, line: &[u8], part: Range<usize>, stored: &[u8]) -> bool {
        let words = line.chunks_exact(self.inputs());
        stored.len() == words.len() * part.len()
            && words
                .zip(stored.chunks_exact(part.len()))
                .all(|(word, s)| self.apply(word).to_le_bytes().as_ref()[part.clone()] == *s)
    }

    /// Input bytes per word.
    pub fn inputs(&self) -> usize {
        self.rows.len()
    }

    /// Size of the tables in bytes.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(self.rows.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulates_a_bit_permutation_exactly() {
        // Rotate a 3-byte word left by one bit: linear, and every row is
        // easy to predict.
        let rot = |w: &[u8]| {
            let x = u32::from(w[0]) | u32::from(w[1]) << 8 | u32::from(w[2]) << 16;
            ((x << 1) | (x >> 23)) & 0xFF_FFFF
        };
        let map = LinearMap::from_fn(3, rot);
        assert_eq!(map.inputs(), 3);
        assert_eq!(map.table_bytes(), 3 * 256 * 4);
        for i in 0..3 {
            for v in 0..=255u8 {
                let mut w = [0u8; 3];
                w[i] = v;
                assert_eq!(map.apply(&w), rot(&w), "position {i} value {v}");
            }
        }
        assert_eq!(map.apply(&[0xA5, 0x3C, 0xFF]), rot(&[0xA5, 0x3C, 0xFF]));
    }

    #[test]
    fn gathers_and_matches_word_by_word() {
        // Image of a 2-byte word: (a ^ b, a).
        let map = LinearMap::from_fn(2, |w: &[u8]| u16::from_le_bytes([w[0] ^ w[1], w[0]]));
        let line = [1, 2, 7, 7, 0xF0, 0x0F];
        assert_eq!(map.gather(&line, 0..2), [3, 1, 0, 7, 0xFF, 0xF0]);
        assert_eq!(map.gather(&line, 1..2), [1, 7, 0xF0]);
        assert!(map.matches(&line, 1..2, &[1, 7, 0xF0]));
        assert!(!map.matches(&line, 1..2, &[1, 7, 0xF1]));
        assert!(!map.matches(&line, 1..2, &[1, 7]));
    }

    #[test]
    #[should_panic(expected = "linear map input length")]
    fn refuses_a_short_word() {
        LinearMap::from_fn(4, |w: &[u8]| u16::from(w[0])).apply(&[1, 2, 3]);
    }
}
