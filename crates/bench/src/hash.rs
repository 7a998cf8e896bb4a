//! Shared hashing primitives for the bench infrastructure.

/// 64-bit FNV-1a. Stable, dependency-free, and plenty for cache keys,
/// journal checksums, and deterministic chaos rolls — every consumer also
/// carries enough context (full key strings, payload re-verification) that
/// a collision degrades to a miss or a re-execution, never a wrong result.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV1A64_EMPTY, |h, &b| fnv1a64_step(h, b))
}

/// FNV-1a of no bytes: the state [`fnv1a64_step`] starts from.
pub(crate) const FNV1A64_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one more byte into an FNV-1a state, for callers that hash bytes
/// as they produce them.
#[inline]
pub(crate) fn fnv1a64_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The keyed chaos decision every fault injector shares: FNV-1a over
/// `seed`, `site` and the coordinates `a`, `b` (integers little-endian),
/// reduced mod `denom`; fires on residue 0, so with probability about
/// 1/`denom`. A `denom` of 0 never fires.
pub fn roll(seed: u64, site: &str, a: u64, b: u64, denom: u64) -> bool {
    let mut h = FNV1A64_EMPTY;
    for &byte in seed
        .to_le_bytes()
        .iter()
        .chain(site.as_bytes())
        .chain(&a.to_le_bytes())
        .chain(&b.to_le_bytes())
    {
        h = fnv1a64_step(h, byte);
    }
    denom != 0 && h.is_multiple_of(denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(b"campaign"), fnv1a64(b"campaign"));
    }
}
