//! The vector-instruction tier of the host CPU.
//!
//! No codec in this crate dispatches on it: every GF(2^8) multiply runs
//! through the flat table and the `MulCtx` rows of [`crate::gf::Gf256`].
//! The tier is CPU detection only, kept so that measurement reports can
//! record the host they ran on.

use std::sync::OnceLock;

/// The widest byte-shuffle instruction set the host CPU offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// 32-byte shuffles (`_mm256_shuffle_epi8`).
    Avx2,
    /// 16-byte shuffles (`_mm_shuffle_epi8`).
    Ssse3,
    /// Neither.
    Scalar,
}

impl SimdTier {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdTier::Avx2 => "avx2",
            SimdTier::Ssse3 => "ssse3",
            SimdTier::Scalar => "scalar",
        }
    }
}

/// The host's tier, detected once per process.
pub fn tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdTier::Avx2;
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                return SimdTier::Ssse3;
            }
        }
        SimdTier::Scalar
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_is_stable_and_named() {
        let t = tier();
        assert_eq!(t, tier(), "tier must be decided once");
        assert!(["avx2", "ssse3", "scalar"].contains(&t.as_str()));
    }
}
