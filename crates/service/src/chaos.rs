//! Deterministic fault injection for the daemon's own machinery.
//!
//! The campaign supervisor's chaos layer ([`eccparity_bench::chaos`])
//! attacks the *batch* infrastructure; this module attacks the *daemon*:
//! shard batch application panics, injected apply stalls (to exercise the
//! watchdog accounting), and worker poisoning (an uncaught panic that
//! kills a shard worker outright, forcing the quarantine + restart
//! path). `ECC_PARITY_SERVICE_CHAOS=<seed>` arms the first two sites
//! process-wide; poisoning is never armed from the environment — it
//! deliberately loses events applied since the last checkpoint, so only
//! tests construct it explicitly.
//!
//! Every decision is a pure function of `(seed, site, shard, batch)`,
//! so two daemons fed the same stream inject identically regardless of
//! thread schedule. Batch panics only ever fire on a batch's *first*
//! attempt and always **before** any state mutation, so the engine's
//! retry converges to the fault-free state — which is what makes the CI
//! `chaos-smoke` "chaos transcript == golden transcript" gate meaningful.

use eccparity_bench::hash::{fnv1a64, roll};
use std::sync::OnceLock;

/// A deterministic chaos source for the service layer. `Copy`, so every
/// shard worker holds its own handle; all handles with the same
/// configuration make identical decisions.
#[derive(Debug, Clone, Copy)]
pub struct ServiceChaos {
    seed: Option<u64>,
    /// Batch first-attempt panics fire with probability ~1/denom (0 = off).
    panic_denom: u64,
    /// Pre-apply stalls fire with probability ~1/denom (0 = off).
    stall_denom: u64,
    /// Poison the worker after applying exactly this (per-shard) batch
    /// number — a one-shot kill, so the respawned worker survives. Never
    /// armed from the environment.
    poison_batch: Option<u64>,
}

impl Default for ServiceChaos {
    fn default() -> Self {
        ServiceChaos::off()
    }
}

impl ServiceChaos {
    /// Chaos disarmed: every query says "no fault".
    pub fn off() -> ServiceChaos {
        ServiceChaos {
            seed: None,
            panic_denom: 0,
            stall_denom: 0,
            poison_batch: None,
        }
    }

    /// The environment profile: first-attempt batch panics (~1/8) and
    /// short pre-apply stalls (~1/16). Convergent by construction.
    pub fn from_seed(seed: u64) -> ServiceChaos {
        ServiceChaos {
            seed: Some(seed),
            panic_denom: 8,
            stall_denom: 16,
            poison_batch: None,
        }
    }

    /// A fully explicit profile for tests. A denominator of 0 disarms
    /// its site; 1 makes the site fire on every roll.
    pub fn explicit(seed: u64, panic_denom: u64, stall_denom: u64) -> ServiceChaos {
        ServiceChaos {
            seed: Some(seed),
            panic_denom,
            stall_denom,
            poison_batch: None,
        }
    }

    /// Arm the one-shot worker poison: each shard's worker dies after
    /// applying its `batch`-th batch (tests only).
    pub fn with_poison_batch(mut self, batch: u64) -> ServiceChaos {
        if self.seed.is_none() {
            self.seed = Some(0);
        }
        self.poison_batch = Some(batch);
        self
    }

    /// Is any site armed?
    pub fn enabled(&self) -> bool {
        self.seed.is_some()
    }

    /// [`eccparity_bench::hash::roll`] over (seed, site, shard, batch);
    /// never fires when disarmed or at a zero denominator.
    fn roll(&self, site: &str, shard: u64, batch: u64, denom: u64) -> bool {
        self.seed
            .is_some_and(|seed| roll(seed, site, shard, batch, denom))
    }

    /// Should this shard's `batch`-th batch panic before applying
    /// anything? Only the first attempt is ever injected, so the retry
    /// always converges.
    pub fn batch_panic(&self, shard: u64, batch: u64, attempt: u32) -> bool {
        attempt == 1 && self.roll("shard.batch_panic", shard, batch, self.panic_denom)
    }

    /// Milliseconds to stall before applying this batch, if any. Kept
    /// short (1–20 ms) so the default 5 s watchdog deadline is never
    /// tripped by injection alone.
    pub fn batch_stall_ms(&self, shard: u64, batch: u64) -> Option<u64> {
        if self.roll("shard.batch_stall", shard, batch, self.stall_denom) {
            Some(1 + fnv1a64(&[shard as u8, batch as u8]) % 20)
        } else {
            None
        }
    }

    /// Should the worker thread itself die (panic outside the per-batch
    /// guard) after applying this batch? Exercises quarantine + restart-
    /// from-checkpoint; loses events applied since the last checkpoint,
    /// so it is never armed from the environment. One-shot per shard:
    /// batch numbering is continuous across respawns, so the replacement
    /// worker never sees the poisoned batch number again.
    pub fn worker_poison(&self, _shard: u64, batch: u64) -> bool {
        self.poison_batch == Some(batch)
    }
}

/// The process-wide service chaos handle, armed by
/// `ECC_PARITY_SERVICE_CHAOS=<seed>`. An unparsable value disarms with a
/// note on stderr rather than panicking.
pub fn global() -> ServiceChaos {
    static GLOBAL: OnceLock<ServiceChaos> = OnceLock::new();
    *GLOBAL.get_or_init(|| match std::env::var("ECC_PARITY_SERVICE_CHAOS") {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(seed) => {
                eprintln!("eccparityd: service chaos armed with seed {seed}");
                ServiceChaos::from_seed(seed)
            }
            Err(_) => {
                eprintln!(
                    "eccparityd: ECC_PARITY_SERVICE_CHAOS={v:?} is not a u64 seed; chaos disarmed"
                );
                ServiceChaos::off()
            }
        },
        Err(_) => ServiceChaos::off(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first 64 decisions of each rolled site on shards 0–3 and 1000
    /// as bit masks (bit `b` = fired on batch `b`): batch panics, then
    /// stalls. Shard 1000 spans two key bytes, so a roll that took its
    /// coordinates in the other order would move its masks.
    fn decisions(c: ServiceChaos) -> [[u64; 5]; 2] {
        let mut m = [[0u64; 5]; 2];
        for (col, shard) in [0, 1, 2, 3, 1000u64].into_iter().enumerate() {
            for b in 0..64u64 {
                m[0][col] |= u64::from(c.batch_panic(shard, b, 1)) << b;
                m[1][col] |= u64::from(c.batch_stall_ms(shard, b).is_some()) << b;
            }
        }
        m
    }

    #[test]
    fn decisions_are_pinned() {
        let pinned: [(u64, [[u64; 5]; 2]); 3] = [
            (
                7,
                [
                    [
                        0x1010101010101010,
                        0x2020202020202020,
                        0x4040404040404040,
                        0x8080808080808080,
                        0x2020202020202020,
                    ],
                    [
                        0x0002000200020002,
                        0x0001000100010001,
                        0x0008000800080008,
                        0x0004000400040004,
                        0x0100010001000100,
                    ],
                ],
            ),
            (
                9,
                [
                    [
                        0x0404040404040404,
                        0x0808080808080808,
                        0x0101010101010101,
                        0x0202020202020202,
                        0x8080808080808080,
                    ],
                    [
                        0x0008000800080008,
                        0x0004000400040004,
                        0x0002000200020002,
                        0x0001000100010001,
                        0x0040004000400040,
                    ],
                ],
            ),
            (
                17,
                [
                    [
                        0x0404040404040404,
                        0x0808080808080808,
                        0x0101010101010101,
                        0x0202020202020202,
                        0x8080808080808080,
                    ],
                    [
                        0x0800080008000800,
                        0x0400040004000400,
                        0x0200020002000200,
                        0x0100010001000100,
                        0x4000400040004000,
                    ],
                ],
            ),
        ];
        for (seed, masks) in pinned {
            assert_eq!(
                decisions(ServiceChaos::from_seed(seed)),
                masks,
                "seed {seed}"
            );
            // A zero denominator disarms its site at every seed.
            assert_eq!(decisions(ServiceChaos::explicit(seed, 0, 0)), [[0; 5]; 2]);
        }
    }

    #[test]
    fn disarmed_chaos_never_fires() {
        let c = ServiceChaos::off();
        for b in 0..500u64 {
            assert!(!c.batch_panic(0, b, 1));
            assert!(c.batch_stall_ms(1, b).is_none());
            assert!(!c.worker_poison(2, b));
        }
    }

    #[test]
    fn armed_chaos_is_deterministic_and_first_attempt_only() {
        let a = ServiceChaos::from_seed(9);
        let b = ServiceChaos::from_seed(9);
        let other = ServiceChaos::from_seed(10);
        let mut fired = 0;
        let mut diverged = false;
        for batch in 0..400u64 {
            for shard in 0..4u64 {
                assert_eq!(
                    a.batch_panic(shard, batch, 1),
                    b.batch_panic(shard, batch, 1)
                );
                assert_eq!(
                    a.batch_stall_ms(shard, batch),
                    b.batch_stall_ms(shard, batch)
                );
                if a.batch_panic(shard, batch, 1) {
                    fired += 1;
                }
                if a.batch_panic(shard, batch, 1) != other.batch_panic(shard, batch, 1) {
                    diverged = true;
                }
                // Retries are never injected; the env profile never poisons.
                assert!(!a.batch_panic(shard, batch, 2));
                assert!(!a.worker_poison(shard, batch));
            }
        }
        assert!(fired > 20, "armed chaos must actually inject ({fired})");
        assert!(diverged, "different seeds must make different decisions");
    }

    #[test]
    fn poison_is_one_shot_per_batch_number() {
        let c = ServiceChaos::off().with_poison_batch(3);
        assert!(!c.worker_poison(0, 2));
        assert!(c.worker_poison(0, 3), "fires on the armed batch");
        assert!(c.worker_poison(1, 3), "every shard's batch 3");
        assert!(!c.worker_poison(0, 4), "never again");
        assert!(!c.batch_panic(0, 3, 1), "panic site stays disarmed");
    }
}
