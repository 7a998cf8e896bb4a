//! Deterministic infrastructure-fault injection for the bench harness.
//!
//! The resilience soak (PR 3) attacks the *memory model*; this module
//! attacks the *evaluation infrastructure* — the run cache, the checkpoint
//! journal, and the shards the supervisor executes — so the crash-safety
//! machinery is itself testable. `ECC_PARITY_CHAOS=<seed>` arms it
//! process-wide; every decision is a pure function of `(seed, site,
//! coordinates)`, so two runs with the same seed inject the same faults at
//! the same places regardless of thread schedule or wall-clock timing.
//!
//! Injection sites:
//!
//! * **Cache corruption** ([`Chaos::corrupt_cache_entry`]): after a
//!   successful atomic store, the published entry is truncated mid-record
//!   or a payload byte is flipped. The quarantine path in
//!   [`crate::cache::RunCache`] must catch it on the next load.
//! * **Journal write failure** ([`Chaos::fail_journal_write`]): a
//!   checkpoint persist is skipped, simulating `ENOSPC`. The supervisor
//!   must degrade (less resume coverage) without losing results.
//! * **Shard panics / slow shards** ([`Chaos::shard_panic`],
//!   [`Chaos::shard_delay_ms`]): a shard's *first* attempt panics or
//!   stalls; retries are never re-injected, so a chaos run always
//!   converges to the fault-free results.
//!
//! Chaos never alters computed values — only the infrastructure around
//! them — which is what makes "chaos run == fault-free run" a meaningful
//! acceptance gate (`chaos_soak` in `tests/supervisor_tests.rs`).

use crate::hash::{fnv1a64, roll};
use std::sync::OnceLock;

/// What to do to a freshly stored cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCorruption {
    /// Truncate the file mid-record (torn write / crashed writer).
    Truncate,
    /// Flip one byte of the content (bit rot / bad sector).
    FlipByte,
}

/// A deterministic chaos source. `Copy`, so every subsystem can hold its
/// own handle; all handles with the same seed make identical decisions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chaos {
    seed: Option<u64>,
}

impl Chaos {
    /// Chaos disarmed: every query says "no fault".
    pub fn off() -> Chaos {
        Chaos { seed: None }
    }

    /// Chaos armed with an explicit seed (tests use this; binaries use
    /// [`global`]).
    pub fn from_seed(seed: u64) -> Chaos {
        Chaos { seed: Some(seed) }
    }

    /// Is injection armed?
    pub fn enabled(&self) -> bool {
        self.seed.is_some()
    }

    /// [`crate::hash::roll`] under this handle's seed; never fires when
    /// disarmed.
    fn roll(&self, site: &str, a: u64, b: u64, denom: u64) -> bool {
        self.seed.is_some_and(|seed| roll(seed, site, a, b, denom))
    }

    /// Should the cache entry for cell `hash` be damaged after store, and
    /// how? Fires for ~1 in 3 stored cells when armed.
    pub fn corrupt_cache_entry(&self, hash: u64) -> Option<CacheCorruption> {
        if self.roll("cache.truncate", hash, 0, 6) {
            Some(CacheCorruption::Truncate)
        } else if self.roll("cache.flip", hash, 0, 6) {
            Some(CacheCorruption::FlipByte)
        } else {
            None
        }
    }

    /// Should the `n`-th journal persist fail (simulated `ENOSPC`)?
    /// Fires for ~1 in 4 persists when armed.
    pub fn fail_journal_write(&self, n: u64) -> bool {
        self.roll("journal.enospc", n, 0, 4)
    }

    /// Should this shard attempt panic? Only ever fires on the first
    /// attempt (~1 in 4 shards when armed), so retried shards always
    /// converge.
    pub fn shard_panic(&self, shard: &str, attempt: u32) -> bool {
        attempt == 1 && self.roll("shard.panic", fnv1a64(shard.as_bytes()), 0, 4)
    }

    /// Stall to inject before this shard attempt runs, if any. Only ever
    /// fires on the first attempt (~1 in 4 shards when armed), so a
    /// watchdog kill is always followed by a prompt retry.
    pub fn shard_delay_ms(&self, shard: &str, attempt: u32) -> Option<u64> {
        if attempt == 1 && self.roll("shard.slow", fnv1a64(shard.as_bytes()), 0, 4) {
            // 40..=150 ms, deterministic per shard.
            Some(40 + fnv1a64(shard.as_bytes()) % 111)
        } else {
            None
        }
    }
}

/// The process-wide chaos handle, armed by `ECC_PARITY_CHAOS=<seed>`.
/// An unparsable value disarms with a note on stderr rather than panicking.
pub fn global() -> Chaos {
    static GLOBAL: OnceLock<Chaos> = OnceLock::new();
    *GLOBAL.get_or_init(|| match std::env::var("ECC_PARITY_CHAOS") {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(seed) => {
                eprintln!("chaos: armed with seed {seed}");
                Chaos::from_seed(seed)
            }
            Err(_) => {
                eprintln!("chaos: ECC_PARITY_CHAOS={v:?} is not a u64 seed; chaos disarmed");
                Chaos::off()
            }
        },
        Err(_) => Chaos::off(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each site's first 64 decisions as a bit mask (bit `i` = fired on
    /// input `i`): cache truncate, cache flip, journal ENOSPC, shard
    /// panic, shard stall.
    fn decisions(c: Chaos) -> [u64; 5] {
        let mut m = [0u64; 5];
        for i in 0..64u64 {
            let s = format!("campaign:shard{i}");
            let fired = [
                c.corrupt_cache_entry(i) == Some(CacheCorruption::Truncate),
                c.corrupt_cache_entry(i) == Some(CacheCorruption::FlipByte),
                c.fail_journal_write(i),
                c.shard_panic(&s, 1),
                c.shard_delay_ms(&s, 1).is_some(),
            ];
            for (mask, f) in m.iter_mut().zip(fired) {
                *mask |= u64::from(f) << i;
            }
        }
        m
    }

    #[test]
    fn decisions_are_pinned() {
        // Seed 7 is the one the chaos tests and the campaign resume test
        // run; any change to the roll moves these masks.
        let pinned: [(u64, [u64; 5]); 3] = [
            (
                7,
                [
                    0x1111004444001011,
                    0x0022880802802022,
                    0x2222222222222222,
                    0x34280c0940080400,
                    0x0a1470020c2608c2,
                ],
            ),
            (
                9,
                [
                    0x4400044410441111,
                    0x8888222000228888,
                    0x8888888888888888,
                    0x0a1470020c2608c2,
                    0x34280c0940080400,
                ],
            ),
            (
                17,
                [
                    0x1101041044100044,
                    0x2222008000888800,
                    0x8888888888888888,
                    0x0a1470020c2608c2,
                    0x34280c0940080400,
                ],
            ),
        ];
        for (seed, masks) in pinned {
            assert_eq!(decisions(Chaos::from_seed(seed)), masks, "seed {seed}");
        }
    }

    #[test]
    fn disarmed_chaos_never_fires() {
        let c = Chaos::off();
        for i in 0..1000u64 {
            assert!(c.corrupt_cache_entry(i).is_none());
            assert!(!c.fail_journal_write(i));
            assert!(!c.shard_panic(&format!("s{i}"), 1));
            assert!(c.shard_delay_ms(&format!("s{i}"), 1).is_none());
        }
    }

    #[test]
    fn armed_chaos_is_deterministic_and_fires_somewhere() {
        let a = Chaos::from_seed(42);
        let b = Chaos::from_seed(42);
        let other = Chaos::from_seed(43);
        let mut fired = 0;
        let mut diverged = false;
        for i in 0..200u64 {
            let shard = format!("shard{i}");
            assert_eq!(a.corrupt_cache_entry(i), b.corrupt_cache_entry(i));
            assert_eq!(a.fail_journal_write(i), b.fail_journal_write(i));
            assert_eq!(a.shard_panic(&shard, 1), b.shard_panic(&shard, 1));
            assert_eq!(a.shard_delay_ms(&shard, 1), b.shard_delay_ms(&shard, 1));
            if a.shard_panic(&shard, 1) || a.corrupt_cache_entry(i).is_some() {
                fired += 1;
            }
            if a.shard_panic(&shard, 1) != other.shard_panic(&shard, 1) {
                diverged = true;
            }
            // Retries are never injected.
            assert!(!a.shard_panic(&shard, 2));
            assert!(a.shard_delay_ms(&shard, 2).is_none());
        }
        assert!(fired > 10, "armed chaos must actually inject ({fired})");
        assert!(diverged, "different seeds must make different decisions");
    }
}
