//! Bank-pair health tracking (paper §III-B, §III-C).
//!
//! Tracking the kind of correction resource (parity vs stored ECC bits) per
//! line would be prohibitive, so the paper tracks it per **pair of banks in
//! the same channel**. Each pair has a small saturating error counter:
//!
//! * a detected error increments the pair's counter and retires the
//!   physical page containing it (plus every page sharing its parities —
//!   the caller handles that set, since it needs the layout);
//! * when the counter reaches the threshold (default 4), the pair is marked
//!   **faulty**: the caller must migrate the pair's correction bits into
//!   memory and stop using parities for it.
//!
//! The on-chip cost is half a byte per pair: 512 B of SRAM covers a 512 GB
//! system with 1024 banks (§III-E).

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A bank pair within one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PairId {
    /// Channel the pair belongs to.
    pub channel: usize,
    /// Pair index: banks `2*pair` and `2*pair + 1`.
    pub pair: usize,
}

/// What the caller must do after recording an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthAction {
    /// Retire the error's page (and its parity-sharing peers).
    RetirePage,
    /// Counter just saturated: migrate the pair to stored ECC bits.
    MigratePair,
    /// Pair already migrated; nothing further.
    AlreadyFaulty,
}

/// The health table: counters + faulty markings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthTable {
    channels: usize,
    pairs_per_channel: usize,
    threshold: u8,
    counters: Vec<u8>,
    faulty: Vec<bool>,
    /// Retired physical pages: (channel, bank, row).
    retired: HashSet<(usize, usize, u32)>,
}

impl HealthTable {
    /// An all-healthy table for `channels` x `banks_per_channel` banks.
    pub fn new(channels: usize, banks_per_channel: usize, threshold: u8) -> Self {
        assert!(banks_per_channel.is_multiple_of(2));
        assert!(threshold >= 1);
        let pairs_per_channel = banks_per_channel / 2;
        HealthTable {
            channels,
            pairs_per_channel,
            threshold,
            counters: vec![0; channels * pairs_per_channel],
            faulty: vec![false; channels * pairs_per_channel],
            retired: HashSet::new(),
        }
    }

    /// Rebuild a table from its persisted parts, refusing any that no
    /// sequence of [`Self::record_error`] / [`Self::mark_faulty`] /
    /// [`Self::retire_page`] calls could have produced:
    ///
    /// * `threshold` is at least 1;
    /// * `counters` and `faulty` hold exactly one entry per pair;
    /// * every counter is at most `threshold`, and a pair is faulty
    ///   exactly when its counter sits at `threshold` (migration freezes
    ///   the counter there);
    /// * every retired page lies inside the table's channels and banks.
    pub fn from_parts(
        channels: usize,
        pairs_per_channel: usize,
        threshold: u8,
        counters: Vec<u8>,
        faulty: Vec<bool>,
        retired: HashSet<(usize, usize, u32)>,
    ) -> Result<Self, String> {
        if threshold == 0 {
            return Err("threshold must be at least 1".to_string());
        }
        let pairs = channels
            .checked_mul(pairs_per_channel)
            .ok_or("pair count overflows")?;
        if counters.len() != pairs || faulty.len() != pairs {
            return Err(format!(
                "{} counters and {} faulty flags for {pairs} pairs",
                counters.len(),
                faulty.len()
            ));
        }
        if let Some(i) =
            (0..pairs).find(|&i| counters[i] > threshold || (counters[i] == threshold) != faulty[i])
        {
            return Err(format!(
                "pair {i}: counter {} and faulty={} disagree with threshold {threshold}",
                counters[i], faulty[i]
            ));
        }
        if let Some(p) = retired
            .iter()
            .find(|&&(ch, bank, _)| ch >= channels || bank >= 2 * pairs_per_channel)
        {
            return Err(format!("retired page {p:?} outside the table"));
        }
        Ok(HealthTable {
            channels,
            pairs_per_channel,
            threshold,
            counters,
            faulty,
            retired,
        })
    }

    /// The migration threshold (paper default: 4).
    pub fn threshold(&self) -> u8 {
        self.threshold
    }

    /// Number of channels this table tracks.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Banks per channel (twice the pair count).
    pub fn banks_per_channel(&self) -> usize {
        self.pairs_per_channel * 2
    }

    /// Bank pairs per channel.
    pub fn pairs_per_channel(&self) -> usize {
        self.pairs_per_channel
    }

    /// Sum of the error counters of pairs that have **not** migrated —
    /// the fleet-health "pressure" statistic: counts still walking toward
    /// the threshold. Migrated pairs are excluded because their counters
    /// are frozen at the threshold and no longer represent risk (the pair
    /// already fell back to stored correction bits).
    pub fn active_counter_sum(&self) -> u64 {
        self.counters
            .iter()
            .zip(&self.faulty)
            .filter(|&(_, &f)| !f)
            .map(|(&c, _)| u64::from(c))
            .sum()
    }

    /// Number of pairs marked faulty (migrated to stored ECC bits).
    pub fn faulty_pair_count(&self) -> usize {
        self.faulty.iter().filter(|&&f| f).count()
    }

    /// Does `channel` contain any migrated (faulty) pair?
    pub fn channel_has_faulty_pair(&self, channel: usize) -> bool {
        assert!(channel < self.channels);
        let base = channel * self.pairs_per_channel;
        self.faulty[base..base + self.pairs_per_channel]
            .iter()
            .any(|&f| f)
    }

    /// Highest non-migrated pair counter in `channel` (0 when every pair
    /// is clean or everything already migrated).
    pub fn max_active_counter_in_channel(&self, channel: usize) -> u8 {
        assert!(channel < self.channels);
        let base = channel * self.pairs_per_channel;
        self.counters[base..base + self.pairs_per_channel]
            .iter()
            .zip(&self.faulty[base..base + self.pairs_per_channel])
            .filter(|&(_, &f)| !f)
            .map(|(&c, _)| c)
            .max()
            .unwrap_or(0)
    }

    /// Retired pages within `channel`, counted without materializing the
    /// sorted page list.
    pub fn retired_count_in_channel(&self, channel: usize) -> usize {
        self.retired
            .iter()
            .filter(|&&(ch, _, _)| ch == channel)
            .count()
    }

    fn idx(&self, p: PairId) -> usize {
        assert!(p.channel < self.channels && p.pair < self.pairs_per_channel);
        p.channel * self.pairs_per_channel + p.pair
    }

    /// Pair of a bank.
    pub fn pair_of(&self, channel: usize, bank: usize) -> PairId {
        PairId {
            channel,
            pair: bank / 2,
        }
    }

    /// Step A1/A2 of Fig 6: is the bank's pair recorded faulty? (On real
    /// hardware this is the on-chip SRAM lookup done in parallel with the
    /// memory access.)
    pub fn is_faulty(&self, channel: usize, bank: usize) -> bool {
        self.faulty[self.idx(self.pair_of(channel, bank))]
    }

    /// Record a detected error in `bank` of `channel`. Returns the action
    /// the memory controller / OS must take.
    pub fn record_error(&mut self, channel: usize, bank: usize) -> HealthAction {
        let id = self.idx(self.pair_of(channel, bank));
        if self.faulty[id] {
            return HealthAction::AlreadyFaulty;
        }
        self.counters[id] = self.counters[id].saturating_add(1);
        obs::counter!("health.errors_recorded").inc();
        if obs::trace::enabled() {
            obs::trace::event(
                "health.counter",
                &[
                    ("channel", obs::trace::Value::U64(channel as u64)),
                    ("pair", obs::trace::Value::U64((bank / 2) as u64)),
                    ("count", obs::trace::Value::U64(self.counters[id] as u64)),
                    ("threshold", obs::trace::Value::U64(self.threshold as u64)),
                ],
            );
        }
        if self.counters[id] >= self.threshold {
            self.faulty[id] = true;
            obs::counter!("health.pairs_migrated").inc();
            obs::trace::event(
                "health.pair_migrated",
                &[
                    ("channel", obs::trace::Value::U64(channel as u64)),
                    ("pair", obs::trace::Value::U64((bank / 2) as u64)),
                ],
            );
            HealthAction::MigratePair
        } else {
            HealthAction::RetirePage
        }
    }

    /// Directly mark a pair faulty (used when external diagnosis, e.g. a
    /// scrub sweep classifying a whole-bank fault, bypasses the counter).
    pub fn mark_faulty(&mut self, p: PairId) {
        let id = self.idx(p);
        if !self.faulty[id] {
            obs::counter!("health.pairs_migrated").inc();
            obs::trace::event(
                "health.pair_migrated",
                &[
                    ("channel", obs::trace::Value::U64(p.channel as u64)),
                    ("pair", obs::trace::Value::U64(p.pair as u64)),
                ],
            );
        }
        self.faulty[id] = true;
        self.counters[id] = self.threshold;
    }

    /// Current error count of a pair.
    pub fn counter(&self, p: PairId) -> u8 {
        self.counters[self.idx(p)]
    }

    /// Retire one physical page.
    pub fn retire_page(&mut self, channel: usize, bank: usize, row: u32) {
        if self.retired.insert((channel, bank, row)) {
            obs::counter!("health.pages_retired").inc();
        }
    }

    /// Has this physical page been retired?
    pub fn is_retired(&self, channel: usize, bank: usize, row: u32) -> bool {
        self.retired.contains(&(channel, bank, row))
    }

    /// Number of pages retired so far.
    pub fn retired_count(&self) -> usize {
        self.retired.len()
    }

    /// All retired pages as `(channel, bank, row)`, in sorted order (the
    /// resilience soak compares successive snapshots, so the order must be
    /// deterministic).
    pub fn retired_pages(&self) -> Vec<(usize, usize, u32)> {
        let mut out: Vec<_> = self.retired.iter().copied().collect();
        out.sort_unstable();
        out
    }

    /// Per-pair error counters, indexed `channel * pairs_per_channel + pair`.
    pub fn counters(&self) -> &[u8] {
        &self.counters
    }

    /// Per-pair faulty flags, same indexing as [`Self::counters`].
    pub fn faulty_flags(&self) -> &[bool] {
        &self.faulty
    }

    /// The retired pages as `(channel, bank, row)`, in hash order (see
    /// [`Self::retired_pages`] for a sorted copy).
    pub fn retired(&self) -> &HashSet<(usize, usize, u32)> {
        &self.retired
    }

    /// Per-pair error counters, indexed `channel * pairs_per_channel + pair`
    /// (snapshot for monotonicity auditing).
    pub fn counters_snapshot(&self) -> Vec<u8> {
        self.counters.clone()
    }

    /// Per-pair faulty flags, same indexing as [`Self::counters_snapshot`].
    pub fn faulty_snapshot(&self) -> Vec<bool> {
        self.faulty.clone()
    }

    /// All faulty pairs.
    pub fn faulty_pairs(&self) -> Vec<PairId> {
        let mut out = vec![];
        for channel in 0..self.channels {
            for pair in 0..self.pairs_per_channel {
                let p = PairId { channel, pair };
                if self.faulty[self.idx(p)] {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Fraction of system capacity in faulty pairs (the Fig 8 statistic).
    pub fn faulty_fraction(&self) -> f64 {
        let total = (self.channels * self.pairs_per_channel) as f64;
        self.faulty_pairs().len() as f64 / total
    }

    /// On-chip SRAM bytes this table needs (§III-E: 0.5 B per pair).
    pub fn sram_bytes(&self) -> usize {
        (self.channels * self.pairs_per_channel).div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_reaches_threshold_then_migrates() {
        let mut h = HealthTable::new(4, 8, 4);
        for i in 0..3 {
            assert_eq!(
                h.record_error(1, 4),
                HealthAction::RetirePage,
                "error {i} below threshold retires a page"
            );
            assert!(!h.is_faulty(1, 4));
        }
        assert_eq!(h.record_error(1, 4), HealthAction::MigratePair);
        assert!(h.is_faulty(1, 4));
        assert!(h.is_faulty(1, 5), "partner bank shares the pair state");
        assert!(!h.is_faulty(1, 6));
        assert_eq!(h.record_error(1, 5), HealthAction::AlreadyFaulty);
    }

    #[test]
    fn errors_in_different_banks_of_a_pair_share_the_counter() {
        // Paper: "the combined number of errors encountered in a pair of
        // banks in the same channel".
        let mut h = HealthTable::new(2, 4, 4);
        h.record_error(0, 2);
        h.record_error(0, 3);
        h.record_error(0, 2);
        assert_eq!(h.record_error(0, 3), HealthAction::MigratePair);
    }

    #[test]
    fn counters_are_per_pair_and_per_channel() {
        let mut h = HealthTable::new(2, 4, 2);
        h.record_error(0, 0);
        h.record_error(1, 0);
        assert_eq!(
            h.counter(PairId {
                channel: 0,
                pair: 0
            }),
            1
        );
        assert_eq!(
            h.counter(PairId {
                channel: 1,
                pair: 0
            }),
            1
        );
        assert_eq!(
            h.counter(PairId {
                channel: 0,
                pair: 1
            }),
            0
        );
    }

    #[test]
    fn page_retirement_bookkeeping() {
        let mut h = HealthTable::new(2, 4, 4);
        assert!(!h.is_retired(0, 1, 7));
        h.retire_page(0, 1, 7);
        assert!(h.is_retired(0, 1, 7));
        assert_eq!(h.retired_count(), 1);
        h.retire_page(0, 1, 7); // idempotent
        assert_eq!(h.retired_count(), 1);
    }

    #[test]
    fn faulty_fraction_counts_pairs() {
        let mut h = HealthTable::new(4, 8, 1);
        assert_eq!(h.faulty_fraction(), 0.0);
        h.record_error(2, 6); // threshold 1: immediate migration
        assert_eq!(
            h.faulty_pairs(),
            vec![PairId {
                channel: 2,
                pair: 3
            }]
        );
        assert!((h.faulty_fraction() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn sram_budget_matches_paper() {
        // §III-E: 1024 banks -> 512 pairs... the paper says 0.5B per *pair
        // of banks* and 512B for 1024 banks; with 8 channels x 128 banks:
        let h = HealthTable::new(8, 128, 4);
        assert_eq!(h.sram_bytes(), 256); // 512 pairs * 0.5B
    }

    #[test]
    fn counter_saturates_exactly_at_threshold() {
        // The counter must land exactly on the threshold when the pair
        // migrates (mark/migrate agree on the stored value), and stay there:
        // a faulty pair's counter never moves again.
        let mut h = HealthTable::new(2, 4, 3);
        let p = PairId {
            channel: 0,
            pair: 1,
        };
        h.record_error(0, 2);
        h.record_error(0, 3);
        assert_eq!(h.counter(p), 2);
        assert_eq!(h.record_error(0, 2), HealthAction::MigratePair);
        assert_eq!(h.counter(p), 3, "counter stops exactly at the threshold");
        assert_eq!(h.record_error(0, 3), HealthAction::AlreadyFaulty);
        assert_eq!(h.counter(p), 3, "faulty pair counter is frozen");
    }

    #[test]
    fn counter_saturating_add_at_u8_max() {
        // A threshold of 255 exercises the u8 saturation edge: the counter
        // must reach 255 (and migrate) without wrapping.
        let mut h = HealthTable::new(1, 2, u8::MAX);
        for _ in 0..254 {
            assert_eq!(h.record_error(0, 0), HealthAction::RetirePage);
        }
        assert_eq!(
            h.counter(PairId {
                channel: 0,
                pair: 0
            }),
            254
        );
        assert_eq!(h.record_error(0, 1), HealthAction::MigratePair);
        assert_eq!(
            h.counter(PairId {
                channel: 0,
                pair: 0
            }),
            255
        );
    }

    #[test]
    fn record_error_on_already_retired_page_still_counts() {
        // Retirement is page-granular; the counter is pair-granular. An
        // error on an already-retired page (e.g. a scrub racing the OS
        // unmapping it) must still advance the pair toward migration and
        // must leave the retirement set untouched.
        let mut h = HealthTable::new(2, 4, 4);
        h.retire_page(0, 2, 9);
        assert!(h.is_retired(0, 2, 9));
        assert_eq!(h.record_error(0, 2), HealthAction::RetirePage);
        h.retire_page(0, 2, 9); // caller re-retires idempotently
        assert_eq!(h.retired_count(), 1);
        assert_eq!(
            h.counter(PairId {
                channel: 0,
                pair: 1
            }),
            1
        );
        assert!(h.is_retired(0, 2, 9), "retirement is permanent");
    }

    #[test]
    fn serde_roundtrip_of_partially_migrated_table() {
        // A table mid-life: one pair migrated, another with a nonzero
        // counter, several retired pages. Everything must survive a JSON
        // round trip (checkpoint/restore of controller state).
        let mut h = HealthTable::new(4, 8, 4);
        for _ in 0..4 {
            h.record_error(1, 4); // pair (1,2) migrates
        }
        h.record_error(2, 0); // pair (2,0) at count 1
        h.retire_page(1, 4, 3);
        h.retire_page(2, 0, 7);
        h.retire_page(3, 5, 0);
        let json = serde_json::to_string(&h).unwrap();
        let mut back: HealthTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back.threshold(), h.threshold());
        assert_eq!(back.counters_snapshot(), h.counters_snapshot());
        assert_eq!(back.faulty_snapshot(), h.faulty_snapshot());
        assert_eq!(back.retired_pages(), h.retired_pages());
        assert!(back.is_faulty(1, 4) && back.is_faulty(1, 5));
        assert!(!back.is_faulty(2, 0));
        assert_eq!(
            back.counter(PairId {
                channel: 2,
                pair: 0
            }),
            1
        );
        assert_eq!(back.retired_count(), 3);
        assert_eq!(
            back.record_error(2, 1),
            HealthAction::RetirePage,
            "restored table keeps counting from where it left off"
        );
    }

    #[test]
    fn from_parts_round_trips_and_refuses_impossible_tables() {
        let mut h = HealthTable::new(2, 4, 3);
        for _ in 0..3 {
            h.record_error(1, 2); // pair (1,1) migrates
        }
        h.record_error(0, 0);
        h.retire_page(0, 0, 12);
        let parts = || {
            (
                h.counters().to_vec(),
                h.faulty_flags().to_vec(),
                h.retired().clone(),
            )
        };
        let (c, f, r) = parts();
        assert_eq!(HealthTable::from_parts(2, 2, 3, c, f, r), Ok(h.clone()));

        let (c, f, r) = parts();
        assert!(
            HealthTable::from_parts(2, 2, 0, c, f, r).is_err(),
            "threshold 0"
        );
        let (mut c, f, r) = parts();
        c.pop();
        assert!(
            HealthTable::from_parts(2, 2, 3, c, f, r).is_err(),
            "short counters"
        );
        let (c, mut f, r) = parts();
        f.push(false);
        assert!(
            HealthTable::from_parts(2, 2, 3, c, f, r).is_err(),
            "long faulty"
        );
        let (mut c, f, r) = parts();
        c[0] = 4;
        assert!(
            HealthTable::from_parts(2, 2, 3, c, f, r).is_err(),
            "counter past threshold"
        );
        let (c, mut f, r) = parts();
        f[0] = true;
        assert!(
            HealthTable::from_parts(2, 2, 3, c, f, r).is_err(),
            "faulty below threshold"
        );
        let (c, mut f, r) = parts();
        f[3] = false;
        assert!(
            HealthTable::from_parts(2, 2, 3, c, f, r).is_err(),
            "threshold but not faulty"
        );
        for bad in [(2, 0, 1), (0, 4, 1)] {
            let (c, f, mut r) = parts();
            r.insert(bad);
            assert!(
                HealthTable::from_parts(2, 2, 3, c, f, r).is_err(),
                "retired {bad:?}"
            );
        }
    }

    #[test]
    fn fleet_summary_accessors() {
        let mut h = HealthTable::new(4, 8, 4);
        assert_eq!(h.channels(), 4);
        assert_eq!(h.banks_per_channel(), 8);
        assert_eq!(h.pairs_per_channel(), 4);
        assert_eq!(h.active_counter_sum(), 0);
        assert_eq!(h.faulty_pair_count(), 0);

        h.record_error(1, 4); // pair (1,2) at 1
        h.record_error(1, 0); // pair (1,0) at 1
        h.record_error(2, 6); // pair (2,3) at 1
        assert_eq!(h.active_counter_sum(), 3);
        assert_eq!(h.max_active_counter_in_channel(1), 1);
        assert_eq!(h.max_active_counter_in_channel(0), 0);

        for _ in 0..3 {
            h.record_error(1, 4); // drive pair (1,2) to migration
        }
        assert_eq!(h.faulty_pair_count(), 1);
        assert!(h.channel_has_faulty_pair(1));
        assert!(!h.channel_has_faulty_pair(2));
        // Migrated pair's frozen counter no longer counts as pressure.
        assert_eq!(h.active_counter_sum(), 2);
        assert_eq!(h.max_active_counter_in_channel(1), 1);

        h.retire_page(1, 4, 9);
        h.retire_page(2, 6, 3);
        h.retire_page(2, 7, 3);
        assert_eq!(h.retired_count_in_channel(1), 1);
        assert_eq!(h.retired_count_in_channel(2), 2);
        assert_eq!(h.retired_count_in_channel(0), 0);
    }

    #[test]
    fn mark_faulty_bypasses_counter() {
        let mut h = HealthTable::new(2, 4, 4);
        h.mark_faulty(PairId {
            channel: 1,
            pair: 1,
        });
        assert!(h.is_faulty(1, 2));
        assert!(h.is_faulty(1, 3));
        assert_eq!(h.record_error(1, 2), HealthAction::AlreadyFaulty);
    }
}
