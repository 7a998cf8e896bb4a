//! Last-level cache model: 8MB, 16-way, LRU (Table I), shared by eight
//! cores, caching data lines *and* the ECC-related lines of §III-D/§IV-C.
//!
//! ECC and XOR cachelines take addresses in a disjoint region of the
//! physical space and are "treated the same way as data cachelines in terms
//! of LLC insertion and replacement policies" (paper §IV-C) — so they are
//! ordinary entries here; only the scheme glue interprets them.

use serde::{Deserialize, Serialize};

/// LLC geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcConfig {
    pub capacity_bytes: usize,
    pub ways: usize,
    pub line_bytes: usize,
}

impl LlcConfig {
    /// Table I: 8MB, 16-way. Line size follows the memory line size of the
    /// evaluated organization (64B; 128B for 36-device chipkill and RAIM).
    pub fn paper(line_bytes: usize) -> LlcConfig {
        LlcConfig {
            capacity_bytes: 8 * 1024 * 1024,
            ways: 16,
            line_bytes,
        }
    }

    pub fn sets(&self) -> usize {
        self.capacity_bytes / self.line_bytes / self.ways
    }
}

/// What an access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    pub hit: bool,
    /// Dirty victim evicted by the fill (tag address), if any.
    pub writeback: Option<u64>,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcStats {
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
}

/// Valid bit of a packed way tag.
const VALID: u64 = 1 << 63;
/// Dirty bit of a packed way tag.
const DIRTY: u64 = 1 << 62;
/// Largest line tag the packed layout holds. The highest region the scheme
/// glue allocates from starts at `1 << 44`, far below this.
const MAX_TAG: u64 = DIRTY - 1;

/// The cache. Addresses are line-granular in units of `line_bytes`.
///
/// Ways are stored as two flat arrays indexed `set * ways + way`: packed
/// tags (line tag in the low 62 bits, dirty in bit 62, valid in bit 63)
/// and last-use stamps. A hit probe then reads one contiguous run of
/// tags (128 B for 16 ways), and victim selection reads only the stamps.
pub struct Llc {
    config: LlcConfig,
    tags: Vec<u64>,
    /// Last-use stamps; 0 marks a way never filled (the clock starts at 1).
    lru: Vec<u64>,
    ways_per_set: usize,
    /// `nsets - 1`; set count is asserted to be a power of two.
    set_mask: u64,
    clock: u64,
    stats: LlcStats,
}

impl Llc {
    pub fn new(config: LlcConfig) -> Llc {
        let nsets = config.sets();
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        Llc {
            config,
            tags: vec![0; config.ways * nsets],
            lru: vec![0; config.ways * nsets],
            ways_per_set: config.ways,
            set_mask: nsets as u64 - 1,
            clock: 0,
            stats: LlcStats::default(),
        }
    }

    pub fn config(&self) -> &LlcConfig {
        &self.config
    }

    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let base = (line & self.set_mask) as usize * self.ways_per_set;
        base..base + self.ways_per_set
    }

    /// Access `line`; on miss, fill it (write-allocate). Returns hit status
    /// and any dirty victim.
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        assert!(
            line <= MAX_TAG,
            "line tag {line:#x} overflows the packed way"
        );
        self.clock += 1;
        let set = self.set_range(line);
        let tags = &mut self.tags[set.clone()];
        let lru = &mut self.lru[set];
        let dirty = if is_write { DIRTY } else { 0 };
        // hit?
        if let Some(w) = tags.iter().position(|&t| (t & !DIRTY) == (VALID | line)) {
            tags[w] |= dirty;
            lru[w] = self.clock;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        // Victim: the smallest stamp, first on a tie. Filled ways carry
        // distinct stamps >= 1, so this is the first invalid way if there
        // is one, else the LRU way.
        let mut victim = 0;
        let mut best = lru[0];
        for (i, &stamp) in lru.iter().enumerate().skip(1) {
            if stamp < best {
                best = stamp;
                victim = i;
            }
        }
        let old = tags[victim];
        let writeback = if old & DIRTY != 0 {
            self.stats.writebacks += 1;
            Some(old & MAX_TAG)
        } else {
            None
        };
        tags[victim] = VALID | dirty | line;
        lru[victim] = self.clock;
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Probe without modifying state (used by tests).
    pub fn contains(&self, line: u64) -> bool {
        self.tags[self.set_range(line)]
            .iter()
            .any(|&t| (t & !DIRTY) == (VALID | line))
    }

    /// Drain every dirty line (end-of-simulation flush). Returns their tags.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = vec![];
        for t in &mut self.tags {
            if *t & DIRTY != 0 {
                out.push(*t & MAX_TAG);
                *t &= !DIRTY;
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Llc {
        // 64 sets x 4 ways x 64B = 16KB
        Llc::new(LlcConfig {
            capacity_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        })
    }

    #[test]
    fn paper_geometry() {
        let c = LlcConfig::paper(64);
        assert_eq!(c.sets(), 8192);
        let c = LlcConfig::paper(128);
        assert_eq!(c.sets(), 4096);
    }

    #[test]
    fn hit_after_fill() {
        let mut l = small();
        assert!(!l.access(100, false).hit);
        assert!(l.access(100, false).hit);
        assert_eq!(l.stats().hits, 1);
        assert_eq!(l.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut l = small();
        let sets = l.config().sets() as u64;
        // Fill one set (4 ways) then overflow it.
        for i in 0..4u64 {
            l.access(7 + i * sets, false);
        }
        l.access(7, false); // touch first: now way with tag 7+sets is LRU
        l.access(7 + 4 * sets, false); // evicts 7+sets
        assert!(l.contains(7));
        assert!(!l.contains(7 + sets));
        assert!(l.contains(7 + 4 * sets));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut l = small();
        let sets = l.config().sets() as u64;
        l.access(3, true); // dirty
        for i in 1..=4u64 {
            let out = l.access(3 + i * sets, false);
            if i < 4 {
                assert_eq!(out.writeback, None);
            } else {
                assert_eq!(out.writeback, Some(3), "dirty LRU victim must write back");
            }
        }
        assert_eq!(l.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut l = small();
        l.access(9, false);
        l.access(9, true); // hit, dirtied
        let dirty = l.flush_dirty();
        assert_eq!(dirty, vec![9]);
    }

    #[test]
    #[should_panic(expected = "overflows the packed way")]
    fn tag_beyond_the_packed_range_is_rejected() {
        small().access(DIRTY, false);
    }

    #[test]
    fn flush_dirty_clears_state() {
        let mut l = small();
        l.access(1, true);
        l.access(2, true);
        assert_eq!(l.flush_dirty().len(), 2);
        assert_eq!(l.flush_dirty().len(), 0);
    }
}
