//! Core model: Table I parameters and a bounded-MLP trace-driven core.
//!
//! The paper simulates 2-wide out-of-order cores (ROB 64, LSQ 32/32) in
//! GEM5. For memory-system evaluation what matters is (a) how fast the core
//! generates memory traffic between misses and (b) how many misses it can
//! overlap before stalling. We model exactly that: instructions retire at
//! the issue width while the number of outstanding line fills is below the
//! MLP limit; when the limit is hit the core waits for the oldest fill.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Table I microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    pub issue_width: u32,
    pub rob_size: u32,
    pub lq_size: u32,
    pub sq_size: u32,
    pub l1_bytes: usize,
    pub l2_bytes: usize,
    pub l2_ways: usize,
    pub l2_latency: u32,
    /// Outstanding line fills a core can overlap (MSHR/LSQ bound).
    pub mlp: usize,
    /// Clock, GHz (the paper's 2 GHz cores vs the 1 GHz memory clock).
    pub freq_ghz: f64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            issue_width: 2,
            rob_size: 64,
            lq_size: 32,
            sq_size: 32,
            l1_bytes: 32 * 1024,
            l2_bytes: 8 * 1024 * 1024,
            l2_ways: 16,
            l2_latency: 10,
            mlp: 4,
            freq_ghz: 2.0,
        }
    }
}

/// One core's progress, in *memory-clock* cycles (1 GHz) so core time and
/// DRAM completions share a clock domain.
#[derive(Debug)]
pub struct CoreState {
    config: CoreConfig,
    /// Current time in memory cycles.
    pub cycle: u64,
    /// Retired instructions.
    pub instructions: u64,
    outstanding: BinaryHeap<Reverse<u64>>,
}

impl CoreState {
    pub fn new(config: CoreConfig) -> CoreState {
        CoreState {
            config,
            cycle: 0,
            instructions: 0,
            outstanding: BinaryHeap::new(),
        }
    }

    /// Advance time for `gap` instructions of non-miss work.
    pub fn advance_instructions(&mut self, gap: u32) {
        self.instructions += gap as u64;
        // issue_width instructions per core cycle; core runs at
        // freq_ghz x the 1 GHz memory clock.
        let core_cycles = gap as f64 / self.config.issue_width as f64;
        let mem_cycles = core_cycles / self.config.freq_ghz;
        // ceil without `f64::ceil`, an out-of-line libm call on the
        // baseline x86-64 target: exact for finite 0 <= x < 2^53.
        let whole = mem_cycles as u64;
        self.cycle += whole + u64::from((whole as f64) < mem_cycles);
        self.drain_completed();
    }

    /// Charge an LLC hit (pipelined; a fraction of the latency is exposed).
    pub fn charge_llc_hit(&mut self) {
        self.cycle += (self.config.l2_latency as u64) / 4;
    }

    /// Record a line fill completing at `completion`; stalls the core first
    /// if the MLP window is full.
    pub fn issue_fill(&mut self, completion: u64) {
        self.drain_completed();
        while self.outstanding.len() >= self.config.mlp {
            let Reverse(earliest) = self.outstanding.pop().expect("window nonempty");
            if earliest > self.cycle {
                self.cycle = earliest;
            }
        }
        self.outstanding.push(Reverse(completion));
    }

    /// Retire fills that already completed.
    fn drain_completed(&mut self) {
        while let Some(&Reverse(t)) = self.outstanding.peek() {
            if t <= self.cycle {
                self.outstanding.pop();
            } else {
                break;
            }
        }
    }

    /// Wait for every outstanding fill (end of simulation).
    pub fn drain_all(&mut self) {
        while let Some(Reverse(t)) = self.outstanding.pop() {
            if t > self.cycle {
                self.cycle = t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = CoreConfig::default();
        assert_eq!(c.issue_width, 2);
        assert_eq!(c.rob_size, 64);
        assert_eq!(c.lq_size, 32);
        assert_eq!(c.l2_bytes, 8 * 1024 * 1024);
        assert_eq!(c.l2_ways, 16);
        assert_eq!(c.l2_latency, 10);
    }

    #[test]
    fn instructions_advance_time_at_issue_width() {
        let mut core = CoreState::new(CoreConfig::default());
        core.advance_instructions(400);
        // 400 instr / 2-wide / 2GHz = 100 memory cycles
        assert_eq!(core.cycle, 100);
        assert_eq!(core.instructions, 400);
    }

    #[test]
    fn integer_ceil_matches_f64_ceil() {
        for (issue_width, freq_ghz) in [(2, 2.0), (1, 1.0), (3, 2.0), (4, 1.6), (2, 3.3)] {
            let config = CoreConfig {
                issue_width,
                freq_ghz,
                ..CoreConfig::default()
            };
            let mut core = CoreState::new(config);
            let mut expected = 0u64;
            for gap in (0..2_000).chain([u32::MAX / 3, u32::MAX]) {
                core.advance_instructions(gap);
                expected += (gap as f64 / issue_width as f64 / freq_ghz).ceil() as u64;
                assert_eq!(
                    core.cycle, expected,
                    "gap {gap} at {issue_width}-wide {freq_ghz} GHz"
                );
            }
        }
    }

    #[test]
    fn fills_below_mlp_do_not_stall() {
        let mut core = CoreState::new(CoreConfig::default());
        for i in 0..4 {
            core.issue_fill(1000 + i);
        }
        assert_eq!(core.cycle, 0, "window of 4 absorbs 4 fills");
    }

    #[test]
    fn fifth_fill_stalls_until_oldest_completes() {
        let mut core = CoreState::new(CoreConfig::default());
        for i in 0..4u64 {
            core.issue_fill(100 + i * 10);
        }
        core.issue_fill(500);
        assert_eq!(core.cycle, 100, "stall to the earliest completion");
    }

    #[test]
    fn completed_fills_free_window_slots() {
        let mut core = CoreState::new(CoreConfig::default());
        core.issue_fill(10);
        core.issue_fill(20);
        core.advance_instructions(200); // time 50: both fills done
        core.issue_fill(999);
        core.issue_fill(999);
        core.issue_fill(999);
        core.issue_fill(999);
        assert_eq!(core.cycle, 50, "drained window absorbs four more");
    }

    #[test]
    fn drain_all_waits_for_last_fill() {
        let mut core = CoreState::new(CoreConfig::default());
        core.issue_fill(777);
        core.drain_all();
        assert_eq!(core.cycle, 777);
    }
}
