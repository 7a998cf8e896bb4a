//! The multi-channel memory system: channels + address mapping + aggregate
//! energy/latency statistics.

use crate::channel::{Channel, ChannelStats};
use crate::config::MemoryConfig;
use crate::mapping::AddressMapping;
use crate::power::EnergyBreakdown;
use serde::{Deserialize, Serialize};

pub use crate::channel::Completion;

/// One line-sized memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Flat line address (decoded by the system's [`AddressMapping`]).
    pub line_addr: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Arrival cycle at the memory controller.
    pub arrival: u64,
}

/// Aggregate statistics over all channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemStats {
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Sum over requests of (finish - arrival).
    pub total_latency: u64,
    /// Sum over requests of scheduling delay.
    pub total_queue_delay: u64,
}

impl SystemStats {
    /// Total requests completed (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean request latency in memory cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses() as f64
        }
    }

    fn add(&mut self, c: &ChannelStats) {
        self.reads += c.reads;
        self.writes += c.writes;
        self.total_latency += c.total_latency;
        self.total_queue_delay += c.total_queue_delay;
    }
}

/// A complete multi-channel DRAM system.
///
/// ```
/// use dram_sim::{DeviceKind, MemRequest, MemoryConfig, MemorySystem, RankConfig};
///
/// let cfg = MemoryConfig::new(4, 2, RankConfig::uniform(DeviceKind::X8, 9), 64);
/// let mut mem = MemorySystem::new(cfg);
/// let done = mem.submit(MemRequest { line_addr: 42, is_write: false, arrival: 0 });
/// assert!(done.finish > done.act);
/// mem.finalize(10_000);
/// assert!(mem.energy().total_pj() > 0.0);
/// ```
pub struct MemorySystem {
    channels: Vec<Channel>,
    mapping: AddressMapping,
    config: MemoryConfig,
    finalized_at: Option<u64>,
}

impl MemorySystem {
    /// A system of `config.channels` independent channels.
    pub fn new(config: MemoryConfig) -> MemorySystem {
        let mut mapping = AddressMapping::new(
            config.channels,
            config.ranks_per_channel,
            config.banks_per_rank,
            config.line_bytes,
        );
        mapping.policy = config.map_policy;
        let channels = (0..config.channels)
            .map(|_| Channel::new(config.clone()))
            .collect();
        MemorySystem {
            channels,
            mapping,
            config,
            finalized_at: None,
        }
    }

    /// The configuration the system was built from.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// The address decode this system applies to flat line addresses.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Submit a request by flat line address.
    pub fn submit(&mut self, req: MemRequest) -> Completion {
        let la = self.mapping.map(req.line_addr);
        self.channels[la.channel].schedule_row(la.rank, la.bank, la.row, req.is_write, req.arrival)
    }

    /// Submit a request with explicit coordinates (the scheme glue uses this
    /// for ECC lines whose placement it controls).
    pub fn submit_mapped(
        &mut self,
        channel: usize,
        rank: usize,
        bank: usize,
        is_write: bool,
        arrival: u64,
    ) -> Completion {
        self.channels[channel].schedule(rank, bank, is_write, arrival)
    }

    /// Which channel a flat line address belongs to.
    pub fn channel_of(&self, line_addr: u64) -> usize {
        self.mapping.map(line_addr).channel
    }

    /// Close the books: bill trailing background and refresh energy.
    /// Must be called exactly once, before [`Self::energy`]; a second call
    /// panics ("memory system already finalized").
    pub fn finalize(&mut self, end_cycle: u64) {
        assert!(
            self.finalized_at.is_none(),
            "memory system already finalized"
        );
        for ch in &mut self.channels {
            ch.finalize(end_cycle);
        }
        self.finalized_at = Some(end_cycle);
    }

    /// Total energy. Panics if [`Self::finalize`] has not run (background
    /// and refresh energy would be missing, silently skewing EPI numbers).
    pub fn energy(&self) -> EnergyBreakdown {
        assert!(
            self.finalized_at.is_some(),
            "call finalize(end_cycle) before reading energy"
        );
        let mut e = EnergyBreakdown::default();
        for ch in &self.channels {
            e.add(&ch.energy());
        }
        e
    }

    /// Aggregate statistics across all channels.
    pub fn stats(&self) -> SystemStats {
        let mut s = SystemStats::default();
        for ch in &self.channels {
            s.add(ch.stats());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceKind, RankConfig};

    fn system() -> MemorySystem {
        MemorySystem::new(MemoryConfig::new(
            4,
            2,
            RankConfig::uniform(DeviceKind::X8, 9),
            64,
        ))
    }

    #[test]
    fn requests_route_to_mapped_channel() {
        let mut sys = system();
        let lpp = sys.mapping().lines_per_row;
        for p in 0..4u64 {
            sys.submit(MemRequest {
                line_addr: p * lpp,
                is_write: false,
                arrival: 0,
            });
        }
        // one access per channel
        let s = sys.stats();
        assert_eq!(s.reads, 4);
        sys.finalize(1000);
        assert!(sys.energy().total_pj() > 0.0);
    }

    #[test]
    fn parallel_channels_overlap_in_time() {
        let mut sys = system();
        let lpp = sys.mapping().lines_per_row;
        let c0 = sys.submit(MemRequest {
            line_addr: 0,
            is_write: false,
            arrival: 0,
        });
        let c1 = sys.submit(MemRequest {
            line_addr: lpp, // next page, next channel
            is_write: false,
            arrival: 0,
        });
        assert_eq!(c0.finish, c1.finish, "independent channels don't serialize");
    }

    #[test]
    #[should_panic(expected = "finalize")]
    fn energy_requires_finalize() {
        let sys = system();
        let _ = sys.energy();
    }

    #[test]
    #[should_panic(expected = "already finalized")]
    fn double_finalize_rejected() {
        let mut sys = system();
        sys.finalize(10);
        sys.finalize(20);
    }

    #[test]
    fn stats_aggregate_across_channels() {
        let mut sys = system();
        for a in 0..100u64 {
            sys.submit(MemRequest {
                line_addr: a * 7,
                is_write: a % 3 == 0,
                arrival: a * 2,
            });
        }
        let s = sys.stats();
        assert_eq!(s.accesses(), 100);
        assert!(s.avg_latency() > 0.0);
    }

    #[test]
    fn idle_system_energy_is_background_only() {
        let mut sys = system();
        sys.finalize(1_000_000);
        let e = sys.energy();
        assert_eq!(e.dynamic_pj(), 0.0);
        assert!(e.background_pj() > 0.0);
        // Mostly sleep: close-page + power-down on an idle system.
        assert!(e.bg_sleep_pj > e.bg_standby_pj);
    }
}
