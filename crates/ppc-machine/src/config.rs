//! Machine configurations for the boards measured in the paper.

use ppc_cache::bus::Bus;
use ppc_cache::hierarchy::MemSystemConfig;
use ppc_mmu::translate::MmuConfig;

use crate::exceptions::ExceptionCosts;

/// Which CPU core a machine uses; selects the TLB reload mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuModel {
    /// PowerPC 603: TLB misses trap to a software handler.
    Ppc603,
    /// PowerPC 604 (also 601/750-style): hardware hash-table walk on a TLB
    /// miss; only a hash-table miss traps to software.
    Ppc604,
}

/// A complete machine description.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Human-readable name, e.g. `"604 185MHz"`.
    pub name: &'static str,
    /// CPU core.
    pub model: CpuModel,
    /// Core clock in MHz (used to convert cycles to wall-clock time).
    pub clock_mhz: u32,
    /// MMU geometry.
    pub mmu: MmuConfig,
    /// Cache + bus geometry.
    pub mem: MemSystemConfig,
    /// Hardware exception costs.
    pub costs: ExceptionCosts,
    /// RAM size in bytes (32 MiB on every machine in the paper, §4).
    pub ram_bytes: u32,
}

/// RAM installed in every benchmarked machine (paper §4: "We used 32M of RAM
/// in each machine tested").
pub const RAM_BYTES: u32 = 32 * 1024 * 1024;

impl MachineConfig {
    /// 133 MHz PowerPC 603 (Table 2's software-reload machine).
    pub fn ppc603_133() -> Self {
        Self {
            name: "603 133MHz",
            model: CpuModel::Ppc603,
            clock_mhz: 133,
            mmu: MmuConfig::ppc603(),
            mem: MemSystemConfig::ppc603(),
            costs: ExceptionCosts::ppc603(),
            ram_bytes: RAM_BYTES,
        }
    }

    /// 133 MHz PowerPC 603 on an L2-less PReP board (used for the cache
    /// experiments of paper §9, where every L1 miss goes to DRAM).
    pub fn ppc603_133_no_l2() -> Self {
        Self {
            name: "603 133MHz (no L2)",
            mem: MemSystemConfig::ppc603_no_l2(),
            ..Self::ppc603_133()
        }
    }

    /// 180 MHz PowerPC 603 (Table 1's software-reload machine).
    pub fn ppc603_180() -> Self {
        Self {
            name: "603 180MHz",
            clock_mhz: 180,
            mem: MemSystemConfig {
                // Same board class; a faster core makes memory relatively
                // slower in core cycles.
                bus: Bus::commodity().scaled(180, 133),
                ..MemSystemConfig::ppc603()
            },
            ..Self::ppc603_133()
        }
    }

    /// 133 MHz PowerPC 604 (Table 3's PowerMac 9500).
    pub fn ppc604_133() -> Self {
        Self {
            name: "604 133MHz",
            model: CpuModel::Ppc604,
            clock_mhz: 133,
            mmu: MmuConfig::ppc604(),
            mem: MemSystemConfig::ppc604(),
            costs: ExceptionCosts::ppc604(),
            ram_bytes: RAM_BYTES,
        }
    }

    /// 185 MHz PowerPC 604 (Tables 1 and 2).
    pub fn ppc604_185() -> Self {
        Self {
            name: "604 185MHz",
            clock_mhz: 185,
            mem: MemSystemConfig {
                bus: Bus::commodity().scaled(185, 133),
                ..MemSystemConfig::ppc604()
            },
            ..Self::ppc604_133()
        }
    }

    /// 200 MHz PowerPC 604 on "a machine with significantly faster main
    /// memory and a better board design" (Table 1).
    pub fn ppc604_200() -> Self {
        Self {
            name: "604 200MHz",
            clock_mhz: 200,
            mem: MemSystemConfig {
                bus: Bus::fast_board().scaled(200, 133),
                ..MemSystemConfig::ppc604()
            },
            ..Self::ppc604_133()
        }
    }

    /// A stable machine-readable slug derived from the name, for artifact
    /// headers: lowercase, `MHz` dropped, punctuation collapsed to
    /// single dashes — `"604 133MHz"` → `"604-133"`,
    /// `"603 133MHz (no L2)"` → `"603-133-no-l2"`.
    pub fn id(&self) -> String {
        let mut s = String::new();
        for part in self
            .name
            .to_ascii_lowercase()
            .replace("mhz", "")
            .split(|c: char| !c.is_ascii_alphanumeric())
        {
            if part.is_empty() {
                continue;
            }
            if !s.is_empty() {
                s.push('-');
            }
            s.push_str(part);
        }
        s
    }

    /// All five configurations the paper reports on.
    pub fn all() -> Vec<MachineConfig> {
        vec![
            Self::ppc603_133(),
            Self::ppc603_180(),
            Self::ppc604_133(),
            Self::ppc604_185(),
            Self::ppc604_200(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        for cfg in MachineConfig::all() {
            assert!(cfg.clock_mhz >= 133 && cfg.clock_mhz <= 200);
            assert_eq!(cfg.ram_bytes, RAM_BYTES);
            match cfg.model {
                CpuModel::Ppc603 => {
                    assert_eq!(cfg.mmu.dtlb.entries, 64);
                    assert_eq!(cfg.mem.dcache.size_bytes, 8 * 1024);
                    assert_eq!(cfg.costs.tlb_miss_invoke_return, 32);
                }
                CpuModel::Ppc604 => {
                    assert_eq!(cfg.mmu.dtlb.entries, 128);
                    assert_eq!(cfg.mem.dcache.size_bytes, 16 * 1024);
                    assert_eq!(cfg.costs.htab_miss_interrupt, 91);
                }
            }
        }
    }

    #[test]
    fn ids_are_stable_slugs_and_unique() {
        assert_eq!(MachineConfig::ppc604_133().id(), "604-133");
        assert_eq!(MachineConfig::ppc603_133_no_l2().id(), "603-133-no-l2");
        let ids: Vec<String> = MachineConfig::all().iter().map(|m| m.id()).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "slugs collide: {ids:?}");
    }

    #[test]
    fn faster_cores_see_relatively_slower_memory() {
        let slow = MachineConfig::ppc603_133().mem.bus;
        let fast = MachineConfig::ppc603_180().mem.bus;
        assert!(fast.line_fill > slow.line_fill);
    }

    #[test]
    fn fast_board_200_beats_185_in_cycles_despite_higher_clock() {
        let m185 = MachineConfig::ppc604_185().mem.bus;
        let m200 = MachineConfig::ppc604_200().mem.bus;
        assert!(m200.line_fill < m185.line_fill);
    }
}
