//! Property-based tests for the machine's clock.

use proptest::prelude::*;

use ppc_machine::{Machine, MachineConfig};
use ppc_mmu::addr::{EffectiveAddress, Vsid, PAGE_SIZE};
use ppc_mmu::tlb::TlbEntry;
use ppc_mmu::AccessType;

/// Resident pages, data and instruction side. Their frames are 8 KiB
/// apart, so on both L1s they share sets and evict one another.
const PAGES: u32 = 8;

fn machine(ppc604: bool) -> Machine {
    let cfg = if ppc604 {
        MachineConfig::ppc604_133()
    } else {
        MachineConfig::ppc603_133()
    };
    let mut m = Machine::new(cfg);
    for p in 0..PAGES {
        let entry = TlbEntry {
            vsid: Vsid::new(0),
            page_index: 0x10 + p,
            rpn: 0x100 + 2 * p,
            cached: true,
            writable: true,
        };
        m.mmu.reload(AccessType::DataRead, entry);
        m.mmu.reload(AccessType::InsnFetch, entry);
    }
    m
}

/// One step of the sequence: `kind` picks a charge, a wait, a data
/// reference or a fetch; `a` and `b` are its operands. Returns the cost a
/// reference returns.
fn step(m: &mut Machine, (kind, a, b): (u8, u32, u32)) -> Option<u64> {
    let page = EffectiveAddress((0x10 + b % PAGES) * PAGE_SIZE + (a & !3));
    match kind {
        0 => {
            m.charge(u64::from(a));
            None
        }
        1 => {
            m.wait(u64::from(a % 64));
            None
        }
        2 => Some(
            m.data_ref::<false>(page, b / PAGES % 2 == 1)
                .expect("the page is resident"),
        ),
        _ => {
            let n = (1 + b / PAGES).min((PAGE_SIZE - (a & !3)) / 4);
            Some(m.exec_code::<false>(page, n).expect("the page is resident"))
        }
    }
}

proptest! {
    /// Under one charge scale, a sequence of charges, data references and
    /// fetches advances the clock exactly as one charge of their unscaled
    /// sum would, plus the waits, which are never scaled: how a cost is
    /// split into charges does not matter. 1/1 is the identity and 0/n
    /// charges nothing.
    #[test]
    fn a_scaled_clock_is_the_scaled_sum_however_the_cost_is_split(
        ppc604 in any::<bool>(),
        ratio in (1u64..1001, any::<u64>(), 0u8..4),
        steps in proptest::collection::vec((0u8..4, 0u32..PAGE_SIZE, 0u32..256), 1..80),
    ) {
        let (den, pick, extreme) = ratio;
        let num = match extreme {
            0 => 0,
            1 => den,
            _ => pick % (den + 1),
        };
        let mut scaled = machine(ppc604);
        let mut plain = machine(ppc604);
        scaled.set_scale(num, den);
        let (mut sum, mut waited) = (0, 0);
        for &s in &steps {
            let (p0, s0) = (plain.cycles, scaled.cycles);
            let cost = step(&mut plain, s);
            let charged = step(&mut scaled, s);
            let (advance, scaled_advance) = (plain.cycles - p0, scaled.cycles - s0);
            if cost.is_some() {
                prop_assert_eq!(cost, Some(advance));
                prop_assert_eq!(charged, Some(scaled_advance), "a cost is the clock's advance");
            }
            if s.0 == 1 {
                waited += advance;
            } else {
                sum += advance;
            }
        }
        let mut once = machine(ppc604);
        once.set_scale(num, den);
        once.charge(sum);
        prop_assert_eq!(once.cycles, (u128::from(sum) * u128::from(num) / u128::from(den)) as u64);
        prop_assert_eq!(scaled.cycles, once.cycles + waited);
        if num == den {
            prop_assert_eq!(scaled.cycles, plain.cycles);
        }
        if num == 0 {
            prop_assert_eq!(scaled.cycles, waited);
        }
        prop_assert_eq!(scaled.mem.dcache.stats(), plain.mem.dcache.stats());
    }
}
