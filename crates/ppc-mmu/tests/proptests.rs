//! Property-based tests for the MMU hardware model.

use proptest::prelude::*;

use ppc_mmu::addr::{EffectiveAddress, Vsid};
use ppc_mmu::bat::BatEntry;
use ppc_mmu::hash::HashFunction;
use ppc_mmu::htab::HashTable;
use ppc_mmu::pte::Pte;
use ppc_mmu::tlb::{Tlb, TlbConfig, TlbEntry};

fn pte(vsid: u32, pi: u32, rpn: u32) -> Pte {
    Pte {
        valid: true,
        vsid: Vsid::new(vsid),
        secondary: false,
        page_index: pi & 0xffff,
        rpn: rpn & 0xfffff,
        referenced: false,
        changed: false,
        cache_inhibited: false,
        pp: 2,
    }
}

proptest! {
    /// The hash always addresses a valid group, and the secondary group
    /// never equals the primary.
    #[test]
    fn hash_indexes_in_range(vsid in 0u32..0x100_0000, pi in 0u32..0x1_0000,
                             shift in 6u32..12) {
        let groups = 1 << shift;
        let h = HashFunction::new(groups);
        let p = h.pteg_index(Vsid::new(vsid), pi, false);
        let s = h.pteg_index(Vsid::new(vsid), pi, true);
        prop_assert!(p < groups);
        prop_assert!(s < groups);
        prop_assert_ne!(p, s);
    }

    /// An inserted PTE is always findable, with the RPN it was inserted
    /// with, until something displaces it.
    #[test]
    fn htab_insert_then_search(vsid in 0u32..0x100_0000, pi in 0u32..0x1_0000,
                               rpn in 0u32..0x10_0000) {
        let mut h = HashTable::new(256, 0);
        h.insert(pte(vsid, pi, rpn));
        let out = h.search(Vsid::new(vsid), pi);
        let found = out.pte.expect("just-inserted entry must be found");
        prop_assert_eq!(found.rpn, rpn & 0xfffff);
    }

    /// A search never returns an entry with a different key.
    #[test]
    fn htab_no_false_match(entries in proptest::collection::vec(
        (0u32..64, 0u32..0x1000, 1u32..0x10_0000), 1..40)) {
        let mut h = HashTable::new(256, 0);
        let mut keys = std::collections::HashSet::new();
        for &(v, p, r) in &entries {
            h.insert(pte(v, p, r));
            keys.insert((v & 0xff_ffff, p & 0xffff));
        }
        // Probe keys that were never inserted.
        for probe_v in 64u32..80 {
            for probe_p in [0u32, 1, 0x7ff, 0xffff] {
                if !keys.contains(&(probe_v, probe_p)) {
                    let out = h.search(Vsid::new(probe_v), probe_p);
                    prop_assert!(out.pte.is_none(),
                        "spurious match for ({probe_v}, {probe_p:#x})");
                }
            }
        }
    }

    /// Every insert that reports a displaced valid entry happened with both
    /// candidate groups full, and occupancy never exceeds capacity.
    #[test]
    fn htab_occupancy_bounded(entries in proptest::collection::vec(
        (0u32..0x1000, 0u32..0x1_0000), 1..600)) {
        let mut h = HashTable::new(64, 0); // 512 slots, easy to overflow
        for &(v, p) in &entries {
            h.insert(pte(v, p, 7));
            prop_assert!(h.valid_entries() <= h.capacity());
        }
        let hist = h.group_histogram();
        prop_assert!(hist.iter().all(|&c| c <= 8));
        prop_assert_eq!(
            hist.iter().map(|&c| c as u32).sum::<u32>(),
            h.valid_entries()
        );
    }

    /// The table's own occupancy counts equal what its slots hold after any
    /// mix of inserts, invalidations, reclaims, eager flushes, rehashes and
    /// clears, and every PTEG whose slots changed since the written marks
    /// were last cleared carries a mark.
    #[test]
    fn htab_counts_and_written_marks_track_every_write(
        ops in proptest::collection::vec((0u32..16, 0u32..0x40, 0u32..0x1_0000), 1..300),
    ) {
        let mut h = HashTable::new(32, 0);
        let mut since: Vec<_> = (0..32).map(|g| *h.group(g)).collect();
        for &(op, v, p) in &ops {
            match op {
                0 => {
                    h.clear_written_marks();
                    let n = h.hash().num_groups();
                    since = (0..n).map(|g| *h.group(g)).collect();
                }
                1 => {
                    h.invalidate(Vsid::new(v), p);
                }
                2 => {
                    h.reclaim_zombies(p % 8, |vsid| vsid.raw() % 3 != 0, |_, _| {});
                }
                3 => {
                    h.invalidate_matching(|vsid| vsid.raw() == v, |_, _| {});
                }
                4 => {
                    let n = [16, 32, 64][p as usize % 3];
                    h.resize(n);
                    since = vec![[Pte::invalid(); 8]; n as usize];
                }
                5 if p % 16 == 0 => {
                    h.clear();
                }
                _ => {
                    h.insert(pte(v, p, 7));
                }
            }
            let n = h.hash().num_groups();
            let mut valid = 0;
            let mut full = 0;
            for g in 0..n {
                let group = h.group(g);
                let count = group.iter().filter(|e| e.valid).count() as u32;
                prop_assert_eq!(h.group_valid(g), count, "group {} count", g);
                valid += count;
                full += u32::from(count == 8);
                if *group != since[g as usize] {
                    prop_assert!(h.written(g), "group {} changed unmarked", g);
                }
            }
            prop_assert_eq!(h.valid_entries(), valid);
            prop_assert_eq!(h.full_groups(), full);
        }
    }

    /// Reclaiming with an all-live predicate clears nothing; with a
    /// none-live predicate it clears everything (over a full sweep).
    #[test]
    fn htab_reclaim_respects_liveness(entries in proptest::collection::vec(
        (0u32..0x1000, 0u32..0x1_0000), 1..100)) {
        let mut h = HashTable::new(256, 0);
        for &(v, p) in &entries {
            h.insert(pte(v, p, 3));
        }
        let valid = h.valid_entries();
        let (_, cleared) = h.reclaim_zombies(256, |_| true, |_, _| {});
        prop_assert_eq!(cleared, 0, "live entries must survive");
        prop_assert_eq!(h.valid_entries(), valid);
        let (_, cleared) = h.reclaim_zombies(256, |_| false, |_, _| {});
        prop_assert_eq!(cleared, valid, "every zombie must be reclaimed");
        prop_assert_eq!(h.valid_entries(), 0);
    }

    /// The TLB returns exactly what was inserted, and never an entry for a
    /// different VSID.
    #[test]
    fn tlb_round_trip(vsid in 0u32..0x100_0000, pi in 0u32..0x1_0000,
                      rpn in 0u32..0x10_0000, other in 0u32..0x100_0000) {
        let mut t = Tlb::new(TlbConfig::ppc604_side());
        t.insert(TlbEntry { vsid: Vsid::new(vsid), page_index: pi, rpn, cached: true, writable: true });
        let (_, e) = t.peek(Vsid::new(vsid), pi).expect("inserted entry must hit");
        prop_assert_eq!(e.rpn, rpn);
        if other != vsid {
            prop_assert!(t.peek(Vsid::new(other), pi).is_none());
        }
    }

    /// `tlbie` empties exactly the targeted congruence class.
    #[test]
    fn tlbie_clears_class(pis in proptest::collection::vec(0u32..0x1_0000, 1..80),
                          victim in 0u32..0x1_0000) {
        let mut t = Tlb::new(TlbConfig::ppc603_side());
        for &pi in &pis {
            t.insert(TlbEntry { vsid: Vsid::new(1), page_index: pi, rpn: pi, cached: true, writable: true });
        }
        t.tlbie(victim);
        let sets = TlbConfig::ppc603_side().sets();
        for &pi in &pis {
            if pi % sets == victim % sets {
                prop_assert!(t.peek(Vsid::new(1), pi).is_none(),
                    "class member {pi:#x} must be invalidated");
            }
        }
    }

    /// The keyed probe agrees with a linear scan of the valid entries after
    /// any mix of reloads, lookups, `tlbie`s and whole flushes, so a key
    /// left behind by an invalidation or a displacement never matches.
    #[test]
    fn tlb_peek_matches_entry_scan(
        ops in proptest::collection::vec((0u32..16, 0u32..4, 0u32..96), 1..200),
        queries in proptest::collection::vec((0u32..4, 0u32..96), 1..64),
    ) {
        let mut t = Tlb::new(TlbConfig::ppc603_side());
        for &(op, vsid, pi) in &ops {
            match op {
                0 => t.flush_all(),
                1..=3 => {
                    t.tlbie(pi);
                }
                4..=8 => match t.peek(Vsid::new(vsid), pi) {
                    Some((idx, _)) => t.commit_hit(idx),
                    None => t.count_miss(),
                },
                _ => t.insert(TlbEntry {
                    vsid: Vsid::new(vsid),
                    page_index: pi,
                    rpn: op << 8 | pi,
                    cached: op & 1 == 0,
                    writable: op & 2 == 0,
                }),
            }
        }
        for &(vsid, pi) in &queries {
            let vsid = Vsid::new(vsid);
            let scan = t.entries().find(|e| e.vsid == vsid && e.page_index == pi);
            prop_assert_eq!(t.peek(vsid, pi).map(|(_, e)| e), scan);
        }
    }

    /// PTE architected encoding round-trips every field the format keeps.
    #[test]
    fn pte_encode_decode(vsid in 0u32..0x100_0000, api in 0u32..64,
                         rpn in 0u32..0x10_0000, bits in 0u8..32) {
        let p = Pte {
            valid: bits & 1 != 0,
            vsid: Vsid::new(vsid),
            secondary: bits & 2 != 0,
            page_index: api << 10, // decode only recovers the API bits
            rpn,
            referenced: bits & 4 != 0,
            changed: bits & 8 != 0,
            cache_inhibited: bits & 16 != 0,
            pp: 2,
        };
        let (w0, w1) = p.encode();
        prop_assert_eq!(Pte::decode(w0, w1), p);
    }

    /// A BAT hit preserves the in-block offset and never fires outside its
    /// block.
    #[test]
    fn bat_translation(block_log in 17u32..24, in_off in 0u32..0x2_0000,
                       out_off in 1u32..0x1000) {
        let len = 1u32 << block_log;
        let ea_base = 0x4000_0000u32;
        let pa_base = 0x0100_0000u32 & !(len - 1);
        let b = BatEntry::new(ea_base & !(len - 1), pa_base, len, true);
        let inside = (ea_base & !(len - 1)) + (in_off % len);
        let (pa, _) = b.translate(EffectiveAddress(inside)).expect("inside block");
        prop_assert_eq!(pa - pa_base, inside - (ea_base & !(len - 1)));
        let outside = (ea_base & !(len - 1)).wrapping_add(len).wrapping_add(out_off);
        prop_assert!(b.translate(EffectiveAddress(outside)).is_none());
    }
}
