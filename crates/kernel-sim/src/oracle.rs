//! The shadow MM oracle: a flat model of every currently-legal translation.
//!
//! The real MM state is spread across four structures that cache each other
//! (Linux page tables → hash table → TLBs, with BATs overriding all three),
//! and the paper's optimizations — lazy VSID flushes, zombie reclaim,
//! mid-run rehashes — are exactly the code that lets those layers disagree
//! *safely*. The oracle is the dead-simple referee: a `HashMap` from
//! `(vsid, page_index)` to `(rpn, prot)`, updated at the two places legality
//! actually changes (translation install and flush), against which every
//! positive observation the hardware makes (a TLB hit, a hash-table hit, a
//! BAT match) is cross-checked.
//!
//! Semantics: the oracle models **legal** translations, not **resident**
//! ones. Structures below it are caches — a hash-table displacement, a
//! rehash drop, a `tlbie` that kills innocent bystanders, or an eager TLB
//! flush all remove *residency* without touching *legality*, and the oracle
//! deliberately ignores them. What it refuses to tolerate is the converse: a
//! translation the hardware still acts on after the kernel retired it. That
//! is precisely the stale-translation bug class lazy flushing risks, and it
//! is caught at the exact access that observes the stale entry.

use ppc_mmu::addr::Vsid;

use crate::fixed_hash::DetHashMap;

/// What the oracle remembers about one legal translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowEntry {
    /// Real page number the virtual page maps to.
    pub rpn: u32,
    /// Whether stores are legal (copy-on-write pages are read-only).
    pub writable: bool,
    /// Whether accesses are cacheable.
    pub cached: bool,
}

/// The flat shadow model. One entry per legal `(vsid, virtual page)`.
#[derive(Debug, Clone, Default)]
pub struct ShadowMm {
    map: DetHashMap<(u32, u32), ShadowEntry>,
}

impl ShadowMm {
    /// Creates an empty shadow model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of legal translations currently modelled.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no translations are modelled.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Records a translation install (mirror of the kernel's
    /// `install_translation`). Overwrites any previous entry for the page —
    /// a reinstall after a protection upgrade is a legality change, not a
    /// conflict — and returns it.
    pub fn install(
        &mut self,
        vsid: Vsid,
        page_index: u32,
        entry: ShadowEntry,
    ) -> Option<ShadowEntry> {
        self.map.insert((vsid.raw(), page_index), entry)
    }

    /// Records a single-page flush (mirror of `flush_one_page`); returns
    /// whether a legal translation was removed. Removing a translation that
    /// was never installed is fine: flushes are issued for ranges that may
    /// never have faulted in.
    pub fn flush_page(&mut self, vsid: Vsid, page_index: u32) -> bool {
        self.map.remove(&(vsid.raw(), page_index)).is_some()
    }

    /// Records a whole-context retirement (mirror of `flush_context`): every
    /// translation under any of `vsids` stops being legal, whether the
    /// kernel flushed it eagerly or merely bumped the VSIDs and left zombies
    /// behind. Calls `removed` with each retired `(vsid, page_index)` and
    /// returns how many there were.
    pub fn retire_vsids(&mut self, vsids: &[Vsid], mut removed: impl FnMut(Vsid, u32)) -> usize {
        // 16 VSIDs at most (one address space): a linear scan beats
        // allocating a scratch Vec on this per-context-switch path.
        let before = self.map.len();
        self.map.retain(|&(v, page), _| {
            let keep = !vsids.iter().any(|x| x.raw() == v);
            if !keep {
                removed(Vsid::new(v), page);
            }
            keep
        });
        before - self.map.len()
    }

    /// The modelled translation for `(vsid, page_index)`, if legal.
    pub fn lookup(&self, vsid: Vsid, page_index: u32) -> Option<ShadowEntry> {
        self.map.get(&(vsid.raw(), page_index)).copied()
    }

    /// Cross-checks one positive observation `(rpn, writable, cached)` the
    /// hardware made for `(vsid, page_index)` against the model. Returns a
    /// human-readable violation description, or `None` when consistent.
    ///
    /// `what` is any `Display` — callers on hot sweep paths pass a
    /// `format_args!(..)` so the description is only materialized into a
    /// `String` on an actual violation (checker sweeps run millions of
    /// consistent checks per run; violations are terminal).
    pub fn check_observation(
        &self,
        what: impl std::fmt::Display,
        vsid: Vsid,
        page_index: u32,
        rpn: u32,
        writable: bool,
        cached: bool,
    ) -> Option<String> {
        match self.lookup(vsid, page_index) {
            None => Some(format!(
                "{what} observed a translation the oracle holds illegal \
                 (stale entry): vsid={:#x} page={:#x} -> rpn={:#x} \
                 writable={writable} cached={cached}",
                vsid.raw(),
                page_index,
                rpn,
            )),
            Some(e) if e.rpn != rpn || e.writable != writable || e.cached != cached => {
                Some(format!(
                    "{what} observed vsid={:#x} page={:#x} -> rpn={:#x} \
                     writable={writable} cached={cached}, but the oracle says \
                     rpn={:#x} writable={} cached={}",
                    vsid.raw(),
                    page_index,
                    rpn,
                    e.rpn,
                    e.writable,
                    e.cached,
                ))
            }
            Some(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(rpn: u32) -> ShadowEntry {
        ShadowEntry {
            rpn,
            writable: true,
            cached: true,
        }
    }

    #[test]
    fn install_lookup_flush_round_trip() {
        let mut s = ShadowMm::new();
        assert_eq!(s.install(Vsid::new(7), 3, e(0x42)), None);
        assert_eq!(s.lookup(Vsid::new(7), 3), Some(e(0x42)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.install(Vsid::new(7), 3, e(0x43)), Some(e(0x42)));
        assert!(s.flush_page(Vsid::new(7), 3));
        assert!(s.is_empty());
        // Flushing a never-installed page is a no-op, not an error.
        assert!(!s.flush_page(Vsid::new(7), 3));
    }

    #[test]
    fn retire_removes_every_page_of_the_context() {
        let mut s = ShadowMm::new();
        s.install(Vsid::new(7), 1, e(1));
        s.install(Vsid::new(7), 2, e(2));
        s.install(Vsid::new(8), 1, e(3));
        let mut gone = Vec::new();
        let n = s.retire_vsids(&[Vsid::new(7)], |v, page| gone.push((v.raw(), page)));
        gone.sort_unstable();
        assert_eq!((n, gone), (2, vec![(7, 1), (7, 2)]));
        assert!(s.lookup(Vsid::new(7), 1).is_none());
        assert!(s.lookup(Vsid::new(7), 2).is_none());
        assert_eq!(s.lookup(Vsid::new(8), 1), Some(e(3)));
    }

    #[test]
    fn observation_checks() {
        let mut s = ShadowMm::new();
        s.install(Vsid::new(7), 3, e(0x42));
        assert!(s
            .check_observation("tlb hit", Vsid::new(7), 3, 0x42, true, true)
            .is_none());
        // Wrong frame.
        let v = s
            .check_observation("tlb hit", Vsid::new(7), 3, 0x43, true, true)
            .unwrap();
        assert!(v.contains("oracle says"), "{v}");
        // Stale: never installed / already retired.
        let v = s
            .check_observation("htab hit", Vsid::new(9), 3, 0x42, true, true)
            .unwrap();
        assert!(v.contains("stale"), "{v}");
    }
}
