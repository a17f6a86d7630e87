//! The MMU: translation plus temperature-attribute forwarding
//! (Figure 4 ⑩–⑪).
//!
//! Instruction fetches translate through the page table; the PTE's
//! PBHA-style bits come back with the translation and are attached to the
//! outgoing memory request by the simulator. A small fully-associative
//! TLB tracks locality statistics. Unmapped pages are demand-allocated
//! (anonymous memory — heap and stack — has no temperature).

use serde::{Deserialize, Serialize};
use trrip_core::{Temperature, TemperatureBits};
use trrip_mem::{PageSize, PhysAddr, VirtAddr, VpnMap};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::page_table::{PageTable, PageTableEntry};

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (page-table walk).
    pub misses: u64,
}

impl TlbStats {
    /// Hit rate in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    vpn: u64,
    stamp: u64,
    valid: bool,
    /// Cached translation — a real TLB holds the PTE, so a hit skips the
    /// page walk entirely. Safe to cache because a mapped PTE is never
    /// remapped during a run (the loader maps before the Mmu exists and
    /// demand allocation only inserts absent pages). Not serialized:
    /// snapshots rebuild it from the page table.
    frame: u64,
    pbha: TemperatureBits,
}

/// The MMU: page table + TLB + demand allocation.
#[derive(Debug, Clone)]
pub struct Mmu {
    page_table: PageTable,
    tlb: Vec<TlbEntry>,
    /// `vpn → slot` over the valid TLB entries — pure lookup
    /// acceleration for the translate hot path (every fetch line-change,
    /// memory operand, and prefetch translates). The architectural state
    /// (entries, stamps, victim choice, statistics) is byte-identical
    /// with or without it, and snapshots rebuild it on restore.
    tlb_index: VpnMap<usize>,
    clock: u64,
    stats: TlbStats,
    next_anon_frame: u64,
}

impl Mmu {
    /// Default TLB entries (unified, fully associative).
    pub const TLB_ENTRIES: usize = 64;

    /// Wraps a loaded page table. Demand allocation hands out frames
    /// above any frame the loader used.
    #[must_use]
    pub fn new(page_table: PageTable) -> Mmu {
        let max_frame = page_table.iter().map(|(_, e)| e.frame).max().unwrap_or(0x100);
        Mmu {
            page_table,
            tlb: vec![TlbEntry::default(); Mmu::TLB_ENTRIES],
            tlb_index: VpnMap::default(),
            clock: 0,
            stats: TlbStats::default(),
            next_anon_frame: max_frame + 1,
        }
    }

    /// The page size in force.
    #[must_use]
    pub fn page_size(&self) -> PageSize {
        self.page_table.page_size()
    }

    /// TLB statistics.
    #[must_use]
    pub fn tlb_stats(&self) -> TlbStats {
        self.stats
    }

    /// The underlying page table.
    #[must_use]
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Translates `vaddr`, returning the physical address and the decoded
    /// temperature attribute. Unmapped pages are demand-allocated as
    /// anonymous (non-executable, no temperature) memory.
    ///
    /// A TLB hit serves the cached PTE without touching the page table —
    /// hit lookup plus stamp update is O(1); only misses (and demand
    /// allocations) walk the table and run the LRU victim scan. Inlined:
    /// this sits on the L1-hit fast path, where the TLB hit is usually
    /// the only work besides the L1 probe.
    #[inline]
    pub fn translate(&mut self, vaddr: VirtAddr) -> (PhysAddr, Option<Temperature>) {
        let page_bytes = self.page_size().bytes();
        let vpn = self.page_size().page_of(vaddr).raw();
        let offset = vaddr.offset_in(page_bytes);
        self.clock += 1;

        if let Some(&slot) = self.tlb_index.get(&vpn) {
            let entry = &mut self.tlb[slot];
            entry.stamp = self.clock;
            self.stats.hits += 1;
            return (PhysAddr::new(entry.frame * page_bytes + offset), entry.pbha.decode());
        }
        self.stats.misses += 1;

        // Page walk; unmapped pages demand-allocate (anonymous memory).
        let pte = match self.page_table.entry(vpn) {
            Some(&pte) => pte,
            None => {
                let frame = self.next_anon_frame;
                self.next_anon_frame += 1;
                let pte = PageTableEntry { frame, executable: false, pbha: TemperatureBits::NONE };
                self.page_table.map(vpn, pte);
                pte
            }
        };

        // TLB fill: victim scan only on the miss path; the first-minimum
        // choice matches the original linear scan exactly.
        let (slot, victim) = self
            .tlb
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.stamp } else { 0 })
            .expect("TLB is never empty");
        if victim.valid {
            self.tlb_index.remove(&victim.vpn);
        }
        *victim =
            TlbEntry { vpn, stamp: self.clock, valid: true, frame: pte.frame, pbha: pte.pbha };
        self.tlb_index.insert(vpn, slot);

        (PhysAddr::new(pte.frame * page_bytes + offset), pte.pbha.decode())
    }
}

impl Snapshot for Mmu {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"MMU ");
        self.page_table.save(w);
        w.usize(self.tlb.len());
        for e in &self.tlb {
            w.bool(e.valid);
            if e.valid {
                w.u64(e.vpn);
                w.u64(e.stamp);
            }
        }
        w.u64(self.clock);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.next_anon_frame);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"MMU ")?;
        self.page_table.restore(r)?;
        r.expect_len("TLB entries", self.tlb.len())?;
        self.tlb_index.clear();
        for slot in 0..self.tlb.len() {
            let mut e = TlbEntry { valid: r.bool()?, ..TlbEntry::default() };
            if e.valid {
                e.vpn = r.u64()?;
                e.stamp = r.u64()?;
                // The cached PTE is not serialized: rebuild it from the
                // (just-restored) page table.
                let pte = self.page_table.entry(e.vpn).copied().ok_or_else(|| {
                    SnapError::Corrupt(format!("TLB entry for unmapped page {:#x}", e.vpn))
                })?;
                e.frame = pte.frame;
                e.pbha = pte.pbha;
                self.tlb_index.insert(e.vpn, slot);
            }
            self.tlb[slot] = e;
        }
        self.clock = r.u64()?;
        self.stats = TlbStats { hits: r.u64()?, misses: r.u64()? };
        self.next_anon_frame = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu_with_hot_page() -> Mmu {
        let mut pt = PageTable::new(PageSize::Size4K);
        pt.map(
            0x400,
            PageTableEntry {
                frame: 0x100,
                executable: true,
                pbha: TemperatureBits::encode(Some(Temperature::Hot)),
            },
        );
        Mmu::new(pt)
    }

    #[test]
    fn translation_returns_temperature() {
        let mut mmu = mmu_with_hot_page();
        let (pa, temp) = mmu.translate(VirtAddr::new(0x40_0040));
        assert_eq!(pa.raw(), 0x100 * 4096 + 0x40);
        assert_eq!(temp, Some(Temperature::Hot));
    }

    #[test]
    fn demand_allocation_is_untagged_and_stable() {
        let mut mmu = mmu_with_hot_page();
        let (pa1, temp) = mmu.translate(VirtAddr::new(0x9000_0000));
        assert_eq!(temp, None);
        // Same page translates to the same frame afterwards.
        let (pa2, _) = mmu.translate(VirtAddr::new(0x9000_0008));
        assert_eq!(pa2.raw(), pa1.raw() + 8);
    }

    #[test]
    fn anonymous_frames_do_not_collide_with_loaded() {
        let mut mmu = mmu_with_hot_page();
        let (pa, _) = mmu.translate(VirtAddr::new(0x8000_0000));
        assert!(pa.raw() / 4096 > 0x100, "anon frame overlaps loader frame");
    }

    #[test]
    fn tlb_hits_on_locality() {
        let mut mmu = mmu_with_hot_page();
        for i in 0..100 {
            mmu.translate(VirtAddr::new(0x40_0000 + i * 8));
        }
        let stats = mmu.tlb_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 99);
    }

    #[test]
    fn tlb_capacity_evicts_lru() {
        let mut mmu = mmu_with_hot_page();
        // Touch 65 distinct pages: first page gets evicted.
        for vpn in 0..65u64 {
            mmu.translate(VirtAddr::new(vpn * 4096));
        }
        let misses_before = mmu.tlb_stats().misses;
        mmu.translate(VirtAddr::new(0)); // evicted → miss again
        assert_eq!(mmu.tlb_stats().misses, misses_before + 1);
    }
}
