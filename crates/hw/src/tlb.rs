//! Address-translation model: GPU L2 TLB, the intermediate translation
//! layer the paper calls "L3 TLB*", and full IOMMU page-table walks.
//!
//! Section 3.4.2 measures, for GPU accesses to CPU memory over NVLink: an
//! L2 TLB covering 8 GiB (hit latency 449.7 ns), a second plateau up to
//! 32 GiB (532.9 ns, "L3 TLB*"), and a full-miss plateau above 37 GiB
//! (3186.4 ns, "Miss*"). For GPU memory: 8 GiB L2 coverage, 151.9 ns hit,
//! 226.7 ns miss. TLB entries cover 32 MiB (16 coalesced 2 MiB pages).
//!
//! We model each level as an LRU set of coalesced-entry tags. Kernels drive
//! lookups per distinct page region per warp transaction; the resulting
//! miss counts feed both the latency model (pointer chasing, Fig 7) and the
//! IOMMU walker throughput limit (the 100x collapse of the linear-probing
//! no-partitioning join, Section 6.2.2).

use std::collections::BTreeMap;

use crate::config::HwConfig;
use crate::units::{Bytes, Ns};

/// Which physical memory a virtual address resolves to (determines which
/// latency schedule applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSide {
    /// GPU on-board memory.
    Gpu,
    /// CPU memory accessed over the interconnect.
    Cpu,
}

/// Outcome of a translation lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLevel {
    /// GPU L2 TLB hit.
    L2Hit,
    /// GPU L2 miss, intermediate layer (L3*/IOTLB) hit. CPU memory only.
    L3StarHit,
    /// Full miss serviced by an IOMMU page-table walk.
    FullMiss,
}

/// Counters accumulated by a [`TlbSim`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit the GPU L2 TLB.
    pub l2_hits: u64,
    /// Lookups that missed L2 but hit the intermediate layer.
    pub l3_star_hits: u64,
    /// Full misses on *CPU-memory* addresses, i.e. IOMMU page-table walks.
    /// This is what the paper counts as "IOMMU requests" via the POWER9
    /// performance counters.
    pub full_misses: u64,
    /// GPU L2 TLB misses on *GPU-memory* addresses. Refilled locally from
    /// the system page table; they never reach the IOMMU.
    pub gpu_misses: u64,
    /// The subset of `full_misses` caused by *dependent random reads*:
    /// the execution stalls until the walk completes, so these serialise
    /// on the IOMMU's page-table walkers. Posted writes and prefetchable
    /// sequential scans miss too, but do not stall the pipeline.
    pub serialized_walks: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.l2_hits + self.l3_star_hits + self.full_misses + self.gpu_misses
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &TlbStats) {
        self.l2_hits += other.l2_hits;
        self.l3_star_hits += other.l3_star_hits;
        self.full_misses += other.full_misses;
        self.gpu_misses += other.gpu_misses;
        self.serialized_walks += other.serialized_walks;
    }

    /// Typed trace attributes (event counts carry no unit suffix per
    /// the `triton-trace` naming convention).
    pub fn trace_attrs(&self) -> [triton_trace::Attr; 5] {
        [
            triton_trace::Attr::u64("tlb_l2_hits", self.l2_hits),
            triton_trace::Attr::u64("tlb_l3_star_hits", self.l3_star_hits),
            triton_trace::Attr::u64("tlb_full_misses", self.full_misses),
            triton_trace::Attr::u64("tlb_gpu_misses", self.gpu_misses),
            triton_trace::Attr::u64("tlb_serialized_walks", self.serialized_walks),
        ]
    }
}

/// A fixed-capacity LRU set of u64 tags, implemented as an ordered map
/// into an intrusive doubly-linked list over a slab. Touch/insert/evict
/// are O(log n) over at most `cap` tags, with iteration order (and hence
/// any derived output) independent of the process's hash seed.
#[derive(Debug, Clone)]
pub struct Lru {
    cap: usize,
    map: BTreeMap<u64, usize>,
    // Slab of nodes: (tag, prev, next). usize::MAX is the null index.
    nodes: Vec<(u64, usize, usize)>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
}

const NIL: usize = usize::MAX;

impl Lru {
    /// Create an LRU with `cap` entries (cap >= 1).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1);
        Lru {
            cap,
            map: BTreeMap::new(),
            // Grown on demand: most kernels touch few of a large LRU's slots.
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Look up `tag`; if present move it to the front and return true,
    /// otherwise insert it (evicting the LRU entry if full) and return
    /// false.
    pub fn access(&mut self, tag: u64) -> bool {
        if let Some(&idx) = self.map.get(&tag) {
            self.unlink(idx);
            self.push_front(idx);
            true
        } else {
            self.insert(tag);
            false
        }
    }

    /// Whether `tag` is resident, without updating recency.
    pub fn contains(&self, tag: u64) -> bool {
        self.map.contains_key(&tag)
    }

    /// Drop all entries (e.g. the CUDA runtime flushes GPU TLBs on kernel
    /// launch; mprotect flushes the IOTLB).
    pub fn flush(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn insert(&mut self, tag: u64) {
        if self.map.len() == self.cap {
            // Evict LRU (tail).
            let t = self.tail;
            debug_assert_ne!(t, NIL);
            let old_tag = self.nodes[t].0;
            self.unlink(t);
            self.map.remove(&old_tag);
            self.free.push(t);
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = (tag, NIL, NIL);
            idx
        } else {
            self.nodes.push((tag, NIL, NIL));
            self.nodes.len() - 1
        };
        self.map.insert(tag, idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (_, prev, next) = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].2 = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].1 = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].1 = NIL;
        self.nodes[idx].2 = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].1 = NIL;
        self.nodes[idx].2 = self.head;
        if self.head != NIL {
            self.nodes[self.head].1 = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// A set-associative cache of u64 tags: `sets` sets of `ways` entries,
/// stored flat, each set in recency order (slot 0 most recent). Per set,
/// this is the replacement of an [`Lru`] of `ways` entries.
///
/// The GPU L2 TLB is modelled set-associatively because conflict misses are
/// what produce the paper's fanout knee (Fig 18d): a radix partitioner
/// keeps one write frontier per partition alive, and once the number of
/// concurrently-live translations approaches the TLB's capacity, conflicts
/// evict entries well before full capacity is reached.
#[derive(Debug, Clone)]
pub struct SetAssocLru {
    tags: Vec<u64>,
    ways: usize,
    sets: usize,
}

/// Tag of an empty slot (real tags are addresses over an entry reach).
const EMPTY: u64 = u64::MAX;

impl SetAssocLru {
    /// Build with `entries` total entries and `ways` associativity.
    pub fn new(entries: usize, ways: usize) -> Self {
        let ways = ways.max(1).min(entries.max(1));
        let sets = (entries / ways).max(1);
        SetAssocLru {
            tags: vec![EMPTY; sets * ways],
            ways,
            sets,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    fn set_of(&self, tag: u64) -> usize {
        // Mix the tag before indexing so strided tag sequences (partition
        // frontiers are evenly spaced) spread across sets.
        let h = (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        if self.sets.is_power_of_two() {
            h & (self.sets - 1)
        } else {
            h % self.sets
        }
    }

    /// Look up `tag`: true on hit; inserts on miss.
    #[inline]
    pub fn access(&mut self, tag: u64) -> bool {
        debug_assert_ne!(tag, EMPTY);
        let first = self.set_of(tag) * self.ways;
        let set = &mut self.tags[first..first + self.ways];
        let hit = set.iter().position(|&t| t == tag);
        // Move `tag` to the front; a miss drops the least recent entry.
        for k in (1..=hit.unwrap_or(set.len() - 1)).rev() {
            set[k] = set[k - 1];
        }
        set[0] = tag;
        hit.is_some()
    }

    /// Drop all entries.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }
}

/// The translation hierarchy simulator for one kernel's address stream.
#[derive(Debug, Clone)]
pub struct TlbSim {
    entry_reach: u64,
    gpu_l2: SetAssocLru,
    l3_star: Lru,
    stats: TlbStats,
    cfg_cpu_l2_hit_ns: f64,
    cfg_l3_star_hit_ns: f64,
    cfg_full_miss_ns: f64,
    cfg_gpu_l2_hit_ns: f64,
    cfg_gpu_l2_miss_ns: f64,
}

impl TlbSim {
    /// Build a simulator sized from the hardware config.
    pub fn new(hw: &HwConfig) -> Self {
        TlbSim {
            entry_reach: hw.tlb_entry_reach().0,
            gpu_l2: SetAssocLru::new(hw.gpu_l2_tlb_entries(), 4),
            l3_star: Lru::new(hw.l3_star_entries()),
            stats: TlbStats::default(),
            cfg_cpu_l2_hit_ns: hw.tlb.cpu_l2_hit_ns,
            cfg_l3_star_hit_ns: hw.tlb.l3_star_hit_ns,
            cfg_full_miss_ns: hw.tlb.full_miss_ns,
            cfg_gpu_l2_hit_ns: hw.tlb.gpu_l2_hit_ns,
            cfg_gpu_l2_miss_ns: hw.tlb.gpu_l2_miss_ns,
        }
    }

    /// Reach (bytes of address space) covered by one TLB entry.
    pub fn entry_reach(&self) -> Bytes {
        Bytes(self.entry_reach)
    }

    /// The tag a lookup of `vaddr` uses: its entry-reach region.
    #[inline]
    pub fn region_of(&self, vaddr: u64) -> u64 {
        if self.entry_reach.is_power_of_two() {
            vaddr >> self.entry_reach.trailing_zeros()
        } else {
            vaddr / self.entry_reach
        }
    }

    /// Translate a virtual address residing on `side`. Returns which level
    /// served it and records statistics.
    #[inline]
    pub fn translate(&mut self, vaddr: u64, side: MemSide) -> TlbLevel {
        let tag = self.region_of(vaddr);
        if self.gpu_l2.access(tag) {
            self.stats.l2_hits += 1;
            return TlbLevel::L2Hit;
        }
        match side {
            MemSide::Gpu => {
                // GPU-memory misses are refilled from the system page table;
                // the measured miss latency already includes the refill, and
                // the request never reaches the IOMMU.
                self.stats.gpu_misses += 1;
                TlbLevel::FullMiss
            }
            MemSide::Cpu => {
                if self.l3_star.access(tag) {
                    self.stats.l3_star_hits += 1;
                    TlbLevel::L3StarHit
                } else {
                    self.stats.full_misses += 1;
                    TlbLevel::FullMiss
                }
            }
        }
    }

    /// Access latency for a lookup outcome on `side` (Fig 7 schedule).
    pub fn latency(&self, level: TlbLevel, side: MemSide) -> Ns {
        Ns(match (side, level) {
            (MemSide::Gpu, TlbLevel::L2Hit) => self.cfg_gpu_l2_hit_ns,
            (MemSide::Gpu, _) => self.cfg_gpu_l2_miss_ns,
            (MemSide::Cpu, TlbLevel::L2Hit) => self.cfg_cpu_l2_hit_ns,
            (MemSide::Cpu, TlbLevel::L3StarHit) => self.cfg_l3_star_hit_ns,
            (MemSide::Cpu, TlbLevel::FullMiss) => self.cfg_full_miss_ns,
        })
    }

    /// Translate-and-return-latency helper for pointer-chase style
    /// dependent accesses.
    pub fn access_latency(&mut self, vaddr: u64, side: MemSide) -> Ns {
        let lvl = self.translate(vaddr, side);
        self.latency(lvl, side)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Reset statistics, keeping TLB contents.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Flush all levels (kernel-launch semantics).
    pub fn flush(&mut self) {
        self.gpu_l2.flush();
        self.l3_star.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_basic_eviction() {
        let mut l = Lru::new(2);
        assert!(!l.access(1));
        assert!(!l.access(2));
        assert!(l.access(1)); // 1 now MRU, 2 LRU
        assert!(!l.access(3)); // evicts 2
        assert!(!l.contains(2));
        assert!(l.contains(1));
        assert!(l.contains(3));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn lru_flush() {
        let mut l = Lru::new(4);
        l.access(7);
        l.access(9);
        l.flush();
        assert!(l.is_empty());
        assert!(!l.access(7));
    }

    #[test]
    fn lru_reuses_freed_slots() {
        let mut l = Lru::new(2);
        for t in 0..100 {
            l.access(t);
        }
        assert_eq!(l.len(), 2);
        assert!(l.contains(99) && l.contains(98));
        // Slab should not have grown unboundedly.
        assert!(l.nodes.len() <= 3);
    }

    #[test]
    fn working_set_within_l2_coverage_hits() {
        let hw = HwConfig::ac922().scaled(1024);
        let mut tlb = TlbSim::new(&hw);
        let reach = tlb.entry_reach().0;
        let entries = hw.gpu_l2_tlb_entries() as u64;
        // Touch half the L2 coverage twice: second round must be all hits.
        for round in 0..2 {
            for i in 0..entries / 2 {
                let lvl = tlb.translate(i * reach, MemSide::Cpu);
                if round == 1 {
                    assert_eq!(lvl, TlbLevel::L2Hit);
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_l3_star_always_walks() {
        let hw = HwConfig::ac922().scaled(1024);
        let mut tlb = TlbSim::new(&hw);
        let reach = tlb.entry_reach().0;
        let beyond = (hw.l3_star_entries() as u64) * 4;
        // Cyclic sweep over 4x the L3* coverage: steady state is all misses.
        let mut walks = 0;
        let rounds = 3;
        for _ in 0..rounds {
            for i in 0..beyond {
                if tlb.translate(i * reach, MemSide::Cpu) == TlbLevel::FullMiss {
                    walks += 1;
                }
            }
        }
        assert_eq!(walks, rounds * beyond, "LRU under cyclic sweep must thrash");
    }

    #[test]
    fn latency_schedule_matches_fig7() {
        let hw = HwConfig::ac922();
        let tlb = TlbSim::new(&hw);
        assert_eq!(tlb.latency(TlbLevel::L2Hit, MemSide::Cpu), Ns(449.7));
        assert_eq!(tlb.latency(TlbLevel::L3StarHit, MemSide::Cpu), Ns(532.9));
        assert_eq!(tlb.latency(TlbLevel::FullMiss, MemSide::Cpu), Ns(3186.4));
        assert_eq!(tlb.latency(TlbLevel::L2Hit, MemSide::Gpu), Ns(151.9));
        assert_eq!(tlb.latency(TlbLevel::FullMiss, MemSide::Gpu), Ns(226.7));
    }

    #[test]
    fn gpu_side_has_no_l3_star() {
        let hw = HwConfig::ac922().scaled(1024);
        let mut tlb = TlbSim::new(&hw);
        let reach = tlb.entry_reach().0;
        let beyond = (hw.gpu_l2_tlb_entries() as u64) * 2;
        let mut seen_l3 = false;
        for _ in 0..2 {
            for i in 0..beyond {
                if tlb.translate(i * reach, MemSide::Gpu) == TlbLevel::L3StarHit {
                    seen_l3 = true;
                }
            }
        }
        assert!(!seen_l3);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let hw = HwConfig::ac922().scaled(1024);
        let mut tlb = TlbSim::new(&hw);
        tlb.translate(0, MemSide::Cpu);
        tlb.translate(0, MemSide::Cpu);
        let s = tlb.stats();
        assert_eq!(s.lookups(), 2);
        assert_eq!(s.full_misses, 1);
        assert_eq!(s.l2_hits, 1);
        tlb.reset_stats();
        assert_eq!(tlb.stats().lookups(), 0);
    }
}
