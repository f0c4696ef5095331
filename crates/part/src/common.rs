//! Shared infrastructure for the partitioning kernels: memory locations,
//! cost-charging helpers, the partitioned output layout, and the
//! instruction-cost constants of the warp emulation.

use triton_hw::kernel::KernelCost;
use triton_hw::link::LinkModel;
use triton_hw::tlb::{MemSide, TlbLevel, TlbSim};
use triton_hw::units::Bytes;
use triton_mem::HybridLayout;

/// Where a kernel's input or output array physically resides.
#[derive(Debug, Clone)]
pub enum Location {
    /// Entirely in GPU on-board memory.
    Gpu,
    /// Entirely in CPU memory, accessed over the interconnect.
    Cpu,
    /// A Section 5.3 hybrid array: pages interleaved across both memories.
    Hybrid(HybridLayout),
}

/// A located array: its physical placement plus the virtual address of its
/// first byte (drives TLB behaviour). `offset` lets a span denote a slice
/// of a larger located array (e.g. one partition within a hybrid buffer).
#[derive(Debug, Clone)]
pub struct Span {
    /// Physical placement.
    pub loc: Location,
    /// Virtual address of byte 0 of the *underlying* array.
    pub base_vaddr: u64,
    /// Byte offset of this span within the underlying array.
    pub offset: u64,
}

impl Span {
    /// A GPU-memory span at `base_vaddr`.
    pub fn gpu(base_vaddr: u64) -> Self {
        Span {
            loc: Location::Gpu,
            base_vaddr,
            offset: 0,
        }
    }

    /// A CPU-memory span at `base_vaddr`.
    pub fn cpu(base_vaddr: u64) -> Self {
        Span {
            loc: Location::Cpu,
            base_vaddr,
            offset: 0,
        }
    }

    /// A hybrid span; the layout carries its own base address.
    pub fn hybrid(layout: HybridLayout) -> Self {
        let base = layout.vaddr(0);
        Span {
            loc: Location::Hybrid(layout),
            base_vaddr: base,
            offset: 0,
        }
    }

    /// A sub-span starting `delta` bytes further into the underlying
    /// array: same physical placement, shifted charging offsets.
    pub fn slice(&self, delta: u64) -> Span {
        let mut s = self.clone();
        s.offset += delta;
        s
    }

    /// Which memory holds the byte at `offset` (relative to this span).
    pub fn side_of(&self, offset: u64) -> MemSide {
        let o = self.offset + offset;
        match &self.loc {
            Location::Gpu => MemSide::Gpu,
            Location::Cpu => MemSide::Cpu,
            Location::Hybrid(l) => l.side_of(o.min(l.len().saturating_sub(1))),
        }
    }

    /// Split `[offset, offset+len)` (span-relative) into
    /// `(gpu_bytes, cpu_bytes)`.
    pub fn split_range(&self, offset: u64, len: u64) -> (u64, u64) {
        let o = self.offset + offset;
        match &self.loc {
            Location::Gpu => (len, 0),
            Location::Cpu => (0, len),
            Location::Hybrid(l) => l.split_range(o.min(l.len().saturating_sub(1)), len),
        }
    }

    /// Absolute byte position (for wire-line arithmetic) of a
    /// span-relative offset.
    fn abs(&self, offset: u64) -> u64 {
        self.offset + offset
    }
}

/// The charging context threaded through every emulated kernel: the cost
/// accumulator, the link model, and the TLB simulator.
pub struct ChargeCtx<'a> {
    /// Cost accumulator of the kernel being emulated.
    pub cost: &'a mut KernelCost,
    /// Link cost model.
    pub link: &'a LinkModel,
    /// Translation hierarchy state.
    pub tlb: &'a mut TlbSim,
}

impl ChargeCtx<'_> {
    /// Charge a perfectly coalesced sequential read of `len` bytes starting
    /// at `offset` within `span`. TLB lookups are charged once per page
    /// region entered (sequential scans touch each page once).
    pub fn seq_read(&mut self, span: &Span, offset: u64, len: u64) {
        let (gpu, cpu) = span.split_range(offset, len);
        self.cost.gpu_mem.read += Bytes(gpu);
        self.cost.link.seq_read += Bytes(cpu);
        self.translate_pages(span, offset, len);
    }

    /// Charge a perfectly coalesced sequential write.
    pub fn seq_write(&mut self, span: &Span, offset: u64, len: u64) {
        let (gpu, cpu) = span.split_range(offset, len);
        self.cost.gpu_mem.write += Bytes(gpu);
        self.cost.link.seq_write += Bytes(cpu);
        self.translate_pages(span, offset, len);
    }

    /// Charge one buffer flush of `len` bytes at `offset`. The exact byte
    /// position determines which 128-byte lines are full (posted whole) and
    /// which are partial (byte-enable + read-modify-write). One TLB lookup
    /// at the flush address (flushes rarely straddle pages).
    pub fn flush_write(&mut self, span: &Span, offset: u64, len: u64, aligned: bool) {
        if len == 0 {
            return;
        }
        let side = self.lookup(span, offset);
        match side {
            MemSide::Gpu => {
                if aligned {
                    self.cost.gpu_mem.write += Bytes(len);
                } else {
                    self.cost.gpu_mem.rand_write += Bytes(round_txn(len));
                }
            }
            MemSide::Cpu => {
                let wc = self.link.write_at(span.abs(offset), len);
                self.cost.link.rand_write.merge(&wc);
            }
        }
    }

    /// Charge one isolated random write of `len` bytes (the Standard
    /// scatter's per-tuple store).
    pub fn scatter_write(&mut self, span: &Span, offset: u64, len: u64) {
        let side = self.lookup(span, offset);
        match side {
            MemSide::Gpu => {
                self.cost.gpu_mem.rand_write += Bytes(round_txn(len));
            }
            MemSide::Cpu => {
                let wc = self.link.write_at(span.abs(offset), len);
                self.cost.link.rand_write.merge(&wc);
            }
        }
    }

    /// Charge one random read of `len` bytes at `offset` within `span`.
    /// Random reads are *dependent*: a translation miss stalls the warp,
    /// so CPU-side walks are recorded as serialized.
    pub fn random_read(&mut self, span: &Span, offset: u64, len: u64) {
        let walks_before = self.cost.tlb.full_misses;
        let side = self.lookup(span, offset);
        self.cost.tlb.serialized_walks += self.cost.tlb.full_misses - walks_before;
        match side {
            MemSide::Gpu => {
                self.cost.gpu_mem.rand_read += Bytes(round_txn(len));
            }
            MemSide::Cpu => {
                let wc = self.link.read_at(span.abs(offset), len);
                self.cost.link.rand_read.merge(&wc);
            }
        }
    }

    /// Translate the address at `offset` and record the outcome; returns
    /// the memory side for charging.
    fn lookup(&mut self, span: &Span, offset: u64) -> MemSide {
        let side = span.side_of(offset);
        self.translate(span.base_vaddr + span.abs(offset), side);
        side
    }

    /// Translate once per TLB-entry-reach region of a sequential range.
    fn translate_pages(&mut self, span: &Span, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let reach = self.tlb.entry_reach().0;
        let abs = span.abs(offset);
        let first = self.tlb.region_of(abs);
        let last = self.tlb.region_of(abs + len - 1);
        for region in first..=last {
            let off = region * reach;
            let side = span.side_of(off.max(abs) - span.offset);
            self.translate(span.base_vaddr + off, side);
        }
    }

    /// One translation, counted in the kernel's TLB statistics.
    fn translate(&mut self, vaddr: u64, side: MemSide) {
        let stats = &mut self.cost.tlb;
        match (self.tlb.translate(vaddr, side), side) {
            (TlbLevel::L2Hit, _) => stats.l2_hits += 1,
            (TlbLevel::L3StarHit, _) => stats.l3_star_hits += 1,
            (TlbLevel::FullMiss, MemSide::Cpu) => stats.full_misses += 1,
            (TlbLevel::FullMiss, MemSide::Gpu) => stats.gpu_misses += 1,
        }
    }
}

/// Round an access up to the GPU-memory transaction granularity (32-byte
/// L2 sectors): a 16-byte random access still moves a whole sector.
fn round_txn(len: u64) -> u64 {
    len.div_ceil(32) * 32
}

/// Instruction-cost constants of the warp emulation. These are rough GPU
/// instruction counts per logical operation; they matter only where the
/// paper's profiling says compute matters (the in-GPU second pass, the join
/// phase, and Hierarchical's flush loops at high fanout — Fig 18e).
#[derive(Debug, Clone, Copy)]
pub struct InstrCosts {
    /// Per tuple: load, hash, radix extract, buffer-slot acquire, store.
    pub fill_per_tuple: u64,
    /// Per flush: leader ballot, lock handling, loop setup.
    pub flush_fixed: u64,
    /// Per 32 bytes moved during a flush (one warp-wide store iteration
    /// moves 32 lanes x 16 B; normalised per tuple below).
    pub flush_per_tuple: u64,
    /// Extra per-tuple cost of the Linear variant's in-scratchpad sort.
    pub sort_per_tuple: u64,
    /// Per-tuple cost of building a scratchpad hash table.
    pub build_per_tuple: u64,
    /// Per-tuple cost of probing a scratchpad hash table.
    pub probe_per_tuple: u64,
}

impl Default for InstrCosts {
    fn default() -> Self {
        InstrCosts {
            fill_per_tuple: 12,
            flush_fixed: 24,
            flush_per_tuple: 2,
            sort_per_tuple: 10,
            build_per_tuple: 14,
            probe_per_tuple: 12,
        }
    }
}

/// Partition-major output of one radix-partitioning pass, stored compactly
/// (partition *p* occupies `offsets[p]..offsets[p+1]`).
#[derive(Debug, Clone)]
pub struct Partitioned {
    /// Key column, partition-major.
    pub keys: Vec<u64>,
    /// Record-id column, partition-major.
    pub rids: Vec<u64>,
    /// `fanout + 1` partition boundaries.
    pub offsets: Vec<usize>,
    /// Radix bits of this pass.
    pub radix_bits: u32,
    /// Radix bits skipped (consumed by earlier passes).
    pub skip_bits: u32,
}

impl Partitioned {
    /// Number of partitions.
    pub fn fanout(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Borrow partition `p` as `(keys, rids)`.
    pub fn partition(&self, p: usize) -> (&[u64], &[u64]) {
        let (a, b) = (self.offsets[p], self.offsets[p + 1]);
        (&self.keys[a..b], &self.rids[a..b])
    }

    /// Tuples in partition `p`.
    pub fn partition_len(&self, p: usize) -> usize {
        self.offsets[p + 1] - self.offsets[p]
    }

    /// Total tuples.
    pub fn len(&self) -> usize {
        // triton-lint: allow(p1) -- offsets holds fanout+1 entries by construction, never empty
        *self.offsets.last().unwrap()
    }

    /// True when no tuples are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Configuration of one partitioning pass.
#[derive(Debug, Clone, Copy)]
pub struct PassConfig {
    /// Radix bits (fanout = `1 << radix_bits`).
    pub radix_bits: u32,
    /// Bits consumed by earlier passes (0 for pass 1).
    pub skip_bits: u32,
    /// Thread blocks per SM.
    pub blocks_per_sm: u32,
    /// Warps per thread block.
    pub warps_per_block: u32,
    /// SMs available to this kernel (0 = all).
    pub sms: u32,
}

impl PassConfig {
    /// Default launch: 2 blocks/SM, 8 warps/block, all SMs.
    pub fn new(radix_bits: u32, skip_bits: u32) -> Self {
        PassConfig {
            radix_bits,
            skip_bits,
            blocks_per_sm: 2,
            warps_per_block: 8,
            sms: 0,
        }
    }

    /// Fanout of this pass.
    pub fn fanout(&self) -> usize {
        1usize << self.radix_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_hw::{HwConfig, KernelCost, TlbSim};
    use triton_mem::InterleavePattern;

    fn ctx_fixture() -> (KernelCost, LinkModel, TlbSim) {
        let hw = HwConfig::ac922().scaled(1024);
        (
            KernelCost::new("t"),
            LinkModel::new(&hw.link),
            TlbSim::new(&hw),
        )
    }

    #[test]
    fn seq_read_splits_hybrid() {
        let (mut cost, link, mut tlb) = ctx_fixture();
        let layout = HybridLayout::new(0, 1 << 20, 1 << 11, InterleavePattern::from_fraction(0.5));
        let span = Span::hybrid(layout);
        {
            let mut ctx = ChargeCtx {
                cost: &mut cost,
                link: &link,
                tlb: &mut tlb,
            };
            ctx.seq_read(&span, 0, 1 << 20);
        }
        assert_eq!(cost.gpu_mem.read.0, 1 << 19);
        assert_eq!(cost.link.seq_read.0, 1 << 19);
    }

    #[test]
    fn aligned_flush_is_natural_alignment() {
        let (mut cost, link, mut tlb) = ctx_fixture();
        let span = Span::cpu(0);
        {
            let mut ctx = ChargeCtx {
                cost: &mut cost,
                link: &link,
                tlb: &mut tlb,
            };
            ctx.flush_write(&span, 256, 256, true);
        }
        assert_eq!(cost.link.rand_write.transactions, 2);
        assert_eq!(cost.link.rand_write.partial_txns, 0);
    }

    #[test]
    fn unaligned_flush_pays_partial_lines() {
        let (mut cost, link, mut tlb) = ctx_fixture();
        let span = Span::cpu(0);
        {
            let mut ctx = ChargeCtx {
                cost: &mut cost,
                link: &link,
                tlb: &mut tlb,
            };
            ctx.flush_write(&span, 48, 256, false);
        }
        assert!(cost.link.rand_write.partial_txns > 0);
    }

    #[test]
    fn flush_to_gpu_charges_gpu_memory() {
        let (mut cost, link, mut tlb) = ctx_fixture();
        let span = Span::gpu(0);
        {
            let mut ctx = ChargeCtx {
                cost: &mut cost,
                link: &link,
                tlb: &mut tlb,
            };
            ctx.flush_write(&span, 0, 512, true);
        }
        assert_eq!(cost.gpu_mem.write.0, 512);
        assert_eq!(cost.link.rand_write.payload.0, 0);
        // GPU-side lookup recorded.
        assert_eq!(cost.tlb.lookups(), 1);
    }

    #[test]
    fn partitioned_accessors() {
        let p = Partitioned {
            keys: vec![1, 2, 3, 4],
            rids: vec![10, 20, 30, 40],
            offsets: vec![0, 1, 4],
            radix_bits: 1,
            skip_bits: 0,
        };
        assert_eq!(p.fanout(), 2);
        assert_eq!(p.partition(0), (&[1u64][..], &[10u64][..]));
        assert_eq!(p.partition_len(1), 3);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn seq_scan_tlb_lookups_once_per_region() {
        let hw = HwConfig::ac922().scaled(1024);
        let mut cost = KernelCost::new("t");
        let link = LinkModel::new(&hw.link);
        let mut tlb = TlbSim::new(&hw);
        let reach = tlb.entry_reach().0;
        let span = Span::cpu(0);
        {
            let mut ctx = ChargeCtx {
                cost: &mut cost,
                link: &link,
                tlb: &mut tlb,
            };
            ctx.seq_read(&span, 0, reach * 3);
        }
        assert_eq!(cost.tlb.lookups(), 3);
    }
}
