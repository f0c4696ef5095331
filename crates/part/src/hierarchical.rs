//! The Hierarchical radix partitioner: two-level software write-combining
//! (Section 4.3 of the paper — the algorithm the Triton join uses for its
//! out-of-core first pass).
//!
//! Hierarchical extends [`Shared`](crate::shared::SharedSwwc) with a
//! second buffer tier in GPU memory. L1 buffers live in scratchpad as
//! before; a full L1 buffer is *evicted* into its partition's L2 buffer in
//! GPU memory, and only a full L2 buffer is flushed — asynchronously,
//! after being swapped against an empty buffer from a spare pool
//! (double-buffering keeps the critical section to a pointer update).
//!
//! The added capacity means flushes to CPU memory are both larger (always
//! whole aligned lines) and rarer, which divides the translation pressure
//! by the L2/L1 size ratio — the mechanism behind the 100-1436x lower
//! IOMMU request rates of Fig 18(d) and the graceful high-fanout scaling
//! of Fig 17.

use triton_datagen::TUPLE_BYTES;
use triton_hw::kernel::KernelCost;
use triton_hw::units::Bytes;
use triton_hw::HwConfig;

use crate::common::{ChargeCtx, Partitioned, PassConfig, Span};
use crate::partitioner::{Algorithm, Emu, GpuPartitioner};
use crate::prefix_sum::HistogramResult;

/// The Hierarchical SWWC partitioner.
#[derive(Debug, Clone, Copy)]
pub struct HierarchicalSwwc {
    /// Fraction of the scratchpad for L1 buffers.
    pub scratchpad_fraction: f64,
    /// Explicit L2 buffer size in tuples; 0 = size automatically from the
    /// GPU-memory budget.
    pub l2_tuples: usize,
    /// Fraction of GPU memory reserved for L2 buffers when sizing
    /// automatically.
    pub gpu_budget_fraction: f64,
}

impl Default for HierarchicalSwwc {
    fn default() -> Self {
        HierarchicalSwwc {
            scratchpad_fraction: 1.0,
            l2_tuples: 0,
            gpu_budget_fraction: 0.125,
        }
    }
}

impl HierarchicalSwwc {
    /// L1 buffer size in tuples at `fanout`.
    pub fn l1_tuples(&self, hw: &HwConfig, fanout: usize) -> usize {
        let bytes = (hw.gpu.scratchpad.as_f64() * self.scratchpad_fraction) as u64;
        ((bytes / fanout as u64) / TUPLE_BYTES).max(1) as usize
    }

    /// L2 buffer size in tuples at `fanout`.
    pub fn l2_buffer_tuples(&self, hw: &HwConfig, fanout: usize) -> usize {
        if self.l2_tuples > 0 {
            return self.l2_tuples.max(8);
        }
        let budget = (hw.gpu.mem_capacity.as_f64() * self.gpu_budget_fraction) as u64;
        let per_partition = budget / fanout as u64 / TUPLE_BYTES;
        // Whole 128-byte lines, between 128 and 256 tuples. The floor is
        // a *granularity* (like the scratchpad): at paper scale the GPU
        // budget always affords >= 256-tuple buffers, and flush size is
        // what sets the TLB pressure, so it must not shrink with the
        // capacity scale factor.
        let t = per_partition.clamp(128, 256) as usize;
        (t / 8) * 8
    }
}

impl GpuPartitioner for HierarchicalSwwc {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Hierarchical
    }

    fn partition(
        &self,
        keys: &[u64],
        rids: &[u64],
        hist: &HistogramResult,
        input: &Span,
        output: &Span,
        pass: &PassConfig,
        hw: &HwConfig,
    ) -> (Partitioned, KernelCost) {
        let n = keys.len();
        let fanout = pass.fanout();
        let l1_cap = self.l1_tuples(hw, fanout);
        let l2_cap = self.l2_buffer_tuples(hw, fanout).max(l1_cap);
        let mut emu = Emu::new(
            "partition (hierarchical)",
            n,
            hist,
            input,
            output,
            pass,
            hw,
            true,
        );
        // The L2 buffer area lives in GPU memory; its translations are a
        // handful of GPU-side pages.
        let l2_span = Span::gpu(1 << 44);

        // Swap a full L2 buffer against a spare and flush it to the output.
        fn flush_l2(emu: &mut Emu, p: usize, fill: &mut usize) {
            let count = std::mem::take(fill);
            emu.cost.gpu_mem.read += Bytes(count as u64 * TUPLE_BYTES);
            emu.cost.instructions +=
                emu.instr.flush_fixed + count as u64 * emu.instr.flush_per_tuple;
            // Double-buffered swap: short critical section.
            emu.cost.sync_cycles += 16;
            emu.charge_flush(p, count, true);
        }

        // Fill counts of each partition's L1 (scratchpad) and L2 (GPU
        // memory) buffers.
        let mut l1 = vec![0usize; fanout];
        let mut l2 = vec![0usize; fanout];

        // Evict partition `p`'s L1 buffer into its L2 buffer; flush the
        // L2 buffer when it fills.
        let evict = |emu: &mut Emu, p: usize, l1: &mut usize, l2: &mut usize| {
            if *l1 == 0 {
                return;
            }
            let bytes = *l1 as u64 * TUPLE_BYTES;
            emu.cost.instructions += emu.instr.flush_fixed + *l1 as u64 * emu.instr.flush_per_tuple;
            emu.cost.gpu_mem.write += Bytes(bytes);
            {
                let mut ctx = ChargeCtx {
                    cost: &mut emu.cost,
                    link: &emu.link,
                    tlb: &mut emu.tlb,
                };
                // One GPU-side translation for the L2 buffer page.
                ctx.random_read(&l2_span, (p as u64) * 4096 % (1 << 20), 0);
            }
            *l2 += std::mem::take(l1);
            if *l2 >= l2_cap {
                flush_l2(emu, p, l2);
            }
        };

        for (s, e) in Emu::chunks(n, pass, hw, fanout * l1_cap * 32) {
            let mut i = s;
            while i < e {
                let wbatch = 32.min(e - i);
                emu.charge_input(i, wbatch);
                emu.cost.instructions += wbatch as u64 * emu.instr.fill_per_tuple;
                for j in i..i + wbatch {
                    let p = emu.pid(keys[j]);
                    emu.put(p, keys[j], rids[j]);
                    l1[p] += 1;
                    if l1[p] == l1_cap {
                        evict(&mut emu, p, &mut l1[p], &mut l2[p]);
                    }
                }
                i += wbatch;
            }
            // Block end: evict the partial L1 buffers into L2 (they stay
            // buffered; L2 is shared across blocks).
            for p in 0..fanout {
                evict(&mut emu, p, &mut l1[p], &mut l2[p]);
            }
        }
        // Kernel end: drain all L2 buffers.
        for (p, fill) in l2.iter_mut().enumerate() {
            if *fill > 0 {
                flush_l2(&mut emu, p, fill);
            }
        }
        emu.finish(hist, pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::testutil::check_partitioner;
    use crate::prefix_sum::compute_histogram;
    use crate::shared::SharedSwwc;
    use triton_datagen::WorkloadSpec;

    #[test]
    fn functional_correctness() {
        check_partitioner(&HierarchicalSwwc::default(), 6, 0);
        check_partitioner(&HierarchicalSwwc::default(), 10, 0);
        check_partitioner(&HierarchicalSwwc::default(), 4, 8);
    }

    #[test]
    fn l2_buffers_shrink_with_fanout_but_stay_line_sized() {
        let hw = HwConfig::ac922();
        let h = HierarchicalSwwc::default();
        for bits in [2u32, 6, 9, 11] {
            let t = h.l2_buffer_tuples(&hw, 1 << bits);
            assert!(t >= 128, "L2 buffer below floor at 2^{bits}");
            assert_eq!(t % 8, 0, "L2 buffer not line-multiple at 2^{bits}");
        }
    }

    #[test]
    fn fewer_iommu_requests_than_shared_at_high_fanout() {
        // Fig 18 partitions ~60 GiB, well beyond the 32 GiB translation
        // coverage; the scaled equivalent needs the same ratio, so the
        // workload scale factor matches the hardware scale factor.
        let hw = HwConfig::ac922().scaled(4096);
        let w = WorkloadSpec::paper_default(4096, 4096).generate();
        let bits = 11;
        let pass = PassConfig::new(bits, 0);
        let hist = compute_histogram(&w.r.keys, 160, bits, 0);
        let input = Span::cpu(0);
        let output = Span::cpu(1 << 40);
        let (_, shared_cost) = SharedSwwc::default()
            .partition(&w.r.keys, &w.r.rids, &hist, &input, &output, &pass, &hw);
        let (_, hier_cost) = HierarchicalSwwc::default()
            .partition(&w.r.keys, &w.r.rids, &hist, &input, &output, &pass, &hw);
        let s = shared_cost.iommu_requests_per_tuple();
        let h = hier_cost.iommu_requests_per_tuple();
        assert!(
            h * 4.0 < s,
            "Hierarchical ({h:.4}) must cut IOMMU requests vs Shared ({s:.4})"
        );
    }

    #[test]
    fn flushes_always_whole_lines() {
        let hw = HwConfig::ac922().scaled(4096);
        let w = WorkloadSpec::paper_default(2, 100).generate();
        let bits = 11; // Shared would flush 2-tuple (32 B) buffers here.
        let pass = PassConfig::new(bits, 0);
        let hist = compute_histogram(&w.r.keys, 160, bits, 0);
        let (_, cost) = HierarchicalSwwc::default().partition(
            &w.r.keys,
            &w.r.rids,
            &hist,
            &Span::cpu(0),
            &Span::cpu(1 << 40),
            &pass,
            &hw,
        );
        // Only the final drains may be partial.
        let drain_bound = 2 * (1 << bits) as u64;
        assert!(
            cost.link.rand_write.partial_txns <= drain_bound,
            "partials {}",
            cost.link.rand_write.partial_txns
        );
    }

    #[test]
    fn pays_gpu_memory_for_the_second_tier() {
        let hw = HwConfig::ac922().scaled(4096);
        let w = WorkloadSpec::paper_default(1, 100).generate();
        let pass = PassConfig::new(8, 0);
        let hist = compute_histogram(&w.r.keys, 160, 8, 0);
        let (_, cost) = HierarchicalSwwc::default().partition(
            &w.r.keys,
            &w.r.rids,
            &hist,
            &Span::cpu(0),
            &Span::cpu(1 << 40),
            &pass,
            &hw,
        );
        let n_bytes = w.r.len() as u64 * 16;
        // Every tuple passes through the L2 tier: written + read once.
        assert!(cost.gpu_mem.write.0 >= n_bytes);
        assert!(cost.gpu_mem.read.0 >= n_bytes);
    }
}
