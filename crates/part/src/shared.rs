//! The Shared radix partitioner: block-shared software write-combining
//! with perfectly coalesced flushes (Section 4.2 of the paper).
//!
//! A thread block shares one SWWC buffer per partition in scratchpad.
//! Threads fill buffers lock-free (the first invalid slot index doubles as
//! the flush lock); when a buffer fills, the warp elects a leader and
//! flushes the whole buffer as a multiple of the 128-byte transaction
//! size, aligned to the transaction size — "perfect coalescing". Sharing
//! buffers across all warps of the block is what makes the design
//! space-efficient enough for GPU scratchpads (Table 1).
//!
//! The trade-off this module reproduces: the per-partition buffer shrinks
//! with the fanout (`scratchpad / fanout`), so beyond ~512 partitions a
//! flush is smaller than one 128-byte line and coalescing collapses;
//! moreover one write frontier per partition stays TLB-live, so high
//! fanouts thrash the translation caches (Fig 18d).

use triton_datagen::TUPLE_BYTES;
use triton_hw::kernel::KernelCost;
use triton_hw::HwConfig;

use crate::common::{Partitioned, PassConfig, Span};
use crate::partitioner::{Algorithm, Emu, GpuPartitioner};
use crate::prefix_sum::HistogramResult;

/// The Shared SWWC partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedSwwc;

impl SharedSwwc {
    /// Tuples per SWWC buffer at the given fanout: the whole scratchpad,
    /// split evenly across the partitions.
    pub fn buffer_tuples(&self, hw: &HwConfig, fanout: usize) -> usize {
        ((hw.gpu.scratchpad / fanout as u64).0 / TUPLE_BYTES).max(1) as usize
    }
}

impl GpuPartitioner for SharedSwwc {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Shared
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
        let buf_cap = self.buffer_tuples(hw, fanout);
        let mut emu = Emu::new("partition (shared)", n, hist, input, output, pass, hw, true);

        // Fill count of each partition's SWWC buffer.
        let mut fill = vec![0usize; fanout];

        for (s, e) in Emu::chunks(n, pass, hw, fanout * buf_cap * 32) {
            let mut i = s;
            while i < e {
                let wbatch = 32.min(e - i);
                emu.charge_input(i, wbatch);
                emu.cost.instructions += wbatch as u64 * emu.instr.fill_per_tuple;
                for j in i..i + wbatch {
                    let p = emu.pid(keys[j]);
                    emu.put(p, keys[j], rids[j]);
                    fill[p] += 1;
                    if fill[p] == buf_cap {
                        // Warp-leader flush: ballot + lock handoff, then a
                        // coalesced, transaction-aligned write.
                        emu.cost.instructions +=
                            emu.instr.flush_fixed + buf_cap as u64 * emu.instr.flush_per_tuple;
                        emu.cost.sync_cycles += 24;
                        emu.charge_flush(p, buf_cap, true);
                        fill[p] = 0;
                    }
                }
                i += wbatch;
            }
            // Block end: drain partially filled buffers (sub-line writes).
            for (p, f) in fill.iter_mut().enumerate() {
                if *f > 0 {
                    emu.cost.instructions +=
                        emu.instr.flush_fixed + *f as u64 * emu.instr.flush_per_tuple;
                    emu.charge_flush(p, *f, true);
                    *f = 0;
                }
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
    use triton_datagen::WorkloadSpec;

    #[test]
    fn functional_correctness() {
        check_partitioner(&SharedSwwc, 6, 0);
        check_partitioner(&SharedSwwc, 9, 0);
        check_partitioner(&SharedSwwc, 5, 9);
    }

    #[test]
    fn buffer_size_follows_fanout() {
        let hw = HwConfig::ac922();
        let s = SharedSwwc;
        // 64 KiB scratchpad, 16-byte tuples.
        assert_eq!(s.buffer_tuples(&hw, 64), 64);
        assert_eq!(s.buffer_tuples(&hw, 512), 8);
        assert_eq!(s.buffer_tuples(&hw, 2048), 2);
    }

    #[test]
    fn perfect_coalescing_at_moderate_fanout() {
        // Flushes of >= 8 tuples are whole aligned lines: no partial
        // transactions except the block-end drains.
        let hw = HwConfig::ac922().scaled(4096);
        let w = WorkloadSpec::paper_default(2, 100).generate();
        let bits = 8; // buffer = 32 tuples = 512 B
        let pass = PassConfig::new(bits, 0);
        let hist = compute_histogram(&w.r.keys, 160, bits, 0);
        let (_, cost) = SharedSwwc.partition(
            &w.r.keys,
            &w.r.rids,
            &hist,
            &Span::cpu(0),
            &Span::cpu(1 << 40),
            &pass,
            &hw,
        );
        let drain_bound = 160 * (1 << bits); // blocks x partitions
        assert!(
            cost.link.rand_write.partial_txns <= drain_bound as u64 * 2,
            "partials {} should only come from drains",
            cost.link.rand_write.partial_txns
        );
        // Tuples per transaction near the optimum of 8.
        assert!(cost.tuples_per_txn() > 5.0, "{}", cost.tuples_per_txn());
    }

    #[test]
    fn sub_line_flushes_at_extreme_fanout() {
        let hw = HwConfig::ac922().scaled(4096);
        let w = WorkloadSpec::paper_default(2, 100).generate();
        let bits = 12; // buffer = 1 tuple
        let pass = PassConfig::new(bits, 0);
        let hist = compute_histogram(&w.r.keys, 160, bits, 0);
        let (_, cost) = SharedSwwc.partition(
            &w.r.keys,
            &w.r.rids,
            &hist,
            &Span::cpu(0),
            &Span::cpu(1 << 40),
            &pass,
            &hw,
        );
        assert!(
            cost.link.rand_write.partial_txns as f64 >= w.r.len() as f64 * 0.5,
            "extreme fanout must produce partial-line flushes"
        );
    }
}
