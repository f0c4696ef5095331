//! The Linear radix partitioner: linear-allocator software write-combining.
//!
//! The state of the art for in-GPU partitioning (Section 2.2): a thread
//! block stages a batch of tuples in scratchpad using an atomically
//! incremented linear allocator, sorts the batch by partition, and flushes
//! each partition's run to global memory. Coalescing is only
//! *opportunistic*: a run's length is `batch / fanout` on average and its
//! destination offset is arbitrary, so runs rarely form whole aligned
//! 128-byte lines — the effect Fig 18(b,c) quantifies as low
//! tuples-per-transaction and up to 156% interconnect overhead.

use triton_datagen::TUPLE_BYTES;
use triton_hw::kernel::KernelCost;
use triton_hw::HwConfig;

use crate::common::{Partitioned, PassConfig, Span};
use crate::partitioner::{Algorithm, Emu, GpuPartitioner};
use crate::prefix_sum::HistogramResult;

/// The Linear (linear-allocator SWWC) partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearSwwc;

impl LinearSwwc {
    /// Tuples per staging batch: the whole scratchpad.
    fn batch_tuples(&self, hw: &HwConfig) -> usize {
        (hw.gpu.scratchpad.0 / TUPLE_BYTES).max(32) as usize
    }
}

impl GpuPartitioner for LinearSwwc {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Linear
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
        let batch_cap = self.batch_tuples(hw);
        let mut emu = Emu::new(
            "partition (linear)",
            n,
            hist,
            input,
            output,
            pass,
            hw,
            false,
        );

        // Staged tuples per partition: the run lengths of the batch once
        // it is sorted by partition id.
        let mut runs = vec![0usize; fanout];
        let mut staged = 0usize;

        let flush_batch = |emu: &mut Emu, runs: &mut [usize], staged: &mut usize| {
            // In-scratchpad counting sort of the staged batch.
            emu.cost.instructions += *staged as u64 * emu.instr.sort_per_tuple;
            for (p, run) in runs.iter_mut().enumerate() {
                if *run == 0 {
                    continue;
                }
                emu.cost.instructions +=
                    emu.instr.flush_fixed + *run as u64 * emu.instr.flush_per_tuple;
                // Run start offsets are arbitrary: unaligned flush.
                emu.charge_flush(p, *run, false);
                *run = 0;
            }
            emu.cost.sync_cycles += 96; // block-wide barrier around the sort
            *staged = 0;
        };

        for (s, e) in Emu::chunks(n, pass, hw, batch_cap * 32) {
            let mut i = s;
            while i < e {
                let wbatch = 32.min(e - i);
                emu.charge_input(i, wbatch);
                emu.cost.instructions += wbatch as u64 * emu.instr.fill_per_tuple;
                for j in i..i + wbatch {
                    let p = emu.pid(keys[j]);
                    emu.put(p, keys[j], rids[j]);
                    runs[p] += 1;
                    staged += 1;
                    if staged == batch_cap {
                        flush_batch(&mut emu, &mut runs, &mut staged);
                    }
                }
                i += wbatch;
            }
            // Block end: drain the partial batch.
            if staged > 0 {
                flush_batch(&mut emu, &mut runs, &mut staged);
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
        check_partitioner(&LinearSwwc, 6, 0);
        check_partitioner(&LinearSwwc, 4, 6);
    }

    #[test]
    fn coalescing_degrades_with_fanout() {
        let hw = HwConfig::ac922().scaled(4096);
        let w = WorkloadSpec::paper_default(2, 100).generate();
        let input = Span::cpu(0);
        let output = Span::cpu(1 << 40);
        let tpt = |bits: u32| {
            let pass = PassConfig::new(bits, 0);
            let hist = compute_histogram(&w.r.keys, 160, bits, 0);
            let (_, cost) =
                LinearSwwc.partition(&w.r.keys, &w.r.rids, &hist, &input, &output, &pass, &hw);
            cost.tuples_per_txn()
        };
        let low = tpt(2);
        let high = tpt(10);
        assert!(
            low > high,
            "tuples/txn must fall with fanout: {low} vs {high}"
        );
        // At fanout 1024, the average run is ~4 tuples: far from the
        // 8-tuples-per-line optimum.
        assert!(high < 4.0, "high-fanout tuples/txn {high}");
    }
}
