//! The Standard radix partitioner: direct scatter with global atomic
//! offsets.
//!
//! Each thread hashes its tuple, atomically bumps the destination
//! partition's global counter, and stores the 16-byte tuple directly at
//! the returned offset. Every store is an isolated, misaligned random
//! write — the worst case for the interconnect packet model — and every
//! store translates a fresh address, so the TLB working set is touched
//! per *tuple* rather than per flush. The paper measures this algorithm at
//! 3.6-4x below Hierarchical, with runtimes reaching 10 minutes at high
//! fanouts (Section 6.2.6).

use triton_hw::kernel::KernelCost;
use triton_hw::HwConfig;

use crate::common::{ChargeCtx, Partitioned, PassConfig, Span};
use crate::partitioner::{Algorithm, Emu, GpuPartitioner};
use crate::prefix_sum::HistogramResult;

/// The Standard scatter partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardScatter;

impl GpuPartitioner for StandardScatter {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Standard
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
        let mut emu = Emu::new(
            "partition (standard)",
            n,
            hist,
            input,
            output,
            pass,
            hw,
            false,
        );

        for (s, e) in Emu::chunks(n, pass, hw, pass.fanout() * 32) {
            let mut i = s;
            while i < e {
                let batch = 32.min(e - i);
                emu.charge_input(i, batch);
                for j in i..i + batch {
                    let p = emu.pid(keys[j]);
                    // Atomic fetch-add on the partition counter: a random
                    // read-modify-write in the output memory. The counter
                    // array is tiny, so its translations hit; the cost is
                    // the round trip itself.
                    {
                        let addr = emu.model_addr[p]; // frontier address
                        let mut ctx = ChargeCtx {
                            cost: &mut emu.cost,
                            link: &emu.link,
                            tlb: &mut emu.tlb,
                        };
                        ctx.random_read(emu.output, addr, 8);
                    }
                    // The tuple store itself: 16 misaligned bytes.
                    emu.put(p, keys[j], rids[j]);
                    emu.charge_flush(p, 1, false);
                }
                emu.cost.instructions += batch as u64 * 8;
                i += batch;
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
        check_partitioner(&StandardScatter, 5, 0);
        check_partitioner(&StandardScatter, 3, 4);
    }

    #[test]
    fn every_tuple_is_a_partial_write() {
        let hw = HwConfig::ac922().scaled(4096);
        let w = WorkloadSpec::paper_default(1, 200).generate();
        let pass = PassConfig::new(4, 0);
        let hist = compute_histogram(&w.r.keys, 160, 4, 0);
        let (_, cost) = StandardScatter.partition(
            &w.r.keys,
            &w.r.rids,
            &hist,
            &Span::cpu(0),
            &Span::cpu(1 << 40),
            &pass,
            &hw,
        );
        // One partial write transaction (at least) per tuple.
        assert!(cost.link.rand_write.partial_txns >= w.r.len() as u64);
        // Atomic round trips: one random read per tuple.
        assert!(cost.link.rand_read.transactions >= w.r.len() as u64);
    }
}
