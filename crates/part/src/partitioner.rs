//! The GPU partitioner interface and shared emulation pieces.
//!
//! All four algorithms (Standard, Linear, Shared, Hierarchical) implement
//! [`GpuPartitioner`]: they consume a histogram (computed by the prefix-sum
//! kernel), scatter the input into a partition-major output, and account
//! every memory access against the hardware model. Tuples are appended to
//! each partition through a global atomic cursor — one write frontier per
//! partition — which is also what makes the TLB working set of a
//! partitioning pass proportional to the fanout (Section 3.4.2).
//!
//! A pass's output columns can be handed back with [`recycle`]; the next
//! pass of the same length writes into them instead of page-faulting
//! fresh ones (DESIGN.md §8).

use std::sync::Mutex;

use triton_datagen::{multiply_shift, radix, TUPLE_BYTES};
use triton_hw::gpu::split_chunks;
use triton_hw::kernel::KernelCost;
use triton_hw::link::LinkModel;
use triton_hw::tlb::TlbSim;
use triton_hw::HwConfig;

use crate::common::{ChargeCtx, InstrCosts, Partitioned, PassConfig, Span};
use crate::prefix_sum::HistogramResult;

/// Identifier of a partitioning algorithm (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Direct scatter with global atomic offsets.
    Standard,
    /// Linear-allocator software write-combining (in-scratchpad batches,
    /// opportunistic coalescing).
    Linear,
    /// Shared software write-combining (this paper, Section 4.2).
    Shared,
    /// Hierarchical software write-combining (this paper, Section 4.3).
    Hierarchical,
}

impl Algorithm {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Standard => "Standard",
            Algorithm::Linear => "Linear",
            Algorithm::Shared => "Shared",
            Algorithm::Hierarchical => "Hierarchical",
        }
    }

    /// All algorithms, in the paper's comparison order.
    pub fn all() -> [Algorithm; 4] {
        [
            Algorithm::Standard,
            Algorithm::Linear,
            Algorithm::Shared,
            Algorithm::Hierarchical,
        ]
    }
}

/// A GPU radix-partitioning pass.
pub trait GpuPartitioner {
    /// Which algorithm this is.
    fn algorithm(&self) -> Algorithm;

    /// Execute the pass: scatter `(keys, rids)` into a partition-major
    /// output using the `hist` offsets, reading from `input` and writing
    /// to `output`, and return the partitioned data plus the kernel cost.
    #[allow(clippy::too_many_arguments)]
    fn partition(
        &self,
        keys: &[u64],
        rids: &[u64],
        hist: &HistogramResult,
        input: &Span,
        output: &Span,
        pass: &PassConfig,
        hw: &HwConfig,
    ) -> (Partitioned, KernelCost);
}

/// Output columns handed back by [`recycle`]: at most one join's R and S
/// key and rid columns.
static SPARES: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
const MAX_SPARES: usize = 4;

/// Hand a pass's output columns back for the next pass of the same length
/// to write into. Worth it only where nothing else is allocated before
/// that pass: the held columns count towards the process's memory.
pub fn recycle(p: Partitioned) {
    if let Ok(mut spares) = SPARES.lock() {
        spares.extend([p.keys, p.rids].into_iter().filter(|c| !c.is_empty()));
        let excess = spares.len().saturating_sub(MAX_SPARES);
        spares.drain(..excess);
    }
}

/// Columns currently held by [`recycle`] (at most four).
pub fn spare_columns() -> usize {
    SPARES.lock().map_or(0, |spares| spares.len())
}

/// An output column of `n` slots: a spare of that length, else a fresh
/// one after every spare is freed. A spare keeps its old contents; the
/// pass rewrites every slot, because its cursors end exactly at the
/// histogram offsets ([`Emu::finish`]).
fn column(n: usize) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    if let Ok(mut spares) = SPARES.lock() {
        if let Some(i) = spares.iter().position(|c| c.len() == n) {
            return spares.swap_remove(i);
        }
        spares.clear();
    }
    vec![0; n]
}

/// Mutable state shared by every algorithm's emulation loop.
pub(crate) struct Emu<'a> {
    pub keys_out: Vec<u64>,
    pub rids_out: Vec<u64>,
    /// Functional append cursor per partition (tuple index).
    pub cursors: Vec<usize>,
    /// Modeled flush address per partition: the real kernels pad each
    /// partition region to a 128-byte boundary so flushes stay aligned.
    pub model_addr: Vec<u64>,
    pub cost: KernelCost,
    pub link: LinkModel,
    pub tlb: TlbSim,
    pub instr: InstrCosts,
    pub input: &'a Span,
    pub output: &'a Span,
    pub skip_bits: u32,
    pub radix_bits: u32,
}

impl<'a> Emu<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: &str,
        n: usize,
        hist: &HistogramResult,
        input: &'a Span,
        output: &'a Span,
        pass: &PassConfig,
        hw: &HwConfig,
        aligned_regions: bool,
    ) -> Self {
        let mut cost = KernelCost::new(name);
        cost.sms = pass.sms;
        cost.tuples_in = n as u64;
        cost.tuples_out = n as u64;
        let model_addr = hist.offsets[..hist.fanout()]
            .iter()
            .map(|&o| {
                let b = o as u64 * TUPLE_BYTES;
                if aligned_regions {
                    b.div_ceil(128) * 128
                } else {
                    b
                }
            })
            .collect();
        Emu {
            keys_out: column(n),
            rids_out: column(n),
            cursors: hist.offsets[..hist.fanout()].to_vec(),
            model_addr,
            cost,
            link: LinkModel::new(&hw.link),
            tlb: TlbSim::new(hw),
            instr: InstrCosts::default(),
            input,
            output,
            skip_bits: pass.skip_bits,
            radix_bits: pass.radix_bits,
        }
    }

    /// Partition id of a key.
    #[inline]
    pub(crate) fn pid(&self, key: u64) -> usize {
        radix(multiply_shift(key), self.skip_bits, self.radix_bits)
    }

    /// Charge the sequential input read of one warp batch.
    pub(crate) fn charge_input(&mut self, first_tuple: usize, count: usize) {
        let mut ctx = ChargeCtx {
            cost: &mut self.cost,
            link: &self.link,
            tlb: &mut self.tlb,
        };
        ctx.seq_read(
            self.input,
            first_tuple as u64 * TUPLE_BYTES,
            count as u64 * TUPLE_BYTES,
        );
    }

    /// Write one tuple at its partition's cursor, its final position:
    /// every SWWC buffer level is FIFO per partition, so buffers reduce to
    /// fill counters that [`Emu::charge_flush`] prices (DESIGN.md §5).
    #[inline]
    pub(crate) fn put(&mut self, p: usize, key: u64, rid: u64) {
        let c = self.cursors[p];
        self.keys_out[c] = key;
        self.rids_out[c] = rid;
        self.cursors[p] = c + 1;
    }

    /// Charge the flush of partition `p`'s next `count` tuples to the
    /// output.
    ///
    /// For `aligned` algorithms the modeled address is re-padded to the
    /// transaction size after a partial flush: the real kernels give each
    /// thread block a padded region per partition, so a block-end drain
    /// never misaligns the next block's flushes.
    pub(crate) fn charge_flush(&mut self, p: usize, count: usize, aligned: bool) {
        if count == 0 {
            return;
        }
        let len = count as u64 * TUPLE_BYTES;
        let addr = self.model_addr[p];
        self.model_addr[p] += len;
        if aligned {
            self.model_addr[p] = self.model_addr[p].div_ceil(128) * 128;
        }
        let mut ctx = ChargeCtx {
            cost: &mut self.cost,
            link: &self.link,
            tlb: &mut self.tlb,
        };
        ctx.flush_write(self.output, addr, len, aligned);
    }

    /// Finish: package the partitioned output.
    ///
    /// Every slot was written exactly once: partition `p`'s cursor ran
    /// from `offsets[p]` to `offsets[p + 1]`, and the offsets tile the
    /// columns. A recycled column relies on this ([`column`]).
    pub(crate) fn finish(
        self,
        hist: &HistogramResult,
        pass: &PassConfig,
    ) -> (Partitioned, KernelCost) {
        debug_assert!(self
            .cursors
            .iter()
            .zip(hist.offsets[1..].iter())
            .all(|(c, o)| c == o));
        debug_assert_eq!(hist.offsets.first(), Some(&0));
        debug_assert_eq!(hist.offsets.last(), Some(&self.keys_out.len()));
        (
            Partitioned {
                keys: self.keys_out,
                rids: self.rids_out,
                offsets: hist.offsets.clone(),
                radix_bits: pass.radix_bits,
                skip_bits: pass.skip_bits,
            },
            self.cost,
        )
    }

    /// Input chunks for the launch geometry.
    ///
    /// `min_tuples_per_block` keeps the emulation faithful at simulation
    /// scale: each block must see enough tuples to fill its buffers many
    /// times over, otherwise block-end drains (a boundary effect that is
    /// negligible at paper scale) would dominate the flush statistics.
    /// The block count is capped so that every block processes at least
    /// that many tuples.
    pub(crate) fn chunks(
        n: usize,
        pass: &PassConfig,
        hw: &HwConfig,
        min_tuples_per_block: usize,
    ) -> Vec<(usize, usize)> {
        let sms = if pass.sms == 0 {
            hw.gpu.num_sms
        } else {
            pass.sms.min(hw.gpu.num_sms)
        };
        let max_blocks = (sms * pass.blocks_per_sm).max(1) as usize;
        let density_cap = (n / min_tuples_per_block.max(1)).max(1);
        split_chunks(n, max_blocks.min(density_cap))
    }
}

/// Run the prefix sum and one partitioning pass back to back, returning
/// both kernel costs (the standalone setup of Fig 4 and Fig 18).
pub fn partition_standalone(
    part: &dyn GpuPartitioner,
    keys: &[u64],
    rids: &[u64],
    input: &Span,
    output: &Span,
    pass: &PassConfig,
    hw: &HwConfig,
) -> (Partitioned, KernelCost, KernelCost) {
    let (hist, ps_cost) = crate::prefix_sum::gpu_prefix_sum(keys, input, pass, hw, false);
    let (out, part_cost) = part.partition(keys, rids, &hist, input, output, pass, hw);
    (out, part_cost, ps_cost)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::prefix_sum::compute_histogram;
    use triton_datagen::WorkloadSpec;

    /// Assert the functional correctness invariants of a partitioner.
    pub fn check_partitioner(part: &dyn GpuPartitioner, radix_bits: u32, skip_bits: u32) {
        let hw = HwConfig::ac922().scaled(4096);
        let w = WorkloadSpec::paper_default(1, 50).generate();
        let pass = PassConfig::new(radix_bits, skip_bits);
        let hist = compute_histogram(&w.r.keys, 160, radix_bits, skip_bits);
        let input = Span::cpu(0);
        let output = Span::cpu(1 << 40);
        let (p, cost) = part.partition(&w.r.keys, &w.r.rids, &hist, &input, &output, &pass, &hw);

        // Every tuple present exactly once, in the partition its hash says.
        assert_eq!(p.len(), w.r.len());
        let mut seen = std::collections::HashMap::new();
        for part_id in 0..p.fanout() {
            let (ks, rs) = p.partition(part_id);
            assert_eq!(ks.len(), rs.len());
            for (&k, &r) in ks.iter().zip(rs) {
                assert_eq!(
                    radix(multiply_shift(k), skip_bits, radix_bits),
                    part_id,
                    "tuple in wrong partition"
                );
                *seen.entry((k, r)).or_insert(0u32) += 1;
            }
        }
        for (k, r) in w.r.iter() {
            assert_eq!(seen.get(&(k, r)), Some(&1), "tuple lost or duplicated");
        }

        // Cost sanity: input was read once, output written once.
        let n_bytes = w.r.len() as u64 * 16;
        assert_eq!(cost.link.seq_read.0, n_bytes, "input read volume");
        let written = cost.link.seq_write.0
            + cost.link.rand_write.payload.0
            + cost.gpu_mem.write.0
            + cost.gpu_mem.rand_write.0;
        assert!(
            written >= n_bytes,
            "output write volume {written} < {n_bytes}"
        );
        assert!(cost.instructions > 0);
    }
}
