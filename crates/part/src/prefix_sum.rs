//! Histogram and prefix-sum kernels.
//!
//! Radix partitioning needs the exact output offset of every partition
//! before the scatter pass; both the paper's CPU and GPU pipelines compute
//! a histogram over the key column followed by a prefix sum. Because the
//! relations are columnar, this pass reads only 8 bytes per tuple
//! (Section 6.2.8 highlights this when comparing CPU vs GPU prefix sums).
//!
//! The functional result is shared; the *cost* depends on the processor:
//! the GPU streams the key column over the interconnect (bounded at the
//! unidirectional ~63 GiB/s), while the CPU scans at near its memory
//! bandwidth (the paper measures up to 129.6 GiB/s).

use triton_datagen::{multiply_shift, radix, KEY_BYTES};
use triton_hw::cpu::CpuPhaseCost;
use triton_hw::kernel::KernelCost;
use triton_hw::link::LinkModel;
use triton_hw::tlb::TlbSim;
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;

use crate::common::{ChargeCtx, PassConfig, Span};

/// Partition totals and the derived global offsets.
#[derive(Debug, Clone)]
pub struct HistogramResult {
    /// Global partition totals.
    pub totals: Vec<u64>,
    /// `fanout + 1` global partition start offsets (tuples).
    pub offsets: Vec<usize>,
}

impl HistogramResult {
    /// Fanout.
    pub fn fanout(&self) -> usize {
        self.totals.len()
    }

    /// Per-partition combined tuple counts of a build/probe pair: the
    /// histogram totals of this (build) relation added to `probe`'s.
    /// These are the pair sizes the skew planner ranks before the
    /// second-pass loop runs. Panics if the fanouts differ.
    pub fn pair_tuples(&self, probe: &HistogramResult) -> Vec<u64> {
        assert_eq!(self.fanout(), probe.fanout());
        self.totals
            .iter()
            .zip(&probe.totals)
            .map(|(&r, &s)| r + s)
            .collect()
    }

    /// Mean partition tuple count (rounded up, never zero for non-empty
    /// inputs) — the baseline a heavy-hitter detector compares against.
    pub fn mean_tuples(&self) -> u64 {
        let total: u64 = self.totals.iter().sum();
        total.div_ceil(self.fanout().max(1) as u64)
    }

    /// Ratio of the largest partition to the mean — 1.0 for perfectly
    /// uniform keys, growing with Zipf skew. Zero for empty inputs.
    pub fn skew_ratio(&self) -> f64 {
        let mean = self.mean_tuples();
        if mean == 0 {
            return 0.0;
        }
        let max = self.totals.iter().copied().max().unwrap_or(0);
        max as f64 / mean as f64
    }
}

/// Compute the histogram functionally (shared by every processor).
///
/// The GPU kernels build one histogram per thread block and sum them.
/// The totals and offsets do not depend on that split, so `_blocks` (the
/// block count) does not change the result; [`gpu_prefix_sum`] prices the
/// per-block work.
pub fn compute_histogram(
    keys: &[u64],
    _blocks: usize,
    radix_bits: u32,
    skip_bits: u32,
) -> HistogramResult {
    let mut totals = vec![0u64; 1usize << radix_bits];
    for &k in keys {
        totals[radix(multiply_shift(k), skip_bits, radix_bits)] += 1;
    }
    let mut offsets = Vec::with_capacity(totals.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &t in &totals {
        acc += t as usize;
        offsets.push(acc);
    }
    HistogramResult { totals, offsets }
}

/// GPU prefix-sum kernel: functional histogram plus the kernel cost of
/// streaming the key column from `input`.
///
/// `extra_copy_to_gpu` models the second-pass variant that copies the data
/// into GPU memory while computing the histogram, to spare the subsequent
/// kernels a second interconnect pass (Section 6.2.3).
pub fn gpu_prefix_sum(
    keys: &[u64],
    input: &Span,
    pass: &PassConfig,
    hw: &HwConfig,
    extra_copy_to_gpu: bool,
) -> (HistogramResult, KernelCost) {
    let blocks = (pass.blocks_per_sm
        * if pass.sms == 0 {
            hw.gpu.num_sms
        } else {
            pass.sms.min(hw.gpu.num_sms)
        }) as usize;
    let hist = compute_histogram(keys, blocks, pass.radix_bits, pass.skip_bits);

    let mut cost = KernelCost::new("prefix sum");
    cost.sms = pass.sms;
    cost.tuples_in = keys.len() as u64;
    let link = LinkModel::new(&hw.link);
    let mut tlb = TlbSim::new(hw);
    {
        let mut ctx = ChargeCtx {
            cost: &mut cost,
            link: &link,
            tlb: &mut tlb,
        };
        // One sequential pass over the key column.
        ctx.seq_read(input, 0, keys.len() as u64 * KEY_BYTES);
        if extra_copy_to_gpu {
            // Read the rid column too and stage both columns in GPU memory.
            ctx.seq_read(input, 0, keys.len() as u64 * KEY_BYTES);
            cost.gpu_mem.write += Bytes(keys.len() as u64 * 2 * KEY_BYTES);
        }
    }
    // Histogram arithmetic: ~4 instructions per tuple plus the block-local
    // scan/reduction.
    cost.instructions = keys.len() as u64 * 4 + (blocks * hist.fanout()) as u64 / 8;
    cost.sync_cycles = blocks as u64 * 64;
    (hist, cost)
}

/// CPU prefix-sum phase cost: one scan of the key column per relation with
/// SIMD-lane-private histograms (Section 6.1's POWER9 tuning).
pub fn cpu_prefix_sum_cost(tuples_modeled: u64, hw: &HwConfig) -> Ns {
    let bytes = Bytes(tuples_modeled * KEY_BYTES);
    // ~1.5 cycles/tuple with SIMD histograms; bandwidth-bound in practice.
    CpuPhaseCost::new(bytes, Bytes(0), tuples_modeled, 1.5).time(&hw.cpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_datagen::WorkloadSpec;

    #[test]
    fn histogram_counts_match_input() {
        let w = WorkloadSpec::paper_default(1, 50).generate();
        let h = compute_histogram(&w.r.keys, 16, 6, 0);
        let total: u64 = h.totals.iter().sum();
        assert_eq!(total, w.r.len() as u64);
        assert_eq!(*h.offsets.last().unwrap(), w.r.len());
        assert_eq!(h.fanout(), 64);
    }

    #[test]
    fn empty_input() {
        let h = compute_histogram(&[], 8, 4, 0);
        assert_eq!(h.offsets, vec![0; 17]);
        assert_eq!(h.mean_tuples(), 0);
        assert_eq!(h.skew_ratio(), 0.0);
    }

    #[test]
    fn pair_tuples_adds_both_relations() {
        let w = WorkloadSpec::paper_default(1, 50).generate();
        let hr = compute_histogram(&w.r.keys, 4, 5, 0);
        let hs = compute_histogram(&w.s.keys, 4, 5, 0);
        let pairs = hr.pair_tuples(&hs);
        assert_eq!(pairs.len(), 32);
        let total: u64 = pairs.iter().sum();
        assert_eq!(total, (w.r.len() + w.s.len()) as u64);
    }

    #[test]
    fn skew_ratio_grows_with_zipf() {
        let uniform = WorkloadSpec::paper_default(1, 50).generate();
        let skewed = WorkloadSpec::skewed(1, 1.5, 50).generate();
        let hu = compute_histogram(&uniform.s.keys, 4, 6, 0);
        let hk = compute_histogram(&skewed.s.keys, 4, 6, 0);
        assert!(hu.skew_ratio() >= 1.0);
        assert!(
            hk.skew_ratio() > hu.skew_ratio() * 2.0,
            "zipf 1.5 should concentrate: {} vs {}",
            hk.skew_ratio(),
            hu.skew_ratio()
        );
        assert!(hk.mean_tuples() > 0);
    }

    #[test]
    fn gpu_prefix_sum_reads_key_column_only() {
        let hw = HwConfig::ac922().scaled(1024);
        let w = WorkloadSpec::paper_default(1, 100).generate();
        let span = Span::cpu(0);
        let pass = PassConfig::new(6, 0);
        let (_, cost) = gpu_prefix_sum(&w.r.keys, &span, &pass, &hw, false);
        assert_eq!(cost.link.seq_read.0, w.r.len() as u64 * 8);
        assert_eq!(cost.link.seq_write.0, 0);
    }

    #[test]
    fn spilling_prefix_sum_copies_into_gpu() {
        let hw = HwConfig::ac922().scaled(1024);
        let w = WorkloadSpec::paper_default(1, 100).generate();
        let span = Span::cpu(0);
        let pass = PassConfig::new(6, 0);
        let (_, plain) = gpu_prefix_sum(&w.r.keys, &span, &pass, &hw, false);
        let (_, copying) = gpu_prefix_sum(&w.r.keys, &span, &pass, &hw, true);
        assert!(copying.gpu_mem.write.0 > 0);
        assert!(copying.link.seq_read.0 > plain.link.seq_read.0);
    }

    #[test]
    fn cpu_prefix_sum_near_scan_bandwidth() {
        let hw = HwConfig::ac922();
        // 1 G modeled tuples = 8 GB of keys.
        let t = cpu_prefix_sum_cost(1_000_000_000, &hw);
        let gibs = 8e9 / (1u64 << 30) as f64 / t.as_secs();
        // Paper: up to 129.6 GiB/s.
        assert!((100.0..=135.0).contains(&gibs), "got {gibs} GiB/s");
    }
}
