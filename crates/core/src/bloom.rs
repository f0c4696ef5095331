//! Bloom-filter pre-filtering of the outer relation.
//!
//! An *extension* beyond the paper's evaluation: Section 7 lists
//! "filtering [...] the outer relation" (e.g. Gubner et al.'s GPU Bloom
//! filters) as complementary work that "remains an open challenge for
//! GPUs with fast interconnects". This module closes the loop for the
//! Triton join: a Bloom filter over the build keys is created alongside
//! the first pass over R, and S's first pass probes it, dropping tuples
//! that cannot match *before* they are partitioned and spilled. For
//! selective joins this removes most of the outer relation's partition,
//! spill, reload, and probe traffic.
//!
//! The filter itself is classic: a power-of-two bit array with two
//! multiply-shift-derived hash functions (a split-and-mix double-hashing
//! scheme), sized at a configurable bits-per-key.

use triton_datagen::{multiply_shift, TUPLE_BYTES};
use triton_hw::kernel::KernelCost;
use triton_hw::units::Bytes;
use triton_hw::HwConfig;
use triton_trace::Attr;

use crate::report::PhaseReport;

/// A Bloom filter over 64-bit join keys.
///
/// ```
/// use triton_core::BloomFilter;
/// let mut f = BloomFilter::for_build_side(1000);
/// for k in 1..=1000u64 { f.insert(k); }
/// assert!(f.may_contain(42));        // no false negatives, ever
/// let fps = (100_000..110_000u64).filter(|&k| f.may_contain(k)).count();
/// assert!(fps < 500);                // few false positives
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter {
    words: Vec<u64>,
    bit_mask: u64,
    hashes: u32,
}

impl BloomFilter {
    /// Create a filter sized for `n` keys at `bits_per_key` (rounded up
    /// to a power of two), probing with `hashes` hash functions.
    pub fn new(n: usize, bits_per_key: usize, hashes: u32) -> Self {
        assert!((1..=8).contains(&hashes));
        let bits = (n.max(1) * bits_per_key.max(1)).next_power_of_two() as u64;
        BloomFilter {
            words: vec![0u64; (bits / 64).max(1) as usize],
            bit_mask: bits - 1,
            hashes,
        }
    }

    /// The paper-adjacent default: 10 bits/key, 2 hashes (~1.7% false
    /// positives).
    pub fn for_build_side(n: usize) -> Self {
        BloomFilter::new(n, 10, 2)
    }

    #[inline]
    fn hash_pair(key: u64) -> (u64, u64) {
        // Double hashing: h_i = h1 + i*h2. The two bases come from two
        // independently-mixed multiply-shift products (the low bits of a
        // single product are too structured for dense key ranges).
        let h1 = multiply_shift(key) >> 16;
        let h2 = (multiply_shift(key ^ 0x517c_c1b7_2722_0a95) >> 16) | 1;
        (h1, h2)
    }

    #[inline]
    fn probes(&self, key: u64) -> impl Iterator<Item = u64> + '_ {
        let (h1, h2) = Self::hash_pair(key);
        (0..self.hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2))) & self.bit_mask)
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        let mask = self.bit_mask;
        let (h1, h2) = Self::hash_pair(key);
        for i in 0..self.hashes as u64 {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2))) & mask;
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Whether `key` may be in the set (false = definitely absent).
    pub fn may_contain(&self, key: u64) -> bool {
        self.probes(key)
            .all(|bit| self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0)
    }

    /// Filter size in bytes.
    pub fn bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// Bytes a [`BloomFilter::for_build_side`] filter over `n` keys
    /// occupies, without allocating it — what a planner charges against
    /// an admission grant before the filter exists.
    pub fn build_side_bytes(n: usize) -> u64 {
        let bits = (n.max(1) * 10).next_power_of_two() as u64;
        (bits / 64).max(1) * 8
    }

    /// Kernel cost of building this filter from `n_build` keys and
    /// probing it with `n_probe` tuples, `dropped` of which fail the
    /// filter. Matches the Triton join's in-line prefilter accounting:
    /// the filter array lives in GPU memory, the build keys stream in
    /// once, probes are random single-word reads, and dropped tuples are
    /// read exactly once (survivors are charged by whoever consumes
    /// them). `build_resident` / `probe_resident` price the input
    /// streams against GPU memory instead of the interconnect, for
    /// pipelined plan intermediates.
    pub fn kernel_cost(
        &self,
        n_build: u64,
        n_probe: u64,
        dropped: u64,
        build_resident: bool,
        probe_resident: bool,
    ) -> KernelCost {
        let mut c = KernelCost::new("Bloom");
        c.tuples_in = n_build + n_probe;
        c.instructions = (n_build + n_probe) * 6;
        // The filter array lives in GPU memory (a few MiB: cached).
        c.gpu_mem.write += Bytes(self.bytes());
        c.gpu_mem.rand_read += Bytes(n_probe * 8);
        // Building the filter streams the build key column once.
        if build_resident {
            c.gpu_mem.read += Bytes(n_build * 8);
        } else {
            c.link.seq_read += Bytes(n_build * 8);
        }
        // Dropped tuples are read exactly once (they must be tested).
        if probe_resident {
            c.gpu_mem.read += Bytes(dropped * TUPLE_BYTES);
        } else {
            c.link.seq_read += Bytes(dropped * TUPLE_BYTES);
        }
        c
    }

    /// [`Self::kernel_cost`] wrapped as a timed phase report, like the
    /// join phases — what a plan node contributes to a `JoinReport`.
    pub fn phase_report(
        &self,
        n_build: u64,
        n_probe: u64,
        dropped: u64,
        build_resident: bool,
        probe_resident: bool,
        hw: &HwConfig,
    ) -> PhaseReport {
        PhaseReport::gpu(
            self.kernel_cost(n_build, n_probe, dropped, build_resident, probe_resident),
            hw,
        )
    }

    /// Trace attributes describing the filter geometry, attached to
    /// Bloom phase spans the same way kernel costs attach theirs.
    pub fn trace_attrs(&self) -> Vec<Attr> {
        vec![
            Attr::u64("filter_bytes", self.bytes()),
            Attr::u64("filter_bits", self.bit_mask + 1),
            Attr::u64("filter_hashes", u64::from(self.hashes)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::for_build_side(10_000);
        for k in 1..=10_000u64 {
            f.insert(k);
        }
        for k in 1..=10_000u64 {
            assert!(f.may_contain(k), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let n = 50_000u64;
        let mut f = BloomFilter::for_build_side(n as usize);
        for k in 1..=n {
            f.insert(k);
        }
        let fps = (n + 1..=3 * n).filter(|&k| f.may_contain(k)).count();
        let rate = fps as f64 / (2 * n) as f64;
        // 10 bits/key, 2 hashes: ~1-3% in practice.
        assert!(rate < 0.05, "false-positive rate {rate}");
        assert!(
            rate > 0.0,
            "a Bloom filter always has some FPs at this size"
        );
    }

    #[test]
    fn sizes_round_to_power_of_two() {
        let f = BloomFilter::new(1000, 10, 2);
        assert!(f.bytes().is_power_of_two() || f.bytes() == (f.bit_mask + 1) / 8);
        assert_eq!((f.bit_mask + 1).count_ones(), 1);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::for_build_side(100);
        assert!(!(1..100u64).any(|k| f.may_contain(k)));
    }

    #[test]
    fn build_side_bytes_predicts_allocation() {
        for n in [1usize, 100, 1000, 65_536, 1_000_000] {
            assert_eq!(
                BloomFilter::build_side_bytes(n),
                BloomFilter::for_build_side(n).bytes(),
                "size formula diverged at n = {n}"
            );
        }
    }

    #[test]
    fn kernel_cost_charges_the_right_side() {
        let f = BloomFilter::for_build_side(1000);
        let host = f.kernel_cost(1000, 4000, 500, false, false);
        assert_eq!(host.link.seq_read.0, 1000 * 8 + 500 * TUPLE_BYTES);
        assert_eq!(host.gpu_mem.write.0, f.bytes());
        assert_eq!(host.gpu_mem.rand_read.0, 4000 * 8);
        let res = f.kernel_cost(1000, 4000, 500, true, true);
        assert_eq!(
            res.link.seq_read.0, 0,
            "resident inputs never touch the link"
        );
        assert_eq!(res.gpu_mem.read.0, 1000 * 8 + 500 * TUPLE_BYTES);
    }

    #[test]
    fn trace_attrs_describe_geometry() {
        let f = BloomFilter::for_build_side(1000);
        let attrs = f.trace_attrs();
        let keys: Vec<&str> = attrs.iter().map(|a| a.key).collect();
        assert_eq!(keys, vec!["filter_bytes", "filter_bits", "filter_hashes"]);
    }
}
