//! Model-level property tests for `triton-hw`: relationships the hardware
//! model must preserve regardless of calibration values.

use triton_hw::kernel::{pipeline2, KernelCost};
use triton_hw::link::{Alignment, Dir, LinkModel};
use triton_hw::tlb::{Lru, MemSide, SetAssocLru, TlbSim};
use triton_hw::units::{Bytes, BytesPerSec, Ns};
use triton_hw::{HwConfig, LinkConfig};

fn hw() -> HwConfig {
    HwConfig::ac922()
}

fn link() -> LinkModel {
    LinkModel::new(&hw().link)
}

// --- Link model -----------------------------------------------------------

#[test]
fn write_at_full_lines_have_no_partials() {
    let l = link();
    for lines in 1..8u64 {
        let wc = l.write_at(128 * 3, lines * 128);
        assert_eq!(wc.partial_txns, 0, "{lines} full lines");
        assert_eq!(wc.transactions, lines);
    }
}

#[test]
fn write_at_sub_line_is_one_partial() {
    let l = link();
    for len in [1u64, 8, 16, 32, 100, 127] {
        let wc = l.write_at(0, len);
        assert_eq!(wc.transactions, 1, "len={len}");
        assert_eq!(wc.partial_txns, 1, "len={len}");
    }
}

#[test]
fn write_at_straddling_offset_splits_lines() {
    let l = link();
    // 128 bytes at offset 64: two partial lines.
    let wc = l.write_at(64, 128);
    assert_eq!(wc.transactions, 2);
    assert_eq!(wc.partial_txns, 2);
    // Costs strictly more wire than the aligned equivalent.
    assert!(wc.wire_data_dir.0 > l.write_at(0, 128).wire_data_dir.0);
}

#[test]
fn read_at_exact_line_counts() {
    let l = link();
    assert_eq!(l.read_at(0, 128).transactions, 1);
    assert_eq!(l.read_at(127, 2).transactions, 2);
    assert_eq!(l.read_at(128, 256).transactions, 2);
    assert_eq!(l.read_at(130, 256).transactions, 3);
}

#[test]
fn wire_overhead_never_negative() {
    let l = link();
    for len in [1u64, 16, 128, 1000, 4096] {
        for off in [0u64, 1, 64, 127] {
            assert!(l.write_at(off, len).wire_data_dir.0 >= len);
            assert!(l.read_at(off, len).wire_data_dir.0 >= len);
        }
    }
}

#[test]
fn random_time_scales_linearly_in_access_count() {
    let l = link();
    let t1 = l.random_access_time(1_000, Bytes(32), Dir::CpuToGpu, Alignment::Natural);
    let t2 = l.random_access_time(2_000, Bytes(32), Dir::CpuToGpu, Alignment::Natural);
    assert!((t2.0 / t1.0 - 2.0).abs() < 1e-9);
}

#[test]
fn higher_raw_bandwidth_never_slows_transfers() {
    let mut fast: LinkConfig = hw().link;
    fast.raw_bw_per_dir = BytesPerSec::gb(150.0);
    let slow = link();
    let fast = LinkModel::new(&fast);
    for g in [16u64, 128, 512] {
        let ts = slow.random_access_time(1000, Bytes(g), Dir::GpuToCpu, Alignment::Natural);
        let tf = fast.random_access_time(1000, Bytes(g), Dir::GpuToCpu, Alignment::Natural);
        assert!(tf.0 <= ts.0 + 1e-9, "g={g}");
    }
}

// --- Kernel timing ---------------------------------------------------------

#[test]
fn kernel_time_monotone_in_every_resource() {
    let h = hw();
    let base = {
        let mut k = KernelCost::new("b");
        k.link.seq_read = Bytes::mib(64);
        k.gpu_mem.read = Bytes::mib(64);
        k.instructions = 1_000_000;
        k
    };
    let t0 = base.timing(&h).total.0;
    for grow in ["link", "gpu", "instr", "tlb", "sync"] {
        let mut k = base.clone();
        match grow {
            "link" => k.link.seq_read += Bytes::mib(64),
            "gpu" => k.gpu_mem.read += Bytes::gib(1),
            "instr" => k.instructions += 1_000_000_000,
            "tlb" => {
                k.tlb.full_misses += 1_000_000;
                k.tlb.serialized_walks += 1_000_000;
            }
            _ => k.sync_cycles += 100_000_000,
        }
        assert!(
            k.timing(&h).total.0 >= t0,
            "{grow}: growing demand must not reduce time"
        );
    }
}

#[test]
fn fewer_sms_never_faster() {
    let h = hw();
    let mut k = KernelCost::new("c");
    k.instructions = 500_000_000;
    k.link.seq_read = Bytes::mib(256);
    let mut prev = f64::INFINITY;
    for sms in [1u32, 10, 40, 80] {
        k.sms = sms;
        let t = k.timing(&h).total.0;
        assert!(t <= prev + 1e-9, "sms={sms}");
        prev = t;
    }
}

#[test]
fn pipeline2_bounds() {
    // Pipelined time is never less than either stage's serial sum, and
    // never more than the fully serial execution.
    let a = [Ns(3.0), Ns(7.0), Ns(2.0), Ns(9.0)];
    let b = [Ns(5.0), Ns(1.0), Ns(8.0), Ns(4.0)];
    let piped = pipeline2(&a, &b);
    let sum_a: f64 = a.iter().map(|x| x.0).sum();
    let sum_b: f64 = b.iter().map(|x| x.0).sum();
    assert!(piped.0 >= sum_a.max(sum_b));
    assert!(piped.0 <= sum_a + sum_b);
}

#[test]
fn merged_kernels_cost_the_sum() {
    let h = hw();
    let mut a = KernelCost::new("a");
    a.link.seq_read = Bytes::mib(100);
    let mut b = KernelCost::new("a");
    b.link.seq_read = Bytes::mib(60);
    let (ta, tb) = (a.timing(&h).total.0, b.timing(&h).total.0);
    a.merge(&b);
    let merged = a.timing(&h).total.0;
    assert!((merged - (ta + tb)).abs() / merged < 1e-6);
}

// --- TLB -------------------------------------------------------------------

#[test]
fn set_assoc_suffers_conflicts_before_capacity() {
    // A 4-way cache of 64 entries sees misses from a cyclic working set
    // well before 64 distinct tags, unlike a full LRU of the same size.
    // Cyclic working sets of *random* tags at 7/8 of capacity: unlike
    // evenly-strided partition frontiers (which the multiplicative set
    // hash spreads almost perfectly), random tags overload some sets.
    let mut total = 0usize;
    let mut total_misses = 0usize;
    let mut rng = 0x9E37u64;
    for _ in 0..8 {
        let mut sa = SetAssocLru::new(64, 4);
        let tags: Vec<u64> = (0..56)
            .map(|_| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rng >> 16
            })
            .collect();
        for _ in 0..4 {
            for &t in &tags {
                sa.access(t);
            }
        }
        total += tags.len();
        total_misses += tags.iter().filter(|&&t| !sa.access(t)).count();
    }
    assert!(total_misses > 0, "expected conflict misses below capacity");
    // But far from thrashing: most accesses still hit.
    assert!(total_misses < total / 2, "{total_misses} of {total}");
}

/// Reference model of [`SetAssocLru`]: one full [`Lru`] per set, indexed
/// by the same multiplicative set hash.
struct LruPerSet {
    sets: Vec<Lru>,
}

impl LruPerSet {
    fn new(entries: usize, ways: usize) -> Self {
        let ways = ways.max(1).min(entries.max(1));
        let sets = (entries / ways).max(1);
        LruPerSet {
            sets: (0..sets).map(|_| Lru::new(ways)).collect(),
        }
    }

    fn access(&mut self, tag: u64) -> bool {
        let h = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let n = self.sets.len();
        self.sets[((h >> 32) as usize) % n].access(tag)
    }

    fn flush(&mut self) {
        for s in &mut self.sets {
            s.flush();
        }
    }
}

/// Drive both models with `stream` (`None` = flush) and require
/// identical hit/miss sequences.
fn assert_same_as_reference(entries: usize, ways: usize, stream: &[Option<u64>]) {
    let mut flat = SetAssocLru::new(entries, ways);
    let mut reference = LruPerSet::new(entries, ways);
    assert_eq!(
        flat.capacity(),
        reference.sets.len() * reference.sets[0].capacity()
    );
    for (i, &op) in stream.iter().enumerate() {
        match op {
            Some(tag) => assert_eq!(
                flat.access(tag),
                reference.access(tag),
                "{entries} entries x {ways} ways: access {i} (tag {tag}) diverged"
            ),
            None => {
                flat.flush();
                reference.flush();
            }
        }
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

#[test]
fn flat_set_assoc_matches_lru_per_set_reference() {
    let geometries = [
        (256, 4), // the GPU L2 TLB
        (64, 4),
        (48, 4), // a set count that is not a power of two
        (8, 8),  // one set
        (1, 1),
        (16, 32), // more ways than entries: clamps to one set
    ];
    let mut rng = 0x5EEDu64;
    for (entries, ways) in geometries {
        // Random tags, from a universe small enough to hit and one large
        // enough to conflict, with a flush midway.
        for universe in [entries as u64 / 2 + 1, entries as u64 * 3, 1 << 40] {
            let mut stream: Vec<Option<u64>> =
                (0..4000).map(|_| Some(lcg(&mut rng) % universe)).collect();
            stream.insert(2000, None);
            assert_same_as_reference(entries, ways, &stream);
        }
        // Partition-frontier streams: one evenly strided write frontier
        // per partition, each advancing a region every few visits, at
        // fanouts below and above the capacity.
        for fanout in [entries as u64 / 2 + 1, entries as u64 * 4] {
            let stride = 1 << 14;
            let mut frontier: Vec<u64> = (0..fanout).map(|p| p * stride).collect();
            let mut stream = Vec::new();
            for step in 0..8000u64 {
                let p = (lcg(&mut rng) % fanout) as usize;
                stream.push(Some(frontier[p]));
                if step % 3 == 0 {
                    frontier[p] += 1;
                }
                if step == 5000 {
                    stream.push(None);
                }
            }
            assert_same_as_reference(entries, ways, &stream);
        }
    }
}

#[test]
fn tlb_flush_forgets_everything() {
    let h = HwConfig::ac922().scaled(1024);
    let mut t = TlbSim::new(&h);
    let reach = t.entry_reach().0;
    for i in 0..10 {
        t.translate(i * reach, MemSide::Cpu);
    }
    t.flush();
    t.reset_stats();
    for i in 0..10 {
        t.translate(i * reach, MemSide::Cpu);
    }
    assert_eq!(t.stats().l2_hits, 0, "no hits after a flush");
}

#[test]
fn cpu_latency_hierarchy_is_ordered() {
    let h = hw();
    let t = TlbSim::new(&h);
    use triton_hw::tlb::TlbLevel::*;
    let l2 = t.latency(L2Hit, MemSide::Cpu).0;
    let l3 = t.latency(L3StarHit, MemSide::Cpu).0;
    let miss = t.latency(FullMiss, MemSide::Cpu).0;
    assert!(l2 < l3 && l3 < miss);
    assert!(
        t.latency(L2Hit, MemSide::Gpu).0 < l2,
        "GPU memory is closer"
    );
}

// --- Config modifiers ------------------------------------------------------

#[test]
fn page_size_modifier_scales_reach() {
    let base = HwConfig::ac922().scaled(512);
    let small = base.clone().with_page_size_modeled(64 << 10);
    assert_eq!(
        small.tlb_entry_reach().0,
        base.tlb_entry_reach().0 / 32,
        "64 KiB pages = 1/32 the reach of 2 MiB pages"
    );
    // Entry counts are hardware constants: unchanged.
    assert_eq!(small.gpu_l2_tlb_entries(), base.gpu_l2_tlb_entries());
    // Coverage shrinks with the reach.
    assert_eq!(small.gpu_l2_coverage().0, base.gpu_l2_coverage().0 / 32);
}

#[test]
fn far_numa_modifier_slows_the_link() {
    let near = HwConfig::ac922();
    let far = HwConfig::ac922().with_far_numa();
    assert!(far.link.raw_bw_per_dir.0 < near.link.raw_bw_per_dir.0);
    assert!(far.tlb.cpu_l2_hit_ns > near.tlb.cpu_l2_hit_ns);
    // GPU-local latencies are unaffected.
    assert_eq!(far.tlb.gpu_l2_hit_ns, near.tlb.gpu_l2_hit_ns);
}

#[test]
fn sm_restriction_caps_but_never_raises() {
    let hw = HwConfig::ac922().with_sms(200);
    assert_eq!(hw.gpu.num_sms, 200); // stored as requested...
    let mut k = KernelCost::new("x");
    k.instructions = 1_000_000;
    k.sms = 300; // ...but kernel SMs clamp to the configured count.
    assert_eq!(k.timing(&hw).sms, 200);
}
