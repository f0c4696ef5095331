//! Microbenchmarks of the four GPU partitioning algorithms (host-side
//! execution speed of the warp-granular emulation; in-tree harness, see
//! `triton_bench::micro`).

use triton_bench::micro::Group;
use triton_datagen::{WorkloadSpec, TUPLE_BYTES};
use triton_hw::HwConfig;
use triton_mem::{HybridLayout, InterleavePattern};
use triton_part::{compute_histogram, make_partitioner, Algorithm, PassConfig, Span};

fn bench_partitioners() {
    let hw = HwConfig::ac922().scaled(2048);
    let w = WorkloadSpec::paper_default(64, 2048).generate();
    let n = w.r.len();
    let bits = 8;
    let hist = compute_histogram(&w.r.keys, 8, bits, 0);
    let pass = PassConfig::new(bits, 0);
    let input = Span::cpu(0);
    let output = Span::cpu(1 << 40);

    let g = Group::new("partition_fanout_256", n as u64);
    for alg in Algorithm::all() {
        let part = make_partitioner(alg);
        g.bench(alg.name(), || {
            part.partition(&w.r.keys, &w.r.rids, &hist, &input, &output, &pass, &hw)
        });
    }
}

fn bench_fanout_sweep() {
    let hw = HwConfig::ac922().scaled(2048);
    let w = WorkloadSpec::paper_default(64, 2048).generate();
    let part = make_partitioner(Algorithm::Hierarchical);
    let input = Span::cpu(0);
    let output = Span::cpu(1 << 40);

    let g = Group::new("hierarchical_fanout", w.r.len() as u64);
    for bits in [4u32, 8, 11] {
        let hist = compute_histogram(&w.r.keys, 8, bits, 0);
        let pass = PassConfig::new(bits, 0);
        g.bench(&format!("fanout_{}", 1u32 << bits), || {
            part.partition(&w.r.keys, &w.r.rids, &hist, &input, &output, &pass, &hw)
        });
    }
}

/// The spilling Triton join's first pass: K = 512, 4 M tuples, fanout
/// 2^10, scattered into a hybrid output with 22% of its pages in GPU
/// memory (the `join-spill` shape, where pass 1 dominates host time).
fn bench_join_spill_pass1() {
    let hw = HwConfig::ac922().scaled(512);
    let w = WorkloadSpec::paper_default(2048, 512).generate();
    let bits = 10;
    let hist = compute_histogram(&w.r.keys, 1, bits, 0);
    let pass = PassConfig::new(bits, 0);
    let input = Span::cpu(0);
    let output = Span::hybrid(HybridLayout::new(
        1 << 40,
        w.r.len() as u64 * TUPLE_BYTES,
        hw.tlb.page_size.0,
        InterleavePattern::from_fraction(0.22),
    ));
    let part = make_partitioner(Algorithm::Hierarchical);

    let g = Group::new("join_spill_pass1", w.r.len() as u64);
    g.bench("hierarchical_fanout_1024", || {
        part.partition(&w.r.keys, &w.r.rids, &hist, &input, &output, &pass, &hw)
    });
}

fn main() {
    bench_partitioners();
    bench_fanout_sweep();
    bench_join_spill_pass1();
}
