//! Fig 16: partitioning data using the CPU vs the GPU — (a) the
//! end-to-end join and (b) the partitioning phase in isolation.
//!
//! Compares the reimplemented CPU-partitioned strategy (Sioulas et al.,
//! tuned for POWER9 + NVLink 2.0) against the GPU-partitioned Triton
//! join. Expected shape: Triton 1.2-1.3x faster end to end, and the GPU
//! partitions 1.5-1.7x faster than the CPU.

use triton_core::{CpuPartitionedJoin, TritonJoin};
use triton_datagen::{WorkloadSpec, TUPLE_BYTES};
use triton_hw::HwConfig;

use super::PAPER_WORKLOADS;
use crate::sweep::{every, gate_tests, Cell, Sweep};
use triton_part::{
    cpu_partition_time, gpu_prefix_sum, make_partitioner, Algorithm, PassConfig, Span,
};

/// One workload group.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload size in modeled M tuples.
    pub m_tuples: u64,
    /// End-to-end CPU-partitioned join (G tuples/s).
    pub cpu_partitioned_gtps: f64,
    /// End-to-end Triton join (G tuples/s).
    pub triton_gtps: f64,
    /// CPU partitioning phase throughput (GiB/s, read+write volume).
    pub cpu_partition_gibs: f64,
    /// GPU partitioning phase throughput (GiB/s, read+write volume).
    pub gpu_partition_gibs: f64,
}

/// Run for the given workloads.
pub fn run(hw: &HwConfig, sizes: &[u64]) -> Vec<Row> {
    let k = hw.scale;
    let gib = (1u64 << 30) as f64;
    sizes
        .iter()
        .map(|&m| {
            let w = WorkloadSpec::paper_default(m, k).generate();
            let cpu_rep = CpuPartitionedJoin::default().run(&w, hw);
            let triton_rep = TritonJoin::default().run(&w, hw);

            // Partitioning in isolation: one relation, b1 bits.
            let b1 = TritonJoin::pass1_bits(
                w.r.len() as u64 * TUPLE_BYTES,
                w.total_tuples() * TUPLE_BYTES,
                hw,
            );
            let n = w.r.len() as u64;
            let volume = 2.0 * (n * TUPLE_BYTES) as f64 / gib; // read + write
            let t_cpu = cpu_partition_time(n, b1, 1, hw);
            let pass = PassConfig::new(b1, 0);
            let input = Span::cpu(0);
            let output = Span::cpu(1 << 40);
            let part = make_partitioner(Algorithm::Hierarchical);
            let (hist, cps) = gpu_prefix_sum(&w.r.keys, &input, &pass, hw, false);
            let (_, cp) = part.partition(&w.r.keys, &w.r.rids, &hist, &input, &output, &pass, hw);
            let t_gpu = cps.timing(hw).total + cp.timing(hw).total;

            Row {
                m_tuples: m,
                cpu_partitioned_gtps: cpu_rep.throughput_gtps(),
                triton_gtps: triton_rep.throughput_gtps(),
                cpu_partition_gibs: volume / t_cpu.as_secs(),
                gpu_partition_gibs: volume / t_gpu.as_secs(),
            }
        })
        .collect()
}

/// The committed sweep, `BENCH_fig16.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig16",
    schema: "triton-bench/fig16/v1",
    header: &[],
    columns: &[
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("cpu_partitioned_gtps", |r| {
            Cell::Num(r.cpu_partitioned_gtps)
        }),
        ("triton_gtps", |r| Cell::Num(r.triton_gtps)),
        ("speedup", |r| {
            Cell::Num(r.triton_gtps / r.cpu_partitioned_gtps)
        }),
        ("cpu_partition_gibs", |r| Cell::Num(r.cpu_partition_gibs)),
        ("gpu_partition_gibs", |r| Cell::Num(r.gpu_partition_gibs)),
    ],
    rows: PAPER_WORKLOADS.len(),
    run: |hw| run(hw, &PAPER_WORKLOADS),
    gates: &[
        (
            "Triton 1.05-1.6x over the CPU-partitioned join",
            |_, rows| {
                // Paper: 1.2-1.3x.
                every(rows, |r| {
                    (1.05..=1.6).contains(&(r.triton_gtps / r.cpu_partitioned_gtps))
                })
            },
        ),
        ("the GPU partitions 1.2-2.3x faster", |_, rows| {
            // Paper: 1.5-1.7x.
            every(rows, |r| {
                (1.2..=2.3).contains(&(r.gpu_partition_gibs / r.cpu_partition_gibs))
            })
        }),
    ],
};

gate_tests!(2048, {
    triton_speedup_in_paper_range: ["Triton 1.05-1.6x over the CPU-partitioned join"],
    gpu_partitions_faster: ["the GPU partitions 1.2-2.3x faster"],
});
