//! Fig 20: computing the prefix sum on the CPU vs on the GPU — (a) the
//! effect on the end-to-end Triton join and (b) the prefix-sum
//! throughput itself.
//!
//! Expected shape (Section 6.2.8): the CPU nearly saturates its memory
//! bandwidth (up to ~129.6 GiB/s) while the GPU is pinned at the
//! unidirectional link bandwidth (~63 GiB/s), making the CPU variant of
//! the join ~1.1x faster.

use triton_core::TritonJoin;
use triton_datagen::{WorkloadSpec, KEY_BYTES};
use triton_hw::HwConfig;

use super::PAPER_WORKLOADS;
use crate::sweep::{every, gate_tests, Cell, Sweep};
use triton_part::{cpu_prefix_sum_cost, gpu_prefix_sum, PassConfig, Span};

/// One workload group.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload in modeled M tuples.
    pub m_tuples: u64,
    /// Join throughput with a CPU prefix sum (G tuples/s).
    pub join_cpu_ps: f64,
    /// Join throughput with a GPU prefix sum.
    pub join_gpu_ps: f64,
    /// CPU prefix-sum scan throughput (GiB/s).
    pub ps_cpu_gibs: f64,
    /// GPU prefix-sum scan throughput (GiB/s).
    pub ps_gpu_gibs: f64,
}

/// Run for the given workloads.
pub fn run(hw: &HwConfig, sizes: &[u64]) -> Vec<Row> {
    let k = hw.scale;
    let gib = (1u64 << 30) as f64;
    sizes
        .iter()
        .map(|&m| {
            let w = WorkloadSpec::paper_default(m, k).generate();
            let n = w.r.len() as u64;
            let bytes = (n * KEY_BYTES) as f64;

            let cpu_join = TritonJoin::default().run(&w, hw).throughput_gtps();
            let gpu_join = TritonJoin {
                gpu_prefix_sum: true,
                ..TritonJoin::default()
            }
            .run(&w, hw)
            .throughput_gtps();

            let t_cpu = cpu_prefix_sum_cost(n, hw);
            let pass = PassConfig::new(9, 0);
            let (_, c) = gpu_prefix_sum(&w.r.keys, &Span::cpu(0), &pass, hw, false);
            let t_gpu = c.timing(hw).total;

            Row {
                m_tuples: m,
                join_cpu_ps: cpu_join,
                join_gpu_ps: gpu_join,
                ps_cpu_gibs: bytes / gib / t_cpu.as_secs(),
                ps_gpu_gibs: bytes / gib / t_gpu.as_secs(),
            }
        })
        .collect()
}

/// The committed sweep, `BENCH_fig20.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig20",
    schema: "triton-bench/fig20/v1",
    header: &[],
    columns: &[
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("join_cpu_ps", |r| Cell::Num(r.join_cpu_ps)),
        ("join_gpu_ps", |r| Cell::Num(r.join_gpu_ps)),
        ("ps_cpu_gibs", |r| Cell::Num(r.ps_cpu_gibs)),
        ("ps_gpu_gibs", |r| Cell::Num(r.ps_gpu_gibs)),
    ],
    rows: PAPER_WORKLOADS.len(),
    run: |hw| run(hw, &PAPER_WORKLOADS),
    gates: &[
        (
            "CPU scans 1.3-2.6x faster: CPU at 95-135, GPU at 50-66 GiB/s",
            |_, rows| {
                // Paper: CPU 1.6-2.2x faster at the scan itself, near its scan
                // bandwidth (up to 129.6 GiB/s); the GPU is pinned near the
                // unidirectional link bandwidth.
                every(rows, |r| {
                    (1.3..=2.6).contains(&(r.ps_cpu_gibs / r.ps_gpu_gibs))
                        && (50.0..=66.0).contains(&r.ps_gpu_gibs)
                        && (95.0..=135.0).contains(&r.ps_cpu_gibs)
                })
            },
        ),
        ("a CPU prefix sum speeds the join 1.0-1.35x", |_, rows| {
            // Paper: ~1.1x; the prefix sum is a small share of the join.
            every(rows, |r| {
                (1.0..=1.35).contains(&(r.join_cpu_ps / r.join_gpu_ps))
            })
        }),
    ],
};

gate_tests!(2048, {
    cpu_prefix_sum_faster_than_gpu: [
        "CPU scans 1.3-2.6x faster: CPU at 95-135, GPU at 50-66 GiB/s",
    ],
    join_prefers_cpu_prefix_sum: ["a CPU prefix sum speeds the join 1.0-1.35x"],
});
