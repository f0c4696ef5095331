//! Fig 23: performance per Watt of the CPU vs the GPU joins.
//!
//! Expected shape (Section 6.2.11): the CPU radix join is the most
//! power-efficient (7-9.4 M tuples/s/W after subtracting the idle GPUs),
//! because the GPU cannot shed the host CPU's idle and I/O power.

use triton_core::{CpuRadixJoin, HashScheme, NoPartitioningJoin, TritonJoin};
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;

use super::PAPER_WORKLOADS;
use crate::sweep::{ensure, gate_tests, row, Cell, Sweep};

/// One bar of Fig 23.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload in modeled M tuples.
    pub m_tuples: u64,
    /// Operator label.
    pub operator: &'static str,
    /// Power efficiency in M tuples/s/W.
    pub mtps_per_w: f64,
}

/// Run for the given workloads (perfect hashing, as in the paper).
pub fn run(hw: &HwConfig, sizes: &[u64]) -> Vec<Row> {
    let k = hw.scale;
    let mut rows = Vec::new();
    for &m in sizes {
        let w = WorkloadSpec::paper_default(m, k).generate();
        let cpu = CpuRadixJoin::power9(HashScheme::Perfect).run(&w, hw);
        let npj = NoPartitioningJoin::perfect().run(&w, hw);
        let triton = TritonJoin {
            scheme: HashScheme::Perfect,
            ..TritonJoin::default()
        }
        .run(&w, hw);
        rows.push(Row {
            m_tuples: m,
            operator: "CPU Radix Join",
            mtps_per_w: cpu.power_efficiency(hw),
        });
        rows.push(Row {
            m_tuples: m,
            operator: "GPU No-Partitioning Join",
            mtps_per_w: npj.power_efficiency(hw),
        });
        rows.push(Row {
            m_tuples: m,
            operator: "GPU Triton Join",
            mtps_per_w: triton.power_efficiency(hw),
        });
    }
    rows
}

/// The `operator` row (matched by a label fragment) at `m` M tuples.
fn at<'a>(rows: &'a [Row], m: u64, operator: &str) -> Result<&'a Row, String> {
    row(rows, &format!("{operator} at {m} M"), |r| {
        r.m_tuples == m && r.operator.contains(operator)
    })
}

/// The committed sweep, `BENCH_fig23.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig23",
    schema: "triton-bench/fig23/v1",
    header: &[],
    columns: &[
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("operator", |r| Cell::Str(r.operator)),
        ("mtps_per_w", |r| Cell::Num(r.mtps_per_w)),
    ],
    rows: 3 * PAPER_WORKLOADS.len(),
    run: |hw| run(hw, &PAPER_WORKLOADS),
    gates: &[
        (
            "at 2048 M, the CPU beats Triton per Watt at 5-11 M/s/W",
            |_, rows| {
                // Paper: the CPU is the most power-efficient processor
                // (7-9.4 M tuples/s/W) because the GPU cannot shed its host's
                // idle power.
                let (cpu, triton) = (at(rows, 2048, "CPU")?, at(rows, 2048, "Triton")?);
                ensure(
                    cpu.mtps_per_w > triton.mtps_per_w && (5.0..=11.0).contains(&cpu.mtps_per_w),
                    || format!("{cpu:?} vs {triton:?}"),
                )
            },
        ),
        ("Triton per Watt falls from 128 to 2048 M", |_, rows| {
            let (small, large) = (at(rows, 128, "Triton")?, at(rows, 2048, "Triton")?);
            ensure(small.mtps_per_w > large.mtps_per_w, || {
                format!("{small:?} vs {large:?}")
            })
        }),
    ],
};

gate_tests!(2048, {
    cpu_wins_on_efficiency_for_large_joins: [
        "at 2048 M, the CPU beats Triton per Watt at 5-11 M/s/W",
    ],
    efficiency_tracks_throughput_within_an_executor: [
        "Triton per Watt falls from 128 to 2048 M",
    ],
});
