//! Fig 15: time breakdown of the Triton join — (a) execution time per
//! kernel and (b) a microarchitectural stall analysis per kernel.
//!
//! Configured with a GPU prefix sum (as in the paper) so every phase is a
//! GPU kernel with a full profile. The expected shape: the first
//! partitioning pass dominates (~44%) and is interconnect bound, the
//! first prefix sum takes ~19-23%, and the join phase is compute bound.

use triton_core::TritonJoin;
use triton_datagen::WorkloadSpec;
use triton_hw::kernel::StallProfile;
use triton_hw::HwConfig;

use super::PAPER_WORKLOADS;
use crate::sweep::{ensure, every, gate_tests, row, Cell, Sweep};

/// Per-kernel share and stall profile.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload size in modeled M tuples.
    pub m_tuples: u64,
    /// Kernel name.
    pub kernel: &'static str,
    /// Share of total kernel time (0..1).
    pub share: f64,
    /// Stall attribution (all zero for a phase without a profile).
    pub stalls: StallProfile,
}

/// The kernels of the breakdown in pipeline order. A kernel a run skips
/// (coarse scales need no second pass) keeps its row at zero share; the
/// shares-sum-to-one gate catches time in any phase not listed here.
pub const KERNELS: [&str; 6] = ["PS 1", "Part 1", "PS 2", "Part 2", "Sched", "Join"];

/// Run for the given workloads.
pub fn run(hw: &HwConfig, sizes: &[u64]) -> Vec<Row> {
    let k = hw.scale;
    let mut rows = Vec::new();
    for &m in sizes {
        let w = WorkloadSpec::paper_default(m, k).generate();
        let rep = TritonJoin {
            gpu_prefix_sum: true,
            ..TritonJoin::default()
        }
        .run(&w, hw);
        let sum: f64 = rep.phases.iter().map(|p| p.time.0).sum();
        for kernel in KERNELS {
            let phase = rep.phases.iter().find(|p| p.name == kernel);
            rows.push(Row {
                m_tuples: m,
                kernel,
                share: phase.filter(|_| sum > 0.0).map_or(0.0, |p| p.time.0 / sum),
                stalls: phase.and_then(|p| p.stalls).unwrap_or_default(),
            });
        }
    }
    rows
}

/// The `kernel` row at `m` M tuples.
fn at<'a>(rows: &'a [Row], m: u64, kernel: &str) -> Result<&'a Row, String> {
    row(rows, &format!("{kernel} at {m} M"), |r| {
        r.m_tuples == m && r.kernel == kernel
    })
}

/// The committed sweep, `BENCH_fig15.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig15",
    schema: "triton-bench/fig15/v1",
    header: &[],
    columns: &[
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("kernel", |r| Cell::Str(r.kernel)),
        ("share", |r| Cell::Num(r.share)),
        ("instr_issued", |r| Cell::Num(r.stalls.instr_issued)),
        ("memory_dep", |r| Cell::Num(r.stalls.memory_dep)),
        ("exec_dep", |r| Cell::Num(r.stalls.exec_dep)),
        ("sync", |r| Cell::Num(r.stalls.sync)),
        ("other", |r| Cell::Num(r.stalls.other)),
    ],
    rows: KERNELS.len() * PAPER_WORKLOADS.len(),
    run: |hw| run(hw, &PAPER_WORKLOADS),
    gates: &[
        (
            "Part 1 takes 25-65% and the largest share at 512 and 2048 M",
            |_, rows| {
                // Paper: 43.8-47.2% of total time.
                for m in [512, 2048] {
                    let part1 = at(rows, m, "Part 1")?;
                    ensure((0.25..=0.65).contains(&part1.share), || {
                        format!("{part1:?}")
                    })?;
                    every(rows, |r| r.m_tuples != m || r.share <= part1.share)?;
                }
                Ok(())
            },
        ),
        ("kernel shares sum to one", |_, rows| {
            for m in PAPER_WORKLOADS {
                let sum: f64 = rows
                    .iter()
                    .filter(|r| r.m_tuples == m)
                    .map(|r| r.share)
                    .sum();
                ensure((sum - 1.0).abs() < 1e-9, || format!("{m} M: {sum}"))?;
            }
            Ok(())
        }),
        (
            "Part 1 stalls on memory, the join issues 1.4x more",
            |_, rows| {
                // Part 1 is memory bound; the join is compute bound.
                let (p1, j) = (
                    at(rows, 2048, "Part 1")?.stalls,
                    at(rows, 2048, "Join")?.stalls,
                );
                ensure(
                    p1.memory_dep > p1.sync && j.instr_issued > p1.instr_issued * 1.4,
                    || format!("join {j:?} vs part1 {p1:?}"),
                )
            },
        ),
    ],
};

gate_tests!(2048, {
    part1_dominates: ["Part 1 takes 25-65% and the largest share at 512 and 2048 M"],
    shares_sum_to_one: ["kernel shares sum to one"],
    part1_memory_bound_join_compute_bound: [
        "Part 1 stalls on memory, the join issues 1.4x more"
    ],
});
