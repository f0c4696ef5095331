//! Fig 14: interconnect usage of the join algorithms — (a) interconnect
//! utilisation and (b) IOMMU translation requests per tuple.
//!
//! Explains *why* the Triton join outperforms no-partitioning joins
//! (Section 6.2.2): partitioning bounds the translation working set, so
//! Triton issues IOMMU requests orders of magnitude more rarely than a
//! linear-probing NPJ whose table outgrows the TLB range.

use triton_core::{NoPartitioningJoin, TritonJoin};
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;

use super::PAPER_WORKLOADS;
use crate::sweep::{ensure, gate_tests, row, Cell, Sweep};

/// One bar group of Fig 14.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload size in modeled M tuples.
    pub m_tuples: u64,
    /// Operator label.
    pub operator: &'static str,
    /// Interconnect utilisation (0..1).
    pub link_utilization: f64,
    /// IOMMU translation requests per tuple.
    pub iommu_requests_per_tuple: f64,
}

/// Run for the given workloads. The Triton join uses a GPU prefix sum so
/// the whole profile is GPU-side, as in the paper.
pub fn run(hw: &HwConfig, sizes: &[u64]) -> Vec<Row> {
    let k = hw.scale;
    let mut rows = Vec::new();
    for &m in sizes {
        let w = WorkloadSpec::paper_default(m, k).generate();
        let lp = NoPartitioningJoin::linear_probing().run(&w, hw);
        let pf = NoPartitioningJoin::perfect().run(&w, hw);
        let triton = TritonJoin {
            gpu_prefix_sum: true,
            ..TritonJoin::default()
        }
        .run(&w, hw);
        for (op, rep) in [
            ("NPJ (Linear Probing)", &lp),
            ("NPJ (Perfect)", &pf),
            ("Triton (Bucket Chaining)", &triton),
        ] {
            rows.push(Row {
                m_tuples: m,
                operator: op,
                link_utilization: rep.link_utilization(hw),
                iommu_requests_per_tuple: rep.iommu_requests_per_tuple(hw),
            });
        }
    }
    rows
}

/// The `operator` row (matched by a label fragment) at `m` M tuples.
fn at<'a>(rows: &'a [Row], m: u64, operator: &str) -> Result<&'a Row, String> {
    row(rows, &format!("{operator} at {m} M"), |r| {
        r.m_tuples == m && r.operator.contains(operator)
    })
}

/// The committed sweep, `BENCH_fig14.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig14",
    schema: "triton-bench/fig14/v1",
    header: &[],
    columns: &[
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("operator", |r| Cell::Str(r.operator)),
        ("link_utilization", |r| Cell::Num(r.link_utilization)),
        ("iommu_requests_per_tuple", |r| {
            Cell::Num(r.iommu_requests_per_tuple)
        }),
    ],
    rows: 3 * PAPER_WORKLOADS.len(),
    run: |hw| run(hw, &PAPER_WORKLOADS),
    gates: &[
        (
            "at 2048 M, LP walks > 1 per tuple and Triton 100x less",
            |_, rows| {
                // Paper: 5.3 requests/tuple for LP vs ~1e-5 for Triton.
                let (lp, triton) = (at(rows, 2048, "Linear")?, at(rows, 2048, "Triton")?);
                ensure(
                    lp.iommu_requests_per_tuple > 1.0
                        && triton.iommu_requests_per_tuple < lp.iommu_requests_per_tuple / 100.0,
                    || format!("{triton:?} vs {lp:?}"),
                )
            },
        ),
        (
            "LP utilisation collapses below 5% and 1/5 of 512 M",
            |_, rows| {
                // Paper Fig 14a: LP drops to 0.4% utilisation at 2048 M.
                let (small, large) = (at(rows, 512, "Linear")?, at(rows, 2048, "Linear")?);
                ensure(
                    large.link_utilization < 0.05
                        && large.link_utilization < small.link_utilization / 5.0,
                    || format!("{large:?} vs {small:?}"),
                )
            },
        ),
        (
            "Triton utilisation keeps 90% of 128 M and 35% at 2048 M",
            |_, rows| {
                // More data -> smaller cached fraction -> higher link pressure.
                let (small, large) = (at(rows, 128, "Triton")?, at(rows, 2048, "Triton")?);
                ensure(
                    large.link_utilization >= small.link_utilization * 0.9
                        && large.link_utilization > 0.35,
                    || format!("{large:?} vs {small:?}"),
                )
            },
        ),
    ],
};

gate_tests!(2048, {
    lp_out_of_core_walks_constantly_triton_rarely: [
        "at 2048 M, LP walks > 1 per tuple and Triton 100x less",
    ],
    lp_utilization_collapses_out_of_core: [
        "LP utilisation collapses below 5% and 1/5 of 512 M"
    ],
    triton_utilization_grows_with_spill: [
        "Triton utilisation keeps 90% of 128 M and 35% at 2048 M",
    ],
});
