//! Fig 21: varying the build-to-probe ratio from 1:1 to 1:32 while
//! keeping the total data volume constant.
//!
//! Expected shape (Section 6.2.9): the no-partitioning join is extremely
//! ratio-sensitive (the 2048 M workload at 1:32 fits its hash table in
//! GPU memory again — the paper measures a 3414x swing for linear
//! probing), while the Triton join stays flat, because it partitions the
//! large outer relation regardless.

use triton_core::{NoPartitioningJoin, TritonJoin};
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;

use super::PAPER_WORKLOADS;
use crate::sweep::{ensure, gate_tests, row, Cell, Sweep};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload family in modeled M tuples (1:1 cardinality per side).
    pub m_tuples: u64,
    /// Probe-to-build ratio (1:x).
    pub ratio: u64,
    /// NPJ linear probing (G tuples/s).
    pub npj_lp: f64,
    /// NPJ perfect hashing.
    pub npj_perfect: f64,
    /// Triton bucket chaining.
    pub triton: f64,
}

/// The ratio axis.
pub const RATIOS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Run for the given workload families.
pub fn run(hw: &HwConfig, sizes: &[u64]) -> Vec<Row> {
    let k = hw.scale;
    let mut rows = Vec::new();
    for &m in sizes {
        for &ratio in &RATIOS {
            let w = WorkloadSpec::with_ratio(m, ratio, k).generate();
            rows.push(Row {
                m_tuples: m,
                ratio,
                npj_lp: NoPartitioningJoin::linear_probing()
                    .run(&w, hw)
                    .throughput_gtps(),
                npj_perfect: NoPartitioningJoin::perfect().run(&w, hw).throughput_gtps(),
                triton: TritonJoin::default().run(&w, hw).throughput_gtps(),
            });
        }
    }
    rows
}

/// The 2048 M row at ratio 1:`ratio`.
fn at(rows: &[Row], ratio: u64) -> Result<&Row, String> {
    row(rows, &format!("1:{ratio} at 2048 M"), |r| {
        r.m_tuples == 2048 && r.ratio == ratio
    })
}

/// The committed sweep, `BENCH_fig21.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig21",
    schema: "triton-bench/fig21/v1",
    header: &[],
    columns: &[
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("ratio", |r| Cell::Int(r.ratio)),
        ("npj_lp", |r| Cell::Num(r.npj_lp)),
        ("npj_perfect", |r| Cell::Num(r.npj_perfect)),
        ("triton", |r| Cell::Num(r.triton)),
    ],
    rows: RATIOS.len() * PAPER_WORKLOADS.len(),
    run: |hw| run(hw, &PAPER_WORKLOADS),
    gates: &[
        (
            "at 2048 M, LP runs 20x faster at 1:32 than at 1:1",
            |_, rows| {
                // Paper: 1:32 is up to 3414x faster than 1:1 for linear probing.
                let (lp_1, lp_32) = (at(rows, 1)?.npj_lp, at(rows, 32)?.npj_lp);
                ensure(lp_32 > lp_1 * 20.0, || {
                    format!("LP swing {lp_1} -> {lp_32}")
                })
            },
        ),
        (
            "at 2048 M, Triton stays within 1.6x across ratios",
            |_, rows| {
                // Paper: 1.66-1.88 G/s.
                let t = rows.iter().filter(|r| r.m_tuples == 2048).map(|r| r.triton);
                let t_min = t.clone().fold(f64::INFINITY, f64::min);
                let t_max = t.fold(0.0f64, f64::max);
                ensure(t_max / t_min < 1.6, || {
                    format!("Triton band {t_min}..{t_max}")
                })
            },
        ),
        ("at 2048 M and 1:32, NPJ perfect beats Triton", |_, rows| {
            // A no-partitioning join should be preferred for high probe
            // ratios (the small build side stays in-core).
            let r = at(rows, 32)?;
            ensure(r.npj_perfect > r.triton, || format!("{r:?}"))
        }),
    ],
};

gate_tests!(2048, {
    triton_insensitive_npj_very_sensitive: [
        "at 2048 M, LP runs 20x faster at 1:32 than at 1:1",
        "at 2048 M, Triton stays within 1.6x across ratios",
    ],
    npj_preferred_at_extreme_ratios: ["at 2048 M and 1:32, NPJ perfect beats Triton"],
});
