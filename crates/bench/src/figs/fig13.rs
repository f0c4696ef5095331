//! Fig 13 (and its simplified form, Fig 1): scaling the build and probe
//! relations from 128 to 2048 million tuples against six operators.
//!
//! Series: CPU radix join on POWER9 and Xeon, the GPU no-partitioning
//! join with linear probing and perfect hashing, and the Triton join with
//! bucket chaining and perfect hashing. The POWER9 radix join also runs
//! with perfect hashing (`cpu_p9_perfect`), Fig 1's CPU series for its
//! CPU-vs-GPU crossover claim.

use triton_core::{CpuRadixJoin, HashScheme, NoPartitioningJoin, TritonJoin};
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;

use super::SCALING_AXIS;
use crate::sweep::{ensure, every, gate_tests, row, Cell, Sweep};

/// One size point of Fig 13.
#[derive(Debug, Clone)]
pub struct Row {
    /// Relation size in modeled million tuples (per relation).
    pub m_tuples: u64,
    /// CPU radix join, POWER9, G tuples/s.
    pub cpu_p9: f64,
    /// CPU radix join, POWER9, perfect hashing.
    pub cpu_p9_perfect: f64,
    /// CPU radix join, Xeon.
    pub cpu_xeon: f64,
    /// GPU no-partitioning join, linear probing.
    pub npj_lp: f64,
    /// GPU no-partitioning join, perfect hashing.
    pub npj_perfect: f64,
    /// Triton join, bucket chaining.
    pub triton_bc: f64,
    /// Triton join, perfect hashing.
    pub triton_perfect: f64,
}

/// Run the sweep over `sizes` (modeled M tuples per relation).
pub fn run(hw: &HwConfig, sizes: &[u64]) -> Vec<Row> {
    let k = hw.scale;
    sizes
        .iter()
        .map(|&m| {
            let w = WorkloadSpec::paper_default(m, k).generate();
            let triton_pf = TritonJoin {
                scheme: HashScheme::Perfect,
                ..TritonJoin::default()
            };
            Row {
                m_tuples: m,
                cpu_p9: CpuRadixJoin::power9(HashScheme::BucketChaining)
                    .run(&w, hw)
                    .throughput_gtps(),
                cpu_p9_perfect: CpuRadixJoin::power9(HashScheme::Perfect)
                    .run(&w, hw)
                    .throughput_gtps(),
                cpu_xeon: CpuRadixJoin::xeon(HashScheme::BucketChaining)
                    .run(&w, hw)
                    .throughput_gtps(),
                npj_lp: NoPartitioningJoin::linear_probing()
                    .run(&w, hw)
                    .throughput_gtps(),
                npj_perfect: NoPartitioningJoin::perfect().run(&w, hw).throughput_gtps(),
                triton_bc: TritonJoin::default().run(&w, hw).throughput_gtps(),
                triton_perfect: triton_pf.run(&w, hw).throughput_gtps(),
            }
        })
        .collect()
}

/// The sizes the no-cliff gate steps through (the coarse axis of the
/// paper's Section 6.2.1 claim).
const CLIFF_AXIS: [u64; 5] = [128, 512, 1024, 1536, 2048];

/// The row at `m` modeled M tuples.
fn at(rows: &[Row], m: u64) -> Result<&Row, String> {
    row(rows, &format!("{m} M"), |r| r.m_tuples == m)
}

/// The committed sweep, `BENCH_fig13.json`. Fig 1 is its
/// `cpu_p9_perfect`, `npj_perfect` and `triton_perfect` columns.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig13",
    schema: "triton-bench/fig13/v1",
    header: &[],
    columns: &[
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("cpu_p9", |r| Cell::Num(r.cpu_p9)),
        ("cpu_p9_perfect", |r| Cell::Num(r.cpu_p9_perfect)),
        ("cpu_xeon", |r| Cell::Num(r.cpu_xeon)),
        ("npj_lp", |r| Cell::Num(r.npj_lp)),
        ("npj_perfect", |r| Cell::Num(r.npj_perfect)),
        ("triton_bc", |r| Cell::Num(r.triton_bc)),
        ("triton_perfect", |r| Cell::Num(r.triton_perfect)),
    ],
    rows: SCALING_AXIS.len(),
    run: |hw| run(hw, &SCALING_AXIS),
    gates: &[
        (
            "in core, NPJ perfect beats 1.5x CPU P9 at 128 M",
            |_, rows| {
                let small = at(rows, 128)?;
                ensure(small.npj_perfect > small.cpu_p9 * 1.5, || {
                    format!("{small:?}")
                })
            },
        ),
        (
            "NPJ LP collapses below 1/50 of its 128 M rate",
            |_, rows| {
                let (small, large) = (at(rows, 128)?, at(rows, 2048)?);
                ensure(large.npj_lp < small.npj_lp / 50.0, || {
                    format!("{} vs {}", large.npj_lp, small.npj_lp)
                })
            },
        ),
        (
            "out of core, Triton BC beats NPJ perfect and 1.4x CPU P9",
            |_, rows| {
                let large = at(rows, 2048)?;
                ensure(
                    large.triton_bc > large.npj_perfect && large.triton_bc > large.cpu_p9 * 1.4,
                    || format!("{large:?}"),
                )
            },
        ),
        ("Triton BC keeps 60% of its peak at 2048 M", |_, rows| {
            let peak = rows.iter().map(|r| r.triton_bc).fold(0.0f64, f64::max);
            let last = at(rows, 2048)?.triton_bc;
            ensure(last > 0.6 * peak, || format!("{last} of peak {peak}"))
        }),
        (
            "Triton BC loses at most 25% per step of the coarse axis",
            |_, rows| {
                for w in CLIFF_AXIS.windows(2) {
                    let (p, t) = (at(rows, w[0])?.triton_bc, at(rows, w[1])?.triton_bc);
                    ensure(t > p * 0.75, || {
                        format!("{} M: cliff from {p} to {t}", w[1])
                    })?;
                }
                Ok(())
            },
        ),
        (
            "hashing scheme moves Triton by < 10% at 2048 M",
            |_, rows| {
                let large = at(rows, 2048)?;
                let ratio = large.triton_bc / large.triton_perfect;
                ensure((ratio - 1.0).abs() < 0.1, || format!("BC/perfect {ratio}"))
            },
        ),
        ("NPJ perfect beats 20x NPJ LP at 2048 M", |_, rows| {
            let large = at(rows, 2048)?;
            ensure(large.npj_perfect / large.npj_lp > 20.0, || {
                format!("{large:?}")
            })
        }),
        ("Triton BC beats 100x NPJ LP at 2048 M", |_, rows| {
            let large = at(rows, 2048)?;
            ensure(large.triton_bc > 100.0 * large.npj_lp, || {
                format!("only {:.0}x", large.triton_bc / large.npj_lp)
            })
        }),
        (
            "Triton BC beats CPU P9 from 512 M on, once by 1.5x",
            |_, rows| {
                let out_of_cache = rows.iter().filter(|r| r.m_tuples >= 512);
                let mut best = 0.0f64;
                for r in out_of_cache {
                    ensure(r.triton_bc > r.cpu_p9, || format!("{r:?}"))?;
                    best = best.max(r.triton_bc / r.cpu_p9);
                }
                ensure(best > 1.5, || format!("best speedup {best:.2}"))
            },
        ),
        (
            "perfect hashing at 2048 M: NPJ < CPU P9 < Triton",
            |_, rows| {
                let large = at(rows, 2048)?;
                ensure(
                    large.npj_perfect < large.cpu_p9_perfect
                        && large.cpu_p9_perfect < large.triton_perfect,
                    || format!("{large:?}"),
                )
            },
        ),
        ("Xeon never beats 1.05x POWER9", |_, rows| {
            every(rows, |r| r.cpu_xeon <= r.cpu_p9 * 1.05)
        }),
    ],
};

gate_tests!(2048, {
    fig13_shapes_hold: [
        "in core, NPJ perfect beats 1.5x CPU P9 at 128 M",
        "NPJ LP collapses below 1/50 of its 128 M rate",
        "out of core, Triton BC beats NPJ perfect and 1.4x CPU P9",
        "Triton BC keeps 60% of its peak at 2048 M",
        "hashing scheme moves Triton by < 10% at 2048 M",
        "NPJ perfect beats 20x NPJ LP at 2048 M",
    ],
    xeon_never_beats_power9: ["Xeon never beats 1.05x POWER9"],
    triton_vs_npj_more_than_100x: ["Triton BC beats 100x NPJ LP at 2048 M"],
    triton_vs_cpu_radix: ["Triton BC beats CPU P9 from 512 M on, once by 1.5x"],
    triton_removes_the_cpu_gpu_crossover: ["perfect hashing at 2048 M: NPJ < CPU P9 < Triton"],
    graceful_degradation: [
        "Triton BC loses at most 25% per step of the coarse axis",
        "Triton BC keeps 60% of its peak at 2048 M",
    ],
});
