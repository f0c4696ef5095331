//! Fig 17: effect of the first-pass partitioning algorithm on the radix
//! join, with caching disabled to isolate the partitioner.
//!
//! Expected shape (Section 6.2.5): Shared leads up to ~1280 M tuples,
//! then falls off as its flush granularity drops below one 128-byte line;
//! Hierarchical stays flat and degrades gracefully; both dominate Linear
//! and (by 3.6-4x) Standard.

use triton_core::TritonJoin;
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;
use triton_part::Algorithm;

use crate::sweep::{ensure, every, gate_tests, row, Cell, Sweep};

/// The size axis in modeled M tuples.
pub const SIZES: [u64; 5] = [128, 512, 1024, 1536, 2048];

/// One size point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Relation size in modeled M tuples.
    pub m_tuples: u64,
    /// Throughput per algorithm (G tuples/s), in [`Algorithm::all`] order.
    pub gtps: [f64; 4],
}

/// Run the sweep.
pub fn run(hw: &HwConfig, sizes: &[u64]) -> Vec<Row> {
    let k = hw.scale;
    sizes
        .iter()
        .map(|&m| {
            let w = WorkloadSpec::paper_default(m, k).generate();
            let mut gtps = [0.0; 4];
            for (i, alg) in Algorithm::all().into_iter().enumerate() {
                let join = TritonJoin {
                    pass1: alg,
                    caching_enabled: false,
                    ..TritonJoin::default()
                };
                gtps[i] = join.run(&w, hw).throughput_gtps();
            }
            Row { m_tuples: m, gtps }
        })
        .collect()
}

/// The committed sweep, `BENCH_fig17.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig17",
    schema: "triton-bench/fig17/v1",
    header: &[],
    columns: &[
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("standard", |r| Cell::Num(r.gtps[0])),
        ("linear", |r| Cell::Num(r.gtps[1])),
        ("shared", |r| Cell::Num(r.gtps[2])),
        ("hierarchical", |r| Cell::Num(r.gtps[3])),
    ],
    rows: SIZES.len(),
    run: |hw| run(hw, &SIZES),
    gates: &[
        ("Hierarchical beats Linear and 2x Standard", |_, rows| {
            every(rows, |r| {
                let [standard, linear, _shared, hier] = r.gtps;
                hier > linear && hier > standard * 2.0
            })
        }),
        ("Hierarchical keeps 60% from 128 to 2048 M", |_, rows| {
            // Paper: 1.4-1.5 G tuples/s over the whole range.
            let hier =
                |m: u64| row(rows, &format!("{m} M"), |r| r.m_tuples == m).map(|r| r.gtps[3]);
            let ratio = hier(2048)? / hier(128)?;
            ensure(ratio > 0.6, || format!("retention {ratio}"))
        }),
    ],
};

gate_tests!(2048, {
    hierarchical_dominates_standard_and_linear: ["Hierarchical beats Linear and 2x Standard"],
    hierarchical_degrades_gracefully: ["Hierarchical keeps 60% from 128 to 2048 M"],
});
