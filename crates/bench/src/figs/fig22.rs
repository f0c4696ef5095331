//! Fig 22: scaling the number of payload attributes (tuple width) with
//! early vs late materialization.
//!
//! Expected shape (Section 6.2.10): the join index (no payload) matches
//! the default setup (~1.5-2 G tuples/s); late materialization degrades
//! towards ~86-88 M tuples/s at 16 payload attributes, because every
//! attribute costs one random out-of-core access per result tuple.

use triton_core::{run_with_materialization, Materialization};
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;

use crate::sweep::{ensure, gate_tests, row, Cell, Sweep};

/// Workload size in modeled M tuples (the paper's mid size).
pub const M_TUPLES: u64 = 512;

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload in modeled M tuples.
    pub m_tuples: u64,
    /// Payload attributes.
    pub payloads: usize,
    /// Strategy label.
    pub strategy: &'static str,
    /// Throughput in G tuples/s.
    pub gtps: f64,
}

/// The payload-width axis.
pub const WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// Run for one workload family.
pub fn run(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let k = hw.scale;
    let mut spec = WorkloadSpec::paper_default(m_tuples, k);
    spec.payload_cols = 2; // functional columns; cost scales per strategy
    let w = spec.generate();
    let mut rows = vec![Row {
        m_tuples,
        payloads: 0,
        strategy: "join index",
        gtps: run_with_materialization(&w, Materialization::JoinIndex, hw).throughput_gtps(),
    }];
    for &p in &WIDTHS {
        rows.push(Row {
            m_tuples,
            payloads: p,
            strategy: "early",
            gtps: run_with_materialization(&w, Materialization::Early { payloads: p }, hw)
                .throughput_gtps(),
        });
        rows.push(Row {
            m_tuples,
            payloads: p,
            strategy: "late",
            gtps: run_with_materialization(&w, Materialization::Late { payloads: p }, hw)
                .throughput_gtps(),
        });
    }
    rows
}

/// The `strategy` row at `payloads` attributes.
fn at<'a>(rows: &'a [Row], strategy: &str, payloads: usize) -> Result<&'a Row, String> {
    row(rows, &format!("{strategy} at {payloads} payloads"), |r| {
        r.strategy == strategy && r.payloads == payloads
    })
}

/// The committed sweep, `BENCH_fig22.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig22",
    schema: "triton-bench/fig22/v1",
    header: &[],
    columns: &[
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("payloads", |r| Cell::Int(r.payloads as u64)),
        ("strategy", |r| Cell::Str(r.strategy)),
        ("gtps", |r| Cell::Num(r.gtps)),
    ],
    rows: 1 + 2 * WIDTHS.len(),
    run: |hw| run(hw, M_TUPLES),
    gates: &[
        (
            "late at 16 payloads < 1/8 of the join index and < 0.4 G/s",
            |_, rows| {
                // Paper: ~2 G tuples/s for the index vs 86-88 M tuples/s at 16
                // late payloads.
                let (idx, late16) = (at(rows, "join index", 0)?, at(rows, "late", 16)?);
                ensure(late16.gtps < idx.gtps / 8.0 && late16.gtps < 0.4, || {
                    format!("index {} vs late16 {}", idx.gtps, late16.gtps)
                })
            },
        ),
        ("late never gains > 5% with width", |_, rows| {
            let late: Vec<&Row> = rows.iter().filter(|r| r.strategy == "late").collect();
            for w in late.windows(2) {
                ensure(w[1].gtps <= w[0].gtps * 1.05, || format!("{w:?}"))?;
            }
            Ok(())
        }),
        ("early beats 2x late at 16 payloads", |_, rows| {
            let (early16, late16) = (at(rows, "early", 16)?, at(rows, "late", 16)?);
            ensure(early16.gtps > late16.gtps * 2.0, || {
                format!("{early16:?} vs {late16:?}")
            })
        }),
    ],
};

gate_tests!(2048, {
    late_materialization_collapses: [
        "late at 16 payloads < 1/8 of the join index and < 0.4 G/s",
    ],
    late_monotonically_degrades: ["late never gains > 5% with width"],
    early_degrades_more_gently: ["early beats 2x late at 16 payloads"],
});
