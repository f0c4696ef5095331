//! Fig 6: GPU interconnect bandwidth of a random access pattern to CPU
//! memory, (a) with varying access granularities and (b) alignments.
//!
//! Exercises the NVLink packet model directly, the way the paper's
//! microbenchmark exercises the hardware: random accesses within a 1 GiB
//! array in LCG order, scaling the granularity from 4 bytes (a 32-bit
//! integer) up to 512 bytes (a coalesced 32-thread warp access).

use triton_hw::link::{Alignment, Dir, LinkModel};
use triton_hw::units::Bytes;
use triton_hw::HwConfig;

use crate::sweep::{ensure, gate_tests, row, Cell, Sweep};

/// One measured point: panel (a) sweeps the granularity of naturally
/// aligned accesses, panel (b) the alignment of 512-byte accesses.
#[derive(Debug, Clone)]
pub struct Row {
    /// `a` (granularity) or `b` (alignment).
    pub panel: &'static str,
    /// Access granularity in bytes.
    pub granularity: u64,
    /// Alignment class label.
    pub alignment: &'static str,
    /// Random-read bandwidth in GiB/s.
    pub read_gibs: f64,
    /// Random-write bandwidth in GiB/s.
    pub write_gibs: f64,
}

const GIB: f64 = (1u64 << 30) as f64;

/// Both panels: granularity 4-512 bytes, then 512-byte accesses at the
/// three alignment classes.
pub fn run(hw: &HwConfig) -> Vec<Row> {
    let link = LinkModel::new(&hw.link);
    let point = |panel, granularity, (alignment, a)| Row {
        panel,
        granularity,
        alignment,
        read_gibs: link.random_access_bandwidth(Bytes(granularity), Dir::CpuToGpu, a) / GIB,
        write_gibs: link.random_access_bandwidth(Bytes(granularity), Dir::GpuToCpu, a) / GIB,
    };
    let sequential = ("Sequential", Alignment::Natural);
    let granularity = [4u64, 8, 16, 32, 64, 128, 256, 512]
        .into_iter()
        .map(|g| point("a", g, sequential));
    let alignment = [
        sequential,
        ("Cacheline", Alignment::Cacheline),
        ("None", Alignment::None),
    ]
    .into_iter()
    .map(|a| point("b", 512, a));
    granularity.chain(alignment).collect()
}

/// The committed sweep, `BENCH_fig06.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig06",
    schema: "triton-bench/fig06/v1",
    header: &[],
    columns: &[
        ("panel", |r| Cell::Str(r.panel)),
        ("granularity", |r| Cell::Int(r.granularity)),
        ("alignment", |r| Cell::Str(r.alignment)),
        ("read_gibs", |r| Cell::Num(r.read_gibs)),
        ("write_gibs", |r| Cell::Num(r.write_gibs)),
    ],
    rows: 11,
    run,
    gates: &[
        (
            "reads double per granularity doubling up to 64 B",
            |_, rows| {
                for w in rows.windows(2).take(4) {
                    let ratio = w[1].read_gibs / w[0].read_gibs;
                    ensure((1.6..=2.4).contains(&ratio), || format!("{ratio} at {w:?}"))?;
                }
                Ok(())
            },
        ),
        ("128-512 B accesses saturate above 55 GiB/s", |_, rows| {
            for r in rows
                .iter()
                .filter(|r| r.panel == "a" && r.granularity >= 128)
            {
                ensure(r.read_gibs > 55.0 && r.write_gibs > 55.0, || {
                    format!("{r:?}")
                })?;
            }
            Ok(())
        }),
        (
            "misalignment costs 10-30% of reads and 40-70% of writes",
            |_, rows| {
                let at = |a: &str| row(rows, a, |r| r.panel == "b" && r.alignment == a);
                let (seq, mis) = (at("Sequential")?, at("None")?);
                let read_drop = 1.0 - mis.read_gibs / seq.read_gibs;
                let write_drop = 1.0 - mis.write_gibs / seq.write_gibs;
                ensure(
                    (0.1..=0.3).contains(&read_drop) && (0.4..=0.7).contains(&write_drop),
                    || format!("read drop {read_drop}, write drop {write_drop}"),
                )
            },
        ),
    ],
};

gate_tests!(1, {
    bandwidth_grows_linearly_then_saturates: [
        "reads double per granularity doubling up to 64 B",
        "128-512 B accesses saturate above 55 GiB/s",
    ],
    misalignment_penalties_match_paper: [
        "misalignment costs 10-30% of reads and 40-70% of writes",
    ],
});
