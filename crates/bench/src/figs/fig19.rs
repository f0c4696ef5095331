//! Fig 19: scaling the GPU memory cache size from 0 to ~14.9 GiB for the
//! no-partitioning join (caching part of the hash table) and the Triton
//! join (caching part of the partitioned working set).
//!
//! Expected shape (Section 6.2.7): caching the whole NPJ table gives
//! 4.6-4.8x for in-TLB workloads but nothing for 2048 M (the table
//! exceeds the TLB range either way); Triton improves smoothly by
//! 1.1-1.4x and robustly avoids cliffs — with a slight dip when *all*
//! of the working set is cached, because GPU memory plus the interconnect
//! together out-bandwidth GPU memory alone.

use triton_core::{NoPartitioningJoin, TritonJoin};
use triton_datagen::WorkloadSpec;
use triton_hw::units::Bytes;
use triton_hw::HwConfig;

use super::PAPER_WORKLOADS;
use crate::sweep::{ensure, gate_tests, Cell, Sweep};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Operator label.
    pub operator: &'static str,
    /// Workload in modeled M tuples.
    pub m_tuples: u64,
    /// Cache size in modeled GiB (paper axis).
    pub cache_gib: f64,
    /// Throughput in G tuples/s.
    pub gtps: f64,
}

/// The paper's cache-size axis in modeled GiB.
pub const CACHE_AXIS: [f64; 7] = [0.0, 2.0, 4.0, 8.0, 10.0, 12.0, 14.9];

/// Run the sweep for NPJ (perfect hashing) and Triton (bucket chaining).
pub fn run(hw: &HwConfig, sizes: &[u64]) -> Vec<Row> {
    let k = hw.scale;
    let gib = 1u64 << 30;
    let mut rows = Vec::new();
    for &m in sizes {
        let w = WorkloadSpec::paper_default(m, k).generate();
        for &cache_gib in &CACHE_AXIS {
            let cache = Bytes(((cache_gib * gib as f64) as u64) / k);
            let npj = NoPartitioningJoin {
                cache_bytes: Some(cache),
                ..NoPartitioningJoin::perfect()
            };
            rows.push(Row {
                operator: "NPJ (Perfect)",
                m_tuples: m,
                cache_gib,
                gtps: npj.run(&w, hw).throughput_gtps(),
            });
            let triton = TritonJoin {
                cache_bytes: Some(cache),
                ..TritonJoin::default()
            };
            rows.push(Row {
                operator: "Triton (BC)",
                m_tuples: m,
                cache_gib,
                gtps: triton.run(&w, hw).throughput_gtps(),
            });
        }
    }
    rows
}

/// Throughput of `op` at `m` M tuples over [`CACHE_AXIS`].
fn series(rows: &[Row], op: &str, m: u64) -> Vec<f64> {
    rows.iter()
        .filter(|r| r.operator == op && r.m_tuples == m)
        .map(|r| r.gtps)
        .collect()
}

/// Full-cache over no-cache throughput of `op` at `m` M tuples.
fn gain(rows: &[Row], op: &str, m: u64) -> Result<f64, String> {
    let s = series(rows, op, m);
    match (s.first(), s.last()) {
        (Some(none), Some(full)) => Ok(full / none),
        _ => Err(format!("{op} at {m} M missing")),
    }
}

/// The committed sweep, `BENCH_fig19.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig19",
    schema: "triton-bench/fig19/v1",
    header: &[],
    columns: &[
        ("operator", |r| Cell::Str(r.operator)),
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("cache_gib", |r| Cell::Num(r.cache_gib)),
        ("gtps", |r| Cell::Num(r.gtps)),
    ],
    rows: 2 * CACHE_AXIS.len() * PAPER_WORKLOADS.len(),
    run: |hw| run(hw, &PAPER_WORKLOADS),
    gates: &[
        ("a full cache speeds NPJ up > 2x at 512 M", |_, rows| {
            // Paper: 4.6-4.8x for perfect hashing on in-TLB workloads.
            let gain = gain(rows, "NPJ (Perfect)", 512)?;
            ensure(gain > 2.0, || format!("NPJ cache gain {gain}"))
        }),
        (
            "Triton spreads < 2x and a full cache keeps 80% of its best",
            |_, rows| {
                // Paper: 1.1-1.4x smooth improvement, no cliffs.
                for m in [512, 2048] {
                    let s = series(rows, "Triton (BC)", m);
                    let min = s.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = s.iter().copied().fold(0.0f64, f64::max);
                    let last = s.last().copied().unwrap_or(0.0);
                    ensure(max / min < 2.0 && last / max > 0.8, || {
                        format!("{m} M: {s:?}")
                    })?;
                }
                Ok(())
            },
        ),
        (
            "Triton gains at 512 M >= 0.95x its gain at 2048 M",
            |_, rows| {
                // Paper: 1.4x for 128/512 M vs 1.1x for 2048 M.
                let (mid, large) = (
                    gain(rows, "Triton (BC)", 512)?,
                    gain(rows, "Triton (BC)", 2048)?,
                );
                ensure(mid >= large * 0.95, || format!("{mid} vs {large}"))
            },
        ),
    ],
};

gate_tests!(2048, {
    npj_caching_pays_off_for_small_workloads: ["a full cache speeds NPJ up > 2x at 512 M"],
    triton_robust_across_cache_sizes: [
        "Triton spreads < 2x and a full cache keeps 80% of its best",
    ],
    triton_gains_more_at_smaller_sizes: ["Triton gains at 512 M >= 0.95x its gain at 2048 M"],
});
