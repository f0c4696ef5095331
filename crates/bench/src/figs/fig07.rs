//! Fig 7: TLB miss latency for GPU memory and for CPU memory over
//! NVLink 2.0, measured by fine-grained pointer chasing.
//!
//! The pointer chase strides through a memory range so that every access
//! lands on a fresh TLB-entry region; once the range exceeds a level's
//! coverage, the measured latency steps up to the next plateau. Ranges on
//! the x-axis are in *modeled* GiB (the simulated coverages are scaled by
//! K, so the plateaus appear at the paper's positions); latencies are
//! unscaled nanoseconds directly comparable with the paper's.

use triton_hw::tlb::{MemSide, TlbSim};
use triton_hw::HwConfig;

use crate::sweep::{ensure, gate_tests, Cell, Sweep};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Which memory was chased.
    pub side: MemSide,
    /// Range in modeled GiB (paper axis).
    pub range_gib: f64,
    /// Stride in modeled MiB.
    pub stride_mib: u64,
    /// Average access latency in ns.
    pub latency_ns: f64,
}

/// Pointer-chase `accesses` times with `stride` within `range` (both in
/// actual scaled bytes) and return the average latency.
pub fn chase(hw: &HwConfig, side: MemSide, range: u64, stride: u64, accesses: u64) -> f64 {
    let mut tlb = TlbSim::new(hw);
    let mut addr = 0u64;
    // Warm-up round: the paper measures steady-state latencies.
    for _ in 0..accesses {
        tlb.access_latency(addr, side);
        addr = (addr + stride) % range.max(1);
    }
    let mut total = 0.0;
    for _ in 0..accesses {
        total += tlb.access_latency(addr, side).0;
        addr = (addr + stride) % range.max(1);
    }
    total / accesses as f64
}

/// Run both panels: GPU memory (6-10.7 GiB modeled) and CPU memory
/// (1-87.5 GiB modeled), strides 16/32/64 MiB modeled.
pub fn run(hw: &HwConfig) -> Vec<Row> {
    let k = hw.scale;
    let gib = 1u64 << 30;
    let mib = 1u64 << 20;
    let mut rows = Vec::new();
    let accesses = 4096;
    for &(side, ranges) in &[
        (
            MemSide::Gpu,
            &[6.0f64, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.8, 10.7][..],
        ),
        (
            MemSide::Cpu,
            &[
                1.0, 2.0, 4.0, 8.0, 9.5, 16.0, 24.0, 32.0, 37.0, 48.0, 64.0, 87.5,
            ][..],
        ),
    ] {
        for &range_gib in ranges {
            for stride_mib in [16u64, 32, 64] {
                let range = ((range_gib * gib as f64) as u64 / k).max(1);
                let stride = (stride_mib * mib / k).max(1);
                rows.push(Row {
                    side,
                    range_gib,
                    stride_mib,
                    latency_ns: chase(hw, side, range, stride, accesses),
                });
            }
        }
    }
    rows
}

/// Mean latency over `side`'s points with ranges in `lo..=hi` GiB,
/// at one stride or (`None`) all of them.
fn plateau(rows: &[Row], side: MemSide, (lo, hi): (f64, f64), stride: Option<u64>) -> f64 {
    let v: Vec<f64> = rows
        .iter()
        .filter(|r| {
            r.side == side
                && (lo..=hi).contains(&r.range_gib)
                && stride.is_none_or(|s| r.stride_mib == s)
        })
        .map(|r| r.latency_ns)
        .collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// The CPU plateaus: L2 (1-4 GiB), L3* (16-32 GiB) and Miss* from
/// `miss_from` to 87.5 GiB at the 32 MiB stride, which touches a fresh
/// translation entry on every access (wider strides halve the tag
/// count and can fall back under the IOTLB capacity at mid ranges).
fn cpu_plateaus(rows: &[Row], miss_from: f64) -> [f64; 3] {
    [
        plateau(rows, MemSide::Cpu, (1.0, 4.0), None),
        plateau(rows, MemSide::Cpu, (16.0, 32.0), None),
        plateau(rows, MemSide::Cpu, (miss_from, 87.5), Some(32)),
    ]
}

/// The committed sweep, `BENCH_fig07.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig07",
    schema: "triton-bench/fig07/v1",
    header: &[],
    columns: &[
        ("memory", |r| {
            Cell::Str(match r.side {
                MemSide::Gpu => "Gpu",
                MemSide::Cpu => "Cpu",
            })
        }),
        ("range_gib", |r| Cell::Num(r.range_gib)),
        ("stride_mib", |r| Cell::Int(r.stride_mib)),
        ("latency_ns", |r| Cell::Num(r.latency_ns)),
    ],
    rows: 63,
    run,
    gates: &[
        ("GPU hits at 140-170 ns, misses at 185-235 ns", |_, rows| {
            // Within the 8 GiB L2 coverage: ~151.9 ns; beyond: ~226.7 ns.
            let hit = plateau(rows, MemSide::Gpu, (6.0, 7.5), None);
            let miss = plateau(rows, MemSide::Gpu, (9.8, 10.7), None);
            ensure(
                (140.0..=170.0).contains(&hit) && (185.0..=235.0).contains(&miss),
                || format!("hit {hit}, miss {miss}"),
            )
        }),
        (
            "CPU plateaus at 430-480, 500-600 and 2500-3300 ns",
            |_, rows| {
                let [l2, l3, miss] = cpu_plateaus(rows, 48.0);
                ensure(
                    (430.0..=480.0).contains(&l2)
                        && (500.0..=600.0).contains(&l3)
                        && (2500.0..=3300.0).contains(&miss),
                    || format!("L2 {l2}, L3* {l3}, Miss* {miss}"),
                )
            },
        ),
        ("CPU plateaus ordered L2 < L3* < Miss*", |_, rows| {
            let [l2, l3, miss] = cpu_plateaus(rows, 64.0);
            ensure(l2 < l3 && l3 < miss, || format!("{l2}, {l3}, {miss}"))
        }),
    ],
};

gate_tests!(1024, {
    gpu_memory_plateaus: ["GPU hits at 140-170 ns, misses at 185-235 ns"],
    cpu_memory_three_plateaus: ["CPU plateaus at 430-480, 500-600 and 2500-3300 ns"],
    plateaus_ordered: ["CPU plateaus ordered L2 < L3* < Miss*"],
});
