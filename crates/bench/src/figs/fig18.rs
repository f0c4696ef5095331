//! Fig 18: profiling the partitioning algorithms with hardware counters
//! while sweeping the fanout from 4 to 2048 over ~60 GiB of data.
//!
//! Six panels: (a) throughput, (b) tuples per memory transaction,
//! (c) physical transfer volume (protocol overhead), (d) IOMMU requests
//! per tuple, (e) issue-slot utilisation, (f) stall reasons.

use triton_datagen::{WorkloadSpec, TUPLE_BYTES};
use triton_hw::kernel::StallProfile;
use triton_hw::HwConfig;
use triton_part::{gpu_prefix_sum, make_partitioner, Algorithm, PassConfig, Span};

use crate::sweep::{ensure, gate_tests, row, Cell, Sweep};

/// Modeled relation size in M tuples: ~60 GiB of data.
pub const M_TUPLES: u64 = 3840;

/// One (algorithm, fanout) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Partitioning algorithm.
    pub algorithm: Algorithm,
    /// Fanout (number of partitions).
    pub fanout: usize,
    /// Combined read+write throughput in GiB/s (panel a).
    pub gibs: f64,
    /// Tuples per interconnect transaction (panel b).
    pub tuples_per_txn: f64,
    /// Total wire volume divided by the 2x-relation reference (panel c).
    pub transfer_ratio: f64,
    /// IOMMU translation requests per tuple (panel d).
    pub iommu_requests_per_tuple: f64,
    /// Issue-slot utilisation percent (panel e).
    pub issue_slot_util: f64,
    /// Stall profile (panel f).
    pub stalls: StallProfile,
}

/// The paper's fanout axis.
pub const FANOUTS: [u32; 6] = [2, 4, 6, 8, 10, 11]; // radix bits: 4..2048

/// Run the sweep over `m_tuples` ([`M_TUPLES`] in the committed sweep).
pub fn run(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let k = hw.scale;
    let mut spec = WorkloadSpec::paper_default(m_tuples, k);
    spec.s_tuples_modeled = 1; // only one relation is partitioned
    let w = spec.generate();
    let n = w.r.len() as u64;
    let bytes = n * TUPLE_BYTES;
    let gib = (1u64 << 30) as f64;
    let input = Span::cpu(0);
    let output = Span::cpu(1 << 40);

    let mut rows = Vec::new();
    for alg in Algorithm::all() {
        let part = make_partitioner(alg);
        for bits in FANOUTS {
            let pass = PassConfig::new(bits, 0);
            let (hist, _) = gpu_prefix_sum(&w.r.keys, &input, &pass, hw, false);
            let (_, cost) = part.partition(&w.r.keys, &w.r.rids, &hist, &input, &output, &pass, hw);
            let timing = cost.timing(hw);
            let link = triton_hw::LinkModel::new(&hw.link);
            let wire = cost.link.wire_cpu_to_gpu(&link).0 + cost.link.wire_gpu_to_cpu(&link).0;
            rows.push(Row {
                algorithm: alg,
                fanout: pass.fanout(),
                gibs: 2.0 * bytes as f64 / gib / timing.total.as_secs(),
                tuples_per_txn: cost.tuples_per_txn(),
                transfer_ratio: wire as f64 / (2 * bytes) as f64,
                iommu_requests_per_tuple: cost.tlb.full_misses as f64 * hw.tlb.requests_per_walk
                    / n as f64,
                issue_slot_util: StallProfile::from_timing(&cost, &timing, hw).instr_issued,
                stalls: StallProfile::from_timing(&cost, &timing, hw),
            });
        }
    }
    rows
}

/// The `alg` row at `fanout`.
fn at(rows: &[Row], alg: Algorithm, fanout: usize) -> Result<&Row, String> {
    row(rows, &format!("{alg:?} at fanout {fanout}"), |r| {
        r.algorithm == alg && r.fanout == fanout
    })
}

/// The committed sweep, `BENCH_fig18.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig18",
    schema: "triton-bench/fig18/v1",
    header: &[("m_tuples", Cell::Int(M_TUPLES))],
    columns: &[
        ("algorithm", |r| Cell::Str(r.algorithm.name())),
        ("fanout", |r| Cell::Int(r.fanout as u64)),
        ("gibs", |r| Cell::Num(r.gibs)),
        ("tuples_per_txn", |r| Cell::Num(r.tuples_per_txn)),
        ("transfer_ratio", |r| Cell::Num(r.transfer_ratio)),
        ("iommu_requests_per_tuple", |r| {
            Cell::Num(r.iommu_requests_per_tuple)
        }),
        ("issue_slot_util", |r| Cell::Num(r.issue_slot_util)),
        ("memory_dep", |r| Cell::Num(r.stalls.memory_dep)),
        ("sync", |r| Cell::Num(r.stalls.sync)),
    ],
    rows: 4 * FANOUTS.len(),
    run: |hw| run(hw, M_TUPLES),
    gates: &[
        (
            "Hierarchical keeps 60% at fanout 2048 and 1.5x Shared",
            |_, rows| {
                // Paper: 38.3 GiB/s even at fanout 2048 (vs ~50 at low fanouts).
                let h_low = at(rows, Algorithm::Hierarchical, 4)?.gibs;
                let h_high = at(rows, Algorithm::Hierarchical, 2048)?.gibs;
                let s_high = at(rows, Algorithm::Shared, 2048)?.gibs;
                ensure(h_high > 0.6 * h_low && h_high > 1.5 * s_high, || {
                    format!("hierarchical {h_low} -> {h_high}, shared {s_high}")
                })
            },
        ),
        (
            "coalescing: Shared and Hierarchical > 6 tuples/txn at 64",
            |_, rows| {
                // Linear only partially coalesces; Standard not at all.
                for alg in [Algorithm::Shared, Algorithm::Hierarchical] {
                    let r = at(rows, alg, 64)?;
                    ensure(r.tuples_per_txn > 6.0, || format!("{r:?}"))?;
                }
                let lin = at(rows, Algorithm::Linear, 2048)?;
                let std_ = at(rows, Algorithm::Standard, 64)?;
                ensure(
                    lin.tuples_per_txn < 4.0 && std_.tuples_per_txn <= 1.0,
                    || format!("linear {lin:?}, standard {std_:?}"),
                )
            },
        ),
        (
            "Linear's wire overhead 1.3x Hierarchical's, which stays < 1.6",
            |_, rows| {
                // Paper 18c: Linear's overhead reaches 156% of the transfer
                // volume; Hierarchical stays below 43%.
                let lin = at(rows, Algorithm::Linear, 2048)?.transfer_ratio;
                let hier = at(rows, Algorithm::Hierarchical, 2048)?.transfer_ratio;
                ensure(lin > hier * 1.3 && hier < 1.6, || {
                    format!("{lin} vs {hier}")
                })
            },
        ),
        (
            "at fanout 2048, Standard 20x and Shared 4x Hierarchical's IOMMU rate",
            |_, rows| {
                // Paper 18d: at fanout 2048 Hierarchical achieves 1436x, 100x
                // and 771x lower miss rates than Standard/Linear/Shared.
                let rate = |alg| at(rows, alg, 2048).map(|r| r.iommu_requests_per_tuple);
                let std_ = rate(Algorithm::Standard)?;
                let shared = rate(Algorithm::Shared)?;
                let hier = rate(Algorithm::Hierarchical)?;
                ensure(std_ > hier * 20.0 && shared > hier * 4.0, || {
                    format!("standard {std_}, shared {shared}, hierarchical {hier}")
                })
            },
        ),
        (
            "Hierarchical issue utilisation rises from fanout 4 to 2048",
            |_, rows| {
                // Paper 18e: utilisation below ~5% except Hierarchical reaching
                // ~43% at high fanouts.
                let low = at(rows, Algorithm::Hierarchical, 4)?.issue_slot_util;
                let high = at(rows, Algorithm::Hierarchical, 2048)?.issue_slot_util;
                ensure(high > low, || format!("{low} -> {high}"))
            },
        ),
    ],
};

gate_tests!(4096, {
    hierarchical_scales_to_high_fanout: [
        "Hierarchical keeps 60% at fanout 2048 and 1.5x Shared"
    ],
    shared_and_hierarchical_coalesce_perfectly_at_moderate_fanout: [
        "coalescing: Shared and Hierarchical > 6 tuples/txn at 64",
    ],
    protocol_overhead_shape: ["Linear's wire overhead 1.3x Hierarchical's, which stays < 1.6"],
    iommu_requests_hierarchy: [
        "at fanout 2048, Standard 20x and Shared 4x Hierarchical's IOMMU rate",
    ],
    hierarchical_compute_rises_at_high_fanout: [
        "Hierarchical issue utilisation rises from fanout 4 to 2048",
    ],
});
