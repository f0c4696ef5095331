//! Ablations of the Triton join's design choices — experiments beyond the
//! paper's figures that isolate each mechanism DESIGN.md calls out:
//!
//! * **overlap** — concurrent kernels on split SM sets (Section 5.2) vs
//!   serial stages on the whole GPU;
//! * **interleave** — evenly interleaved cache pages (Section 5.3) vs the
//!   classic prefix cache the paper argues against;
//! * **L2 tier size** — the Hierarchical partitioner's second-level
//!   buffer size (its only tuning knob);
//! * **page size** — 64 KiB vs 2 MiB vs 1 GiB huge pages (Section 2.1
//!   lists the sizes; Section 6.1 preallocates 2 MiB — this quantifies
//!   why);
//! * **NUMA placement** — base relations on the near vs far socket;
//! * **Bloom pre-filter** — the Section 7 extension, swept over the
//!   probe-side match fraction.

use triton_core::{NoPartitioningJoin, TritonJoin};
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;
use triton_part::{gpu_prefix_sum, GpuPartitioner, HierarchicalSwwc, PassConfig, SharedSwwc, Span};

use crate::sweep::{ensure, gate_tests, row, Cell, Sweep};

/// A generic (setting, value, G tuples/s) ablation row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The ablation family.
    pub ablation: &'static str,
    /// The setting within the family.
    pub setting: String,
    /// Measured throughput in G tuples/s (or GiB/s for partition-level
    /// ablations, as labelled).
    pub value: f64,
}

/// Overlap and interleave ablations over one workload.
pub fn run_join_ablations(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let k = hw.scale;
    let w = WorkloadSpec::paper_default(m_tuples, k).generate();
    let mut rows = Vec::new();
    for (name, join) in [
        ("baseline", TritonJoin::default()),
        (
            "no overlap",
            TritonJoin {
                overlap: false,
                ..TritonJoin::default()
            },
        ),
        (
            "prefix cache",
            TritonJoin {
                interleaved_cache: false,
                ..TritonJoin::default()
            },
        ),
        (
            "no cache",
            TritonJoin {
                caching_enabled: false,
                ..TritonJoin::default()
            },
        ),
        (
            "no third pass",
            TritonJoin {
                third_pass: false,
                ..TritonJoin::default()
            },
        ),
    ] {
        rows.push(Row {
            ablation: "join design",
            setting: format!("{name} @{m_tuples}M"),
            value: join.run(&w, hw).throughput_gtps(),
        });
    }
    rows
}

/// Second-tier ablation at fanout 2048: no tier at all (Shared) vs
/// Hierarchical with increasing L2 buffer sizes. The decisive step is
/// *having* the tier — it restores whole-line flushes; growing it beyond
/// one line mainly reduces flush bookkeeping.
pub fn run_l2_sweep(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let k = hw.scale;
    let w = WorkloadSpec::paper_default(m_tuples, k).generate();
    let bits = 11;
    let pass = PassConfig::new(bits, 0);
    let input = Span::cpu(0);
    let output = Span::cpu(1 << 40);
    let gib = (1u64 << 30) as f64;
    let (hist, _) = gpu_prefix_sum(&w.r.keys, &input, &pass, hw, false);
    let measure = |p: &dyn GpuPartitioner, label: String| {
        let (_, cost) = p.partition(&w.r.keys, &w.r.rids, &hist, &input, &output, &pass, hw);
        Row {
            ablation: "second tier (GiB/s @fanout 2048)",
            setting: label,
            value: w.r.len() as f64 * 16.0 / gib / cost.timing(hw).total.as_secs(),
        }
    };
    let mut rows = vec![measure(&SharedSwwc, "none (Shared)".into())];
    for l2 in [8usize, 32, 128, 256] {
        let p = HierarchicalSwwc { l2_tuples: l2 };
        rows.push(measure(&p, format!("L2 = {l2} tuples")));
    }
    rows
}

/// Page-size ablation: the TLB reach shrinks with the page size.
pub fn run_page_size(hw_base: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let k = hw_base.scale;
    let w = WorkloadSpec::paper_default(m_tuples, k).generate();
    let mut rows = Vec::new();
    for (label, bytes) in [
        ("64 KiB", 64u64 << 10),
        ("2 MiB (paper)", 2 << 20),
        ("1 GiB", 1 << 30),
    ] {
        let hw = hw_base.clone().with_page_size_modeled(bytes);
        rows.push(Row {
            ablation: "page size (Triton)",
            setting: label.into(),
            value: TritonJoin::default().run(&w, &hw).throughput_gtps(),
        });
        rows.push(Row {
            ablation: "page size (NPJ perfect)",
            setting: label.into(),
            value: NoPartitioningJoin::perfect().run(&w, &hw).throughput_gtps(),
        });
    }
    rows
}

/// NUMA placement ablation.
pub fn run_numa(hw_base: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let k = hw_base.scale;
    let w = WorkloadSpec::paper_default(m_tuples, k).generate();
    let far = hw_base.clone().with_far_numa();
    vec![
        Row {
            ablation: "NUMA placement",
            setting: "near socket (paper)".into(),
            value: TritonJoin::default().run(&w, hw_base).throughput_gtps(),
        },
        Row {
            ablation: "NUMA placement",
            setting: "far socket".into(),
            value: TritonJoin::default().run(&w, &far).throughput_gtps(),
        },
    ]
}

/// Bloom pre-filter over the probe-side match fraction.
pub fn run_bloom(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let k = hw.scale;
    let mut rows = Vec::new();
    for frac in [1.0f64, 0.5, 0.2, 0.05] {
        let w = WorkloadSpec::selective(m_tuples, frac, k).generate();
        let plain = TritonJoin::default().run(&w, hw);
        let bloom = TritonJoin {
            bloom_prefilter: true,
            ..TritonJoin::default()
        }
        .run(&w, hw);
        assert_eq!(plain.result, bloom.result);
        rows.push(Row {
            ablation: "bloom prefilter",
            setting: format!("match {:.0}% off", frac * 100.0),
            value: plain.throughput_gtps(),
        });
        rows.push(Row {
            ablation: "bloom prefilter",
            setting: format!("match {:.0}% on", frac * 100.0),
            value: bloom.throughput_gtps(),
        });
    }
    rows
}

/// Every ablation family at its workload size.
pub fn run(hw: &HwConfig) -> Vec<Row> {
    let mut all = run_join_ablations(hw, 512);
    all.extend(run_join_ablations(hw, 2048));
    all.extend(run_l2_sweep(hw, 1024));
    all.extend(run_page_size(hw, 1024));
    all.extend(run_numa(hw, 1024));
    all.extend(run_bloom(hw, 2048));
    all
}

/// The value of the `ablation` row whose setting starts with `setting`.
fn value(rows: &[Row], ablation: &str, setting: &str) -> Result<f64, String> {
    row(rows, &format!("{ablation}: {setting}"), |r| {
        r.ablation == ablation && r.setting.starts_with(setting)
    })
    .map(|r| r.value)
}

/// The committed sweep, `BENCH_ablations.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "ablations",
    schema: "triton-bench/ablations/v1",
    header: &[],
    columns: &[
        ("ablation", |r| Cell::Str(r.ablation)),
        ("setting", |r| Cell::Str(&r.setting)),
        ("value", |r| Cell::Num(r.value)),
    ],
    rows: 31,
    run,
    gates: &[
        (
            "at 2048 M, overlap, interleave and caching pay off",
            |_, rows| {
                let at = |s: &str| value(rows, "join design", &format!("{s} @2048M"));
                let (base, no_overlap) = (at("baseline")?, at("no overlap")?);
                let (prefix, no_cache) = (at("prefix cache")?, at("no cache")?);
                // Prefix caching still beats no caching (it saves volume,
                // just not overlap).
                ensure(
                    base > no_overlap
                        && base >= prefix * 0.999
                        && base > no_cache
                        && prefix > no_cache,
                    || {
                        format!("base {base}, no overlap {no_overlap}, prefix {prefix}, no cache {no_cache}")
                    },
                )
            },
        ),
        (
            "the second tier gives 1.8x and growing it never hurts",
            |_, rows| {
                // Having the tier at all is the decisive step (sub-line
                // flushes vs whole lines).
                let at = |s: &str| value(rows, "second tier (GiB/s @fanout 2048)", s);
                let (none, with_tier, largest) = (at("none")?, at("L2 = 8 ")?, at("L2 = 256")?);
                ensure(
                    with_tier > none * 1.8 && largest >= with_tier * 0.95,
                    || format!("none {none}, L2 = 8 {with_tier}, L2 = 256 {largest}"),
                )
            },
        ),
        (
            "NPJ runs 2x faster on 2 MiB pages than on 64 KiB",
            |_, rows| {
                // With 64 KiB pages the TLB reach shrinks 32x: the out-of-core
                // NPJ collapses much earlier.
                let small = value(rows, "page size (NPJ perfect)", "64 KiB")?;
                let huge = value(rows, "page size (NPJ perfect)", "2 MiB")?;
                ensure(huge > small * 2.0, || {
                    format!("2 MiB {huge} vs 64 KiB {small}")
                })
            },
        ),
        ("the far socket costs 1.2x", |_, rows| {
            let near = value(rows, "NUMA placement", "near")?;
            let far = value(rows, "NUMA placement", "far")?;
            ensure(near > far * 1.2, || format!("near {near} vs far {far}"))
        }),
        (
            "Bloom costs <= 2% at full match and gains 1.2x at 5%",
            |_, rows| {
                // Out of core, dropped probe tuples save spill traffic, not
                // just instructions.
                let at = |s: &str| value(rows, "bloom prefilter", s);
                let (full_on, full_off) = (at("match 100% on")?, at("match 100% off")?);
                let (sel_on, sel_off) = (at("match 5% on")?, at("match 5% off")?);
                ensure(full_on <= full_off * 1.02 && sel_on > sel_off * 1.2, || {
                    format!("100%: {full_on} vs {full_off}; 5%: {sel_on} vs {sel_off}")
                })
            },
        ),
    ],
};

gate_tests!(2048, {
    overlap_and_interleave_pay_off: ["at 2048 M, overlap, interleave and caching pay off"],
    second_tier_restores_whole_line_flushes: [
        "the second tier gives 1.8x and growing it never hurts",
    ],
    small_pages_hurt_out_of_core_joins: ["NPJ runs 2x faster on 2 MiB pages than on 64 KiB"],
    far_numa_costs_throughput: ["the far socket costs 1.2x"],
    bloom_helps_exactly_when_selective: [
        "Bloom costs <= 2% at full match and gains 1.2x at 5%",
    ],
});
