//! Fig 24: compute power required for high throughput — Triton join
//! throughput while scaling the number of streaming multiprocessors, plus
//! the time breakdown explaining the scaling.
//!
//! Expected shape (Section 6.2.12): fast scaling up to ~25 SMs while the
//! partitioning passes are compute bound, then the first pass becomes
//! interconnect bound and the curve flattens; 28 SMs reach 75% and 55 SMs
//! 95% of peak. Conclusion: the Triton join is interconnect bound — a
//! faster GPU would not help, a faster interconnect would.

use triton_core::TritonJoin;
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;

use crate::sweep::{ensure, gate_tests, row, Cell, Sweep};

/// Workload size in modeled M tuples (the paper's mid size).
pub const M_TUPLES: u64 = 512;

/// One SM-count point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Number of SMs enabled.
    pub sms: u32,
    /// Workload in modeled M tuples.
    pub m_tuples: u64,
    /// Throughput as a percentage of the 80-SM throughput.
    pub pct_of_max: f64,
    /// Per-kernel time shares at this SM count.
    pub breakdown: Vec<(String, f64)>,
}

/// The SM axis.
pub const SM_AXIS: [u32; 9] = [5, 10, 15, 20, 28, 40, 55, 70, 80];

/// Run the sweep for one workload.
pub fn run(hw_base: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let k = hw_base.scale;
    let w = WorkloadSpec::paper_default(m_tuples, k).generate();
    let join = TritonJoin {
        gpu_prefix_sum: true,
        ..TritonJoin::default()
    };
    let full = join.run(&w, &hw_base.clone().with_sms(80));
    let max_tput = full.throughput_gtps();
    SM_AXIS
        .iter()
        .map(|&sms| {
            let hw = hw_base.clone().with_sms(sms);
            let rep = join.run(&w, &hw);
            Row {
                sms,
                m_tuples,
                pct_of_max: rep.throughput_gtps() / max_tput * 100.0,
                breakdown: rep.time_breakdown(),
            }
        })
        .collect()
}

impl Row {
    /// `kernel`'s share of the time at this SM count (0..1).
    fn share(&self, kernel: &str) -> f64 {
        self.breakdown
            .iter()
            .find(|(n, _)| n == kernel)
            .map_or(0.0, |(_, f)| *f)
    }
}

/// Throughput at `sms` SMs in percent of the 80-SM throughput.
fn pct_at(rows: &[Row], sms: u32) -> Result<f64, String> {
    row(rows, &format!("{sms} SMs"), |r| r.sms == sms).map(|r| r.pct_of_max)
}

/// The committed sweep, `BENCH_fig24.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig24",
    schema: "triton-bench/fig24/v1",
    header: &[("m_tuples", Cell::Int(M_TUPLES))],
    columns: &[
        ("sms", |r| Cell::Int(r.sms.into())),
        ("pct_of_max", |r| Cell::Num(r.pct_of_max)),
        ("part1_share", |r| Cell::Num(r.share("Part 1"))),
        ("join_share", |r| Cell::Num(r.share("Join"))),
    ],
    rows: SM_AXIS.len(),
    run: |hw| run(hw, M_TUPLES),
    gates: &[
        ("28 SMs reach 70% and 55 SMs 90% of peak", |_, rows| {
            // Paper: 28 SMs -> >= 75% of peak; 55 SMs -> >= 95%.
            let (at28, at55) = (pct_at(rows, 28)?, pct_at(rows, 55)?);
            ensure(at28 >= 70.0 && at55 >= 90.0, || format!("{at28}%, {at55}%"))
        }),
        (
            "throughput never drops > 3 points with more SMs",
            |_, rows| {
                for w in rows.windows(2) {
                    ensure(w[1].pct_of_max >= w[0].pct_of_max - 3.0, || {
                        format!(
                            "{} SMs: {} -> {}",
                            w[1].sms, w[0].pct_of_max, w[1].pct_of_max
                        )
                    })?;
                }
                Ok(())
            },
        ),
        ("10 -> 20 SMs gains more than 70 -> 80", |_, rows| {
            let low_gain = pct_at(rows, 20)? - pct_at(rows, 10)?;
            let high_gain = pct_at(rows, 80)? - pct_at(rows, 70)?;
            ensure(low_gain > high_gain, || {
                format!("+{low_gain} early vs +{high_gain} late")
            })
        }),
    ],
};

gate_tests!(2048, {
    throughput_saturates_before_full_sm_count: [
        "28 SMs reach 70% and 55 SMs 90% of peak",
        "throughput never drops > 3 points with more SMs",
    ],
    diminishing_returns_at_the_top: ["10 -> 20 SMs gains more than 70 -> 80"],
});
