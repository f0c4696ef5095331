//! Skew sweep: the Triton join under Zipf-distributed probe keys,
//! blind (`SkewPolicy::Off`) vs skew-aware (hotness-weighted placement,
//! LPT pipeline scheduling, heavy-hitter chunking).
//!
//! Expected shape (Section 6.2.6 / Fig 16 workloads): both executors
//! track each other up to θ ≈ 1.0. Past it the hottest partition pair
//! outgrows the staging area the uniform pipeline reservation leaves
//! free, and the blind executor starts paying the overflow round-trip
//! over the interconnect (the `Spill` phase); the skew-aware executor
//! plans placement from the histograms and streams heavy pairs through
//! staging in probe-side chunks, staying flat. At θ = 1.5 the paper
//! workload's skew-aware total is ≥ 15% lower.

use triton_core::{SkewPolicy, TritonJoin};
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;

use crate::sweep::{ensure, every, Cell, Sweep};

/// The Zipf exponent axis of the sweep.
pub const THETA_AXIS: [f64; 8] = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75];

/// Default workload size in modeled M tuples (the paper's mid size).
pub const DEFAULT_M_TUPLES: u64 = 512;

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// `off` or `aware`.
    pub policy: &'static str,
    /// Zipf exponent of the probe keys.
    pub theta: f64,
    /// Simulated end-to-end time.
    pub total_ns: f64,
    /// Throughput in G tuples/s.
    pub gtps: f64,
    /// Time spent in the staging-overflow `Spill` phase (blind executor
    /// under heavy skew; always zero for the skew-aware executor).
    pub spill_ns: f64,
    /// Working-set bytes held GPU-resident.
    pub cache_hit_bytes: u64,
    /// Working-set bytes spilled to CPU memory.
    pub cache_spilled_bytes: u64,
    /// Partition pairs fully cached.
    pub pairs_cached: u64,
    /// Pipeline lanes (exceeds the pair count when heavy pairs are
    /// chunked).
    pub lanes: u64,
    /// Join matches, for cross-policy sanity.
    pub matches: u64,
}

fn measure(
    policy: &'static str,
    skew: SkewPolicy,
    w: &triton_datagen::Workload,
    hw: &HwConfig,
    theta: f64,
) -> Row {
    let rep = TritonJoin {
        skew,
        ..TritonJoin::default()
    }
    .run(w, hw);
    let placement = rep.placement.as_ref().expect("triton reports placement");
    Row {
        policy,
        theta,
        total_ns: rep.total.0,
        gtps: rep.throughput_gtps(),
        spill_ns: rep
            .phases
            .iter()
            .find(|p| p.name == "Spill")
            .map(|p| p.time.0)
            .unwrap_or(0.0),
        cache_hit_bytes: placement.cache_hit_bytes,
        cache_spilled_bytes: placement.spilled_bytes,
        pairs_cached: placement.pairs_cached(),
        lanes: rep
            .overlap
            .as_ref()
            .map(|o| o.stage_a.len() as u64)
            .unwrap_or(0),
        matches: rep.result.matches,
    }
}

/// Run the sweep: both policies over [`THETA_AXIS`] on one workload
/// size. Results are asserted identical across policies at every point.
pub fn run(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &theta in &THETA_AXIS {
        let w = WorkloadSpec::skewed(m_tuples, theta, hw.scale).generate();
        let off = measure("off", SkewPolicy::Off, &w, hw, theta);
        let aware = measure("aware", SkewPolicy::aware(), &w, hw, theta);
        assert_eq!(
            off.matches, aware.matches,
            "policies diverged at theta {theta}"
        );
        rows.push(off);
        rows.push(aware);
    }
    rows
}

/// The committed sweep, `BENCH_skew.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "skew",
    schema: "triton-bench/fig-skew/v1",
    header: &[("m_tuples", Cell::Int(DEFAULT_M_TUPLES))],
    columns: &[
        ("policy", |r| Cell::Str(r.policy)),
        ("theta", |r| Cell::Num(r.theta)),
        ("total_ns", |r| Cell::Num(r.total_ns)),
        ("gtps", |r| Cell::Num(r.gtps)),
        ("spill_ns", |r| Cell::Num(r.spill_ns)),
        ("cache_hit_bytes", |r| Cell::Int(r.cache_hit_bytes)),
        ("cache_spilled_bytes", |r| Cell::Int(r.cache_spilled_bytes)),
        ("pairs_cached", |r| Cell::Int(r.pairs_cached)),
        ("lanes", |r| Cell::Int(r.lanes)),
        ("matches", |r| Cell::Int(r.matches)),
    ],
    rows: 2 * THETA_AXIS.len(),
    run: |hw| run(hw, DEFAULT_M_TUPLES),
    print,
    gates: &[
        ("skew-aware total <= blind at theta 1.5", |_, rows| {
            let win = win_at_theta_1_5(rows).ok_or("theta 1.5 missing")?;
            ensure(win >= 0.0, || {
                format!("aware exceeds blind by {:.2}%", -win * 100.0)
            })
        }),
        ("policies agree on matches at every theta", |_, rows| {
            every(rows, |r| {
                rows.iter()
                    .filter(|o| o.theta == r.theta)
                    .all(|o| o.matches == r.matches)
            })
        }),
    ],
};

/// Skew-aware total at θ = 1.5 relative to blind; `None` if the axis
/// point is missing.
pub fn win_at_theta_1_5(rows: &[Row]) -> Option<f64> {
    let at = |policy: &str| {
        rows.iter()
            .find(|r| r.policy == policy && (r.theta - 1.5).abs() < 1e-9)
            .map(|r| r.total_ns)
    };
    Some(1.0 - at("aware")? / at("off")?)
}

/// Print the sweep's table.
pub fn print(rows: &[Row]) {
    crate::banner("Fig skew", "Zipf sweep: blind vs skew-aware Triton");
    let mut t = crate::Table::new([
        "policy",
        "theta",
        "total (us)",
        "G tuples/s",
        "spill (us)",
        "cached pairs",
        "lanes",
    ]);
    for r in rows {
        t.row([
            r.policy.to_string(),
            format!("{:.2}", r.theta),
            format!("{:.1}", r.total_ns / 1e3),
            crate::f3(r.gtps),
            format!("{:.1}", r.spill_ns / 1e3),
            r.pairs_cached.to_string(),
            r.lanes.to_string(),
        ]);
    }
    t.print();
    if let Some(win) = win_at_theta_1_5(rows) {
        println!("skew-aware win at theta 1.5: {:.1}%", win * 100.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(rows: &[Row], policy: &str, theta: f64) -> f64 {
        rows.iter()
            .find(|r| r.policy == policy && (r.theta - theta).abs() < 1e-9)
            .map(|r| r.total_ns)
            .unwrap()
    }

    #[test]
    fn aware_flat_while_blind_degrades() {
        let hw = HwConfig::ac922().scaled(1024);
        let rows = run(&hw, 512);
        // Uniform: the planner declines to plan, and the gated LPT
        // schedule can only match or improve the submission order.
        let off0 = total(&rows, "off", 0.0);
        let aware0 = total(&rows, "aware", 0.0);
        assert!(
            aware0 <= off0,
            "aware must not exceed blind at theta 0: {aware0} vs {off0}"
        );
        // Heavy skew: blind pays the staging overflow, aware does not.
        assert!(
            total(&rows, "aware", 1.5) <= total(&rows, "off", 1.5),
            "aware must not exceed blind at theta 1.5"
        );
        let aware175 = total(&rows, "aware", 1.75);
        assert!(
            aware175 <= aware0 * 1.10,
            "aware should stay near-flat across the sweep: {aware175} vs {aware0}"
        );
    }
}
