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

use triton_core::{reference_join, JoinResult, SkewPolicy, TritonJoin};
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;

use crate::sweep::{ensure, every, gate_tests, row, Cell, Sweep};

/// The Zipf exponent axis of the sweep.
pub const THETA_AXIS: [f64; 8] = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75];

/// Default workload size in modeled M tuples (the paper's mid size).
pub const DEFAULT_M_TUPLES: u64 = 512;

/// The coarsest scale the θ = 1.5 gates hold at. Coarser scales shrink
/// the workload until its hottest pair fits staging: at K = 2048
/// neither executor spills and the policies tie.
pub const SPILL_SCALE: u64 = 1024;

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
    /// Join checksum (not a column).
    pub checksum: u64,
    /// `reference_join`'s result on this θ's workload (not a column):
    /// both policies share the executor, so agreeing with each other
    /// does not make them exact.
    pub reference: JoinResult,
}

fn measure(
    policy: &'static str,
    skew: SkewPolicy,
    w: &triton_datagen::Workload,
    hw: &HwConfig,
    theta: f64,
    reference: JoinResult,
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
        checksum: rep.result.checksum,
        reference,
    }
}

/// Run the sweep: both policies over [`THETA_AXIS`] on one workload
/// size. Results are asserted identical across policies at every point,
/// and each row carries the reference result of its workload.
pub fn run(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &theta in &THETA_AXIS {
        let w = WorkloadSpec::skewed(m_tuples, theta, hw.scale).generate();
        let reference = reference_join(&w);
        let off = measure("off", SkewPolicy::Off, &w, hw, theta, reference);
        let aware = measure("aware", SkewPolicy::aware(), &w, hw, theta, reference);
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
    gates: &[
        (
            "skew-aware total <= 0.85 x blind at theta 1.5",
            |hw, rows| {
                if hw.scale > SPILL_SCALE {
                    return Ok(());
                }
                let (off, aware) = at(rows, 1.5)?;
                ensure(aware.total_ns <= off.total_ns * 0.85, || {
                    let win = 1.0 - aware.total_ns / off.total_ns;
                    format!("aware only {:.1}% below blind", win * 100.0)
                })
            },
        ),
        (
            "blind spills and aware does not at theta 1.5",
            |hw, rows| {
                // The gap is the staging overflow the planner avoids.
                if hw.scale > SPILL_SCALE {
                    return Ok(());
                }
                let (off, aware) = at(rows, 1.5)?;
                ensure(off.spill_ns > 0.0 && aware.spill_ns <= 0.0, || {
                    format!(
                        "blind spill {} ns, aware spill {} ns",
                        off.spill_ns, aware.spill_ns
                    )
                })
            },
        ),
        ("aware <= blind on uniform keys", |_, rows| {
            // The planner declines to plan, and the gated LPT schedule can
            // only match or improve the submission order.
            let (off, aware) = at(rows, 0.0)?;
            ensure(aware.total_ns <= off.total_ns, || {
                format!("{} vs {}", aware.total_ns, off.total_ns)
            })
        }),
        ("aware within 10% of uniform at theta 1.75", |_, rows| {
            let (uniform, heavy) = (at(rows, 0.0)?.1, at(rows, 1.75)?.1);
            ensure(heavy.total_ns <= uniform.total_ns * 1.10, || {
                format!("{} vs {}", heavy.total_ns, uniform.total_ns)
            })
        }),
        ("every row equals reference_join", |_, rows| {
            every(rows, |r| {
                (r.matches, r.checksum) == (r.reference.matches, r.reference.checksum)
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

/// The blind and the skew-aware row at `theta`.
fn at(rows: &[Row], theta: f64) -> Result<(&Row, &Row), String> {
    let policy = |p: &str| {
        row(rows, &format!("{p} at theta {theta}"), |r| {
            r.policy == p && (r.theta - theta).abs() < 1e-9
        })
    };
    Ok((policy("off")?, policy("aware")?))
}

gate_tests!(1024, {
    aware_flat_while_blind_degrades: [
        "aware <= blind on uniform keys",
        "skew-aware total <= 0.85 x blind at theta 1.5",
        "aware within 10% of uniform at theta 1.75",
    ],
});
