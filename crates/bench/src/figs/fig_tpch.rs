//! TPC-H-shaped plan sweep: Q3/Q9-like select → join → join → aggregate
//! plans over Zipf-correlated foreign keys, GPU-resident pipelining vs
//! materialize-everything, over workload scale and skew.
//!
//! Expected shape: the pipelined executor keeps intermediate edges in
//! GPU memory whenever the footprint model says they fit beside every
//! downstream operator floor, so it never pays the per-edge `Materialize`
//! round-trip over the interconnect. Materialize-everything (the
//! degradation ladder's top plan rung) keeps answers exact but adds an
//! evict + reload leg per edge; the gap widens with scale because edge
//! bytes grow with the lineitem input while operator floors stay fixed.

use triton_datagen::{TpchQuery, TpchSpec};
use triton_hw::HwConfig;
use triton_plan::{reference_plan, tpch_query};

use crate::sweep::{ensure, every, Cell, Sweep};

/// The Zipf exponent axis of the foreign-key correlation.
pub const THETA_AXIS: [f64; 3] = [0.5, 1.0, 1.5];

/// Lineitem sizes in modeled M tuples.
pub const M_AXIS: [u64; 3] = [16, 64, 256];

/// The `--check` operating point: Q3 at θ = 1.0, mid scale.
pub const DEFAULT_M_TUPLES: u64 = 64;

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// `q3` or `q9`.
    pub query: &'static str,
    /// `pipelined` or `materialized`.
    pub mode: &'static str,
    /// Zipf exponent of the foreign keys.
    pub theta: f64,
    /// Lineitem size in modeled M tuples.
    pub m_tuples: u64,
    /// Simulated end-to-end plan time.
    pub total_ns: f64,
    /// Throughput in G tuples/s over all base relations.
    pub gtps: f64,
    /// Time spent in per-edge `Materialize` evict phases.
    pub materialize_ns: f64,
    /// Intermediate edges kept GPU-resident.
    pub resident_edges: u64,
    /// Intermediate edges round-tripped to host memory.
    pub materialized_edges: u64,
    /// Peak concurrent operator footprint (the admission reservation).
    pub peak_footprint_bytes: u64,
    /// Root aggregate groups, for cross-mode sanity.
    pub groups: u64,
    /// Root aggregate digest, for cross-mode sanity.
    pub sum_digest: u64,
}

fn spec_for(query: TpchQuery, m: u64, theta: f64, k: u64) -> TpchSpec {
    let mut spec = match query {
        TpchQuery::Q3 => TpchSpec::q3(m, k),
        TpchQuery::Q9 => TpchSpec::q9(m, k),
    };
    spec.zipf_theta = theta;
    spec
}

fn measure(
    mode: &'static str,
    force_materialize: bool,
    w: &triton_datagen::TpchWorkload,
    hw: &HwConfig,
) -> Row {
    let mut q = tpch_query(w);
    q.force_materialize = force_materialize;
    let run = q.run(hw).expect("plan within scaled capacity");
    let (resident, spilled) = run.edge_counts();
    let tuples = q.input_tuples();
    Row {
        query: w.spec.query.label(),
        mode,
        theta: w.spec.zipf_theta,
        m_tuples: w.spec.lineitem_tuples_modeled / 1_000_000,
        total_ns: run.report.total.0,
        gtps: tuples as f64 / (run.report.total.0 / 1e9) / 1e9,
        materialize_ns: run.materialize_time().0,
        resident_edges: resident,
        materialized_edges: spilled,
        peak_footprint_bytes: run.footprint.peak,
        groups: run.agg.groups,
        sum_digest: run.agg.sum_digest,
    }
}

/// Run the sweep: both queries over [`THETA_AXIS`] × `m_axis`, each
/// point measured pipelined and materialize-everything. Both modes are
/// asserted to produce the oracle's exact aggregate at every point.
pub fn run(hw: &HwConfig, m_axis: &[u64]) -> Vec<Row> {
    let mut rows = Vec::new();
    for query in [TpchQuery::Q3, TpchQuery::Q9] {
        for &theta in &THETA_AXIS {
            for &m in m_axis {
                let w = spec_for(query, m, theta, hw.scale).generate();
                let expect = {
                    let q = tpch_query(&w);
                    reference_plan(q.plan(), q.inputs())
                };
                let piped = measure("pipelined", false, &w, hw);
                let mat = measure("materialized", true, &w, hw);
                for r in [&piped, &mat] {
                    assert_eq!(
                        (r.groups, r.sum_digest),
                        (expect.groups, expect.sum_digest),
                        "{query:?} {} diverged from the oracle at theta {theta}, {m} M",
                        r.mode
                    );
                }
                rows.push(piped);
                rows.push(mat);
            }
        }
    }
    rows
}

/// The committed sweep, `BENCH_tpch.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "tpch",
    schema: "triton-bench/fig-tpch/v1",
    header: &[("default_m_tuples", Cell::Int(DEFAULT_M_TUPLES))],
    columns: &[
        ("query", |r| Cell::Str(r.query)),
        ("mode", |r| Cell::Str(r.mode)),
        ("theta", |r| Cell::Num(r.theta)),
        ("m_tuples", |r| Cell::Int(r.m_tuples)),
        ("total_ns", |r| Cell::Num(r.total_ns)),
        ("gtps", |r| Cell::Num(r.gtps)),
        ("materialize_ns", |r| Cell::Num(r.materialize_ns)),
        ("resident_edges", |r| Cell::Int(r.resident_edges)),
        ("materialized_edges", |r| Cell::Int(r.materialized_edges)),
        ("peak_footprint_bytes", |r| {
            Cell::Int(r.peak_footprint_bytes)
        }),
        ("groups", |r| Cell::Int(r.groups)),
        ("sum_digest", |r| Cell::Int(r.sum_digest)),
    ],
    rows: 2 * 2 * THETA_AXIS.len() * M_AXIS.len(),
    run: |hw| run(hw, &M_AXIS),
    print,
    gates: &[
        (
            "pipelined < materialized at the Q3 operating point",
            |_, rows| {
                let win = win_at_q3_operating_point(rows).ok_or("operating point missing")?;
                ensure(win > 0.0, || {
                    format!("pipelined slower by {:.2}%", -win * 100.0)
                })
            },
        ),
        ("materialized rows keep no edge resident", |_, rows| {
            every(rows, |r| r.mode != "materialized" || r.resident_edges == 0)
        }),
        ("materialized rows pay materialize time", |_, rows| {
            every(rows, |r| r.mode != "materialized" || r.materialize_ns > 0.0)
        }),
        (
            "modes agree on groups and sum_digest at every point",
            |_, rows| {
                every(rows, |r| {
                    rows.iter()
                        .filter(|o| {
                            (o.query, o.theta, o.m_tuples) == (r.query, r.theta, r.m_tuples)
                        })
                        .all(|o| (o.groups, o.sum_digest) == (r.groups, r.sum_digest))
                })
            },
        ),
    ],
};

/// Pipelined total relative to materialize-everything at the Q3
/// operating point (θ = 1.0, [`DEFAULT_M_TUPLES`]); `None` if the sweep
/// is missing that point.
pub fn win_at_q3_operating_point(rows: &[Row]) -> Option<f64> {
    let at = |mode: &str| {
        rows.iter()
            .find(|r| {
                r.query == "q3"
                    && r.mode == mode
                    && (r.theta - 1.0).abs() < 1e-9
                    && r.m_tuples == DEFAULT_M_TUPLES
            })
            .map(|r| r.total_ns)
    };
    Some(1.0 - at("pipelined")? / at("materialized")?)
}

/// Print the sweep's table.
pub fn print(rows: &[Row]) {
    crate::banner(
        "Fig TPC-H",
        "Q3/Q9 plans: GPU-resident pipelining vs materialize-everything",
    );
    let mut t = crate::Table::new([
        "query",
        "mode",
        "theta",
        "M tuples",
        "total (us)",
        "G tuples/s",
        "matz (us)",
        "edges r/m",
        "peak (KiB)",
    ]);
    for r in rows {
        t.row([
            r.query.to_string(),
            r.mode.to_string(),
            format!("{:.2}", r.theta),
            r.m_tuples.to_string(),
            format!("{:.1}", r.total_ns / 1e3),
            crate::f3(r.gtps),
            format!("{:.1}", r.materialize_ns / 1e3),
            format!("{}/{}", r.resident_edges, r.materialized_edges),
            (r.peak_footprint_bytes / 1024).to_string(),
        ]);
    }
    t.print();
    if let Some(win) = win_at_q3_operating_point(rows) {
        println!(
            "pipelined win at the Q3 operating point: {:.1}%",
            win * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_wins_at_every_point() {
        let hw = HwConfig::ac922().scaled(2048);
        let rows = run(&hw, &[4]);
        assert_eq!(rows.len(), 2 * THETA_AXIS.len() * 2);
        for pair in rows.chunks(2) {
            let (piped, mat) = (&pair[0], &pair[1]);
            assert_eq!(piped.mode, "pipelined");
            assert_eq!(mat.mode, "materialized");
            assert!(
                piped.total_ns < mat.total_ns,
                "{} theta {}: pipelined {} not faster than materialized {}",
                piped.query,
                piped.theta,
                piped.total_ns,
                mat.total_ns
            );
            assert!(piped.resident_edges > 0);
            assert_eq!(mat.resident_edges, 0);
            assert!(mat.materialize_ns > 0.0);
            assert_eq!(piped.groups, mat.groups);
        }
    }
}
