//! Elastic vs fixed memory grants under admission bursts.
//!
//! A burst of deadline-holding tenants arrives at once. Under *fixed*
//! grants, early admissions keep their full optional cache share for
//! life, so late arrivals find no room for their pipeline floors, wait
//! out their deadline budget head-of-line, and are shed. Under *elastic*
//! grants the scheduler shrinks running queries' cache grants in place
//! (a priced, traced revision) to free the floor bytes, admits the
//! burst, and completes everything — with byte-identical join results,
//! since grants move placement and time, never answers.

use triton_core::reference_join;
use triton_datagen::WorkloadSpec;
use triton_exec::{JoinQuery, Scheduler, SchedulerConfig};
use triton_hw::units::Ns;
use triton_hw::HwConfig;

use crate::sweep::{ensure, every, Cell, Sweep};

/// Burst sizes swept (simultaneous deadline-holding arrivals). Capped
/// where all pipeline floors still fit the GPU together — beyond that
/// no grant policy can admit the whole burst at once.
pub const BURST_AXIS: [u64; 3] = [2, 4, 6];

/// Workload size per tenant in modeled M tuples.
pub const DEFAULT_M_TUPLES: u64 = 64;

/// Deadline budget as a multiple of one tenant's dedicated run time:
/// generous next to an immediate admission, fatal when a fixed-grant
/// scheduler parks the query behind a full-length head-of-line run.
pub const DEADLINE_FACTOR: f64 = 0.6;

/// One measured point: one policy serving one burst size.
#[derive(Debug, Clone)]
pub struct Row {
    /// `elastic` or `fixed`.
    pub policy: &'static str,
    /// Queries arriving together at t = 0.
    pub burst: u64,
    /// Queries that completed.
    pub completed: u64,
    /// Queries shed (deadline expired while waiting for memory).
    pub shed: u64,
    /// p99 completion latency over the burst.
    pub p99_ns: f64,
    /// End-to-end makespan.
    pub makespan_ns: f64,
    /// Grant revisions issued (always zero under the fixed policy).
    pub grant_revisions: u64,
    /// Cache bytes reclaimed by shrink revisions.
    pub grant_reclaimed_bytes: u64,
    /// Every completed result matched the reference join byte-for-byte.
    pub exact: bool,
}

/// The burst at scale `k`: `n` tenants, distinct workloads, all
/// arriving at t = 0 with the same deadline budget.
fn burst(k: u64, n: u64, m_tuples: u64, deadline: Ns) -> Vec<JoinQuery> {
    (0..n)
        .map(|i| {
            let mut spec = WorkloadSpec::paper_default(m_tuples, k);
            spec.seed ^= i << 32;
            let mut q = JoinQuery::new(format!("burst-{i}"), spec.generate(), Ns::ZERO);
            q.deadline = Some(deadline);
            q
        })
        .collect()
}

/// One tenant's dedicated run time on an otherwise idle machine — the
/// unit the deadline budget is expressed in.
pub fn dedicated_ns(hw: &HwConfig, m_tuples: u64) -> f64 {
    let one = burst(hw.scale, 1, m_tuples, Ns(f64::INFINITY));
    Scheduler::new(hw.clone(), SchedulerConfig::serial())
        .run(one)
        .metrics
        .makespan
        .0
}

fn wide(config: SchedulerConfig) -> SchedulerConfig {
    SchedulerConfig {
        // Concurrency bounded by memory, not the inflight cap, so the
        // grant policy is the only difference between the two runs.
        max_inflight: 16,
        ..config
    }
}

fn measure(
    policy: &'static str,
    config: SchedulerConfig,
    queries: &[JoinQuery],
    hw: &HwConfig,
) -> Row {
    let res = Scheduler::new(hw.clone(), wide(config)).run(queries.to_vec());
    let exact = queries
        .iter()
        .zip(&res.outcomes)
        .all(|(q, o)| match o.completed() {
            Some(c) => c.report.result == reference_join(&q.workload),
            None => true,
        });
    Row {
        policy,
        burst: queries.len() as u64,
        completed: res.metrics.completed,
        shed: res.metrics.rejected,
        p99_ns: res.metrics.latency_p99.0,
        makespan_ns: res.metrics.makespan.0,
        grant_revisions: res.metrics.grant_revisions,
        grant_reclaimed_bytes: res.metrics.grant_reclaimed.0,
        exact,
    }
}

/// Run the sweep: both grant policies over [`BURST_AXIS`].
pub fn run(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let deadline = Ns(dedicated_ns(hw, m_tuples) * DEADLINE_FACTOR);
    let mut rows = Vec::new();
    for &n in &BURST_AXIS {
        let queries = burst(hw.scale, n, m_tuples, deadline);
        rows.push(measure("elastic", SchedulerConfig::default(), &queries, hw));
        rows.push(measure(
            "fixed",
            SchedulerConfig::fixed_grants(),
            &queries,
            hw,
        ));
    }
    rows
}

/// The committed sweep, `BENCH_elastic.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "elastic",
    schema: "triton-bench/fig-elastic/v1",
    header: &[
        ("m_tuples", Cell::Int(DEFAULT_M_TUPLES)),
        ("deadline_factor", Cell::Num(DEADLINE_FACTOR)),
    ],
    columns: &[
        ("policy", |r| Cell::Str(r.policy)),
        ("burst", |r| Cell::Int(r.burst)),
        ("completed", |r| Cell::Int(r.completed)),
        ("shed", |r| Cell::Int(r.shed)),
        ("p99_ns", |r| Cell::Num(r.p99_ns)),
        ("makespan_ns", |r| Cell::Num(r.makespan_ns)),
        ("grant_revisions", |r| Cell::Int(r.grant_revisions)),
        ("grant_reclaimed_bytes", |r| {
            Cell::Int(r.grant_reclaimed_bytes)
        }),
        ("exact", |r| Cell::Bool(r.exact)),
    ],
    rows: 2 * BURST_AXIS.len(),
    run: |hw| run(hw, DEFAULT_M_TUPLES),
    gates: &[
        ("elastic sheds nothing", |_, rows| {
            every(rows, |r| r.policy != "elastic" || r.shed == 0)
        }),
        ("fixed sheds at least once", |_, rows| {
            let fixed: u64 = rows
                .iter()
                .filter(|r| r.policy == "fixed")
                .map(|r| r.shed)
                .sum();
            ensure(fixed >= 1, || "no burst made the fixed policy shed".into())
        }),
        ("every result exact", |_, rows| every(rows, |r| r.exact)),
        ("completed + shed == burst", |_, rows| {
            every(rows, |r| r.completed + r.shed == r.burst)
        }),
        ("fixed grants never revise", |_, rows| {
            every(rows, |r| r.policy != "fixed" || r.grant_revisions == 0)
        }),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_absorbs_the_burst_fixed_sheds() {
        // Off the committed scale the burst still splits the policies.
        let hw = HwConfig::ac922().scaled(1024);
        let rows = run(&hw, DEFAULT_M_TUPLES);
        SWEEP
            .check(&hw, &rows)
            .expect("elastic absorbs, fixed sheds");
    }
}
