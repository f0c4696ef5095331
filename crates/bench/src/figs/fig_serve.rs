//! Sustained-load serving trajectory with telemetry and SLO accounting.
//!
//! The committed trajectory (`BENCH_serve.json`) the observability layer
//! is graded against: two tenant mixes × an offered-load axis, each
//! point a full serving run with the time-series registry and per-tenant
//! SLO accounts threaded through [`triton_exec::ServeResult`], plus one
//! chaos point per mix (degraded link + ECC retirement + kernel fault)
//! to show telemetry stays deterministic under faults. Every row carries
//! the registry's own cross-checks: the counter totals must reconcile
//! with `SchedulerMetrics`, window sums must reconcile with run totals,
//! and the text exposition must replay byte-identically.
//!
//! The points run the *throughput path*
//! ([`SchedulerConfig::throughput`]): epoch-batched admission over the
//! cost/plan memos, with slice tenants exercising prefix build reuse.
//! [`SWEEP`]'s gates hold every committed-scale point to the
//! pre-throughput baseline ([`BASELINE`]): completions and SLO
//! attainment may never regress below the trajectory the
//! event-per-arrival scheduler committed.

use triton_core::{CpuRadixJoin, HashScheme, TritonJoin};
use triton_datagen::{Rng, WorkloadSpec};
use triton_exec::{FaultPlan, JoinQuery, Operator, Scheduler, SchedulerConfig, ServeResult};
use triton_hw::units::Ns;
use triton_hw::HwConfig;

use crate::sweep::{ensure, every, Cell, Sweep};

/// Offered-load axis (fractions of serial drain capacity).
pub const LOAD_AXIS: [f64; 3] = [0.5, 1.0, 2.0];

/// Tenant mixes swept: `shared` leans on build-side sharing (probe
/// batches over one dimension relation plus fact joins), `mixed` adds a
/// CPU-radix tenant overlapping the GPU tenants.
pub const MIXES: [&str; 2] = ["shared", "mixed"];

/// Offered load of the chaos points.
pub const CHAOS_LOAD: f64 = 1.0;

/// Queries per operating point.
const QUERIES: usize = 18;

/// Deadline budget in mean dedicated service times.
const DEADLINE_SERVICE_TIMES: f64 = 10.0;

/// One measured operating point of the committed trajectory.
#[derive(Debug, Clone)]
pub struct Row {
    /// Tenant mix (`shared` or `mixed`).
    pub mix: &'static str,
    /// `clean` or `chaos`.
    pub mode: &'static str,
    /// Offered load as a fraction of serial capacity.
    pub load: f64,
    /// Queries submitted.
    pub submitted: u64,
    /// Queries completed.
    pub completed: u64,
    /// Queries shed (all typed reasons).
    pub shed: u64,
    /// Median end-to-end latency in simulated ns (histogram-resolved).
    pub p50_ns: f64,
    /// 99th-percentile latency in simulated ns.
    pub p99_ns: f64,
    /// Aggregate SLO attainment across tenants, ppm of deadline holders.
    pub slo_attainment_ppm: u64,
    /// Worst per-tenant error-budget burn, ppm of the budget.
    pub max_budget_burn_ppm: u64,
    /// Mid-run grant revisions the scheduler issued.
    pub grant_revisions: u64,
    /// Distinct tenants with SLO accounts.
    pub tenants: u64,
    /// The registry's `sched.completed` counter — must equal
    /// `completed` (telemetry/metrics reconciliation).
    pub telemetry_completed: u64,
    /// Bytes of the deterministic text exposition.
    pub exposition_bytes: u64,
    /// Whether the registry's windowed rollups reconciled exactly with
    /// its run totals.
    pub reconciled: bool,
    /// Operator pricings replayed from the cost memo.
    pub cost_cache_hits: u64,
    /// Operator pricings that had to run.
    pub cost_cache_misses: u64,
    /// Memo effectiveness, ppm of cacheable pricings.
    pub cost_cache_hit_ppm: u64,
    /// Build-cache hits served from a *covering* build (prefix reuse).
    pub build_prefix_hits: u64,
}

/// The pre-throughput trajectory at the committed scale (512):
/// `(mix, mode, load, completed, slo_attainment_ppm)` of every point as
/// the event-per-arrival scheduler locked them. [`SWEEP`] fails if the
/// batched + cached path loses completions or attainment against any of
/// these floors.
pub const BASELINE: [(&str, &str, f64, u64, u64); 8] = [
    ("shared", "clean", 0.5, 18, 1_000_000),
    ("shared", "clean", 1.0, 18, 1_000_000),
    ("shared", "clean", 2.0, 18, 611_111),
    ("shared", "chaos", 1.0, 10, 166_666),
    ("mixed", "clean", 0.5, 18, 1_000_000),
    ("mixed", "clean", 1.0, 18, 1_000_000),
    ("mixed", "clean", 2.0, 18, 1_000_000),
    ("mixed", "chaos", 1.0, 18, 944_444),
];

/// The scale the baseline floors were locked at; [`SWEEP`] only applies
/// them there (unit tests sweep a coarser scale).
pub const BASELINE_SCALE: u64 = 512;

/// One mix's tenant population with the given arrival times. Tenant
/// labels are the query-name prefixes (`batch`, `slice`, `fact`,
/// `cpu`), so the SLO accounts split by workload family. The `slice`
/// tenants join against a radix sub-range of the shared dimension
/// relation and carry its `build_range`, so a resident full build
/// serves them by prefix reuse instead of a rebuild.
fn tenant_mix(mix: &str, k: u64, arrivals: &[f64]) -> Vec<JoinQuery> {
    assert_eq!(arrivals.len(), QUERIES);
    let dim = WorkloadSpec::paper_default(8, k).generate();
    let mut queries = Vec::with_capacity(QUERIES);
    for (i, &at) in arrivals.iter().enumerate() {
        let cpu_tenant = mix == "mixed" && i % 3 == 2;
        let q = if cpu_tenant {
            let mut spec = WorkloadSpec::paper_default(8, k);
            spec.seed ^= (0xCCu64 << 8) | i as u64;
            let mut q = JoinQuery::new(format!("cpu-{i}"), spec.generate(), Ns(at));
            q.op = Operator::CpuRadix(CpuRadixJoin::power9(HashScheme::BucketChaining));
            q
        } else if i % 2 == 0 {
            // Probe batches against the shared dimension relation.
            let w = if i == 0 {
                dim.clone()
            } else {
                JoinQuery::probe_batch(&dim, 0x5EED + i as u64)
            };
            let mut q = JoinQuery::new(format!("batch-{i}"), w, Ns(at));
            q.build_key = Some(1);
            q
        } else if i % 4 == 3 {
            // Sub-range tenants of the same dimension family: their
            // build side is the low half of the radix space, covered by
            // the family's resident full build.
            // Fixed seed: every slice arrival is the same repeat
            // statement (a dashboard refresh), so under a stable grant
            // the cost memo replays its pricing instead of re-running.
            let w = JoinQuery::probe_slice(&dim, (0, 128), 0xA11CE);
            let mut q = JoinQuery::new(format!("slice-{i}"), w, Ns(at));
            q.build_key = Some(1);
            q.build_range = Some((0, 128));
            q
        } else {
            let mut spec = WorkloadSpec::paper_default(16, k);
            spec.seed ^= (i as u64) << 24;
            let mut q = JoinQuery::new(format!("fact-{i}"), spec.generate(), Ns(at));
            q.op = Operator::Triton(TritonJoin::default());
            q
        };
        queries.push(q);
    }
    queries
}

/// Mean dedicated service time of one mix (the load unit).
fn mean_service_time(hw: &HwConfig, mix: &str) -> Ns {
    let queries = tenant_mix(mix, hw.scale, &[0.0; QUERIES]);
    let total: f64 = queries
        .iter()
        .map(|q| match q.op.run(&q.workload, hw) {
            Ok(rep) => rep.total.0,
            Err(_) => 0.0,
        })
        .sum();
    Ns(total / QUERIES as f64)
}

/// The mix with Poisson arrivals at `load` times the serial drain rate;
/// every query holds the sweep's queueing deadline, so every query
/// participates in its tenant's SLO.
fn queries_at_load(hw: &HwConfig, mix: &str, s_mean: Ns, load: f64) -> Vec<JoinQuery> {
    let rate = load / s_mean.0; // queries per ns
    let mut rng = Rng::seed_from_u64(0x5E12E ^ load.to_bits() ^ mix.len() as u64);
    let mut t = 0.0f64;
    let arrivals: Vec<f64> = (0..QUERIES)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            t
        })
        .collect();
    let mut queries = tenant_mix(mix, hw.scale, &arrivals);
    for q in &mut queries {
        q.deadline = Some(s_mean * DEADLINE_SERVICE_TIMES);
    }
    queries
}

/// The standard hazard schedule of the chaos points: a halved link for
/// the whole run, plus an ECC retirement of a third of device memory
/// and a kernel fault aimed mid-run.
fn chaos_plan(hw: &HwConfig, clean: &ServeResult) -> FaultPlan {
    let span = clean.metrics.makespan;
    let strike = clean
        .completed()
        .max_by(|a, b| a.reserved.cmp(&b.reserved).then(a.id.cmp(&b.id)))
        .map_or(span * 0.5, |c| (c.start + c.finish) * 0.5);
    FaultPlan::with_seed(0x5E12E)
        .degrade_link(Ns::ZERO, span * 4.0, 0.5)
        .retire_gpu_mem(strike, hw.gpu.mem_capacity / 3)
        .kernel_fault(strike)
}

/// Run one operating point and fold its telemetry into a [`Row`].
fn measure(
    hw: &HwConfig,
    mix: &'static str,
    mode: &'static str,
    load: f64,
    queries: Vec<JoinQuery>,
    plan: &FaultPlan,
) -> Row {
    let res =
        Scheduler::new(hw.clone(), SchedulerConfig::throughput()).run_with_faults(queries, plan);
    let m = &res.metrics;
    let (slo_total, slo_met) = res
        .slo
        .iter()
        .fold((0u64, 0u64), |(t, m), a| (t + a.slo_total, m + a.slo_met));
    let attainment = if slo_total == 0 {
        1_000_000
    } else {
        (u128::from(slo_met) * 1_000_000 / u128::from(slo_total)) as u64
    };
    Row {
        mix,
        mode,
        load,
        submitted: m.completed + m.rejected,
        completed: m.completed,
        shed: m.rejected,
        p50_ns: m.latency_p50.0,
        p99_ns: m.latency_p99.0,
        slo_attainment_ppm: attainment,
        max_budget_burn_ppm: res
            .slo
            .iter()
            .map(|a| a.budget_burn_ppm())
            .max()
            .unwrap_or(0),
        grant_revisions: m.grant_revisions,
        tenants: res.slo.len() as u64,
        telemetry_completed: res.telemetry.counter("sched.completed"),
        exposition_bytes: res.telemetry.expose_text().len() as u64,
        reconciled: res.telemetry.reconcile().is_ok(),
        cost_cache_hits: m.cost_cache_hits,
        cost_cache_misses: m.cost_cache_misses,
        cost_cache_hit_ppm: if m.cost_cache_hits + m.cost_cache_misses == 0 {
            0
        } else {
            (u128::from(m.cost_cache_hits) * 1_000_000
                / u128::from(m.cost_cache_hits + m.cost_cache_misses)) as u64
        },
        build_prefix_hits: m.build_cache_prefix_hits,
    }
}

/// One full serving result for a point (used by the replay check and
/// the trace/exposition exports).
pub fn serve_point(hw: &HwConfig, mix: &str, load: f64, chaos: bool) -> ServeResult {
    let s_mean = mean_service_time(hw, mix);
    let queries = queries_at_load(hw, mix, s_mean, load);
    let plan = if chaos {
        let clean = Scheduler::new(hw.clone(), SchedulerConfig::throughput()).run(queries.clone());
        chaos_plan(hw, &clean)
    } else {
        FaultPlan::none()
    };
    Scheduler::new(hw.clone(), SchedulerConfig::throughput()).run_with_faults(queries, &plan)
}

/// Run the trajectory: clean points for every mix × load, then one
/// chaos point per mix at [`CHAOS_LOAD`].
pub fn run(hw: &HwConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for &mix in &MIXES {
        let s_mean = mean_service_time(hw, mix);
        for &load in &LOAD_AXIS {
            let queries = queries_at_load(hw, mix, s_mean, load);
            rows.push(measure(hw, mix, "clean", load, queries, &FaultPlan::none()));
        }
        let queries = queries_at_load(hw, mix, s_mean, CHAOS_LOAD);
        let clean = Scheduler::new(hw.clone(), SchedulerConfig::throughput()).run(queries.clone());
        let plan = chaos_plan(hw, &clean);
        rows.push(measure(hw, mix, "chaos", CHAOS_LOAD, queries, &plan));
    }
    rows
}

/// The determinism cross-check behind [`SWEEP`]'s replay gate: serve one
/// clean and one chaos point twice each and require byte-identical text
/// expositions.
pub fn replay_identical(hw: &HwConfig) -> bool {
    for (mix, chaos) in [("shared", false), ("mixed", true)] {
        let a = serve_point(hw, mix, CHAOS_LOAD, chaos);
        let b = serve_point(hw, mix, CHAOS_LOAD, chaos);
        if a.telemetry.expose_text() != b.telemetry.expose_text()
            || a.telemetry.expose_json() != b.telemetry.expose_json()
        {
            return false;
        }
    }
    true
}

/// Name of the gate that reruns two points and compares expositions.
pub(crate) const REPLAY_GATE: &str = "expositions replay byte-identically";

/// The committed trajectory, `BENCH_serve.json`. Besides the
/// deterministic facts every run must satisfy, at the committed scale
/// ([`BASELINE_SCALE`]) the batched + cached throughput path is held to
/// the pre-throughput [`BASELINE`]: losing completions or SLO attainment
/// at *any* point fails.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "serve",
    schema: "triton-bench/fig-serve/v3",
    header: &[
        ("queries_per_point", Cell::Int(QUERIES as u64)),
        ("deadline_service_times", Cell::Num(DEADLINE_SERVICE_TIMES)),
    ],
    columns: &[
        ("mix", |r| Cell::Str(r.mix)),
        ("mode", |r| Cell::Str(r.mode)),
        ("load", |r| Cell::Num(r.load)),
        ("submitted", |r| Cell::Int(r.submitted)),
        ("completed", |r| Cell::Int(r.completed)),
        ("shed", |r| Cell::Int(r.shed)),
        ("p50_ns", |r| Cell::Num(r.p50_ns)),
        ("p99_ns", |r| Cell::Num(r.p99_ns)),
        ("slo_attainment_ppm", |r| Cell::Int(r.slo_attainment_ppm)),
        ("max_budget_burn_ppm", |r| Cell::Int(r.max_budget_burn_ppm)),
        ("grant_revisions", |r| Cell::Int(r.grant_revisions)),
        ("tenants", |r| Cell::Int(r.tenants)),
        ("telemetry_completed", |r| Cell::Int(r.telemetry_completed)),
        ("exposition_bytes", |r| Cell::Int(r.exposition_bytes)),
        ("reconciled", |r| Cell::Bool(r.reconciled)),
        ("cost_cache_hits", |r| Cell::Int(r.cost_cache_hits)),
        ("cost_cache_misses", |r| Cell::Int(r.cost_cache_misses)),
        ("cost_cache_hit_ppm", |r| Cell::Int(r.cost_cache_hit_ppm)),
        ("build_prefix_hits", |r| Cell::Int(r.build_prefix_hits)),
    ],
    rows: MIXES.len() * (LOAD_AXIS.len() + 1),
    run,
    print,
    gates: &[
        ("outcomes cover submissions", |_, rows| {
            every(rows, |r| r.completed + r.shed == r.submitted)
        }),
        ("telemetry counts every completion", |_, rows| {
            every(rows, |r| r.telemetry_completed == r.completed)
        }),
        ("windowed rollups reconcile", |_, rows| {
            every(rows, |r| r.reconciled)
        }),
        ("SLO attainment <= 1e6 ppm", |_, rows| {
            every(rows, |r| r.slo_attainment_ppm <= 1_000_000)
        }),
        ("cost-memo hit share <= 1e6 ppm", |_, rows| {
            every(rows, |r| r.cost_cache_hit_ppm <= 1_000_000)
        }),
        ("telemetry is non-empty", |_, rows| {
            every(rows, |r| r.tenants > 0 && r.exposition_bytes > 0)
        }),
        ("modes are exactly clean and chaos", |_, rows| {
            let mut modes: Vec<&str> = rows.iter().map(|r| r.mode).collect();
            modes.sort_unstable();
            modes.dedup();
            ensure(modes == ["chaos", "clean"], || format!("{modes:?}"))
        }),
        ("baseline floors at the committed scale", |hw, rows| {
            if hw.scale != BASELINE_SCALE {
                return Ok(());
            }
            for &(mix, mode, load, completed, attainment) in &BASELINE {
                let r = rows
                    .iter()
                    .find(|r| r.mix == mix && r.mode == mode && r.load == load)
                    .ok_or_else(|| format!("{mix}/{mode} load {load} missing"))?;
                ensure(
                    r.completed >= completed && r.slo_attainment_ppm >= attainment,
                    || format!("{r:?} below ({completed}, {attainment} ppm)"),
                )?;
            }
            Ok(())
        }),
        ("p99 does not fall as load rises", |_, rows| {
            let p99 = |mix: &str, load: f64| {
                rows.iter()
                    .find(|r| r.mix == mix && r.mode == "clean" && r.load == load)
                    .map_or(0.0, |r| r.p99_ns)
            };
            let falls = MIXES
                .iter()
                .find(|&&m| p99(m, LOAD_AXIS[2]) < p99(m, LOAD_AXIS[0]) * 0.99);
            ensure(falls.is_none(), || {
                format!("{falls:?} finished faster under heavier load")
            })
        }),
        (REPLAY_GATE, |hw, _| {
            ensure(replay_identical(hw), || {
                "telemetry exposition diverged across same-seed replays".into()
            })
        }),
    ],
};

/// Print the trajectory's table.
pub fn print(rows: &[Row]) {
    crate::banner(
        "Fig serve",
        "sustained load: telemetry, SLO attainment, and the chaos points",
    );
    let mut t = crate::Table::new([
        "mix",
        "mode",
        "load",
        "done/sub",
        "p99 (us)",
        "SLO (ppm)",
        "burn (ppm)",
        "revisions",
        "tenants",
        "cost hit%",
        "prefix",
    ]);
    for r in rows {
        t.row([
            r.mix.to_string(),
            r.mode.to_string(),
            crate::f3(r.load),
            format!("{}/{}", r.completed, r.submitted),
            format!("{:.1}", r.p99_ns / 1e3),
            r.slo_attainment_ppm.to_string(),
            r.max_budget_burn_ppm.to_string(),
            r.grant_revisions.to_string(),
            r.tenants.to_string(),
            format!("{:.1}", r.cost_cache_hit_ppm as f64 / 10_000.0),
            r.build_prefix_hits.to_string(),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_reconciles_and_serializes() {
        // Off the committed scale: every gate but the baseline floors
        // still holds, and no host-clock column is committed.
        let hw = HwConfig::ac922().scaled(256);
        let rows = run(&hw);
        SWEEP
            .check(&hw, &rows)
            .expect("committed invariants must hold");
        assert!(
            !SWEEP.render(&hw, &rows).contains("wall_ns"),
            "host-clock columns are not committed"
        );
    }

    #[test]
    fn expositions_replay_byte_identical() {
        let hw = HwConfig::ac922().scaled(256);
        assert!(replay_identical(&hw), "telemetry must replay exactly");
    }
}
