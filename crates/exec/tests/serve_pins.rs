//! Golden serving pins: every byte a serving run publishes, pinned as
//! digests.
//!
//! The scheduler's internals may be restructured freely, but what a run
//! reports must not move: the metrics JSON, the telemetry exposition,
//! the Chrome trace, the per-tenant SLO accounts, and the outcomes
//! themselves. Each case digests those five renderings with FNV-1a. The
//! replay tests compare one run against another and cannot see a change
//! that moves both; these compare against fixed values. A mismatch
//! prints the whole table of actual digests.
//!
//! The six cases cover the clean path, the throughput path (cost-memo
//! and prefix build hits), seeded chaos, repeated ECC retirements (grant
//! revisions and revocations), a kernel fault with resilience off, and a
//! multi-operator plan tenant.

use triton_datagen::{TpchSpec, WorkloadSpec};
use triton_exec::{to_chrome_json, FaultPlan, JoinQuery, Scheduler, SchedulerConfig, ServeResult};
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;
use triton_plan::tpch_query;

const K: u64 = 512;

/// FNV-1a over a string's bytes.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn hw() -> HwConfig {
    HwConfig::ac922().scaled(K)
}

/// Independent tenants with staggered arrivals and mixed priorities.
fn tenants(n: usize, m_tuples: u64, gap: f64) -> Vec<JoinQuery> {
    (0..n)
        .map(|i| {
            let mut spec = WorkloadSpec::paper_default(m_tuples, K);
            spec.seed ^= (i as u64) << 32;
            let mut q = JoinQuery::new(format!("tenant-{i}"), spec.generate(), Ns(i as f64 * gap));
            q.priority = 1 + (i % 3) as u32;
            q
        })
        .collect()
}

/// Repeat tenants over one build family: full builds that repeat the
/// same statement (cost-memo hits), probe batches (exact build hits),
/// and sub-range slices (prefix build hits).
fn repeat_tenants(n: usize, gap: f64) -> Vec<JoinQuery> {
    let base = {
        let mut spec = WorkloadSpec::paper_default(16, K);
        spec.seed = 0xFEED;
        spec.generate()
    };
    (0..n)
        .map(|i| {
            let arrival = Ns(i as f64 * gap);
            let name = format!("rep-{}", i % 3);
            let mut q = match i % 3 {
                0 => JoinQuery::new(name, base.clone(), arrival),
                1 => JoinQuery::new(name, JoinQuery::probe_batch(&base, 1), arrival),
                _ => {
                    let w = JoinQuery::probe_slice(&base, (0, 128), 2);
                    let mut q = JoinQuery::new(name, w, arrival);
                    q.build_range = Some((0, 128));
                    q
                }
            };
            q.build_key = Some(0xF00D);
            q
        })
        .collect()
}

fn makespan(queries: Vec<JoinQuery>) -> Ns {
    Scheduler::new(hw(), SchedulerConfig::default())
        .run(queries)
        .metrics
        .makespan
}

/// `(case, run)` for every pinned case.
fn cases() -> Vec<(&'static str, ServeResult)> {
    let cap = hw().gpu.mem_capacity;
    let mut out = Vec::new();

    // Eight tenants overfill the GPU; the two late deadline holders force
    // a burst-admission grant shrink and a deadline shed.
    let mut clean = tenants(8, 16, 1e3);
    clean[6].deadline = Some(Ns(1e6));
    clean[7].deadline = Some(Ns(1.0));
    out.push((
        "clean",
        Scheduler::new(hw(), SchedulerConfig::default()).run(clean),
    ));

    out.push((
        "throughput-repeat",
        Scheduler::new(hw(), SchedulerConfig::throughput()).run(repeat_tenants(9, 1e5)),
    ));

    let horizon = makespan(tenants(4, 16, 0.0));
    let chaos = FaultPlan::chaos(3, horizon, &hw());
    out.push((
        "chaos",
        Scheduler::new(hw(), SchedulerConfig::default())
            .run_with_faults(tenants(4, 16, 0.0), &chaos),
    ));

    let horizon = makespan(tenants(3, 32, 0.0));
    let strikes = FaultPlan::with_seed(5)
        .retire_gpu_mem(Ns(horizon.0 * 0.2), Bytes(cap.0 * 6 / 10))
        .retire_gpu_mem(Ns(horizon.0 * 0.4), Bytes(cap.0 * 3 / 10));
    out.push((
        "retire-twice",
        Scheduler::new(hw(), SchedulerConfig::default())
            .run_with_faults(tenants(3, 32, 0.0), &strikes),
    ));

    let horizon = makespan(tenants(2, 16, 0.0));
    let kernel = FaultPlan::with_seed(11).kernel_fault(Ns(horizon.0 * 0.5));
    out.push((
        "no-resilience-kernel",
        Scheduler::new(hw(), SchedulerConfig::no_resilience())
            .run_with_faults(tenants(2, 16, 0.0), &kernel),
    ));

    let w = TpchSpec::q3(2, K).generate();
    let plan = vec![
        JoinQuery::plan("q3", tpch_query(&w), Ns::ZERO),
        JoinQuery::new(
            "join",
            WorkloadSpec::paper_default(8, K).generate(),
            Ns::ZERO,
        ),
    ];
    out.push((
        "plan",
        Scheduler::new(hw(), SchedulerConfig::default()).run(plan),
    ));
    out
}

/// `[metrics, exposition, trace, slo, outcomes]` digests of one run.
fn digests(r: &ServeResult) -> [u64; 5] {
    let slo: String = r.slo.iter().map(|a| a.to_json()).collect();
    [
        fnv(&r.metrics.to_json()),
        fnv(&r.telemetry.expose_text()),
        fnv(&to_chrome_json(&r.trace)),
        fnv(&slo),
        fnv(&format!("{:?}", r.outcomes)),
    ]
}

/// `(case, [metrics, exposition, trace, slo, outcomes])`.
const PINS: &[(&str, [u64; 5])] = &[
    (
        "clean",
        [
            0x1e9922dcff8a662f,
            0x46b899f0f8e30eeb,
            0x7b0b78c194977ced,
            0x154e702ccedb07ee,
            0x5ed02bf80ded8c44,
        ],
    ),
    (
        "throughput-repeat",
        [
            0xd2ba1820771f231b,
            0xefdbb97985050585,
            0xac84766d97632221,
            0x24a1d3b7a2aae9ea,
            0x89f272b8092bef28,
        ],
    ),
    (
        "chaos",
        [
            0xd83fd4a5c5d4485f,
            0x5f6d882f5d7c2b00,
            0x277daca171357e61,
            0x42172a05dc3d6423,
            0x2d60e8aac17c75c2,
        ],
    ),
    (
        "retire-twice",
        [
            0x7843f7b0240184dc,
            0xf3e1df6b30a24f82,
            0xfeeb31e606f54b57,
            0x41993c34433a787b,
            0x698f921ebec0a3ac,
        ],
    ),
    (
        "no-resilience-kernel",
        [
            0x7b3aadebad10dde4,
            0x61a84a8f8c9f3776,
            0x09b1abb0bb290898,
            0x1dc6aa88a5c4c6d9,
            0x70a55c322896ec3c,
        ],
    ),
    (
        "plan",
        [
            0x33022ca9930f3b97,
            0xfd0bea0bb7c2d63e,
            0x6b4aeae2117d7973,
            0x25e0a36871edb61d,
            0x84078ee235f4bf1a,
        ],
    ),
];

#[test]
fn cases_reach_the_paths_they_pin() {
    let runs = cases();
    let run = |name: &str| {
        &runs
            .iter()
            .find(|(n, _)| *n == name)
            .expect("case exists")
            .1
    };
    let clean = &run("clean").metrics;
    assert_eq!(clean.faults_injected, 0);
    assert!(clean.grant_revisions > 0, "{}", clean.summary());
    assert_eq!(clean.shed_deadline, 1, "{}", clean.summary());
    let tp = &run("throughput-repeat").metrics;
    assert!(tp.cost_cache_hits > 0, "{}", tp.summary());
    assert!(tp.build_cache_prefix_hits > 0, "{}", tp.summary());
    // A retry and a downgrade put the backoff delays and the ladder's
    // rungs under the digests.
    let chaos = &run("chaos").metrics;
    assert!(chaos.faults_injected > 0);
    assert!(chaos.retries > 0, "{}", chaos.summary());
    let rt = &run("retire-twice").metrics;
    assert!(rt.grant_revisions > 0, "{}", rt.summary());
    assert!(rt.revocations > 0, "{}", rt.summary());
    assert!(rt.downgrades > 0, "{}", rt.summary());
    assert_eq!(run("no-resilience-kernel").metrics.shed_faulted, 1);
    assert!(run("plan").completed().any(|c| c.operator == "plan"));
}

#[test]
fn serving_outputs_match_golden_digests() {
    let actual: Vec<(&str, [u64; 5])> = cases().iter().map(|(n, r)| (*n, digests(r))).collect();
    let table: String = actual
        .iter()
        .map(|(n, d)| {
            format!(
                "    (\"{n}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2], d[3], d[4]
            )
        })
        .collect();
    assert!(
        actual.as_slice() == PINS,
        "serving output moved; actual digests:\n{table}"
    );
}
