//! Serving-runtime integration of multi-operator plans (`triton-exec` +
//! `triton-plan`): peak-footprint (not sum) admission, the plan rung of
//! the degradation ladder, phase-rollup reconciliation, and scheduler
//! determinism.

use triton_core::{phase_key, SkewPolicy};
use triton_datagen::{Relation, TpchSpec};
use triton_exec::{
    downgrade_operator, to_chrome_json, validate_chrome, JoinQuery, Operator, Scheduler,
    SchedulerConfig,
};
use triton_hw::units::Ns;
use triton_hw::HwConfig;
use triton_plan::{reference_plan, tpch_query, EmitMap, Plan, PlanNode, PlanQuery};

const K: u64 = 512;

fn hw() -> HwConfig {
    HwConfig::ac922().scaled(K)
}

/// A deep chain of joins against one shared build side: every join node
/// carries the full per-operator pipeline floor, so the *sum* of
/// operator footprints exceeds the scaled GPU while the *peak* along the
/// one-node-at-a-time schedule stays far below it.
fn chain_query(joins: usize) -> PlanQuery {
    let n_r = 256u64;
    let n_s = 2048u64;
    let r = Relation::from_columns((1..=n_r).collect(), (0..n_r).map(|i| i * 31 + 7).collect());
    let s = Relation::from_columns(
        (0..n_s).map(|i| i % n_r + 1).collect(),
        (0..n_s).map(|i| i * 17 + 3).collect(),
    );
    let mut nodes = vec![PlanNode::Scan { input: 0 }, PlanNode::Scan { input: 1 }];
    for j in 0..joins {
        nodes.push(PlanNode::Join {
            build: 0,
            probe: 1 + j,
            emit: EmitMap::KeepKey,
        });
    }
    nodes.push(PlanNode::Agg { child: 1 + joins });
    PlanQuery::new(Plan { nodes }, vec![r, s]).unwrap()
}

#[test]
fn admission_reserves_peak_not_sum() {
    let hw = hw();
    let cap = hw.gpu.mem_capacity.0;
    let q = chain_query(8);
    let expect = reference_plan(q.plan(), q.inputs());
    let fp = q.footprint(&hw, cap);
    assert!(
        fp.sum > cap,
        "sum of operator footprints must exceed the GPU: {} <= {cap}",
        fp.sum
    );
    assert!(
        q.min_reserve(&hw).0 < cap / 2,
        "peak reservation must fit comfortably: {} vs {cap}",
        q.min_reserve(&hw)
    );

    // Sum-based admission would shed this plan as over-capacity; peak
    // admission runs it to completion with an exact answer.
    let tuples = q.input_tuples();
    let res = Scheduler::new(hw, SchedulerConfig::default()).run(vec![JoinQuery::plan(
        "chain",
        q,
        Ns::ZERO,
    )]);
    assert_eq!(res.metrics.completed, 1, "{:?}", res.outcomes);
    assert_eq!(
        res.metrics.tuples, tuples,
        "plans count base-relation tuples"
    );
    let c = res.outcomes[0].completed().expect("completed");
    assert_eq!(c.operator, "plan");
    assert!(c.reserved.0 > 0 && c.reserved.0 <= cap);
    assert_eq!(c.report.result.matches, expect.groups);
    assert_eq!(c.report.result.checksum, expect.sum_digest);
    assert!(res.metrics.peak_gpu_reserved <= res.metrics.gpu_capacity);
}

/// A grant revision mid-plan means re-running placement under the new
/// budget: at full capacity the chain pipelines intermediate edges
/// GPU-resident, under a shrunk grant the same plan pins strictly fewer
/// edges (spilling the rest to host) — and the answer is byte-identical
/// either way.
#[test]
fn shrunk_grant_replaces_intermediates_exactly() {
    use triton_hw::units::Bytes;
    let hw = hw();
    let cap = hw.gpu.mem_capacity.0;
    let q = chain_query(6);
    let expect = reference_plan(q.plan(), q.inputs());

    let full = q.footprint(&hw, cap);
    // A revision below the pipelined peak: just the largest operator
    // floor, i.e. room to run every node but not to pin every edge.
    let shrunk_budget = full.floors.iter().copied().max().unwrap_or(0);
    assert!(shrunk_budget < full.peak, "the revision must actually bite");
    let shrunk = q.footprint(&hw, shrunk_budget);
    let pinned = |fp: &triton_plan::Footprint| fp.resident.iter().filter(|r| **r).count();
    assert!(
        pinned(&full) > pinned(&shrunk),
        "the shrunk budget must evict pipelined edges: {} <= {}",
        pinned(&full),
        pinned(&shrunk)
    );
    assert!(
        shrunk.peak <= full.peak,
        "re-placement may never need more than the original peak"
    );

    // Run both placements; placement moves intermediates, not answers.
    let generous = q.run(&hw).expect("full-budget run");
    let mut revised = q.clone();
    revised.budget = Some(Bytes(shrunk_budget));
    revised.cache_grant = Some(Bytes(0));
    let tight = revised.run(&hw).expect("shrunk-budget run");
    for run in [&generous, &tight] {
        assert_eq!(run.agg, expect, "placement must not change the answer");
    }
    assert!(
        tight.report.total >= generous.report.total,
        "materializing evicted edges cannot be free"
    );
}

#[test]
fn plan_ladder_materializes_then_sheds() {
    // A plan's only rung: a faulting plan gives up pipelining
    // (force-materialize intermediates, fidelity kept) and keeps its
    // skew policy, which frees no memory; a plan that still faults is
    // shed — single-join fallbacks cannot answer a multi-operator query.
    let mut q = chain_query(2);
    q.skew = SkewPolicy::aware();
    let op = downgrade_operator(&Operator::Plan(Box::new(q))).expect("rung 1");
    match &op {
        Operator::Plan(p) => {
            assert!(p.force_materialize, "rung 1 must force-materialize");
            assert!(p.skew.is_aware(), "rung 1 must keep skew-awareness");
        }
        other => panic!("expected a plan, got {}", other.label()),
    }
    assert!(
        downgrade_operator(&op).is_none(),
        "a force-materialized plan has no rung 2"
    );

    // The single-join ladder is untouched.
    let mut op = Operator::triton();
    let mut rungs = vec![op.label()];
    while let Some(next) = downgrade_operator(&op) {
        op = next;
        rungs.push(op.label());
    }
    assert_eq!(rungs, vec!["triton", "cpu-part", "cpu-radix"]);
}

#[test]
fn plan_rollups_reconcile_with_latency() {
    // A force-materialized TPC-H Q3 tenant next to an ordinary join
    // tenant: the plan's phase rollups (queue + select + bloom +
    // partitioning + join + materialize + aggregate) must sum to its
    // recorded latency within one simulated nanosecond.
    let hw = hw();
    let w = TpchSpec::q3(2, K).generate();
    let mut pq = tpch_query(&w);
    pq.force_materialize = true;
    let join_w = triton_datagen::WorkloadSpec::paper_default(8, K).generate();
    let res = Scheduler::new(hw, SchedulerConfig::default()).run(vec![
        JoinQuery::plan("q3", pq, Ns::ZERO),
        JoinQuery::new("join", join_w, Ns::ZERO),
    ]);
    assert_eq!(res.metrics.completed, 2);
    let c = res
        .outcomes
        .iter()
        .filter_map(|o| o.completed())
        .find(|c| c.operator == "plan")
        .expect("the plan tenant completed");

    let plan_rollups: Vec<_> = res
        .metrics
        .phases
        .iter()
        .filter(|p| p.operator == "plan")
        .collect();
    let total: f64 = plan_rollups.iter().map(|p| p.time.0).sum();
    let latency = c.latency().0;
    assert!(
        (total - latency).abs() <= 1.0,
        "plan rollups {total} must reconcile with latency {latency}"
    );
    for key in [
        "queue",
        "select",
        "bloom",
        "join",
        "materialize",
        "aggregate",
    ] {
        assert!(
            plan_rollups.iter().any(|p| p.phase == key),
            "missing plan rollup {key}: {plan_rollups:?}"
        );
    }
    // Every rollup key is a normalised phase key.
    for p in &plan_rollups {
        assert_eq!(p.phase, phase_key(&p.phase), "unnormalised {}", p.phase);
    }
}

#[test]
fn plan_serving_replays_byte_identically() {
    let serve = || {
        let w = TpchSpec::q3(2, K).generate();
        let res = Scheduler::new(hw(), SchedulerConfig::default()).run(vec![JoinQuery::plan(
            "q3",
            tpch_query(&w),
            Ns::ZERO,
        )]);
        assert_eq!(res.metrics.completed, 1);
        let json = to_chrome_json(&res.trace);
        validate_chrome(&json).unwrap();
        (res.metrics, json)
    };
    let (m1, t1) = serve();
    let (m2, t2) = serve();
    assert_eq!(m1, m2, "metrics must replay exactly");
    assert_eq!(m1.to_json(), m2.to_json(), "metrics JSON must be stable");
    assert_eq!(t1, t2, "chrome traces must be byte-identical");
}
