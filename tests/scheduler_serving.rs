//! Integration tests of the multi-query serving runtime (`triton-exec`):
//! memory-budget admission, concurrent-vs-serial throughput, typed
//! shedding, and build-side sharing — with join results cross-checked
//! against the reference join.

use triton_core::{reference_join, CpuRadixJoin, HashScheme};
use triton_datagen::WorkloadSpec;
use triton_exec::{JoinQuery, Operator, Outcome, RejectReason, Scheduler, SchedulerConfig};
use triton_hw::units::Ns;
use triton_hw::HwConfig;

const K: u64 = 512;

fn hw() -> HwConfig {
    HwConfig::ac922().scaled(K)
}

/// A batch of independent tenants arriving together.
fn tenants(n: usize, m_tuples: u64) -> Vec<JoinQuery> {
    (0..n)
        .map(|i| {
            let mut spec = WorkloadSpec::paper_default(m_tuples, K);
            spec.seed ^= (i as u64) << 32;
            JoinQuery::new(format!("tenant-{i}"), spec.generate(), Ns::ZERO)
        })
        .collect()
}

#[test]
fn concurrent_queries_respect_the_memory_budget() {
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(tenants(6, 32));
    assert_eq!(res.metrics.completed, 6, "all tenants must complete");
    assert!(
        res.metrics.peak_concurrency >= 4,
        "expected at least 4 queries in flight, saw {}",
        res.metrics.peak_concurrency
    );
    assert!(
        res.metrics.peak_gpu_reserved <= res.metrics.gpu_capacity,
        "reservations oversubscribed the GPU: {} > {}",
        res.metrics.peak_gpu_reserved,
        res.metrics.gpu_capacity
    );
    // Every admitted query held a real reservation.
    for o in &res.outcomes {
        let c = o.completed().expect("completed");
        assert!(c.reserved.0 > 0, "{} ran without a reservation", c.name);
        assert!(c.finish.0 >= c.start.0);
    }
    // Placement reports roll up: the Triton queries held working-set
    // bytes GPU-resident, and the rollup is consistent with per-query
    // placements.
    let per_query: u64 = res
        .outcomes
        .iter()
        .filter_map(|o| o.completed())
        .filter_map(|c| c.report.placement.as_ref())
        .map(|p| p.cache_hit_bytes)
        .sum();
    assert!(per_query > 0, "expected cached working-set bytes");
    assert_eq!(res.metrics.cache_hit_bytes.0, per_query);
}

#[test]
fn concurrent_throughput_at_least_serial() {
    let conc = Scheduler::new(hw(), SchedulerConfig::default()).run(tenants(4, 32));
    let serial = Scheduler::new(hw(), SchedulerConfig::serial()).run(tenants(4, 32));
    assert_eq!(conc.metrics.completed, 4);
    assert_eq!(serial.metrics.completed, 4);
    assert!(
        conc.metrics.throughput_gtps >= serial.metrics.throughput_gtps * 0.9999,
        "concurrency regressed throughput: {} < {} Gtps",
        conc.metrics.throughput_gtps,
        serial.metrics.throughput_gtps
    );
    assert!(conc.metrics.makespan.0 <= serial.metrics.makespan.0 * 1.0001);
}

#[test]
fn mixed_executors_overlap_for_real_gains() {
    // A GPU-bound Triton join and a CPU radix join have disjoint
    // bottlenecks: together they must beat the serial schedule strictly.
    let mk = || {
        let mut qs = tenants(2, 32);
        qs[1].op = Operator::CpuRadix(CpuRadixJoin::power9(HashScheme::BucketChaining));
        qs
    };
    let conc = Scheduler::new(hw(), SchedulerConfig::default()).run(mk());
    let serial = Scheduler::new(hw(), SchedulerConfig::serial()).run(mk());
    assert!(
        conc.metrics.makespan.0 < serial.metrics.makespan.0 * 0.95,
        "disjoint bottlenecks should overlap: {} vs serial {}",
        conc.metrics.makespan,
        serial.metrics.makespan
    );
}

#[test]
fn results_stay_exact_under_concurrency() {
    let queries = tenants(5, 16);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| reference_join(&q.workload))
        .collect();
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(queries);
    for (o, exp) in res.outcomes.iter().zip(&expected) {
        let c = o.completed().expect("completed");
        assert_eq!(
            &c.report.result, exp,
            "{}'s result changed under concurrency",
            c.name
        );
    }
}

#[test]
fn over_capacity_submissions_shed_with_typed_errors() {
    // A build side whose pipeline floor exceeds the whole scaled GPU can
    // never run: the scheduler must reject it with OverCapacity (not
    // panic, not wedge the queue), while normal queries still complete.
    // At K = 2^20 the GPU holds 16 KiB; a 16 MiB input needs 32 KiB of
    // pair buffers even at the maximum pass-1 fanout.
    let tiny_hw = HwConfig::ac922().scaled(1 << 20);
    let spec_of = |tuples: u64, seed: u64| WorkloadSpec {
        r_tuples_modeled: tuples,
        s_tuples_modeled: tuples,
        scale: 1,
        payload_cols: 0,
        zipf_theta: 0.0,
        match_fraction: 1.0,
        seed,
    };
    let mut queries: Vec<JoinQuery> = (0..3)
        .map(|i| {
            JoinQuery::new(
                format!("ok-{i}"),
                spec_of(2048, 11 + i).generate(),
                Ns::ZERO,
            )
        })
        .collect();
    queries.push(JoinQuery::new(
        "whale",
        spec_of(512 * 1024, 99).generate(),
        Ns::ZERO,
    ));
    let res = Scheduler::new(tiny_hw, SchedulerConfig::default()).run(queries);
    assert_eq!(res.metrics.completed, 3);
    assert_eq!(res.metrics.rejected, 1);
    match &res.outcomes[3] {
        Outcome::Rejected {
            reason: RejectReason::OverCapacity { needed, capacity },
            name,
            ..
        } => {
            assert_eq!(name, "whale");
            assert!(needed.0 > capacity.0);
        }
        other => panic!("expected an OverCapacity rejection, got {other:?}"),
    }
}

#[test]
fn non_finite_arrivals_are_rejected_typed() {
    // A NaN arrival used to spin the event loop forever and an infinite
    // one used to end the run without its outcome. Each must be rejected
    // up front while a valid query still completes exactly.
    let mut queries = tenants(4, 16);
    for (q, at) in queries[1..]
        .iter_mut()
        .zip([f64::NAN, f64::INFINITY, f64::NEG_INFINITY])
    {
        q.arrival = Ns(at);
    }
    let expected = reference_join(&queries[0].workload);
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(queries);
    assert_eq!(res.outcomes.len(), 4, "every query needs one outcome");
    assert_eq!((res.metrics.completed, res.metrics.rejected), (1, 3));
    let c = res.outcomes[0]
        .completed()
        .expect("the valid query completes");
    assert_eq!(c.report.result, expected);
    for o in &res.outcomes[1..] {
        let reason = o.rejection().expect("a non-finite arrival is rejected");
        assert!(
            matches!(reason, RejectReason::InvalidArrival { arrival } if !arrival.0.is_finite()),
            "expected InvalidArrival, got {reason:?}"
        );
    }
    assert_eq!(res.metrics.shed_deadline + res.metrics.shed_capacity, 0);
}

#[test]
fn queue_limit_applies_backpressure() {
    let res = Scheduler::new(
        hw(),
        SchedulerConfig {
            max_inflight: 1,
            max_queue: 2,
            ..SchedulerConfig::default()
        },
    )
    .run(tenants(5, 16));
    let bounced = res
        .outcomes
        .iter()
        .filter(|o| {
            matches!(
                o,
                Outcome::Rejected {
                    reason: RejectReason::QueueFull { limit: 2 },
                    ..
                }
            )
        })
        .count();
    assert!(bounced >= 1, "a 2-deep queue must bounce a 5-query burst");
    assert_eq!(res.metrics.completed + res.metrics.rejected, 5);
}

#[test]
fn shared_build_side_batches_probes() {
    let base = WorkloadSpec::paper_default(32, K).generate();
    let queries: Vec<JoinQuery> = (0..4)
        .map(|i| {
            let w = if i == 0 {
                base.clone()
            } else {
                JoinQuery::probe_batch(&base, 0xBEEF + i as u64)
            };
            let mut q = JoinQuery::new(format!("batch-{i}"), w, Ns::ZERO);
            q.build_key = Some(1);
            q
        })
        .collect();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| reference_join(&q.workload))
        .collect();
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(queries);
    assert_eq!(res.metrics.completed, 4);
    assert_eq!(
        res.metrics.build_cache_hits, 3,
        "three probe batches should reuse the partitioned build side"
    );
    for (o, exp) in res.outcomes.iter().zip(&expected) {
        let c = o.completed().unwrap();
        assert_eq!(&c.report.result, exp, "{} wrong under sharing", c.name);
    }
}
