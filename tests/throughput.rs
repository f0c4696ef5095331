//! Throughput-path tests: epoch-batched admission and the cost memo
//! ([`triton_exec::CostCache`]) must be *semantically transparent* —
//! outcomes, trace, SLO accounts, and every metric except the cache
//! counters themselves are byte-identical with the memo on or off, on
//! clean, chaos, and
//! grant-revision timelines — and epoch batching
//! ([`SchedulerConfig::throughput`]) may move decision points but never
//! answers: every query still reaches a terminal outcome with exact
//! join results at any batch size.

use triton_core::reference_join;
use triton_datagen::WorkloadSpec;
use triton_exec::{
    to_chrome_json, FaultPlan, JoinQuery, MetricsRegistry, Outcome, Scheduler, SchedulerConfig,
    SchedulerMetrics,
};
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;

const K: u64 = 512;

fn hw() -> HwConfig {
    HwConfig::ac922().scaled(K)
}

/// A staggered tenant mix exercising every reuse path: full builds of a
/// shared family, probe batches over the resident build (exact hits),
/// sub-range slices riding the covering build (prefix hits), and
/// independent tenants.
fn mixed_tenants(n: usize, gap: f64) -> Vec<JoinQuery> {
    let base = {
        let mut spec = WorkloadSpec::paper_default(16, K);
        spec.seed = 0xFEED;
        spec.generate()
    };
    (0..n)
        .map(|i| {
            let arrival = Ns(i as f64 * gap);
            let name = format!("tenant-{i}");
            match i % 4 {
                // The family's full build (repeats replay the pricing).
                0 => {
                    let mut q = JoinQuery::new(name, base.clone(), arrival);
                    q.build_key = Some(0xF00D);
                    q
                }
                // Probe batches over the resident full build.
                1 => {
                    let w = JoinQuery::probe_batch(&base, i as u64);
                    let mut q = JoinQuery::new(name, w, arrival);
                    q.build_key = Some(0xF00D);
                    q
                }
                // A sub-range slice of the family: prefix reuse.
                2 => {
                    let w = JoinQuery::probe_slice(&base, (0, 128), i as u64);
                    let mut q = JoinQuery::new(name, w, arrival);
                    q.build_key = Some(0xF00D);
                    q.build_range = Some((0, 128));
                    q
                }
                // Independent tenant, no sharing.
                _ => {
                    let mut spec = WorkloadSpec::paper_default(16, K);
                    spec.seed ^= (i as u64) << 32;
                    JoinQuery::new(name, spec.generate(), arrival)
                }
            }
        })
        .collect()
}

/// Every completed query's result must equal the reference join of its
/// workload — caching and batching may move timing, never answers.
fn assert_exact(queries: &[JoinQuery], outcomes: &[Outcome]) {
    for (q, o) in queries.iter().zip(outcomes) {
        if let Some(c) = o.completed() {
            let exp = reference_join(&q.workload);
            assert_eq!(
                c.report.result, exp,
                "{} produced a wrong result (operator {})",
                c.name, c.operator
            );
        }
    }
}

fn uncached(mut config: SchedulerConfig) -> SchedulerConfig {
    config.cost_caching = false;
    config
}

/// Telemetry text with the `sched.cost_cache.*` series removed — the
/// only registry lines the transparency contract allows to differ.
fn filtered_text(reg: &MetricsRegistry) -> String {
    reg.expose_text()
        .lines()
        .filter(|l| !l.contains("sched.cost_cache."))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Metrics with the cache-effectiveness counters zeroed — the only
/// metric fields the transparency contract allows to differ.
fn normalized(m: &SchedulerMetrics) -> SchedulerMetrics {
    let mut m = m.clone();
    m.cost_cache_hits = 0;
    m.cost_cache_misses = 0;
    m
}

/// Caches on vs. off on the same timeline: byte-identical outcomes,
/// trace, SLO accounts, filtered telemetry, and normalized metrics.
fn assert_transparent(queries: &[JoinQuery], plan: &FaultPlan, label: &str) {
    let on =
        Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(queries.to_vec(), plan);
    let off = Scheduler::new(hw(), uncached(SchedulerConfig::default()))
        .run_with_faults(queries.to_vec(), plan);
    assert_eq!(
        format!("{:?}", on.outcomes),
        format!("{:?}", off.outcomes),
        "{label}: outcomes diverged"
    );
    assert_eq!(
        normalized(&on.metrics),
        normalized(&off.metrics),
        "{label}: metrics diverged beyond the cache counters"
    );
    assert_eq!(
        to_chrome_json(&on.trace),
        to_chrome_json(&off.trace),
        "{label}: the memo may not emit trace events"
    );
    assert_eq!(
        filtered_text(&on.telemetry),
        filtered_text(&off.telemetry),
        "{label}: telemetry diverged beyond sched.cost_cache.*"
    );
    assert_eq!(on.slo, off.slo, "{label}: SLO accounts diverged");
    assert!(
        on.metrics.cost_cache_hits + on.metrics.cost_cache_misses > 0,
        "{label}: the enabled memo must observe pricings"
    );
    assert_eq!(
        off.metrics.cost_cache_hits + off.metrics.cost_cache_misses,
        0,
        "{label}: the disabled memo must be inert"
    );
    assert_exact(queries, &on.outcomes);
}

#[test]
fn cost_caching_is_transparent_on_a_clean_run() {
    assert_transparent(&mixed_tenants(12, 40_000.0), &FaultPlan::none(), "clean");
}

#[test]
fn cost_caching_is_transparent_under_chaos() {
    let queries = mixed_tenants(10, 40_000.0);
    let horizon = Scheduler::new(hw(), SchedulerConfig::default())
        .run(queries.clone())
        .metrics
        .makespan;
    for seed in [1, 2] {
        let plan = FaultPlan::chaos(seed, Ns(horizon.0 * 1.5), &hw());
        assert_transparent(&queries, &plan, &format!("chaos seed {seed}"));
    }
}

#[test]
fn cost_caching_is_transparent_across_grant_revisions() {
    let queries = mixed_tenants(9, 0.0);
    let horizon = Scheduler::new(hw(), SchedulerConfig::default())
        .run(queries.clone())
        .metrics
        .makespan;
    let cap = hw().gpu.mem_capacity;
    // A moderate retirement absorbed by shrink-in-place: the re-pricing
    // under revised grants goes through the memo too.
    let plan = FaultPlan::with_seed(11).retire_gpu_mem(Ns(horizon.0 * 0.3), Bytes(cap.0 * 6 / 10));
    let probe =
        Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(queries.clone(), &plan);
    assert!(
        probe.metrics.grant_revisions >= 1,
        "the plan must actually revise grants: {}",
        probe.metrics.summary()
    );
    assert_transparent(&queries, &plan, "grant revisions");
}

/// `throughput()` differs from the default config only in the epoch
/// batch size; with the batch forced back to 1 the whole run — metrics,
/// trace, telemetry, SLO accounts, outcomes — is byte-identical to the
/// default event-per-arrival loop, clean and under chaos.
#[test]
fn batch_of_one_reproduces_the_default_loop_byte_for_byte() {
    let queries = mixed_tenants(10, 40_000.0);
    let horizon = Scheduler::new(hw(), SchedulerConfig::default())
        .run(queries.clone())
        .metrics
        .makespan;
    let chaos = FaultPlan::chaos(3, Ns(horizon.0 * 1.5), &hw());
    for (plan, label) in [(FaultPlan::none(), "clean"), (chaos, "chaos")] {
        let a = Scheduler::new(hw(), SchedulerConfig::default())
            .run_with_faults(queries.clone(), &plan);
        let mut cfg = SchedulerConfig::throughput();
        cfg.arrival_batch = 1;
        let b = Scheduler::new(hw(), cfg).run_with_faults(queries.clone(), &plan);
        assert_eq!(a.metrics, b.metrics, "{label}: metrics diverged");
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        assert_eq!(
            to_chrome_json(&a.trace),
            to_chrome_json(&b.trace),
            "{label}: trace diverged"
        );
        assert_eq!(
            a.telemetry.expose_text(),
            b.telemetry.expose_text(),
            "{label}: telemetry diverged"
        );
        assert_eq!(a.slo, b.slo, "{label}: SLO accounts diverged");
        assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
    }
}

/// Epoch-batched serving at arrival density: every query reaches a
/// terminal outcome, every SLO account settles (completed + shed covers
/// every submission), answers stay exact, and replays are
/// byte-identical.
#[test]
fn epoch_batched_runs_settle_every_query_exactly() {
    let n = 12;
    let queries = mixed_tenants(n, 20_000.0);
    let run = || Scheduler::new(hw(), SchedulerConfig::throughput()).run(queries.clone());
    let res = run();
    assert_eq!(res.outcomes.len(), n);
    assert_eq!(
        res.metrics.completed + res.metrics.rejected,
        n as u64,
        "every query needs a terminal outcome: {}",
        res.metrics.summary()
    );
    let settled: u64 = res.slo.iter().map(|a| a.completed + a.shed).sum();
    assert_eq!(settled, n as u64, "every SLO account must settle");
    assert_exact(&queries, &res.outcomes);
    let again = run();
    assert_eq!(res.metrics, again.metrics, "batched replays diverged");
    assert_eq!(res.telemetry.expose_text(), again.telemetry.expose_text());
}

/// The epoch batch size is a pure scheduling knob: at any batch size
/// every deadline-free query completes with the exact reference result.
#[test]
fn answers_are_identical_across_batch_sizes() {
    let n = 10;
    let queries = mixed_tenants(n, 25_000.0);
    for batch in [1usize, 2, 4, 8, 64] {
        let cfg = SchedulerConfig {
            arrival_batch: batch,
            ..SchedulerConfig::default()
        };
        let res = Scheduler::new(hw(), cfg).run(queries.clone());
        assert_eq!(
            res.metrics.completed,
            n as u64,
            "batch {batch}: deadline-free queries must all complete: {}",
            res.metrics.summary()
        );
        assert_exact(&queries, &res.outcomes);
    }
}

/// Sub-range tenants ride the family's resident full build: prefix hits
/// show up in the metrics and the telemetry registry, and the slices'
/// answers stay exact.
#[test]
fn slices_ride_the_resident_family_build() {
    let n = 12;
    let queries = mixed_tenants(n, 40_000.0);
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(queries.clone());
    assert_eq!(res.metrics.completed, n as u64, "{}", res.metrics.summary());
    assert!(
        res.metrics.build_cache_prefix_hits >= 1,
        "slice tenants must reuse the covering build: {}",
        res.metrics.summary()
    );
    assert!(
        res.metrics.build_cache_hits > res.metrics.build_cache_prefix_hits,
        "exact probe-batch hits must still occur alongside prefix hits"
    );
    let text = res.telemetry.expose_text();
    assert!(text.contains("sched.build_cache.prefix_hit"));
    assert!(text.contains("sched.build_cache.exact_hit"));
    assert_exact(&queries, &res.outcomes);
}

/// Repeat submissions of an identical workload replay the memoized
/// pricing: hits surface in the metrics, the summary line, and the
/// `sched.cost_cache.hit` counter.
#[test]
fn repeat_tenants_hit_the_cost_cache() {
    let base = WorkloadSpec::paper_default(16, K).generate();
    let queries: Vec<JoinQuery> = (0..4)
        .map(|i| JoinQuery::new(format!("tenant-{i}"), base.clone(), Ns::ZERO))
        .collect();
    // Serial: each query admitted against an empty machine gets the
    // identical grant, so pricings 2..4 replay pricing 1.
    let res = Scheduler::new(hw(), SchedulerConfig::serial()).run(queries.clone());
    assert_eq!(res.metrics.completed, 4);
    assert!(
        res.metrics.cost_cache_hits >= 3,
        "identical repeat pricings must hit: {}",
        res.metrics.summary()
    );
    assert!(res.metrics.summary().contains("cost cache"));
    assert!(res.telemetry.expose_text().contains("sched.cost_cache.hit"));
    assert_exact(&queries, &res.outcomes);
}
