//! End-to-end observability tests: scheduler runs produce valid Chrome
//! traces, phase rollups reconcile with recorded latencies, and the
//! flight recorder dumps the events leading up to every fault.

use triton_core::{CpuRadixJoin, HashScheme};
use triton_datagen::{TpchSpec, WorkloadSpec};
use triton_exec::{
    query_pid, to_chrome_json, validate_chrome, FaultPlan, JoinQuery, Operator, Scheduler,
    SchedulerConfig, SCHEDULER_PID, SCHED_TID_FLIGHT, TID_LIFECYCLE,
};
use triton_hw::units::Ns;
use triton_hw::{HwConfig, Timeline};
use triton_plan::tpch_query;
use triton_trace::{EventKind, Trace};

fn hw() -> HwConfig {
    HwConfig::ac922().scaled(512)
}

fn batch(n: usize) -> Vec<JoinQuery> {
    (0..n)
        .map(|i| {
            let mut spec = WorkloadSpec::paper_default(32, 512);
            spec.seed ^= i as u64;
            JoinQuery::new(format!("t{i}"), spec.generate(), Ns::ZERO)
        })
        .collect()
}

#[test]
fn clean_run_trace_validates_and_covers_every_query() {
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(3));
    let json = to_chrome_json(&res.trace);
    let events = validate_chrome(&json).expect("chrome trace must validate");
    assert!(events >= res.trace.len(), "metadata rows add to the count");
    // Every completed query has enqueue/admit/complete on its lifecycle
    // track.
    for c in res.completed() {
        let pid = query_pid(c.id);
        let names: Vec<&str> = res
            .trace
            .events()
            .iter()
            .filter(|e| e.pid == pid && e.tid == TID_LIFECYCLE)
            .map(|e| &*e.name)
            .collect();
        assert!(names.contains(&"enqueue"), "{names:?}");
        assert!(names.contains(&"admit"), "{names:?}");
        assert!(names.contains(&"complete"), "{names:?}");
    }
    // No fault dumps on a clean run.
    assert!(!json.contains("flight.dump"));
}

#[test]
fn per_query_spans_sum_to_latency() {
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(4));
    assert_eq!(res.metrics.completed, 4);
    for c in res.completed() {
        let pid = query_pid(c.id);
        // Sum the queue span plus the stretched phase chain.
        let spanned: f64 = res
            .trace
            .events()
            .iter()
            .filter(|e| {
                e.pid == pid && (e.name == "queue" || e.tid == triton_exec::observe::TID_PHASES)
            })
            .filter_map(|e| match e.kind {
                EventKind::Span { dur_ns } => Some(dur_ns),
                EventKind::Instant | EventKind::Counter => None,
            })
            .sum();
        let latency = c.latency().0;
        assert!(
            (spanned - latency).abs() <= 1.0,
            "{}: spans {spanned} vs latency {latency}",
            c.name
        );
    }
}

#[test]
fn rollups_reconcile_with_total_latency() {
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(4));
    let rolled: f64 = res.metrics.phases.iter().map(|p| p.time.0).sum();
    let latency_total: f64 = res.completed().map(|c| c.latency().0).sum();
    let tolerance = res.metrics.completed as f64; // one simulated ns per query
    assert!(
        (rolled - latency_total).abs() <= tolerance,
        "rollups {rolled} vs latencies {latency_total}"
    );
    // The rollups made it into the JSON encoding.
    let json = res.metrics.to_json();
    assert!(json.contains("\"phases\":[{\"op\":"), "{json}");
    assert!(json.contains("\"phase\":\"queue\""), "{json}");
    // Deterministic order: sorted by (operator, phase).
    let mut keys: Vec<(String, String)> = res
        .metrics
        .phases
        .iter()
        .map(|p| (p.operator.clone(), p.phase.clone()))
        .collect();
    let sorted = {
        let mut s = keys.clone();
        s.sort();
        s
    };
    assert_eq!(keys, sorted);
    keys.dedup();
    assert_eq!(keys.len(), res.metrics.phases.len(), "no duplicate keys");
}

#[test]
fn fault_dump_replays_the_events_preceding_the_fault() {
    let clean = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(2));
    let mid = clean.metrics.makespan.0 * 0.5;
    let plan = FaultPlan::with_seed(11).kernel_fault(Ns(mid));
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(batch(2), &plan);
    assert_eq!(res.metrics.faults_injected, 1);

    let flight: Vec<_> = res
        .trace
        .events()
        .iter()
        .filter(|e| e.pid == SCHEDULER_PID && e.tid == SCHED_TID_FLIGHT)
        .collect();
    let marker = flight
        .iter()
        .position(|e| e.name == "flight.dump")
        .expect("a kernel fault must dump the flight ring");
    let replayed: Vec<&str> = flight[marker + 1..].iter().map(|e| &*e.name).collect();
    // The ring replay carries the admissions that preceded the strike
    // and ends with the fault itself.
    assert!(replayed.contains(&"enqueue"), "{replayed:?}");
    assert!(replayed.contains(&"admit"), "{replayed:?}");
    assert!(replayed.contains(&"kernel-fault"), "{replayed:?}");
    // The victim's retry is traced on its lifecycle track.
    assert!(res
        .trace
        .events()
        .iter()
        .any(|e| e.tid == TID_LIFECYCLE && e.name == "retry"));
    // And the whole faulted trace still validates as Chrome JSON.
    validate_chrome(&to_chrome_json(&res.trace)).expect("faulted trace must validate");
}

#[test]
fn second_fault_dump_contains_the_first_retry() {
    let clean = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(2));
    let span = clean.metrics.makespan.0;
    let plan = FaultPlan::with_seed(7)
        .kernel_fault(Ns(span * 0.4))
        .kernel_fault(Ns(span * 0.9));
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(batch(2), &plan);
    if res.metrics.faults_injected < 2 {
        // The second strike found an idle GPU and fizzled; nothing to
        // assert beyond the first dump existing.
        assert!(to_chrome_json(&res.trace).contains("flight.dump"));
        return;
    }
    // Events replayed by the LAST dump (highest dump_seq) include the
    // retry recorded after the first fault.
    let flight: Vec<_> = res
        .trace
        .events()
        .iter()
        .filter(|e| e.pid == SCHEDULER_PID && e.tid == SCHED_TID_FLIGHT)
        .collect();
    let last_marker = flight
        .iter()
        .rposition(|e| e.name == "flight.dump")
        .expect("dumps must exist");
    let replayed: Vec<&str> = flight[last_marker + 1..].iter().map(|e| &*e.name).collect();
    assert!(
        replayed.contains(&"retry"),
        "second dump must replay the first fault's retry: {replayed:?}"
    );
}

#[test]
fn timeline_renders_real_scheduler_runs() {
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(2));
    let pids: Vec<u64> = res.completed().map(|c| query_pid(c.id)).collect();
    let timeline = Timeline::from_trace(&res.trace, &pids);
    let art = timeline.render(72);
    assert!(art.lines().count() >= 3, "{art}");
    // Lanes are labeled with the query names given at submission.
    assert!(art.contains("t0"), "{art}");
    assert!(art.contains("phases"), "{art}");
}

/// Fail if any event repeats an attribute key: Chrome `args` is a JSON
/// object, and Perfetto silently keeps only the last duplicate.
fn assert_unique_attr_keys(trace: &Trace) {
    for e in trace.events() {
        let mut keys: Vec<&str> = e.attrs.iter().map(|a| a.key).collect();
        keys.sort_unstable();
        let n = keys.len();
        keys.dedup();
        assert_eq!(
            keys.len(),
            n,
            "{} on ({}, {}) repeats a key: {:?}",
            e.name,
            e.pid,
            e.tid,
            e.attrs
        );
    }
}

#[test]
fn no_exported_event_repeats_an_attribute_key() {
    // Serving mix: a shared build probed in batches under deadlines, a
    // CPU join beside it, and a multi-operator plan tenant.
    let dim = WorkloadSpec::paper_default(16, 512).generate();
    let mut serve: Vec<JoinQuery> = (0..3u64)
        .map(|i| {
            let w = if i == 0 {
                dim.clone()
            } else {
                JoinQuery::probe_batch(&dim, 0xD0 + i)
            };
            let mut q = JoinQuery::new(format!("dash-{i}"), w, Ns(i as f64 * 1e3));
            q.deadline = Some(Ns::millis(200.0));
            q.build_key = Some(0xD1);
            q
        })
        .collect();
    let mut cpu = JoinQuery::new(
        "cpu-0",
        WorkloadSpec::paper_default(16, 512).generate(),
        Ns::ZERO,
    );
    cpu.op = Operator::CpuRadix(CpuRadixJoin::power9(HashScheme::BucketChaining));
    serve.push(cpu);
    let w = TpchSpec::q3(2, 512).generate();
    serve.push(JoinQuery::plan("plan-q3", tpch_query(&w), Ns::ZERO));
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(serve);
    assert!(res.metrics.completed >= 4);
    assert_unique_attr_keys(&res.trace);

    // Chaos: faults, retries, grant revisions and flight dumps stamped
    // with gauge context.
    let horizon = Scheduler::new(hw(), SchedulerConfig::default())
        .run(batch(4))
        .metrics
        .makespan;
    let plan = FaultPlan::chaos(3, horizon, &hw());
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(batch(4), &plan);
    assert!(to_chrome_json(&res.trace).contains("flight.dump"));
    assert_unique_attr_keys(&res.trace);
}
