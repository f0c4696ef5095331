//! Replay-determinism regression tests.
//!
//! The serving runtime promises byte-identical replay: the same set of
//! queries and the same fault plan must reproduce the same metrics, and
//! — after the move from hashed to ordered containers — that promise
//! must hold regardless of the order queries were *submitted* in.
//! Submission order assigns ids, but execution order is decided by
//! arrival time alone, so any permutation of the submission batch with
//! distinct arrival times is the same serving run.

use triton_datagen::WorkloadSpec;
use triton_exec::{to_chrome_json, FaultPlan, JoinQuery, Scheduler, SchedulerConfig};
use triton_hw::units::Ns;
use triton_hw::HwConfig;

/// The batch in canonical arrival order: distinct arrival times, mixed
/// priorities, and a shared build key so the build cache participates.
/// The sharing queries are probe batches over one build relation, as
/// the `build_key` contract requires.
fn batch() -> Vec<JoinQuery> {
    let spec = WorkloadSpec::paper_default(32, 512);
    let base = spec.generate();
    (0..6)
        .map(|i| {
            let w = if i % 2 == 0 {
                JoinQuery::probe_batch(&base, i as u64)
            } else {
                let mut spec = spec.clone();
                spec.seed ^= i as u64;
                spec.generate()
            };
            let mut q = JoinQuery::new(format!("r{i}"), w, Ns(i as f64 * 1e5));
            q.priority = 1 + (i % 3) as u32;
            if i % 2 == 0 {
                q.build_key = Some(7);
            }
            q
        })
        .collect()
}

/// `batch()` submitted in a fixed scrambled order. Ids differ; the
/// serving timeline must not.
fn shuffled_batch() -> Vec<JoinQuery> {
    let qs = batch();
    [3usize, 0, 5, 1, 4, 2]
        .iter()
        .map(|&i| qs[i].clone())
        .collect()
}

#[test]
fn metrics_json_identical_under_shuffled_submission() {
    let hw = HwConfig::ac922().scaled(512);
    let a = Scheduler::new(hw.clone(), SchedulerConfig::default()).run(batch());
    let b = Scheduler::new(hw, SchedulerConfig::default()).run(shuffled_batch());
    assert_eq!(
        a.metrics.to_json(),
        b.metrics.to_json(),
        "submission order leaked into the serving metrics"
    );
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn faulted_replay_is_byte_identical() {
    // The fault path exercises the revocation/quarantine machinery that
    // used to iterate hashed containers. (Kernel-fault victims are picked
    // by submission-order id, so this replay holds the order fixed and
    // asserts run-to-run stability instead.)
    let hw = HwConfig::ac922().scaled(512);
    let clean = Scheduler::new(hw.clone(), SchedulerConfig::default()).run(batch());
    let mid = Ns(clean.metrics.makespan.0 * 0.4);
    let plan = FaultPlan::with_seed(11).kernel_fault(mid);
    let a = Scheduler::new(hw.clone(), SchedulerConfig::default()).run_with_faults(batch(), &plan);
    let b = Scheduler::new(hw, SchedulerConfig::default()).run_with_faults(batch(), &plan);
    assert_eq!(
        a.metrics.to_json(),
        b.metrics.to_json(),
        "faulted replay must be deterministic"
    );
}

#[test]
fn repeated_runs_are_byte_identical() {
    let hw = HwConfig::ac922().scaled(512);
    let a = Scheduler::new(hw.clone(), SchedulerConfig::default()).run(batch());
    let b = Scheduler::new(hw, SchedulerConfig::default()).run(batch());
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
}

#[test]
fn clean_trace_is_byte_identical_across_replays() {
    // The trace carries every span and instant of the run on the
    // simulated clock; same batch, same machine → the serialized Chrome
    // JSON must match byte for byte.
    let hw = HwConfig::ac922().scaled(512);
    let a = Scheduler::new(hw.clone(), SchedulerConfig::default()).run(batch());
    let b = Scheduler::new(hw, SchedulerConfig::default()).run(batch());
    let ja = to_chrome_json(&a.trace);
    let jb = to_chrome_json(&b.trace);
    assert!(!ja.is_empty() && !a.trace.is_empty());
    assert_eq!(ja, jb, "trace replay must be byte-identical");
}

#[test]
fn faulted_trace_is_byte_identical_across_replays() {
    // Fault instants, retries, downgrades, and flight-recorder dumps all
    // enter the trace; the same seeded plan must replay them exactly.
    let hw = HwConfig::ac922().scaled(512);
    let clean = Scheduler::new(hw.clone(), SchedulerConfig::default()).run(batch());
    let mid = Ns(clean.metrics.makespan.0 * 0.4);
    let plan = FaultPlan::with_seed(11).kernel_fault(mid);
    let a = Scheduler::new(hw.clone(), SchedulerConfig::default()).run_with_faults(batch(), &plan);
    let b = Scheduler::new(hw, SchedulerConfig::default()).run_with_faults(batch(), &plan);
    let ja = to_chrome_json(&a.trace);
    let jb = to_chrome_json(&b.trace);
    assert!(ja.contains("kernel-fault"), "the fault must be traced");
    assert!(ja.contains("flight.dump"), "the fault must dump the ring");
    assert_eq!(ja, jb, "faulted trace replay must be byte-identical");
}
