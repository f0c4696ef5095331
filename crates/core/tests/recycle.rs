//! Recycled first-pass output columns never change a join.
//!
//! A sink-free Triton join hands its two first-pass outputs back with
//! `triton_part::recycle`, and the next join of the same size writes its
//! first pass into them without clearing them. This file holds a single
//! test: the spare list is process-wide, and a second test running
//! beside it would make the counts below racy.

use triton_core::{JoinReport, JoinRunOptions, TritonJoin};
use triton_datagen::{Workload, WorkloadSpec};
use triton_hw::HwConfig;
use triton_part::spare_columns;

fn workload(seed: u64) -> Workload {
    WorkloadSpec {
        seed,
        ..WorkloadSpec::paper_default(128, 512)
    }
    .generate()
}

/// A join's report and its answer, rendered exactly.
fn run(w: &Workload, hw: &HwConfig) -> String {
    let rep: JoinReport = TritonJoin::default().run(w, hw);
    assert!(spare_columns() <= 4, "spare list over one join's columns");
    format!("{rep:?}")
}

#[test]
fn recycled_columns_never_change_a_report() {
    let hw = HwConfig::ac922().scaled(512);
    // Same size, different keys and rids: a reused column holds the other
    // input's tuples until the pass overwrites every slot.
    let (a, b) = (workload(1), workload(2));
    assert_eq!(a.r.len(), b.r.len());
    assert_ne!(a.r.keys, b.r.keys);
    assert_eq!(spare_columns(), 0);

    let b_fresh = run(&b, &hw);
    assert_eq!(spare_columns(), 4, "a sink-free join hands back R and S");
    let a_recycled = run(&a, &hw);
    assert_eq!(spare_columns(), 4);

    // A plan join takes the spares but hands nothing back.
    let mut sink = Vec::new();
    let opts = JoinRunOptions {
        sink: Some(&mut sink),
        ..JoinRunOptions::default()
    };
    let with_sink = TritonJoin::default().try_run_with(&a, &hw, opts).unwrap();
    assert_eq!(sink.len() as u64, with_sink.result.matches);
    assert_eq!(spare_columns(), 0, "a sink join must hand nothing back");

    let a_fresh = run(&a, &hw);
    assert_eq!(a_recycled, a_fresh, "recycled columns changed a report");
    let b_recycled = run(&b, &hw);
    assert_eq!(b_recycled, b_fresh, "recycled columns changed a report");
    assert_eq!(spare_columns(), 4);

    // A join of another size frees the spares before it allocates, and
    // leaves only its own.
    let small = WorkloadSpec::paper_default(32, 512).generate();
    run(&small, &hw);
    assert_eq!(spare_columns(), 4);
}
