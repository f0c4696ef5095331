//! # triton-core
//!
//! The Triton join — a GPU-partitioned, hierarchical hybrid hash join for
//! fast interconnects (Lutz et al., SIGMOD 2022) — together with every
//! baseline the paper evaluates, executing over a simulated AC922-class
//! machine (see `triton-hw`).
//!
//! Operators (all functional: they produce verifiable join results):
//!
//! * [`TritonJoin`] — the paper's contribution (Section 5): GPU radix
//!   partitioning over the interconnect, a hybrid GPU/CPU cached working
//!   set, and concurrent-kernel transfer/compute overlap.
//! * [`NoPartitioningJoin`] — the GPU baseline: one global hash table
//!   (linear probing or perfect hashing).
//! * [`CpuRadixJoin`] — the tuned multi-core baselines (POWER9, Xeon).
//! * [`CpuPartitionedJoin`] — the prior CPU-partitioned strategy
//!   (Sioulas et al.), re-optimised for NVLink 2.0.
//! * [`materialize`] — the tuple-width / materialization experiment.
//!
//! # Quick start
//!
//! ```
//! use triton_core::TritonJoin;
//! use triton_datagen::WorkloadSpec;
//! use triton_hw::HwConfig;
//!
//! // A scaled-down AC922 and a paper-style workload.
//! let hw = HwConfig::ac922().scaled(2048);
//! let workload = WorkloadSpec::paper_default(8, 512).generate();
//! let report = TritonJoin::default().run(&workload, &hw);
//! assert_eq!(report.result.matches, workload.s.len() as u64);
//! println!("{:.2} G tuples/s", report.throughput_gtps());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregate;
pub mod bloom;
pub mod budget;
pub mod cpu_partitioned;
pub mod cpu_radix;
pub mod hash_table;
pub mod materialize;
pub mod npj;
mod par;
pub mod reference;
pub mod report;
pub mod skew;
pub mod trace;
pub mod triton;

pub use aggregate::{
    gpu_distinct, npj_style_aggregate, reference_aggregate, AggregateResult, GpuAggregation,
    GroupAggregate,
};
pub use bloom::BloomFilter;
pub use budget::GpuBudget;
pub use cpu_partitioned::CpuPartitionedJoin;
pub use cpu_radix::CpuRadixJoin;
pub use hash_table::{
    BucketChainTable, HashScheme, LinearProbeTable, PerfectArrayTable, BUCKET_CHAIN_ENTRIES,
};
pub use materialize::{run_with_materialization, Materialization};
pub use npj::NoPartitioningJoin;
pub use reference::reference_join;
pub use report::{
    JoinReport, JoinResult, OverlapLanes, PairPlacement, PhaseReport, PlacementReport,
};
pub use skew::{SkewMechanisms, SkewPolicy};
pub use trace::{phase_bytes, phase_key, phase_progress, record_overlap, record_report};
pub use triton::{JoinRunOptions, TritonJoin};
