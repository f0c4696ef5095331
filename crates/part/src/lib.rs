//! # triton-part
//!
//! Radix partitioning over the simulated AC922-class machine: the
//! substrate of the Triton join's out-of-core strategy.
//!
//! * [`prefix_sum`] — histogram + prefix-sum kernels (CPU and GPU), the
//!   pass that determines every partition's output offset;
//! * [`standard`] / [`linear`] — state-of-the-art GPU baselines
//!   (direct atomic scatter; linear-allocator SWWC);
//! * [`shared`] — the paper's Shared SWWC algorithm (Section 4.2):
//!   block-shared buffers, perfectly coalesced flushes;
//! * [`hierarchical`] — the paper's Hierarchical SWWC algorithm
//!   (Section 4.3): a second buffer tier in GPU memory for high fanouts;
//! * [`cpu_swwc`] — the CPU SWWC partitioner (baseline strategies);
//! * [`common`] — locations, cost charging, and the partition-major
//!   output layout shared by all of them.
//!
//! All GPU partitioners execute functionally at warp granularity and
//! account every access against `triton-hw`'s link/TLB/memory models.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod common;
pub mod cpu_swwc;
pub mod hierarchical;
pub mod linear;
pub mod partitioner;
pub mod prefix_sum;
pub mod shared;
pub mod standard;

pub use common::{ChargeCtx, InstrCosts, Location, Partitioned, PassConfig, Span};
pub use cpu_swwc::{cpu_partition_time, cpu_swwc_partition, plan_passes, CpuPartitionResult};
pub use hierarchical::HierarchicalSwwc;
pub use linear::LinearSwwc;
pub use partitioner::{partition_standalone, recycle, spare_columns, Algorithm, GpuPartitioner};
pub use prefix_sum::{compute_histogram, cpu_prefix_sum_cost, gpu_prefix_sum, HistogramResult};
pub use shared::SharedSwwc;
pub use standard::StandardScatter;

/// Construct a partitioner by algorithm id.
pub fn make_partitioner(alg: Algorithm) -> Box<dyn GpuPartitioner> {
    match alg {
        Algorithm::Standard => Box::new(StandardScatter),
        Algorithm::Linear => Box::new(LinearSwwc),
        Algorithm::Shared => Box::new(SharedSwwc),
        Algorithm::Hierarchical => Box::new(HierarchicalSwwc::default()),
    }
}
