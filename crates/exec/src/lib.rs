//! # triton-exec
//!
//! A multi-tenant serving runtime for the Triton join: concurrent join
//! queries share one simulated AC922-class machine under memory-budget
//! admission control.
//!
//! The paper's Section 5.2 runs a join's *stages* concurrently on
//! disjoint SM sets because they bottleneck on different resources
//! (interconnect transfer vs. compute). This crate promotes that
//! arbitration from intra-query to inter-query: every in-flight query is
//! profiled into a [`triton_hw::ResourceVector`] of busy fractions
//! (link, GPU memory, SM issue slots, IOMMU, host CPU), and a weighted
//! max-min arbiter ([`triton_hw::fair_share_rates`]) sets each query's
//! execution speed so disjoint-bottleneck queries overlap nearly for
//! free while contending queries split the saturated resource — never
//! finishing later than a serial schedule.
//!
//! Pieces:
//!
//! * [`JoinQuery`] / [`Operator`] — per-query descriptors: workload,
//!   operator choice (Triton, no-partitioning, CPU radix), priority
//!   weight, deadline, arrival time, and a build-relation key.
//! * [`AdmissionController`] — GPU memory reservations through a
//!   [`triton_mem::SimAllocator`]: each admitted query gets its pipeline
//!   floor plus a cache grant, runs with `cache_bytes = Some(grant)`,
//!   and the reservation sum can never exceed device capacity.
//! * [`BuildCache`] — build-side sharing: probe batches naming the same
//!   build relation reuse its partitioned state instead of
//!   re-partitioning R per query.
//! * [`Scheduler`] — the fluid discrete-event loop: queue (priority
//!   order, bounded), admit, arbitrate speeds, advance to the next
//!   arrival/completion; backpressure and typed shedding
//!   ([`RejectReason`]) when the machine is full.
//! * [`SchedulerMetrics`] — aggregate throughput, p50/p99 latency
//!   (resolved by a bounded streaming log2 histogram), memory high-water
//!   marks, shed counts, fault/recovery accounting, and a stable JSON
//!   encoding for determinism checks.
//! * Telemetry ([`crate::observe`], [`triton_metrics`]) — a windowed
//!   time-series registry on the simulated clock: allocator occupancy
//!   and fragmentation gauges, link/SM utilization sampled off the
//!   arbitrated rates, per-phase progress counters, and Perfetto counter
//!   lanes; exposed on [`ServeResult::telemetry`] and byte-identical
//!   across same-seed replays.
//! * SLO accounting ([`SloAccount`]) — per-tenant latency-SLO
//!   attainment, shed counts, error-budget burn, and grant-revision
//!   counts, settled at scheduler decision points and threaded into
//!   [`ServeResult::slo`].
//! * Resilience ([`crate::fault`], [`crate::resilience`]) — replay a
//!   [`triton_hw::FaultPlan`] with [`Scheduler::run_with_faults`]: link
//!   degradations reshape demand vectors, ECC retirements shrink
//!   capacity and revoke reservations, kernel faults kill attempts; a
//!   [`RetryPolicy`] with deterministic backoff, a degradation ladder
//!   (Triton → CPU-partitioned → CPU radix), and a build-cache circuit
//!   breaker recover victims without ever changing answers.
//! * Elastic grants ([`MemoryGrant`] / [`GrantRevision`] /
//!   [`ElasticGrants`]) — admission grants are revisable contracts: the
//!   scheduler shrinks running queries' optional cache shares in place
//!   (priced through the link cost model, traced as `grant-revision`
//!   events) before it ever revokes or sheds, and the join itself
//!   absorbs mid-query shrinks by runtime re-partitioning with
//!   depth-bounded recursive spilling
//!   ([`triton_core::ElasticPolicy`]).
//!
//! Execution stays functional: every admitted query really runs its
//! operator and the per-query [`triton_core::JoinReport`] carries an
//! exact, verifiable join result — only the timing is arbitrated.
//!
//! # Quick start
//!
//! ```
//! use triton_exec::{JoinQuery, Scheduler, SchedulerConfig};
//! use triton_datagen::WorkloadSpec;
//! use triton_hw::{units::Ns, HwConfig};
//!
//! let hw = HwConfig::ac922().scaled(1024);
//! let queries: Vec<JoinQuery> = (0..4)
//!     .map(|i| {
//!         let w = WorkloadSpec::paper_default(16, 1024).generate();
//!         JoinQuery::new(format!("tenant-{i}"), w, Ns::ZERO)
//!     })
//!     .collect();
//! let result = Scheduler::new(hw, SchedulerConfig::default()).run(queries);
//! assert_eq!(result.metrics.completed, 4);
//! assert!(result.metrics.peak_gpu_reserved <= result.metrics.gpu_capacity);
//! println!("{}", result.metrics.summary());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admission;
pub mod build_cache;
pub mod cost_cache;
pub mod demand;
pub mod fault;
pub mod metrics;
pub mod observe;
pub mod query;
pub mod resilience;
pub mod scheduler;
pub mod slo;

pub use admission::{
    operator_with_grant, AdmissionController, AdmissionError, GrantRevision, MemoryGrant,
    Reservation, RevisionOutcome,
};
pub use build_cache::{BuildCache, BuildHit, BUILD_RADIX_BITS, FULL_RANGE};
pub use cost_cache::{CostCache, CostKey, Memo};
pub use demand::ResourceDemand;
pub use fault::{degraded_vector, FaultCause, FaultOutcome};
pub use metrics::{percentile, PhaseRollup, SchedulerMetrics};
pub use observe::{
    query_pid, GaugeSample, Recorder, METRICS_WINDOW_NS, SCHEDULER_PID, SCHED_TID_FLIGHT,
    SCHED_TID_GAUGES, TID_LIFECYCLE,
};
pub use query::{JoinQuery, Operator, QueryId};
pub use resilience::{downgrade_operator, ElasticGrants, ResilienceConfig, RetryPolicy};
pub use scheduler::{
    CompletedQuery, Outcome, RejectReason, Scheduler, SchedulerConfig, ServeResult,
};
pub use slo::{tenant_of, SloAccount, DEFAULT_ERROR_BUDGET_PPM};
// Re-exported so serving callers can build fault plans without a direct
// triton-hw dependency.
pub use triton_hw::FaultPlan;
// Re-exported so serving callers can read the telemetry registry without
// a direct triton-metrics dependency.
pub use triton_metrics::{Log2Histogram, MetricsRegistry};
// Re-exported so serving callers can export and validate traces without
// a direct triton-trace dependency.
pub use triton_trace::{to_chrome_json, validate_chrome, Trace};
