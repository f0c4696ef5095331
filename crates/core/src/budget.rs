//! The GPU memory budget of a partitioned operator (Sections 5.1 and
//! 5.3): a reserve for two first-pass partition pairs plus the runtime
//! slice, and a cache for the partitioned working set in the rest. The
//! Triton join, `GpuAggregation`, admission's floors and the plan's node
//! floors all read it here, so none of them can drift from the others.

use triton_hw::units::Bytes;
use triton_hw::HwConfig;

use crate::triton::TritonJoin;

/// How one partitioned operator splits device memory between its
/// pipeline reservation and its cache.
#[derive(Debug, Clone, Copy)]
pub struct GpuBudget {
    capacity: u64,
    total_bytes: u64,
    pub(crate) pass1_bits: u32,
    pair_buffers: u64,
    reserve: u64,
    pub(crate) max_cache: u64,
}

/// The post-histogram test of whether the largest staged pair outgrows
/// the staging area the uniform reservation leaves free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagingGate {
    pub max_pair_bytes: u64,
    pub worst_demand: u64,
    pub planning_pays: bool,
}

impl GpuBudget {
    /// The budget of an operator partitioning `total_bytes`, of which
    /// `r_bytes` are the build side, on `hw`.
    pub fn new(r_bytes: u64, total_bytes: u64, hw: &HwConfig) -> Self {
        let capacity = hw.gpu.mem_capacity.0;
        let pass1_bits = TritonJoin::pass1_bits(r_bytes, total_bytes, hw);
        let pair_buffers = 2 * (total_bytes >> pass1_bits).max(1);
        let reserve = pair_buffers + Self::runtime_slice(hw);
        GpuBudget {
            capacity,
            total_bytes,
            pass1_bits,
            pair_buffers,
            reserve,
            max_cache: capacity.saturating_sub(reserve),
        }
    }

    /// The eighth of device memory every GPU operator leaves to the
    /// runtime and its staging buffers.
    pub fn runtime_slice(hw: &HwConfig) -> u64 {
        hw.gpu.mem_capacity.0 / 8
    }

    /// Device memory beyond the runtime slice: what an operator without
    /// a partition-pair pipeline may cache.
    pub(crate) fn cacheable(hw: &HwConfig) -> u64 {
        hw.gpu.mem_capacity.0 - Self::runtime_slice(hw)
    }

    /// Two mean first-pass partition pairs: the second pass's buffers.
    pub fn pair_buffers(&self) -> u64 {
        self.pair_buffers
    }

    /// The pair buffers plus the runtime slice: the floor the operator
    /// holds before any cache.
    pub fn reserve(&self) -> u64 {
        self.reserve
    }

    /// The cache granted for `ask`: everything beyond the reserve when
    /// `None`, and never more than that.
    pub(crate) fn cache(&self, ask: Option<Bytes>) -> u64 {
        ask.map_or(self.max_cache, |b| b.0.min(self.max_cache))
    }

    /// The gate over the byte sizes of the pairs that need a second pass.
    /// A spilling working set stages a pair twice (the reloaded copy and
    /// the second-pass output), against the memory the cache leaves free.
    pub(crate) fn gate(
        &self,
        cache: u64,
        staged_pair_bytes: impl Iterator<Item = u64>,
    ) -> StagingGate {
        let max_pair_bytes = staged_pair_bytes.max().unwrap_or(0);
        let gate_capacity = self.capacity.saturating_sub(cache.min(self.total_bytes));
        let worst_demand = max_pair_bytes * (1 + u64::from(cache < self.total_bytes));
        StagingGate {
            max_pair_bytes,
            worst_demand,
            planning_pays: worst_demand > gate_capacity,
        }
    }
}
