//! Join execution reports: per-kernel timing, profiling counters, and the
//! derived metrics every figure of the evaluation reads.

use triton_hw::kernel::{KernelCost, KernelTiming, StallProfile};
use triton_hw::power::{efficiency_mtps_per_w, Executor};
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;

/// One executed kernel (or CPU phase) of a join.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (the paper's kernel labels: "PS 1", "Part 1", ...).
    pub name: String,
    /// Wall time contributed to the critical path.
    pub time: Ns,
    /// Timing decomposition (GPU kernels only).
    pub timing: Option<KernelTiming>,
    /// Resource counters (GPU kernels only).
    pub cost: Option<KernelCost>,
    /// Stall attribution (GPU kernels only).
    pub stalls: Option<StallProfile>,
}

impl PhaseReport {
    /// A GPU kernel phase: derives timing and stalls from the cost.
    pub fn gpu(cost: KernelCost, hw: &HwConfig) -> Self {
        let timing = cost.timing(hw);
        let stalls = StallProfile::from_timing(&cost, &timing, hw);
        PhaseReport {
            name: cost.name.clone(),
            time: timing.total,
            timing: Some(timing),
            cost: Some(cost),
            stalls: Some(stalls),
        }
    }

    /// A CPU phase with a precomputed time.
    pub fn cpu(name: impl Into<String>, time: Ns) -> Self {
        PhaseReport {
            name: name.into(),
            time,
            timing: None,
            cost: None,
            stalls: None,
        }
    }
}

/// Functional result of a join: verifiable against a reference join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinResult {
    /// Number of matching tuple pairs.
    pub matches: u64,
    /// Checksum: wrapping sum of `r_rid + s_rid` over all matches.
    pub checksum: u64,
}

impl JoinResult {
    /// Fold one match into the result.
    #[inline]
    pub fn add(&mut self, r_rid: u64, s_rid: u64) {
        self.matches += 1;
        self.checksum = self.checksum.wrapping_add(r_rid.wrapping_add(s_rid));
    }

    /// Empty result.
    pub fn empty() -> Self {
        JoinResult {
            matches: 0,
            checksum: 0,
        }
    }

    /// Merge a partial result.
    pub fn merge(&mut self, o: &JoinResult) {
        self.matches += o.matches;
        self.checksum = self.checksum.wrapping_add(o.checksum);
    }
}

/// Per-pair stage times of a Section 5.2 concurrent-kernel pipeline:
/// stage A (second pass) of pair *i+1* overlaps stage B (join) of pair
/// *i* on disjoint SM halves. Carried on the [`JoinReport`] so tracing
/// can draw the overlap as two lanes instead of inferring it from the
/// pipelined total.
#[derive(Debug, Clone, Default)]
pub struct OverlapLanes {
    /// Per-pair stage A (second pass + sched) times, in pair order.
    pub stage_a: Vec<Ns>,
    /// Per-pair stage B (join) times, in pair order.
    pub stage_b: Vec<Ns>,
    /// Execution order chosen by the scheduler: `order[k]` is the lane
    /// index of the pair fed through the pipeline k-th. Empty means
    /// submission (index) order — the pre-skew-aware behavior.
    pub order: Vec<usize>,
}

impl OverlapLanes {
    /// The effective execution order: the recorded permutation, or the
    /// identity when none was recorded (or it is malformed).
    pub fn execution_order(&self) -> Vec<usize> {
        let n = self.stage_a.len().min(self.stage_b.len());
        if self.order.len() == n {
            let mut seen = vec![false; n];
            let valid = self.order.iter().all(|&i| {
                let ok = i < n && !seen[i];
                if i < n {
                    seen[i] = true;
                }
                ok
            });
            if valid {
                return self.order.clone();
            }
        }
        (0..n).collect()
    }

    /// Start offsets `(a_start, b_start)` of each pair relative to the
    /// pipeline's begin, under the barrier semantics of
    /// [`triton_hw::kernel::pipeline2`]: A of the next scheduled pair and
    /// B of the current one launch together, and the next barrier waits
    /// for both. Indexed by *lane* (pair), not by schedule position.
    pub fn schedule(&self) -> Vec<(Ns, Ns)> {
        let order = self.execution_order();
        let n = order.len();
        if n == 0 {
            return Vec::new();
        }
        let mut a_start = vec![Ns::ZERO; n];
        let mut b_start = vec![Ns::ZERO; n];
        let mut barrier = self.stage_a[order[0]];
        for k in 1..n {
            a_start[order[k]] = barrier;
            b_start[order[k - 1]] = barrier;
            barrier += self.stage_a[order[k]].max(self.stage_b[order[k - 1]]);
        }
        b_start[order[n - 1]] = barrier;
        a_start.into_iter().zip(b_start).collect()
    }

    /// End-to-end pipeline time implied by the schedule; equals
    /// [`triton_hw::kernel::pipeline2_scheduled`] over the same stages
    /// and order ([`triton_hw::kernel::pipeline2`] when no order is
    /// recorded).
    pub fn total(&self) -> Ns {
        let order = self.execution_order();
        match order.last() {
            Some(&last) => self.schedule()[last].1 + self.stage_b[last],
            None => Ns::ZERO,
        }
    }
}

/// Cache placement decision for one partition pair of a hybrid join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairPlacement {
    /// Pass-1 partition index of the pair.
    pub part: u64,
    /// Combined pair payload (R + S) in bytes.
    pub bytes: u64,
    /// Bytes of the pair resident in GPU memory.
    pub gpu_bytes: u64,
    /// Whether the planner pinned the whole pair GPU-resident.
    pub cached: bool,
}

/// How a join placed its partitioned working set across GPU and CPU
/// memory — the observable outcome of the cache policy, per pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementReport {
    /// Placement policy label (`"interleaved"`, `"prefix"`, `"planned"`).
    pub policy: String,
    /// GPU cache budget the policy distributed, in bytes.
    pub cache_budget_bytes: u64,
    /// Working-set bytes resident in GPU memory (cache hits at read
    /// time).
    pub cache_hit_bytes: u64,
    /// Working-set bytes spilled to CPU memory.
    pub spilled_bytes: u64,
    /// Per-pair decisions, in pass-1 partition order (non-empty pairs).
    pub pairs: Vec<PairPlacement>,
    /// GPU bytes the join held back from the cache for its pair pipeline
    /// and the runtime ([`crate::GpuBudget::reserve`]).
    pub reserve: u64,
    /// GPU bytes left free beside the cached working set: the staging
    /// area each spilled pair is reloaded and second-pass partitioned in.
    pub staging_capacity: u64,
    /// Largest partition pair whose build side needs a second pass.
    pub max_pair_bytes: u64,
    /// Staging that pair needs: twice its bytes when part of the
    /// working set spills (the reloaded copy and the second-pass output).
    pub worst_demand: u64,
    /// `worst_demand` exceeds the memory the cache leaves free, so a
    /// skew-aware join plans its placement instead of splitting the
    /// cache evenly.
    pub planning_pays: bool,
}

impl PlacementReport {
    /// Number of pairs pinned whole.
    pub fn pairs_cached(&self) -> u64 {
        self.pairs.iter().filter(|p| p.cached).count() as u64
    }
}

/// Complete report of one join execution.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// Operator name ("GPU Triton Join", "CPU Radix Join (POWER9)", ...).
    pub name: String,
    /// Phases in execution order. Phase times reflect each kernel in
    /// isolation; `total` accounts for pipeline overlap.
    pub phases: Vec<PhaseReport>,
    /// End-to-end critical-path time.
    pub total: Ns,
    /// Actual tuples processed (|R| + |S| at simulation scale).
    pub tuples_actual: u64,
    /// Modeled tuples (|R| + |S| at paper scale).
    pub tuples_modeled: u64,
    /// Functional join result.
    pub result: JoinResult,
    /// Which processor ran the join (for the power model).
    pub executor: Executor,
    /// Per-pair stage lanes when the operator ran its stages as
    /// concurrent kernels on split SM halves (`None` for serial
    /// operators and ablations).
    pub overlap: Option<OverlapLanes>,
    /// Cache placement decisions of hybrid-caching operators (`None` for
    /// operators without a GPU-cached working set).
    pub placement: Option<PlacementReport>,
}

impl JoinReport {
    /// Join throughput in G tuples/s, the paper's headline metric:
    /// `(|R| + |S|) / runtime`. Computed over *actual* tuples and modeled
    /// time, which the capacity-scaling argument makes directly comparable
    /// to the paper's absolute numbers.
    pub fn throughput_gtps(&self) -> f64 {
        if self.total.0 <= 0.0 {
            return 0.0;
        }
        self.tuples_actual as f64 / self.total.as_secs() / 1e9
    }

    /// Power efficiency in M tuples/s/W (Fig 23).
    pub fn power_efficiency(&self, hw: &HwConfig) -> f64 {
        efficiency_mtps_per_w(&hw.power, self.executor, self.throughput_gtps() * 1e9)
    }

    /// Sum of IOMMU page-table walks across all phases.
    pub fn iommu_walks(&self) -> u64 {
        self.phases
            .iter()
            .filter_map(|p| p.cost.as_ref())
            .map(|c| c.tlb.full_misses)
            .sum()
    }

    /// IOMMU translation *requests* per tuple (Fig 14b): walks times the
    /// multi-level request amplification of the POWER9 counter.
    pub fn iommu_requests_per_tuple(&self, hw: &HwConfig) -> f64 {
        self.iommu_walks() as f64 * hw.tlb.requests_per_walk / self.tuples_actual.max(1) as f64
    }

    /// Interconnect utilisation over the whole join: wire time of the
    /// busier direction divided by total time (Fig 14a).
    pub fn link_utilization(&self, hw: &HwConfig) -> f64 {
        let link = triton_hw::LinkModel::new(&hw.link);
        let mut up = Bytes(0);
        let mut down = Bytes(0);
        for p in &self.phases {
            if let Some(c) = &p.cost {
                up += c.link.wire_cpu_to_gpu(&link);
                down += c.link.wire_gpu_to_cpu(&link);
            }
        }
        let busy = up.0.max(down.0) as f64;
        (busy / hw.link.raw_bw_per_dir.0 / self.total.as_secs()).min(1.0)
    }

    /// Group phase times by the paper's Fig 15 kernel categories,
    /// returning `(label, fraction of total)` pairs.
    pub fn time_breakdown(&self) -> Vec<(String, f64)> {
        let mut groups: Vec<(String, f64)> = Vec::new();
        let sum: f64 = self.phases.iter().map(|p| p.time.0).sum();
        for p in &self.phases {
            let frac = if sum > 0.0 { p.time.0 / sum } else { 0.0 };
            if let Some(g) = groups.iter_mut().find(|(n, _)| *n == p.name) {
                g.1 += frac;
            } else {
                groups.push((p.name.clone(), frac));
            }
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_schedule_matches_pipeline2() {
        let lanes = OverlapLanes {
            stage_a: vec![Ns(10.0), Ns(20.0), Ns(5.0)],
            stage_b: vec![Ns(15.0), Ns(8.0), Ns(30.0)],
            order: vec![],
        };
        let sched = lanes.schedule();
        assert_eq!(sched.len(), 3);
        // A0 at 0; A1 and B0 launch together at the first barrier.
        assert_eq!(sched[0].0, Ns::ZERO);
        assert_eq!(sched[1].0, Ns(10.0));
        assert_eq!(sched[0].1, Ns(10.0));
        // Next barrier waits for max(A1, B0) = 20.
        assert_eq!(sched[2].0, Ns(30.0));
        assert_eq!(sched[1].1, Ns(30.0));
        // Last join starts after max(A2, B1) and runs to the end.
        assert_eq!(sched[2].1, Ns(38.0));
        let expected = triton_hw::kernel::pipeline2(&lanes.stage_a, &lanes.stage_b);
        assert!((lanes.total().0 - expected.0).abs() < 1e-12);
        assert!(OverlapLanes::default().schedule().is_empty());
        assert_eq!(OverlapLanes::default().total(), Ns::ZERO);
    }

    #[test]
    fn ordered_schedule_matches_pipeline2_scheduled() {
        let lanes = OverlapLanes {
            stage_a: vec![Ns(10.0), Ns(1.0)],
            stage_b: vec![Ns(1.0), Ns(10.0)],
            order: vec![1, 0],
        };
        let expected =
            triton_hw::kernel::pipeline2_scheduled(&lanes.stage_a, &lanes.stage_b, &[1, 0]);
        assert!((lanes.total().0 - expected.0).abs() < 1e-12);
        assert_eq!(lanes.total(), Ns(12.0));
        // Pair 1 runs first: its A starts at 0; pair 0's A at the first
        // barrier, its B last.
        let sched = lanes.schedule();
        assert_eq!(sched[1].0, Ns::ZERO);
        assert_eq!(sched[0].0, Ns(1.0));
        assert_eq!(sched[0].1, Ns(11.0));
        // A malformed order falls back to submission order.
        let bad = OverlapLanes {
            order: vec![1, 1],
            ..lanes.clone()
        };
        assert_eq!(bad.execution_order(), vec![0, 1]);
    }

    #[test]
    fn placement_report_counts_cached_pairs() {
        let p = PlacementReport {
            policy: "planned".into(),
            cache_budget_bytes: 1024,
            cache_hit_bytes: 700,
            spilled_bytes: 300,
            pairs: vec![
                PairPlacement {
                    part: 0,
                    bytes: 700,
                    gpu_bytes: 700,
                    cached: true,
                },
                PairPlacement {
                    part: 3,
                    bytes: 300,
                    gpu_bytes: 0,
                    cached: false,
                },
            ],
            ..PlacementReport::default()
        };
        assert_eq!(p.pairs_cached(), 1);
    }

    #[test]
    fn join_result_checksum_is_order_independent() {
        let mut a = JoinResult::empty();
        a.add(1, 2);
        a.add(3, 4);
        let mut b = JoinResult::empty();
        b.add(3, 4);
        b.add(1, 2);
        assert_eq!(a, b);
        assert_eq!(a.matches, 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = JoinResult::empty();
        a.add(1, 1);
        let mut b = JoinResult::empty();
        b.add(2, 2);
        a.merge(&b);
        assert_eq!(a.matches, 2);
        assert_eq!(a.checksum, 6);
    }

    #[test]
    fn throughput_math() {
        let r = JoinReport {
            name: "x".into(),
            phases: vec![],
            total: Ns::secs(2.0),
            tuples_actual: 4_000_000_000,
            tuples_modeled: 4_000_000_000,
            result: JoinResult::empty(),
            executor: Executor::Gpu,
            overlap: None,
            placement: None,
        };
        assert!((r.throughput_gtps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let r = JoinReport {
            name: "x".into(),
            phases: vec![
                PhaseReport::cpu("a", Ns(30.0)),
                PhaseReport::cpu("b", Ns(60.0)),
                PhaseReport::cpu("a", Ns(10.0)),
            ],
            total: Ns(100.0),
            tuples_actual: 1,
            tuples_modeled: 1,
            result: JoinResult::empty(),
            executor: Executor::Cpu,
            overlap: None,
            placement: None,
        };
        let bd = r.time_breakdown();
        assert_eq!(bd.len(), 2);
        let sum: f64 = bd.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((bd[0].1 - 0.4).abs() < 1e-12);
    }
}
