//! Group-by aggregation and duplicate elimination on the GPU-partitioned
//! strategy.
//!
//! Section 2.2 of the paper: "This technique also applies to other
//! hash-based relational operators, such as group-based aggregations and
//! duplicate elimination." This module delivers on that sentence with the
//! same substrate the Triton join uses — a Hierarchical first pass that
//! spills group state over the interconnect into a hybrid cached array,
//! then per-partition scratchpad hash tables — plus the no-partitioning
//! baseline it outperforms once the group state outgrows GPU memory.

use std::collections::BTreeMap;

use triton_datagen::{Relation, TUPLE_BYTES};
use triton_hw::kernel::{pipeline2, KernelCost};
use triton_hw::power::Executor;
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;
use triton_mem::SimAllocator;
use triton_part::{
    compute_histogram, cpu_prefix_sum_cost, make_partitioner, Algorithm, PassConfig, Span,
};

use crate::budget::GpuBudget;
use crate::report::{JoinReport, JoinResult, PhaseReport};

/// The aggregate computed per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupAggregate {
    /// COUNT(*).
    pub count: u64,
    /// SUM(rid) (wrapping, as a verifiable checksum aggregate).
    pub sum: u64,
}

/// Result of an aggregation: per-group state folded into a verifiable
/// digest (group count plus order-independent checksums).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateResult {
    /// Number of distinct groups.
    pub groups: u64,
    /// Wrapping sum over `hash(key) * count` — order-independent.
    pub count_digest: u64,
    /// Wrapping sum over `hash(key) + sum` — order-independent.
    pub sum_digest: u64,
}

impl AggregateResult {
    fn empty() -> Self {
        AggregateResult {
            groups: 0,
            count_digest: 0,
            sum_digest: 0,
        }
    }

    fn fold(&mut self, key: u64, agg: GroupAggregate) {
        let h = triton_datagen::multiply_shift(key);
        self.groups += 1;
        self.count_digest = self.count_digest.wrapping_add(h.wrapping_mul(agg.count));
        self.sum_digest = self.sum_digest.wrapping_add(h.wrapping_add(agg.sum));
    }
}

/// Reference aggregation (ground truth).
pub fn reference_aggregate(rel: &Relation) -> AggregateResult {
    let mut map: BTreeMap<u64, GroupAggregate> = BTreeMap::new();
    for (k, r) in rel.iter() {
        let e = map.entry(k).or_default();
        e.count += 1;
        e.sum = e.sum.wrapping_add(r);
    }
    let mut out = AggregateResult::empty();
    for (k, agg) in map {
        out.fold(k, agg);
    }
    out
}

/// GPU-partitioned group-by aggregation (the Triton strategy applied to
/// aggregation): one Hierarchical pass into a hybrid cached array, then
/// per-partition scratchpad hash aggregation.
///
/// ```
/// use triton_core::{GpuAggregation, reference_aggregate};
/// use triton_datagen::WorkloadSpec;
/// use triton_hw::HwConfig;
/// let hw = HwConfig::ac922().scaled(4096);
/// let rel = WorkloadSpec::paper_default(4, 2048).generate().s;
/// let (agg, _report) = GpuAggregation::default().run(&rel, &hw);
/// assert_eq!(agg, reference_aggregate(&rel));
/// ```
#[derive(Debug, Clone)]
pub struct GpuAggregation {
    /// First-pass partitioning algorithm.
    pub pass1: Algorithm,
}

impl Default for GpuAggregation {
    fn default() -> Self {
        GpuAggregation {
            pass1: Algorithm::Hierarchical,
        }
    }
}

impl GpuAggregation {
    /// Execute over `rel`; `tuples_modeled` only labels the report.
    pub fn run(&self, rel: &Relation, hw: &HwConfig) -> (AggregateResult, JoinReport) {
        self.run_with(rel, hw, false)
    }

    /// Execute as one node of a query plan: when `input_resident`, the
    /// input is a pipelined upstream intermediate already in GPU memory,
    /// so the first pass reads GPU bandwidth instead of the interconnect.
    /// With `input_resident = false` this is exactly [`Self::run`].
    pub fn run_with(
        &self,
        rel: &Relation,
        hw: &HwConfig,
        input_resident: bool,
    ) -> (AggregateResult, JoinReport) {
        let n = rel.len();
        let bytes = n as u64 * TUPLE_BYTES;
        // Group state is bounded by the input: budget it like a join
        // whose build side is the whole input.
        let budget = GpuBudget::new(bytes, bytes, hw);
        let b1 = budget.pass1_bits;
        let half_sms = (hw.gpu.num_sms / 2).max(1);

        let mut alloc = SimAllocator::new(hw);
        let layout = alloc
            .alloc_hybrid(Bytes(bytes), Bytes(budget.max_cache))
            // triton-lint: allow(p1) -- sim-allocator exhaustion means a misconfigured scale, not a runtime condition; mirrors TritonJoin::run
            .expect("CPU memory exhausted");
        let span = Span::hybrid(layout);
        let input = if input_resident {
            Span::gpu(1 << 43)
        } else {
            Span::cpu(0)
        };

        let mut phases = Vec::new();

        // PS 1 on the CPU (Section 6.2.8's faster choice).
        let hist = compute_histogram(&rel.keys, 1, b1, 0);
        let ps1 = cpu_prefix_sum_cost(n as u64, hw);
        phases.push(PhaseReport::cpu("PS 1", ps1));

        // Part 1: out-of-core partition of the input by group-key hash.
        let p1 = make_partitioner(self.pass1);
        let cfg = PassConfig::new(b1, 0);
        let (parts, mut c1) = p1.partition(&rel.keys, &rel.rids, &hist, &input, &span, &cfg, hw);
        c1.name = "Part 1".into();
        let part1 = PhaseReport::gpu(c1, hw);
        let part1_time = part1.time;
        phases.push(part1);

        // Per-partition aggregation: read the partition (hybrid), build a
        // scratchpad hash-aggregate table.
        let mut result = AggregateResult::empty();
        let mut agg_all = KernelCost::new("Aggregate");
        let mut stage: Vec<Ns> = Vec::new();
        for p in 0..parts.fanout() {
            let (ks, rs) = parts.partition(p);
            if ks.is_empty() {
                stage.push(Ns::ZERO);
                continue;
            }
            let mut c = KernelCost::new("Aggregate");
            c.sms = half_sms;
            c.tuples_in = ks.len() as u64;
            let off = parts.offsets[p] as u64 * TUPLE_BYTES;
            let slice = span.slice(off);
            let (g, cpu_bytes) = slice.split_range(0, ks.len() as u64 * TUPLE_BYTES);
            c.gpu_mem.read += Bytes(g);
            c.link.seq_read += Bytes(cpu_bytes);
            c.instructions = ks.len() as u64 * 14;

            let mut table: BTreeMap<u64, GroupAggregate> = BTreeMap::new();
            for (&k, &r) in ks.iter().zip(rs) {
                let e = table.entry(k).or_default();
                e.count += 1;
                e.sum = e.sum.wrapping_add(r);
            }
            c.tuples_out = table.len() as u64;
            // Group results stream back to CPU memory.
            c.link.seq_write += Bytes(table.len() as u64 * TUPLE_BYTES);
            for (k, agg) in table {
                result.fold(k, agg);
            }
            stage.push(c.timing(hw).total);
            agg_all.merge(&c);
        }
        let agg_time: Ns = stage.iter().copied().sum();
        phases.push(PhaseReport {
            time: agg_time,
            ..PhaseReport::gpu(agg_all, hw)
        });

        // The aggregate stage overlaps the spill reload the same way the
        // join overlaps its second pass: pipeline against itself. The
        // lanes go into the report so trace rollups reconcile the
        // pipelined window with the isolated phase times, like the join.
        let halves: Vec<Ns> = stage.iter().map(|&t| t / 2.0).collect();
        let total = ps1 + part1_time + pipeline2(&halves, &halves);

        let report = JoinReport {
            name: format!("GPU Aggregation ({})", self.pass1.name()),
            phases,
            total,
            tuples_actual: n as u64,
            tuples_modeled: n as u64,
            result: JoinResult {
                matches: result.groups,
                checksum: result.sum_digest,
            },
            executor: Executor::Gpu,
            overlap: Some(crate::report::OverlapLanes {
                stage_a: halves.clone(),
                stage_b: halves,
                order: Vec::new(),
            }),
            placement: None,
        };
        (result, report)
    }
}

/// No-partitioning GPU aggregation baseline: one global hash table of
/// group state, spilled to a hybrid array when it outgrows GPU memory —
/// with the same random-access pathologies as the no-partitioning join.
pub fn npj_style_aggregate(rel: &Relation, hw: &HwConfig) -> (AggregateResult, JoinReport) {
    use triton_hw::link::LinkModel;
    use triton_hw::tlb::TlbSim;
    use triton_part::ChargeCtx;

    let n = rel.len();
    // Worst-case group state: one slot per input tuple, doubled by a 50%
    // load factor.
    let table_bytes = (n as u64 * TUPLE_BYTES * 2).next_power_of_two();
    let mut alloc = SimAllocator::new(hw);
    let layout = alloc
        .alloc_hybrid(Bytes(table_bytes), Bytes(GpuBudget::cacheable(hw)))
        // triton-lint: allow(p1) -- sim-allocator exhaustion means a misconfigured scale, not a runtime condition
        .expect("CPU memory exhausted");
    let span = Span::hybrid(layout);
    let input = Span::cpu(0);

    let mut cost = KernelCost::new("Aggregate (no partitioning)");
    cost.tuples_in = n as u64;
    let link = LinkModel::new(&hw.link);
    let mut tlb = TlbSim::new(hw);
    let slots = (table_bytes / TUPLE_BYTES) as usize;
    let mask = slots - 1;
    let mut table: Vec<Option<(u64, GroupAggregate)>> = vec![None; slots];
    {
        let mut ctx = ChargeCtx {
            cost: &mut cost,
            link: &link,
            tlb: &mut tlb,
        };
        for (i, (k, r)) in rel.iter().enumerate() {
            ctx.seq_read(&input, i as u64 * TUPLE_BYTES, TUPLE_BYTES);
            let mut s = triton_datagen::table_slot(k, slots.trailing_zeros());
            loop {
                ctx.random_read(&span, s as u64 * TUPLE_BYTES, TUPLE_BYTES);
                match &mut table[s] {
                    Some((key, agg)) if *key == k => {
                        agg.count += 1;
                        agg.sum = agg.sum.wrapping_add(r);
                        ctx.scatter_write(&span, s as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        break;
                    }
                    Some(_) => s = (s + 1) & mask,
                    empty @ None => {
                        *empty = Some((k, GroupAggregate { count: 1, sum: r }));
                        ctx.scatter_write(&span, s as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        break;
                    }
                }
            }
            ctx.cost.instructions += 44;
        }
    }
    let mut result = AggregateResult::empty();
    for e in table.into_iter().flatten() {
        result.fold(e.0, e.1);
    }
    let phase = PhaseReport::gpu(cost, hw);
    let total = phase.time;
    let report = JoinReport {
        name: "GPU Aggregation (No Partitioning)".into(),
        phases: vec![phase],
        total,
        tuples_actual: n as u64,
        tuples_modeled: n as u64,
        result: JoinResult {
            matches: result.groups,
            checksum: result.sum_digest,
        },
        executor: Executor::Gpu,
        overlap: None,
        placement: None,
    };
    (result, report)
}

/// Duplicate elimination (DISTINCT) on the GPU-partitioned strategy:
/// aggregation with the payload ignored. Returns the distinct-key count
/// and the execution report.
pub fn gpu_distinct(rel: &Relation, hw: &HwConfig) -> (u64, JoinReport) {
    let (agg, mut report) = GpuAggregation::default().run(rel, hw);
    report.name = "GPU Distinct (Hierarchical)".into();
    (agg.groups, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_datagen::WorkloadSpec;

    fn skewed_input() -> Relation {
        // The probe side of a skewed workload has heavy duplication:
        // a real aggregation input.
        WorkloadSpec::skewed(8, 0.9, 512).generate().s
    }

    #[test]
    fn partitioned_aggregation_matches_reference() {
        let hw = HwConfig::ac922().scaled(2048);
        let rel = skewed_input();
        let expect = reference_aggregate(&rel);
        let (got, report) = GpuAggregation::default().run(&rel, &hw);
        assert_eq!(got, expect);
        assert_eq!(report.result.matches, expect.groups);
        assert!(report.total.0 > 0.0);
    }

    #[test]
    fn npj_aggregation_matches_reference() {
        let hw = HwConfig::ac922().scaled(2048);
        let rel = skewed_input();
        assert_eq!(npj_style_aggregate(&rel, &hw).0, reference_aggregate(&rel));
    }

    #[test]
    fn distinct_counts_unique_keys() {
        let hw = HwConfig::ac922().scaled(2048);
        let rel = skewed_input();
        let mut uniq: Vec<u64> = rel.keys.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let (n, _) = gpu_distinct(&rel, &hw);
        assert_eq!(n, uniq.len() as u64);
    }

    #[test]
    fn partitioned_wins_out_of_core() {
        // Group state beyond GPU memory: the partitioned strategy avoids
        // the random-access collapse, as for joins.
        let hw = HwConfig::ac922().scaled(512);
        let rel = WorkloadSpec::paper_default(1024, 512).generate().s;
        let (a, rep_part) = GpuAggregation::default().run(&rel, &hw);
        let (b, rep_npj) = npj_style_aggregate(&rel, &hw);
        assert_eq!(a, b);
        assert!(
            rep_part.total.0 < rep_npj.total.0,
            "partitioned {} vs npj {}",
            rep_part.total,
            rep_npj.total
        );
    }

    #[test]
    fn aggregation_all_algorithms_agree() {
        let hw = HwConfig::ac922().scaled(2048);
        let rel = skewed_input();
        let expect = reference_aggregate(&rel);
        for alg in Algorithm::all() {
            let (got, _) = GpuAggregation { pass1: alg }.run(&rel, &hw);
            assert_eq!(got, expect, "{alg:?}");
        }
    }
}
