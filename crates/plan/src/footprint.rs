//! Peak-footprint math and intermediate-placement planning.
//!
//! The executor runs a plan's nodes one at a time (deterministic
//! topological order), so GPU memory must hold, at any step, only the
//! running operator's working state plus whichever intermediate edges
//! are pipelined GPU-resident across that step. Admission therefore
//! reserves the *peak* concurrent footprint along the schedule — not the
//! sum of all operators — and the same estimates drive the greedy
//! placement rule deciding which edges stay resident.

use triton_core::{BloomFilter, GpuBudget};
use triton_datagen::TUPLE_BYTES;
use triton_hw::HwConfig;

use crate::dag::{Plan, PlanNode};

/// The footprint analysis of one plan at one budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    /// Peak bytes needed at any single step: the admission reservation.
    pub peak: u64,
    /// Sum over all operators of floor + estimated output — what a
    /// naive per-operator admission would reserve. Kept for the
    /// peak-vs-sum comparison; never used to admit.
    pub sum: u64,
    /// Per node: does its output edge stay GPU-resident for consumers?
    /// Scans (base relations live in CPU memory) and the root are
    /// always `false`.
    pub resident: Vec<bool>,
    /// Per node: working-state bytes while the node itself runs (the
    /// operator's internal pipeline reservation).
    pub floors: Vec<u64>,
    /// Per node: estimated output cardinality (tuples, upper bound
    /// under the FK-join model).
    pub est_out: Vec<u64>,
}

/// Estimated output cardinality per node, in topological order. All
/// estimates are upper bounds under the workspace's workload model:
/// unique-keyed build sides make a join's output at most its probe
/// input, and Bloom filters only drop tuples.
pub fn estimate_cardinalities(plan: &Plan, input_tuples: &[u64]) -> Vec<u64> {
    let mut est = Vec::with_capacity(plan.nodes.len());
    for node in &plan.nodes {
        let e = match *node {
            PlanNode::Scan { input } => input_tuples.get(input).copied().unwrap_or(0),
            PlanNode::Select { child, pred } => pred.estimate(est[child]),
            PlanNode::Bloom { probe, .. } => est[probe],
            PlanNode::Join { probe, .. } => est[probe],
            PlanNode::Agg { child } => est[child],
        };
        est.push(e);
    }
    est
}

/// Working-state floor of one node: the bytes its operator reserves in
/// GPU memory while running. Joins and aggregations read the reserve of
/// the [`GpuBudget`] they run with (an aggregation budgets its input as
/// a join's build side); a Bloom node holds its filter array.
fn node_floor(node: &PlanNode, est: &[u64], hw: &HwConfig) -> u64 {
    match *node {
        PlanNode::Scan { .. } | PlanNode::Select { .. } => 0,
        PlanNode::Bloom { build, .. } => BloomFilter::build_side_bytes(est[build] as usize),
        PlanNode::Join { build, probe, .. } => {
            let total = (est[build] + est[probe]) * TUPLE_BYTES;
            GpuBudget::new(est[build] * TUPLE_BYTES, total, hw).reserve()
        }
        PlanNode::Agg { child } => {
            let bytes = est[child] * TUPLE_BYTES;
            GpuBudget::new(bytes, bytes, hw).reserve()
        }
    }
}

/// Analyse a plan's footprint under `budget` bytes of GPU memory:
/// estimate cardinalities, compute per-node floors, greedily pin output
/// edges GPU-resident (in node order — earlier intermediates are hotter,
/// feeding the very next operator) whenever the edge fits beside every
/// floor and already-resident edge across its live range, and report the
/// resulting peak. `force_materialize` skips pinning entirely — the
/// degradation ladder's new top rung.
pub fn plan_footprint(
    plan: &Plan,
    input_tuples: &[u64],
    hw: &HwConfig,
    budget: u64,
    force_materialize: bool,
) -> Footprint {
    let n = plan.nodes.len();
    let est = estimate_cardinalities(plan, input_tuples);
    let floors: Vec<u64> = plan
        .nodes
        .iter()
        .map(|node| node_floor(node, &est, hw))
        .collect();
    let last = plan.last_consumer();

    // Greedy residency: edge i lives over steps [i, last[i]]; it may be
    // pinned iff floor + already-live resident bytes + this edge fit the
    // budget at every step of that range.
    let mut resident = vec![false; n];
    let mut live = vec![0u64; n];
    for i in 0..n {
        let is_edge = !matches!(plan.nodes[i], PlanNode::Scan { .. }) && last[i] > i;
        if force_materialize || !is_edge {
            continue;
        }
        let edge_bytes = est[i] * TUPLE_BYTES;
        if (i..=last[i]).all(|s| floors[s] + live[s] + edge_bytes <= budget) {
            resident[i] = true;
            for l in live.iter_mut().take(last[i] + 1).skip(i) {
                *l += edge_bytes;
            }
        }
    }

    let peak = (0..n).map(|s| floors[s] + live[s]).max().unwrap_or(0);
    let sum = (0..n)
        .filter(|&i| !matches!(plan.nodes[i], PlanNode::Scan { .. }))
        .map(|i| floors[i] + est[i] * TUPLE_BYTES)
        .sum();
    Footprint {
        peak,
        sum,
        resident,
        floors,
        est_out: est,
    }
}

/// Memoizes [`plan_footprint`] analyses for one fixed hardware model.
///
/// The footprint is a pure function of the plan shape, the input
/// cardinalities, the budget, and the materialization flag — admission
/// re-derives it on every scheduling decision for a plan query, and
/// repeat tenants re-derive it per arrival. The memo keys on a 128-bit
/// FNV-1a fingerprint of exactly those inputs (the plan's structural
/// debug encoding covers every node, predicate, and emit map), so a hit
/// returns a byte-identical [`Footprint`].
///
/// Bounded: a stream of distinct plans evicts in insertion order rather
/// than growing without limit.
#[derive(Debug, Default)]
pub struct FootprintCache {
    entries: std::collections::BTreeMap<(u64, u64), Footprint>,
    order: std::collections::VecDeque<(u64, u64)>,
    /// Analyses answered from the memo.
    pub hits: u64,
    /// Analyses that ran the full placement pass.
    pub misses: u64,
}

/// Entry bound: far above any realistic live tenant-plan population.
const FOOTPRINT_CACHE_CAP: usize = 1024;

impl FootprintCache {
    /// New empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// 128-bit FNV-1a fingerprint of the analysis inputs.
    fn key(plan: &Plan, input_tuples: &[u64], budget: u64, force_materialize: bool) -> (u64, u64) {
        let mut lo = 0xcbf2_9ce4_8422_2325u64;
        let mut hi = 0x6c62_272e_07bb_0142u64;
        let mut eat = |byte: u8| {
            lo = (lo ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            hi = (hi ^ u64::from(byte).rotate_left(17)).wrapping_mul(0x0000_0100_0000_01B3);
        };
        for byte in format!("{:?}", plan.nodes).bytes() {
            eat(byte);
        }
        for &t in input_tuples {
            for byte in t.to_le_bytes() {
                eat(byte);
            }
        }
        for byte in budget.to_le_bytes() {
            eat(byte);
        }
        eat(u8::from(force_materialize));
        (lo, hi)
    }

    /// Memoized [`plan_footprint`]: identical output, cached by inputs.
    pub fn footprint(
        &mut self,
        plan: &Plan,
        input_tuples: &[u64],
        hw: &HwConfig,
        budget: u64,
        force_materialize: bool,
    ) -> Footprint {
        let key = Self::key(plan, input_tuples, budget, force_materialize);
        if let Some(fp) = self.entries.get(&key) {
            self.hits += 1;
            return fp.clone();
        }
        self.misses += 1;
        let fp = plan_footprint(plan, input_tuples, hw, budget, force_materialize);
        if self.entries.len() >= FOOTPRINT_CACHE_CAP {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        if self.entries.insert(key, fp.clone()).is_none() {
            self.order.push_back(key);
        }
        fp
    }

    /// Drop every memoized analysis (ECC retirement invalidation hook).
    pub fn flush(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Cached analyses currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::EmitMap;

    fn two_join_plan() -> Plan {
        Plan {
            nodes: vec![
                PlanNode::Scan { input: 0 },
                PlanNode::Scan { input: 1 },
                PlanNode::Scan { input: 2 },
                PlanNode::Join {
                    build: 0,
                    probe: 1,
                    emit: EmitMap::KeyFromProbeRid,
                },
                PlanNode::Join {
                    build: 3,
                    probe: 2,
                    emit: EmitMap::KeepKey,
                },
                PlanNode::Agg { child: 4 },
            ],
        }
    }

    #[test]
    fn estimates_follow_the_fk_model() {
        let est = estimate_cardinalities(&two_join_plan(), &[100, 400, 1600]);
        assert_eq!(est, vec![100, 400, 1600, 400, 1600, 1600]);
    }

    #[test]
    fn generous_budget_pins_all_edges() {
        let hw = HwConfig::ac922().scaled(512);
        let fp = plan_footprint(&two_join_plan(), &[100, 400, 1600], &hw, u64::MAX, false);
        assert_eq!(fp.resident, vec![false, false, false, true, true, false]);
        assert!(fp.peak < fp.sum, "peak {} vs sum {}", fp.peak, fp.sum);
    }

    #[test]
    fn zero_budget_pins_nothing() {
        let hw = HwConfig::ac922().scaled(512);
        let fp = plan_footprint(&two_join_plan(), &[100, 400, 1600], &hw, 0, false);
        assert!(fp.resident.iter().all(|&r| !r));
        // Peak falls back to the largest single floor.
        assert_eq!(fp.peak, *fp.floors.iter().max().unwrap());
    }

    #[test]
    fn force_materialize_matches_zero_budget_residency() {
        let hw = HwConfig::ac922().scaled(512);
        let fp = plan_footprint(&two_join_plan(), &[100, 400, 1600], &hw, u64::MAX, true);
        assert!(fp.resident.iter().all(|&r| !r));
    }

    #[test]
    fn footprint_cache_is_transparent_and_counts() {
        let hw = HwConfig::ac922().scaled(512);
        let plan = two_join_plan();
        let tuples = [100u64, 400, 1600];
        let mut memo = FootprintCache::new();
        let direct = plan_footprint(&plan, &tuples, &hw, hw.gpu.mem_capacity.0, false);
        let miss = memo.footprint(&plan, &tuples, &hw, hw.gpu.mem_capacity.0, false);
        let hit = memo.footprint(&plan, &tuples, &hw, hw.gpu.mem_capacity.0, false);
        assert_eq!(direct, miss);
        assert_eq!(direct, hit);
        assert_eq!((memo.hits, memo.misses), (1, 1));
        // A different budget is a different key, not a stale hit.
        let other = memo.footprint(&plan, &tuples, &hw, 0, false);
        assert_eq!(other, plan_footprint(&plan, &tuples, &hw, 0, false));
        assert_eq!((memo.hits, memo.misses), (1, 2));
        assert_eq!(memo.len(), 2);
        memo.flush();
        assert!(memo.is_empty());
    }

    #[test]
    fn placement_is_stable_at_its_own_peak() {
        // Re-running the analysis with budget = peak reproduces the same
        // placement: the admission grant is exactly what execution needs.
        let hw = HwConfig::ac922().scaled(512);
        let cap = hw.gpu.mem_capacity.0;
        let fp = plan_footprint(&two_join_plan(), &[100, 400, 1600], &hw, cap, false);
        let again = plan_footprint(&two_join_plan(), &[100, 400, 1600], &hw, fp.peak, false);
        assert_eq!(fp, again);
    }
}
