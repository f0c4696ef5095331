//! Query descriptors submitted to the serving runtime.

use triton_core::{
    CpuPartitionedJoin, CpuRadixJoin, JoinReport, NoPartitioningJoin, SkewPolicy, TritonJoin,
};
use triton_datagen::{Rng, Workload, WorkloadSpec};
use triton_hw::units::Ns;
use triton_hw::HwConfig;
use triton_mem::OutOfMemory;
use triton_plan::PlanQuery;

/// Identifier assigned to a submitted query, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The join operator a query runs.
#[derive(Debug, Clone)]
pub enum Operator {
    /// The Triton join (GPU-partitioned hybrid hash join).
    Triton(TritonJoin),
    /// GPU no-partitioning join (one global hash table).
    NoPartitioning(NoPartitioningJoin),
    /// CPU-partitioned GPU join: the CPU radix-partitions, the GPU joins
    /// working sets — needs far less GPU memory than the Triton join
    /// (the degradation ladder's middle rung under memory pressure).
    CpuPartitioned(CpuPartitionedJoin),
    /// CPU radix join — consumes no GPU memory or SMs.
    CpuRadix(CpuRadixJoin),
    /// A multi-operator query plan (`triton-plan`): select/Bloom/join/agg
    /// DAG with GPU-resident pipelining. Admission reserves the plan's
    /// *peak* concurrent operator footprint, not the sum of all
    /// operators.
    Plan(Box<PlanQuery>),
}

impl Operator {
    /// Default Triton configuration.
    pub fn triton() -> Self {
        Operator::Triton(TritonJoin::default())
    }

    /// Triton with the skew-aware policy (hotness-weighted placement,
    /// LPT pipeline scheduling, heavy-hitter splitting) enabled.
    pub fn triton_skew_aware() -> Self {
        Operator::Triton(TritonJoin {
            skew: SkewPolicy::aware(),
            ..TritonJoin::default()
        })
    }

    /// The skew policy this operator runs with, when it is a Triton join
    /// or a plan (plans apply the policy to every join node).
    pub fn skew(&self) -> Option<SkewPolicy> {
        match self {
            Operator::Triton(j) => Some(j.skew),
            Operator::Plan(p) => Some(p.skew),
            _ => None,
        }
    }

    /// Execute the operator functionally, surfacing simulated OOM. Plans
    /// carry their own inputs and ignore `w`.
    pub fn run(&self, w: &Workload, hw: &HwConfig) -> Result<JoinReport, OutOfMemory> {
        match self {
            Operator::Triton(j) => j.try_run(w, hw),
            Operator::NoPartitioning(j) => Ok(j.run(w, hw)),
            Operator::CpuPartitioned(j) => Ok(j.run(w, hw)),
            Operator::CpuRadix(j) => Ok(j.run(w, hw)),
            Operator::Plan(p) => p.run(hw).map(|r| r.report),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Operator::Triton(_) => "triton",
            Operator::NoPartitioning(_) => "npj",
            Operator::CpuPartitioned(_) => "cpu-part",
            Operator::CpuRadix(_) => "cpu-radix",
            Operator::Plan(_) => "plan",
        }
    }

    /// Whether the operator occupies the GPU at all (transient kernel
    /// faults can only hit GPU-resident operators).
    pub fn uses_gpu(&self) -> bool {
        !matches!(self, Operator::CpuRadix(_))
    }
}

/// One join query submitted to the scheduler.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    /// Human-readable tag (tenant, statement id, ...).
    pub name: String,
    /// The workload to join. Its columns are shared, not copied, by
    /// clones of the query.
    pub workload: Workload,
    /// Operator choice.
    pub op: Operator,
    /// Scheduling weight: relative share of machine resources while
    /// running, and queue ordering. 1 = normal; must be >= 1.
    pub priority: u32,
    /// Optional latency budget relative to arrival (simulated time). The
    /// scheduler sheds the query rather than starting it once the budget
    /// cannot be met.
    pub deadline: Option<Ns>,
    /// Simulated arrival time.
    pub arrival: Ns,
    /// Cache key identifying the build relation *family* for build-side
    /// sharing; `None` disables sharing for this query. A family names
    /// one base R: full-range queries of a family must carry
    /// byte-identical `workload.r` (see [`JoinQuery::probe_batch`]), which
    /// debug builds check on every full-range build-cache hit. A family
    /// may still hold several R contents, because each
    /// [`JoinQuery::probe_slice`] keeps only its `build_range` of the
    /// base R; the key is therefore the caller's, not a digest of R.
    pub build_key: Option<u64>,
    /// Radix-partition range (half-open, within
    /// `0..1 << BUILD_RADIX_BITS`) of the build side within its family;
    /// `None` means the whole relation. A query whose range is covered
    /// by a resident build of the same family reuses that state instead
    /// of rebuilding (see [`crate::BuildCache`]).
    pub build_range: Option<(u32, u32)>,
}

impl JoinQuery {
    /// A plain query: default Triton join, normal priority, no deadline.
    pub fn new(name: impl Into<String>, workload: Workload, arrival: Ns) -> Self {
        JoinQuery {
            name: name.into(),
            workload,
            op: Operator::triton(),
            priority: 1,
            deadline: None,
            arrival,
            build_key: None,
            build_range: None,
        }
    }

    /// A multi-operator plan query. The scheduler's bookkeeping (shed
    /// accounting, probe-batch sharing) keys off a `Workload`, so a
    /// placeholder is synthesized from the plan's first and last base
    /// relations; execution and admission use the plan itself.
    pub fn plan(name: impl Into<String>, plan: PlanQuery, arrival: Ns) -> Self {
        let r = plan.inputs().first().cloned().unwrap_or_default();
        let s = plan.inputs().last().cloned().unwrap_or_default();
        let spec = WorkloadSpec {
            r_tuples_modeled: r.len() as u64,
            s_tuples_modeled: s.len() as u64,
            scale: 1,
            payload_cols: 0,
            zipf_theta: 0.0,
            match_fraction: 1.0,
            seed: 0,
        };
        JoinQuery {
            name: name.into(),
            workload: Workload { r, s, spec },
            op: Operator::Plan(Box::new(plan)),
            priority: 1,
            deadline: None,
            arrival,
            build_key: None,
            build_range: None,
        }
    }

    /// Set the skew policy of this query's Triton or plan operator; a
    /// no-op for the other operators.
    #[must_use]
    pub fn with_skew(mut self, policy: SkewPolicy) -> Self {
        match &mut self.op {
            Operator::Triton(j) => j.skew = policy,
            Operator::Plan(p) => p.skew = policy,
            _ => {}
        }
        self
    }

    /// Derive a probe batch against the same build relation: keeps `R`
    /// (and the `build_key` must be set by the caller to enable reuse),
    /// regenerates `S` with `probe_seed` — foreign keys uniform over R's
    /// key range, like the base workload generator.
    pub fn probe_batch(base: &Workload, probe_seed: u64) -> Workload {
        let mut rng = Rng::seed_from_u64(probe_seed);
        let n_r = base.r.len() as u64;
        let n_s = base.s.len();
        let s_keys: Vec<u64> = (0..n_s).map(|_| rng.gen_range_u64(1, n_r)).collect();
        let s_rids: Vec<u64> = (0..n_s).map(|_| rng.next_u64()).collect();
        Workload {
            r: base.r.clone(),
            s: triton_datagen::Relation::from_columns(s_keys, s_rids),
            spec: base.spec.clone(),
        }
    }

    /// Radix partition a build-side key lands in for build-state
    /// sharing: the low [`crate::BUILD_RADIX_BITS`] bits of the hashed
    /// key, exactly the assignment the first partitioning pass uses.
    pub fn build_partition_of(key: u64) -> u32 {
        triton_datagen::radix(
            triton_datagen::multiply_shift(key),
            0,
            crate::build_cache::BUILD_RADIX_BITS,
        ) as u32
    }

    /// Derive a *slice* workload over the same build family: `R` keeps
    /// only the rows whose radix partition falls in `range`, and `S` is
    /// regenerated with `probe_seed` as foreign keys drawn from the
    /// sliced `R` (probe volume scaled by the slice fraction). A query
    /// built from this workload should carry the family's `build_key`
    /// and `build_range = Some(range)` — its partitioned build state is
    /// physically the `[lo, hi)` slice of the family's, so a resident
    /// covering build serves it without rebuilding.
    pub fn probe_slice(base: &Workload, range: (u32, u32), probe_seed: u64) -> Workload {
        let mut rng = Rng::seed_from_u64(probe_seed);
        let keep: Vec<usize> = (0..base.r.len())
            .filter(|&i| {
                let p = Self::build_partition_of(base.r.keys[i]);
                range.0 <= p && p < range.1
            })
            .collect();
        let r_keys: Vec<u64> = keep.iter().map(|&i| base.r.keys[i]).collect();
        let r_rids: Vec<u64> = keep.iter().map(|&i| base.r.rids[i]).collect();
        let full = 1u64 << crate::build_cache::BUILD_RADIX_BITS;
        let span = u64::from(range.1.saturating_sub(range.0));
        let n_s = ((base.s.len() as u64 * span) / full.max(1)).max(1) as usize;
        let (s_keys, s_rids) = if r_keys.is_empty() {
            // Degenerate slice (tiny R): a single unmatched probe keeps
            // the workload well-formed without inventing build rows.
            (vec![u64::MAX], vec![rng.next_u64()])
        } else {
            let ks: Vec<u64> = (0..n_s)
                .map(|_| r_keys[rng.gen_index(r_keys.len())])
                .collect();
            let rs: Vec<u64> = (0..n_s).map(|_| rng.next_u64()).collect();
            (ks, rs)
        };
        let mut spec = base.spec.clone();
        spec.r_tuples_modeled = r_keys.len() as u64;
        spec.s_tuples_modeled = s_keys.len() as u64;
        Workload {
            r: triton_datagen::Relation::from_columns(r_keys, r_rids),
            s: triton_datagen::Relation::from_columns(s_keys, s_rids),
            spec,
        }
    }

    /// Total tuples this query processes (throughput numerator). Plans
    /// count every base relation, not the placeholder workload.
    pub fn tuples(&self) -> u64 {
        match &self.op {
            Operator::Plan(p) => p.input_tuples(),
            _ => self.workload.total_tuples(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_datagen::WorkloadSpec;

    #[test]
    fn probe_batch_shares_r_and_varies_s() {
        let base = WorkloadSpec::paper_default(2, 2048).generate();
        let a = JoinQuery::probe_batch(&base, 1);
        let b = JoinQuery::probe_batch(&base, 2);
        assert_eq!(a.r.keys, base.r.keys);
        assert_eq!(b.r.keys, base.r.keys);
        assert_ne!(a.s.keys, b.s.keys);
        // All probe keys land in R's key domain (full match fraction).
        let n_r = base.r.len() as u64;
        assert!(a.s.keys.iter().all(|&k| (1..=n_r).contains(&k)));
    }

    #[test]
    fn probe_slice_partitions_and_probes_within_range() {
        let base = WorkloadSpec::paper_default(2, 2048).generate();
        let range = (0u32, 64u32);
        let w = JoinQuery::probe_slice(&base, range, 7);
        assert!(!w.r.keys.is_empty());
        assert!(w.r.len() < base.r.len(), "a slice is a strict subset");
        for &k in &w.r.keys {
            let p = JoinQuery::build_partition_of(k);
            assert!(range.0 <= p && p < range.1);
        }
        // Every probe key comes from the sliced build side.
        let build: std::collections::BTreeSet<u64> = w.r.keys.iter().copied().collect();
        assert!(w.s.keys.iter().all(|k| build.contains(k)));
        // Probe volume scales with the slice fraction.
        assert!(w.s.len() <= base.s.len() / 2);
        // Slicing is deterministic per seed.
        let again = JoinQuery::probe_slice(&base, range, 7);
        assert_eq!(w.r.keys, again.r.keys);
        assert_eq!(w.s.keys, again.s.keys);
    }
}
