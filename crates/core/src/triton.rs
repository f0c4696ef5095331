//! The Triton join (Section 5): a GPU-partitioned, hierarchical hybrid
//! hash join for fast interconnects — the paper's primary contribution.
//!
//! Three stages (Fig 10):
//!
//! 1. **1st pass** — radix-partition R and S on the *GPU* by the low B1
//!    bits of the hashed key, using the Hierarchical SWWC partitioner.
//!    B1 is chosen so two partition pairs fit in half of GPU memory. The
//!    partitioned output lands in a Section 5.3 hybrid array: pages
//!    interleaved across GPU memory (the cached working set) and CPU
//!    memory (the spill), keeping the interconnect busy in both phases.
//! 2. **2nd pass** — per partition pair, refine by the next B2 bits into
//!    GPU memory so each sub-partition's hash table fits the scratchpad.
//! 3. **Join** — build a scratchpad bucket-chaining table from each
//!    R sub-partition and probe it with the matching S sub-partition.
//!
//! Stages 2-3 run as *concurrent kernels* on disjoint halves of the SMs
//! (Section 5.2, Fig 11): the second pass of pair *i+1* overlaps the join
//! of pair *i*, hiding the spill reload behind compute.

use std::collections::BTreeMap;

use triton_datagen::{Workload, TUPLE_BYTES};
use triton_hw::kernel::{lpt_order, pipeline2, pipeline2_scheduled, KernelCost};
use triton_hw::power::Executor;
use triton_hw::units::{Bytes, Ns};
use triton_hw::{HwConfig, MemSide};
use triton_mem::SimAllocator;
use triton_part::{
    compute_histogram, cpu_prefix_sum_cost, gpu_prefix_sum, make_partitioner, Algorithm,
    PassConfig, Span,
};

use crate::bloom::BloomFilter;
use crate::elastic::{spill_order, ElasticPolicy};
use crate::hash_table::{BucketChainTable, HashScheme, BUCKET_CHAIN_ENTRIES};
use crate::report::{
    JoinReport, JoinResult, OverlapLanes, PairPlacement, PhaseReport, PlacementReport,
};
use crate::skew::{estimate_pair_cached, plan_cache, PairEstimate, PairExtent, SkewPolicy};
use triton_hw::kernel::TimingCache;

/// Target tuples per second-pass sub-partition: the build side must fit a
/// scratchpad bucket-chaining table (2048 buckets + chained tuples within
/// 64 KiB).
const PASS2_TARGET_TUPLES: u64 = 1536;

/// Join-phase instruction costs (scratchpad tables are cheap; the join
/// phase is compute-bound per Fig 15b).
const JOIN_BUILD_INSTR: u64 = 14;
const JOIN_PROBE_INSTR: u64 = 12;
const JOIN_CHAIN_INSTR: u64 = 3;

/// Per-tuple instructions of one runtime re-partitioning level
/// (histogram + scatter, the same constant the skew estimator prices the
/// executed partitioning passes with).
const REPART_INSTR: u64 = 8;

/// Configuration of the Triton join.
#[derive(Debug, Clone)]
pub struct TritonJoin {
    /// First-pass (out-of-core) partitioning algorithm.
    pub pass1: Algorithm,
    /// Second-pass (in-GPU) partitioning algorithm.
    pub pass2: Algorithm,
    /// Explicit GPU cache budget for the partitioned working set;
    /// `None` = everything left after the pipeline reservation (Fig 19
    /// sweeps this).
    pub cache_bytes: Option<Bytes>,
    /// Disable caching entirely (Fig 17's pure two-pass radix join).
    pub caching_enabled: bool,
    /// Compute the first prefix sum on the GPU instead of the CPU
    /// (Section 6.2.8: the CPU is 1.6-2.2x faster at it; Fig 15 uses the
    /// GPU variant to obtain a full GPU profile).
    pub gpu_prefix_sum: bool,
    /// Hashing scheme of the join phase.
    pub scheme: HashScheme,
    /// Upper bound on second-pass radix bits (the paper uses 9).
    pub max_pass2_bits: u32,
    /// Materialize join results to CPU memory instead of aggregating in
    /// registers (Section 5.1 supports both).
    pub materialize: bool,
    /// Enable the optional third partitioning pass (Section 5.1): when a
    /// sub-partition still exceeds the scratchpad hash-table target after
    /// the capped second pass, refine it once more within GPU memory.
    pub third_pass: bool,
    /// Pre-filter the outer relation with a Bloom filter over the build
    /// keys before partitioning it (an extension along Section 7's
    /// "filtering the outer relation" direction): non-matching probe
    /// tuples are dropped in S's first pass, before they are partitioned,
    /// spilled, and reloaded. Pays off for selective joins; the paper's
    /// default workloads match 100%, where it is pure overhead.
    pub bloom_prefilter: bool,
    /// Interleave the cached pages evenly through the working set
    /// (Section 5.3's design). `false` caches a prefix instead — the
    /// classic hybrid hash join's policy the paper argues against, kept
    /// for the ablation.
    pub interleaved_cache: bool,
    /// Overlap the second pass of pair *i+1* with the join of pair *i*
    /// via concurrent kernels on split SM sets (Section 5.2). `false`
    /// serialises the stages on the full GPU, for the ablation.
    pub overlap: bool,
    /// Skew handling policy (Section 6.2.6 / Fig 16 workloads):
    /// hotness-weighted cache placement, LPT pipeline scheduling, and
    /// heavy-hitter splitting. [`SkewPolicy::Off`] preserves the uniform
    /// executor bit for bit.
    pub skew: SkewPolicy,
    /// Elastic memory policy: mid-query grant revisions replayed at
    /// partition-pair boundaries (evicting coldest pairs first through
    /// the link cost model) and depth-bounded runtime re-partitioning
    /// when a pair overflows its staging grant. The disabled default
    /// preserves the fixed-grant executor bit for bit.
    pub elastic: ElasticPolicy,
}

impl Default for TritonJoin {
    fn default() -> Self {
        TritonJoin {
            pass1: Algorithm::Hierarchical,
            pass2: Algorithm::Shared,
            cache_bytes: None,
            caching_enabled: true,
            gpu_prefix_sum: false,
            scheme: HashScheme::BucketChaining,
            max_pass2_bits: 9,
            materialize: false,
            third_pass: true,
            bloom_prefilter: false,
            interleaved_cache: true,
            overlap: true,
            skew: SkewPolicy::Off,
            elastic: ElasticPolicy::default(),
        }
    }
}

/// Options for embedding the join as one node of a larger query plan:
/// input residency (pipelined upstream intermediates priced against GPU
/// memory bandwidth instead of the interconnect), output residency, and
/// a sink collecting the matched tuples for a downstream operator.
/// [`TritonJoin::try_run`] is the all-defaults case and preserves the
/// standalone-join behavior bit for bit.
#[derive(Debug, Default)]
pub struct JoinRunOptions<'a> {
    /// The build relation is already resident in GPU memory (a pipelined
    /// upstream intermediate): its first-pass reads charge GPU memory
    /// bandwidth instead of the interconnect.
    pub r_resident: bool,
    /// The probe relation is already resident in GPU memory.
    pub s_resident: bool,
    /// Write the matched output tuples to GPU memory for a downstream
    /// plan node (16 bytes + 2 instructions per match — the GPU-resident
    /// counterpart of [`TritonJoin::materialize`]'s link stream).
    pub output_resident: bool,
    /// Collect matched `(key, r_rid, s_rid)` triples for a downstream
    /// operator. Collection itself adds no cost — the output traffic is
    /// priced by `output_resident` or `materialize`.
    pub sink: Option<&'a mut Vec<(u64, u64, u64)>>,
}

/// Build a scratchpad bucket-chaining table from one build sub-partition
/// and probe it with the matching probe sub-partition, folding matches
/// into `out` (and into `sink`, when a plan collects output tuples).
/// Returns the chain steps traversed (for the instruction model).
/// `skip_bits` are the hash bits already consumed by all prior
/// partitioning passes.
fn join_one(
    rk: &[u64],
    rr: &[u64],
    sk: &[u64],
    sr: &[u64],
    skip_bits: u32,
    out: &mut JoinResult,
    mut sink: Option<&mut Vec<(u64, u64, u64)>>,
) -> u64 {
    if rk.is_empty() || sk.is_empty() {
        return 0;
    }
    let table = BucketChainTable::build(rk, rr, BUCKET_CHAIN_ENTRIES, skip_bits);
    let mut chain_steps = 0u64;
    for (&k, &srid) in sk.iter().zip(sr) {
        let steps = table.probe_each(k, |rrid| {
            out.add(rrid, srid);
            if let Some(s) = sink.as_mut() {
                s.push((k, rrid, srid));
            }
        });
        chain_steps += steps.saturating_sub(2) as u64;
    }
    chain_steps
}

impl TritonJoin {
    /// First-pass radix bits. The hard constraint is capacity — two
    /// partition pairs must fit in half the GPU memory (Section 5.1) —
    /// but the paper tunes beyond it (6-10 bits) so that each *build*
    /// partition lands near 32 MiB, keeping the second pass short. The
    /// tuning reproduces the paper's choices: 2^6 at 128 M tuples, 2^10
    /// at 2048 M, and the fanout drop from 1024 to 64 at a 1:32
    /// build-to-probe ratio that Section 6.2.9 credits for its speedup.
    pub fn pass1_bits(r_bytes: u64, total_bytes: u64, hw: &HwConfig) -> u32 {
        let quarter = (hw.gpu.mem_capacity.0 / 4).max(1);
        let capacity_floor = (total_bytes.max(1) as f64 / quarter as f64).log2().ceil() as i64;
        // 32 MiB modeled, at the current capacity scale.
        let target = ((32u64 << 20) / hw.scale).max(1);
        let tuned = (r_bytes.max(1) as f64 / target as f64).log2().ceil() as i64;
        tuned.max(capacity_floor).clamp(6, 10) as u32
    }

    /// Second-pass radix bits for a partition of `tuples` build tuples.
    pub fn pass2_bits(&self, tuples: usize) -> u32 {
        if tuples == 0 {
            return 0;
        }
        let need = (tuples as f64 / PASS2_TARGET_TUPLES as f64).log2().ceil() as i64;
        need.clamp(0, self.max_pass2_bits as i64) as u32
    }

    /// Execute the join, panicking if the simulated CPU memory cannot
    /// hold the partitioned copy. Library users embedding the join in a
    /// larger planner should prefer [`Self::try_run`].
    pub fn run(&self, w: &Workload, hw: &HwConfig) -> JoinReport {
        self.try_run(w, hw)
            // triton-lint: allow(p1) -- documented panicking wrapper; fallible callers use try_run
            .expect("simulated CPU memory exhausted for the partitioned copy")
    }

    /// Execute the join, surfacing simulated out-of-memory conditions as
    /// errors instead of panicking.
    pub fn try_run(
        &self,
        w: &Workload,
        hw: &HwConfig,
    ) -> Result<JoinReport, triton_mem::OutOfMemory> {
        self.try_run_with(w, hw, JoinRunOptions::default())
    }

    /// Execute the join as one node of a query plan: `opts` selects which
    /// inputs are already GPU-resident, whether the output stays resident
    /// for a downstream node, and an optional sink collecting the matched
    /// tuples. With default options this is exactly [`Self::try_run`].
    pub fn try_run_with(
        &self,
        w: &Workload,
        hw: &HwConfig,
        mut opts: JoinRunOptions<'_>,
    ) -> Result<JoinReport, triton_mem::OutOfMemory> {
        let n_r = w.r.len();

        // --- Optional Bloom pre-filter over the outer relation: built
        // from R's keys, probed while S streams through its first pass.
        // Dropped tuples still cross the link once (they must be read to
        // be tested) but are never partitioned, spilled, or reloaded.
        let filtered;
        let mut bloom_phase: Option<PhaseReport> = None;
        let (s_keys, s_rids): (&[u64], &[u64]) = if self.bloom_prefilter {
            let mut filter = BloomFilter::for_build_side(n_r);
            for &k in &w.r.keys {
                filter.insert(k);
            }
            let mut fk = Vec::with_capacity(w.s.len());
            let mut fr = Vec::with_capacity(w.s.len());
            for (&k, &r) in w.s.keys.iter().zip(&w.s.rids) {
                if filter.may_contain(k) {
                    fk.push(k);
                    fr.push(r);
                }
            }
            let dropped = (w.s.len() - fk.len()) as u64;
            bloom_phase = Some(filter.phase_report(
                n_r as u64,
                w.s.len() as u64,
                dropped,
                opts.r_resident,
                opts.s_resident,
                hw,
            ));
            filtered = (fk, fr);
            (&filtered.0, &filtered.1)
        } else {
            (&w.s.keys, &w.s.rids)
        };
        let n_s = s_keys.len();

        let r_bytes = n_r as u64 * TUPLE_BYTES;
        let s_bytes = n_s as u64 * TUPLE_BYTES;
        let total_bytes = r_bytes + s_bytes;
        let b1 = Self::pass1_bits(r_bytes, total_bytes, hw);
        let fanout1 = 1usize << b1;
        // Concurrent kernels split the SMs; the serial ablation gives
        // each stage the whole GPU instead.
        let half_sms = if self.overlap {
            (hw.gpu.num_sms / 2).max(1)
        } else {
            hw.gpu.num_sms
        };

        // --- GPU memory budget: reserve the pipeline working set (two
        // second-pass output pairs) and the Hierarchical L2 buffers; the
        // remainder caches the partitioned arrays.
        let mut alloc = SimAllocator::new(hw);
        let pair_bytes = (total_bytes / fanout1 as u64).max(1);
        let reserve = 2 * pair_bytes + hw.gpu.mem_capacity.0 / 8;
        let auto_cache = hw.gpu.mem_capacity.0.saturating_sub(reserve);
        let cache = if self.caching_enabled {
            self.cache_bytes
                .map(|b| b.0)
                .unwrap_or(auto_cache)
                .min(auto_cache)
        } else {
            0
        };

        // Plan-resident inputs are read from GPU memory; standalone joins
        // stream both relations over the interconnect (the paper's
        // setting). The address windows stay clear of the pipeline's
        // staging spans at 1 << 46 and up.
        let input_r = if opts.r_resident {
            Span::gpu(1 << 43)
        } else {
            Span::cpu(0)
        };
        let input_s = if opts.s_resident {
            Span::gpu(1 << 44)
        } else {
            Span::cpu(1 << 45)
        };

        let mut phases: Vec<PhaseReport> = Vec::new();
        let bloom_time = bloom_phase.as_ref().map(|p| p.time).unwrap_or(Ns::ZERO);
        if let Some(p) = bloom_phase {
            phases.push(p);
        }

        // --- PS 1.
        let pass1_cfg = PassConfig::new(b1, 0);
        let (hist_r, hist_s, ps1_time) = if self.gpu_prefix_sum {
            let (hr, mut c1) = gpu_prefix_sum(&w.r.keys, &input_r, &pass1_cfg, hw, false);
            let (hs, c2) = gpu_prefix_sum(s_keys, &input_s, &pass1_cfg, hw, false);
            let t = c1.timing(hw).total + c2.timing(hw).total;
            c1.merge(&c2);
            c1.name = "PS 1".into();
            phases.push(PhaseReport {
                time: t,
                ..PhaseReport::gpu(c1, hw)
            });
            (hr, hs, t)
        } else {
            let hr = compute_histogram(&w.r.keys, 1, b1, 0);
            let hs = compute_histogram(s_keys, 1, b1, 0);
            let t = cpu_prefix_sum_cost(n_r as u64, hw) + cpu_prefix_sum_cost(n_s as u64, hw);
            phases.push(PhaseReport::cpu("PS 1", t));
            (hr, hs, t)
        };

        // --- Working-set placement. The histograms are known here, so the
        // skew-aware planner can rank partition pairs by how much pipeline
        // time GPU residency would save and pin whole hot pairs through an
        // explicit placement plan; `SkewPolicy::Off` keeps the uniform
        // proportional split.
        let page_size = alloc.page_size();
        let estimates: Option<Vec<PairEstimate>> = self.skew.mechanisms().map(|_| {
            // One roofline memo across the whole plan: uniform workloads
            // repeat the same pair shape in most partitions, so pricing
            // collapses to a handful of roofline evaluations.
            let mut memo = TimingCache::new();
            (0..fanout1)
                .map(|i| {
                    estimate_pair_cached(
                        i,
                        hist_r.totals[i],
                        hist_s.totals[i],
                        half_sms,
                        hw,
                        &mut memo,
                    )
                })
                .collect()
        });
        let page_range = |offsets: &[usize], i: usize| {
            let s = offsets[i] as u64 * TUPLE_BYTES;
            let e = offsets[i + 1] as u64 * TUPLE_BYTES;
            if e > s {
                (s / page_size, (e - 1) / page_size + 1)
            } else {
                (s / page_size, s / page_size)
            }
        };
        // Planned placement only pays when some pair is hot enough to
        // outgrow the staging area the uniform reservation leaves free.
        // Pairs whose build side needs no second pass never stage, and on
        // near-uniform histograms the proportional interleave already
        // overlaps link and GPU traffic within every kernel — in both
        // cases the planner declines and keeps the uniform split.
        let max_pair_bytes = (0..fanout1)
            .filter(|&i| self.pass2_bits(hist_r.totals[i] as usize) > 0)
            .map(|i| (hist_r.totals[i] + hist_s.totals[i]) * TUPLE_BYTES)
            .max()
            .unwrap_or(0);
        let gate_capacity = hw.gpu.mem_capacity.0.saturating_sub(cache.min(total_bytes));
        let worst_demand = max_pair_bytes * (1 + u64::from(cache < total_bytes));
        let planning_pays = worst_demand > gate_capacity;
        let cache_plan = match (&estimates, self.skew.mechanisms()) {
            (Some(est), Some(m)) if m.hot_cache && planning_pays => {
                let extents: Vec<PairExtent> = (0..fanout1)
                    .map(|i| PairExtent {
                        r_pages: page_range(&hist_r.offsets, i),
                        s_pages: page_range(&hist_s.offsets, i),
                    })
                    .collect();
                Some(plan_cache(est, &extents, cache / page_size))
            }
            _ => None,
        };
        let (r_layout, s_layout) = if let Some(plan) = &cache_plan {
            (
                alloc.alloc_hybrid_planned(Bytes(r_bytes), plan.r_plan.clone())?,
                alloc.alloc_hybrid_planned(Bytes(s_bytes), plan.s_plan.clone())?,
            )
        } else {
            let r_cache = (cache as u128 * r_bytes as u128 / total_bytes.max(1) as u128) as u64;
            let s_cache = cache - r_cache.min(cache);
            (
                alloc.alloc_hybrid_with(Bytes(r_bytes), Bytes(r_cache), self.interleaved_cache)?,
                alloc.alloc_hybrid_with(Bytes(s_bytes), Bytes(s_cache), self.interleaved_cache)?,
            )
        };
        let r_span = Span::hybrid(r_layout.clone());
        let s_span = Span::hybrid(s_layout.clone());
        // Free GPU memory left beside the cached working set: the staging
        // area the pipeline materializes each pair into (the gpu_in copy
        // of a spilled pair plus the second-pass output). Uniform pairs
        // fit by construction — the reservation above is sized for two
        // mean pairs — but a skewed hot pair can exceed it.
        let staging_capacity = alloc.available(MemSide::Gpu).0;

        // --- Part 1 (out-of-core, Hierarchical by default).
        let p1 = make_partitioner(self.pass1);
        let (parts_r, mut c_p1r) = p1.partition(
            &w.r.keys, &w.r.rids, &hist_r, &input_r, &r_span, &pass1_cfg, hw,
        );
        let (parts_s, c_p1s) =
            p1.partition(s_keys, s_rids, &hist_s, &input_s, &s_span, &pass1_cfg, hw);
        let part1_time = c_p1r.timing(hw).total + c_p1s.timing(hw).total;
        c_p1r.merge(&c_p1s);
        c_p1r.name = "Part 1".into();
        phases.push(PhaseReport {
            time: part1_time,
            ..PhaseReport::gpu(c_p1r, hw)
        });

        // --- Per-partition second pass + join, pipelined on split SMs.
        let p2 = make_partitioner(self.pass2);
        let spilled = r_layout.cpu_bytes() + s_layout.cpu_bytes() > 0;
        let mean_build = hist_r.mean_tuples();
        let mut result = JoinResult::empty();
        let mut stage_a: Vec<Ns> = Vec::with_capacity(fanout1);
        let mut stage_b: Vec<Ns> = Vec::with_capacity(fanout1);
        let mut est_a: Vec<Ns> = Vec::new();
        let mut est_b: Vec<Ns> = Vec::new();
        let mut placements: Vec<PairPlacement> = Vec::new();
        let mut ps2_all = KernelCost::new("PS 2");
        let mut part2_all = KernelCost::new("Part 2");
        let mut spill_all = KernelCost::new("Spill");
        let mut part3_all = KernelCost::new("Part 3");
        let mut sched_all = KernelCost::new("Sched");
        let mut join_all = KernelCost::new("Join");
        let mut reclaim_all = KernelCost::new("Reclaim");
        let mut repart_all = KernelCost::new("Repart");
        let (mut ps2_t, mut part2_t, mut spill_t, mut part3_t, mut sched_t, mut join_t) =
            (Ns::ZERO, Ns::ZERO, Ns::ZERO, Ns::ZERO, Ns::ZERO, Ns::ZERO);
        let (mut reclaim_t, mut repart_t) = (Ns::ZERO, Ns::ZERO);

        // --- Elastic grant state. A mid-query schedule revises the cache
        // budget at pair boundaries: a shrink evicts the GPU-resident
        // share of the *coldest unprocessed* pairs (by the pass-1 hotness
        // histogram) through the link, a grow re-pins the hottest evicted
        // ones; a pair reaching the pipeline while its resident share is
        // still evicted pays an explicit reload. All of it is priced into
        // the `Reclaim` phase; answers never change, only time.
        let elastic_on = self.elastic.enabled;
        let hotness: Vec<u64> = (0..fanout1)
            .map(|j| (hist_r.totals[j] + hist_s.totals[j]) * TUPLE_BYTES)
            .collect();
        let resident_of = |j: usize| {
            let r_off = hist_r.offsets[j] as u64 * TUPLE_BYTES;
            let s_off = hist_s.offsets[j] as u64 * TUPLE_BYTES;
            r_layout
                .split_range(r_off, hist_r.totals[j] * TUPLE_BYTES)
                .0
                + s_layout
                    .split_range(s_off, hist_s.totals[j] * TUPLE_BYTES)
                    .0
        };
        // Pair index → resident bytes currently evicted by a shrink.
        let mut evicted: BTreeMap<usize, u64> = BTreeMap::new();
        let mut elastic_cache = cache;
        let mut next_step = 0usize;
        let stream = |k: &mut KernelCost, bytes: u64, evicting: bool| {
            if bytes == 0 {
                return Ns::ZERO;
            }
            k.tuples_in += bytes / TUPLE_BYTES;
            let mut leg = KernelCost::new("Reclaim");
            leg.sms = half_sms;
            if evicting {
                leg.gpu_mem.read += Bytes(bytes);
                leg.link.seq_write += Bytes(bytes);
            } else {
                leg.gpu_mem.write += Bytes(bytes);
                leg.link.seq_read += Bytes(bytes);
            }
            let t = leg.timing(hw).total;
            k.merge(&leg);
            t
        };

        let mut pass2_cfg_proto = PassConfig::new(0, b1);
        pass2_cfg_proto.sms = half_sms;

        for i in 0..fanout1 {
            // Apply every grant revision scheduled at this pair boundary.
            while elastic_on
                && next_step < self.elastic.schedule.steps.len()
                && self.elastic.schedule.steps[next_step].at_pair <= i as u64
            {
                let target = self.elastic.schedule.steps[next_step].cache_bytes;
                next_step += 1;
                if target < elastic_cache {
                    // Shrink: evict resident state of unprocessed pairs,
                    // coldest first, until the reclaimed bytes cover it.
                    let mut need = elastic_cache - target;
                    for &j in &spill_order(&hotness) {
                        if need == 0 {
                            break;
                        }
                        if j < i {
                            continue;
                        }
                        let held = resident_of(j).saturating_sub(*evicted.get(&j).unwrap_or(&0));
                        let take = held.min(need);
                        if take == 0 {
                            continue;
                        }
                        *evicted.entry(j).or_insert(0) += take;
                        need -= take;
                        reclaim_t += stream(&mut reclaim_all, take, true);
                    }
                } else if target > elastic_cache {
                    // Grow: re-pin evicted state, hottest first, paying
                    // the reload now instead of at processing time.
                    let mut back = target - elastic_cache;
                    for &j in spill_order(&hotness).iter().rev() {
                        if back == 0 {
                            break;
                        }
                        if j < i {
                            continue;
                        }
                        let Some(held) = evicted.get_mut(&j) else {
                            continue;
                        };
                        let take = (*held).min(back);
                        *held -= take;
                        back -= take;
                        reclaim_t += stream(&mut reclaim_all, take, false);
                    }
                    evicted.retain(|_, held| *held > 0);
                }
                elastic_cache = target;
            }
            let (rk, rr) = parts_r.partition(i);
            let (sk, sr) = parts_s.partition(i);
            if rk.is_empty() && sk.is_empty() {
                continue;
            }
            // A pair whose resident share was evicted by a shrink streams
            // it back before its second pass can run.
            if elastic_on {
                if let Some(held) = evicted.remove(&i) {
                    reclaim_t += stream(&mut reclaim_all, held, false);
                }
            }
            // Heavy-hitter splitting: build partitions far above the mean
            // get extra second-pass bits, still under the scratchpad cap.
            let b2 = (self.pass2_bits(rk.len())
                + self.skew.heavy_extra_bits(rk.len() as u64, mean_build))
            .min(self.max_pass2_bits);
            let mut a_time = Ns::ZERO;

            let r_off = hist_r.offsets[i] as u64 * TUPLE_BYTES;
            let s_off = hist_s.offsets[i] as u64 * TUPLE_BYTES;
            let r_slice = r_span.slice(r_off);
            let s_slice = s_span.slice(s_off);
            let pair_r_bytes = rk.len() as u64 * TUPLE_BYTES;
            let pair_s_bytes = sk.len() as u64 * TUPLE_BYTES;
            // Under a placement plan, spill is a per-pair fact: pinned
            // pairs skip the copy-in entirely. The uniform policies keep
            // the global flag (every pair shares the interleave).
            let pair_spilled = if cache_plan.is_some() {
                r_layout.split_range(r_off, pair_r_bytes).1
                    + s_layout.split_range(s_off, pair_s_bytes).1
                    > 0
            } else {
                spilled
            };
            let pair_gpu = r_layout.split_range(r_off, pair_r_bytes).0
                + s_layout.split_range(s_off, pair_s_bytes).0;
            let pair_bytes_total = pair_r_bytes + pair_s_bytes;
            // Staging demand of this pair: the second pass materializes
            // its output in GPU memory, and a spilled pair is first
            // copied into gpu_in by the PS 2 kernels.
            let staging_demand = if b2 > 0 {
                pair_bytes_total * (1 + u64::from(pair_spilled))
            } else {
                0
            };
            // Heavy-hitter splitting: the skew-aware executor knows pair
            // sizes from the histograms, so a pair that outgrows the
            // staging area is streamed through it in probe-side chunks —
            // each chunk is its own pipeline lane, so no single stage-B
            // straggler dominates the schedule. The blind executor
            // instead overflows (charged below).
            // Runtime re-partitioning: when a pair overflows its staging
            // grant (and heavy-hitter splitting is not already chunking
            // it), the elastic executor refines the offending pair with
            // `repart_bits` extra radix bits per recursion level — each
            // level an in-GPU partitioning pass — until the sub-pairs fit,
            // bounded by `max_depth`. The sub-pairs then stream through
            // staging as their own pipeline lanes; anything still past the
            // bound spills flat (bounded recursion, never unbounded).
            let repart_depth = if elastic_on
                && staging_demand > staging_capacity
                && !self.skew.mechanisms().is_some_and(|m| m.split_heavy)
            {
                self.elastic
                    .depth_for(staging_demand, staging_capacity.max(1))
            } else {
                0
            };
            let lanes = if self.skew.mechanisms().is_some_and(|m| m.split_heavy)
                && staging_demand > staging_capacity
            {
                staging_demand.div_ceil(staging_capacity.max(1)).min(64)
            } else if repart_depth > 0 {
                (1u64 << (self.elastic.repart_bits * repart_depth).min(6)).min(64)
            } else {
                1
            };
            for lane in 0..lanes {
                let share = |v: u64| {
                    let per = v / lanes;
                    if lane == 0 {
                        v - per * (lanes - 1)
                    } else {
                        per
                    }
                };
                placements.push(PairPlacement {
                    part: i as u64,
                    bytes: share(pair_bytes_total),
                    gpu_bytes: share(pair_gpu),
                    cached: pair_gpu == pair_bytes_total,
                });
                if let Some(est) = &estimates {
                    est_a.push(est[i].stage_a(!pair_spilled) / lanes as f64);
                    est_b.push(est[i].b / lanes as f64);
                }
            }

            // Sub-histograms / sub-partitions of this pair.
            let (sub_r, sub_s, joined_from_gpu) = if b2 > 0 {
                let mut cfg = pass2_cfg_proto;
                cfg.radix_bits = b2;
                // PS 2: histogram over the pair, copying it into GPU
                // memory when the array is (partially) spilled so the
                // later kernels avoid a second interconnect pass.
                let (h2r, mut cps_r) = gpu_prefix_sum(rk, &r_slice, &cfg, hw, pair_spilled);
                let (h2s, cps_s) = gpu_prefix_sum(sk, &s_slice, &cfg, hw, pair_spilled);
                let t = cps_r.timing(hw).total + cps_s.timing(hw).total;
                cps_r.merge(&cps_s);
                ps2_t += t;
                a_time += t;
                ps2_all.merge(&cps_r);

                // Part 2: read the (now GPU-resident) pair, scatter into
                // GPU memory.
                let gpu_in = Span::gpu(1 << 46);
                let gpu_out = Span::gpu(1 << 47);
                let part2_in = if pair_spilled { &gpu_in } else { &r_slice };
                let (pr2, mut cp2r) = p2.partition(rk, rr, &h2r, part2_in, &gpu_out, &cfg, hw);
                let part2_in_s = if pair_spilled { &gpu_in } else { &s_slice };
                let (ps2_parts, cp2s) = p2.partition(sk, sr, &h2s, part2_in_s, &gpu_out, &cfg, hw);
                let t = cp2r.timing(hw).total + cp2s.timing(hw).total;
                cp2r.merge(&cp2s);
                part2_t += t;
                a_time += t;
                part2_all.merge(&cp2r);
                (Some(pr2), Some(ps2_parts), true)
            } else {
                (None, None, !pair_spilled)
            };

            // Each re-partitioning level reads and rescatters the pair
            // within GPU memory while it streams through staging.
            if repart_depth > 0 {
                let pair_tuples = (rk.len() + sk.len()) as u64;
                for _ in 0..repart_depth {
                    let mut rp = KernelCost::new("Repart");
                    rp.sms = half_sms;
                    rp.tuples_in = pair_tuples;
                    rp.instructions = pair_tuples * REPART_INSTR;
                    rp.gpu_mem.read += Bytes(pair_bytes_total);
                    rp.gpu_mem.write += Bytes(pair_bytes_total);
                    let t = rp.timing(hw).total;
                    repart_t += t;
                    a_time += t;
                    repart_all.merge(&rp);
                }
            }

            // Staging overflow: without heavy-hitter splitting, a pair
            // bigger than the free GPU memory cannot be materialized at
            // once — the executor evicts the overflow to CPU memory while
            // the second pass is still scattering, then reloads it for
            // the join. The two transfers sit in different pipeline steps
            // and cannot overlap each other, so each is timed on its own.
            // Under elastic re-partitioning only the share a lane still
            // cannot stage after `max_depth` levels overflows this way.
            let flat_excess = if lanes == 1 && staging_demand > staging_capacity {
                staging_demand - staging_capacity
            } else if repart_depth > 0 {
                staging_demand
                    .div_ceil(lanes)
                    .saturating_sub(staging_capacity)
                    .saturating_mul(lanes)
            } else {
                0
            };
            if flat_excess > 0 {
                let excess = Bytes(flat_excess);
                let mut evict = KernelCost::new("Spill");
                evict.sms = half_sms;
                evict.tuples_in = excess.0 / TUPLE_BYTES;
                evict.gpu_mem.read += excess;
                evict.link.seq_write += excess;
                let mut reload = KernelCost::new("Spill");
                reload.sms = half_sms;
                reload.gpu_mem.write += excess;
                reload.link.seq_read += excess;
                let t = evict.timing(hw).total + reload.timing(hw).total;
                spill_t += t;
                a_time += t;
                evict.merge(&reload);
                spill_all.merge(&evict);
            }

            // Sched: the join task scheduler pairing sub-partitions.
            let mut sched = KernelCost::new("Sched");
            sched.sms = half_sms;
            sched.instructions = 4096 + (1u64 << b2) * 512;
            sched.gpu_mem.read += Bytes((1u64 << b2) * 16);
            let t = sched.timing(hw).total;
            sched_t += t;
            a_time += t;
            sched_all.merge(&sched);

            // Join kernel over the pair.
            let mut join = KernelCost::new("Join");
            join.sms = half_sms;
            join.tuples_in = (rk.len() + sk.len()) as u64;
            let mut pair_result = JoinResult::empty();
            let charge_join_reads = |join: &mut KernelCost| {
                let bytes_r = rk.len() as u64 * TUPLE_BYTES;
                let bytes_s = sk.len() as u64 * TUPLE_BYTES;
                if joined_from_gpu {
                    join.gpu_mem.read += Bytes(bytes_r + bytes_s);
                } else {
                    // No second pass and the pair is (partially) spilled:
                    // stream it over the interconnect.
                    let (g, c) = r_slice.split_range(0, bytes_r);
                    join.gpu_mem.read += Bytes(g);
                    join.link.seq_read += Bytes(c);
                    let (g, c) = s_slice.split_range(0, bytes_s);
                    join.gpu_mem.read += Bytes(g);
                    join.link.seq_read += Bytes(c);
                }
            };
            charge_join_reads(&mut join);

            let (build_i, probe_i) = match self.scheme {
                HashScheme::Perfect => (JOIN_BUILD_INSTR - 5, JOIN_PROBE_INSTR - 4),
                _ => (JOIN_BUILD_INSTR, JOIN_PROBE_INSTR),
            };
            let mut chain_steps = 0u64;
            match (&sub_r, &sub_s) {
                (Some(pr2), Some(ps2p)) => {
                    for p in 0..pr2.fanout() {
                        let (srk, srr) = pr2.partition(p);
                        let (ssk, ssr) = ps2p.partition(p);
                        if srk.is_empty() || ssk.is_empty() {
                            continue;
                        }
                        // Optional third pass (Section 5.1): if the capped
                        // second pass left this sub-partition too large for
                        // the scratchpad table, refine it once more within
                        // GPU memory.
                        let b3 = if self.third_pass {
                            self.pass2_bits(srk.len())
                        } else {
                            0
                        };
                        if b3 > 0 {
                            let mut cfg3 = pass2_cfg_proto;
                            cfg3.radix_bits = b3;
                            cfg3.skip_bits = b1 + b2;
                            let gpu_in = Span::gpu(1 << 48);
                            let gpu_out = Span::gpu(1 << 49);
                            let h3r = triton_part::compute_histogram(srk, 1, b3, b1 + b2);
                            let h3s = triton_part::compute_histogram(ssk, 1, b3, b1 + b2);
                            let (pr3, mut c3) =
                                p2.partition(srk, srr, &h3r, &gpu_in, &gpu_out, &cfg3, hw);
                            let (ps3, c3s) =
                                p2.partition(ssk, ssr, &h3s, &gpu_in, &gpu_out, &cfg3, hw);
                            c3.merge(&c3s);
                            c3.name = "Part 3".into();
                            let t3 = c3.timing(hw).total;
                            part3_t += t3;
                            a_time += t3;
                            part3_all.merge(&c3);
                            for q in 0..pr3.fanout() {
                                let (qrk, qrr) = pr3.partition(q);
                                let (qsk, qsr) = ps3.partition(q);
                                chain_steps += join_one(
                                    qrk,
                                    qrr,
                                    qsk,
                                    qsr,
                                    b1 + b2 + b3,
                                    &mut pair_result,
                                    opts.sink.as_deref_mut(),
                                );
                            }
                        } else {
                            chain_steps += join_one(
                                srk,
                                srr,
                                ssk,
                                ssr,
                                b1 + b2,
                                &mut pair_result,
                                opts.sink.as_deref_mut(),
                            );
                        }
                    }
                }
                _ => {
                    chain_steps += join_one(
                        rk,
                        rr,
                        sk,
                        sr,
                        b1,
                        &mut pair_result,
                        opts.sink.as_deref_mut(),
                    );
                }
            }
            join.instructions = rk.len() as u64 * build_i
                + sk.len() as u64 * probe_i
                + chain_steps * JOIN_CHAIN_INSTR;
            if self.materialize {
                // Results stream to CPU memory via a linear allocator.
                join.link.seq_write += Bytes(pair_result.matches * TUPLE_BYTES);
                join.instructions += pair_result.matches * 2;
            }
            if opts.output_resident {
                // Results land in GPU memory for a downstream plan node.
                join.gpu_mem.write += Bytes(pair_result.matches * TUPLE_BYTES);
                join.instructions += pair_result.matches * 2;
            }
            join.tuples_out = pair_result.matches;
            result.merge(&pair_result);
            let t = join.timing(hw).total;
            join_t += t;
            join_all.merge(&join);

            // A chunked heavy pair occupies `lanes` pipeline slots, each
            // carrying an equal share of its two stages.
            let lane_a = a_time / lanes as f64;
            let lane_b = t / lanes as f64;
            for _ in 0..lanes {
                stage_a.push(lane_a);
                stage_b.push(lane_b);
            }
        }

        // Assemble the merged per-kernel phases.
        for (cost, t) in [
            (ps2_all, ps2_t),
            (part2_all, part2_t),
            (spill_all, spill_t),
            (reclaim_all, reclaim_t),
            (repart_all, repart_t),
            (part3_all, part3_t),
            (sched_all, sched_t),
            (join_all, join_t),
        ] {
            if cost.tuples_in > 0 || cost.instructions > 0 {
                phases.push(PhaseReport {
                    time: t,
                    ..PhaseReport::gpu(cost, hw)
                });
            }
        }

        // LPT scheduling: order the pipeline lanes longest-total-first
        // from the pre-loop estimates, then accept the permutation only if
        // it beats submission order on the *actual* lane times — the
        // schedule can reorder, never regress.
        let mut order: Vec<usize> = Vec::new();
        if self.overlap
            && self.skew.mechanisms().is_some_and(|m| m.lpt)
            && stage_a.len() > 1
            && est_a.len() == stage_a.len()
        {
            let candidate = lpt_order(&est_a, &est_b);
            if pipeline2_scheduled(&stage_a, &stage_b, &candidate) < pipeline2(&stage_a, &stage_b) {
                order = candidate;
            }
        }

        let pipeline_time = if !self.overlap {
            stage_a.iter().copied().sum::<Ns>() + stage_b.iter().copied().sum::<Ns>()
        } else if order.is_empty() {
            pipeline2(&stage_a, &stage_b)
        } else {
            pipeline2_scheduled(&stage_a, &stage_b, &order)
        };
        // Grant-revision reclaim traffic happens at pair boundaries and
        // monopolizes the link while it runs, so it serializes against
        // the pipeline rather than hiding inside a lane.
        let total = bloom_time + ps1_time + part1_time + pipeline_time + reclaim_t;

        let placement = PlacementReport {
            policy: if cache_plan.is_some() {
                "planned"
            } else if self.interleaved_cache {
                "interleaved"
            } else {
                "prefix"
            }
            .into(),
            cache_budget_bytes: cache,
            cache_hit_bytes: placements.iter().map(|p| p.gpu_bytes).sum(),
            spilled_bytes: placements.iter().map(|p| p.bytes - p.gpu_bytes).sum(),
            pairs: placements,
        };

        Ok(JoinReport {
            name: format!("GPU Triton Join ({})", self.scheme.name()),
            phases,
            total,
            tuples_actual: w.total_tuples(),
            tuples_modeled: w.total_tuples_modeled(),
            result,
            executor: Executor::Gpu,
            overlap: if self.overlap {
                Some(OverlapLanes {
                    stage_a,
                    stage_b,
                    order,
                })
            } else {
                None
            },
            placement: Some(placement),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use triton_datagen::WorkloadSpec;

    #[test]
    fn result_matches_reference() {
        let hw = HwConfig::ac922().scaled(2048);
        let w = WorkloadSpec::paper_default(8, 512).generate();
        let rep = TritonJoin::default().run(&w, &hw);
        assert_eq!(rep.result, reference_join(&w));
        assert_eq!(rep.result.matches, w.s.len() as u64);
    }

    #[test]
    fn result_correct_without_caching_and_with_gpu_ps() {
        let hw = HwConfig::ac922().scaled(2048);
        let w = WorkloadSpec::paper_default(8, 512).generate();
        let j = TritonJoin {
            caching_enabled: false,
            gpu_prefix_sum: true,
            materialize: true,
            ..TritonJoin::default()
        };
        let rep = j.run(&w, &hw);
        assert_eq!(rep.result, reference_join(&w));
    }

    #[test]
    fn pass1_bits_follow_capacity_rule() {
        let hw = HwConfig::ac922();
        // Paper workloads: 128 M tuples (2 GiB build side) -> 2^6;
        // 512 M -> 2^8; 2048 M (32 GiB) -> 2^10.
        let t = |m: u64| m * 16_000_000 * 2;
        assert_eq!(TritonJoin::pass1_bits(m(128), t(128), &hw), 6);
        assert_eq!(TritonJoin::pass1_bits(m(512), t(512), &hw), 8);
        assert_eq!(TritonJoin::pass1_bits(m(2048), t(2048), &hw), 10);
        // The 1:32 ratio workload: small build side -> fanout drops to 64.
        assert_eq!(TritonJoin::pass1_bits(m(124), t(2048), &hw), 6);
        fn m(mt: u64) -> u64 {
            mt * 16_000_000
        }
    }

    #[test]
    fn pass2_bits_bounded() {
        let j = TritonJoin::default();
        assert_eq!(j.pass2_bits(0), 0);
        assert_eq!(j.pass2_bits(1000), 0);
        assert_eq!(j.pass2_bits(10_000), 3);
        assert_eq!(j.pass2_bits(100_000_000), 9); // clamped
    }

    #[test]
    fn phases_cover_the_paper_kernels() {
        let hw = HwConfig::ac922().scaled(2048);
        let w = WorkloadSpec::paper_default(16, 512).generate();
        let rep = TritonJoin::default().run(&w, &hw);
        let names: Vec<&str> = rep.phases.iter().map(|p| p.name.as_str()).collect();
        for expected in ["PS 1", "Part 1", "Sched", "Join"] {
            assert!(
                names.contains(&expected),
                "missing phase {expected}: {names:?}"
            );
        }
    }

    #[test]
    fn third_pass_triggers_when_second_is_capped() {
        let hw = HwConfig::ac922().scaled(512);
        let w = WorkloadSpec::paper_default(512, 512).generate();
        // Cap the second pass at 1 bit so partitions stay far above the
        // scratchpad target and the third pass must refine them.
        let j = TritonJoin {
            max_pass2_bits: 1,
            ..TritonJoin::default()
        };
        let rep = j.run(&w, &hw);
        assert_eq!(rep.result, reference_join(&w));
        assert!(
            rep.phases.iter().any(|p| p.name == "Part 3"),
            "expected a Part 3 phase: {:?}",
            rep.phases
                .iter()
                .map(|p| p.name.clone())
                .collect::<Vec<_>>()
        );
        // Disabling the third pass must still be correct (just slower
        // chains), and must not emit the phase.
        let j_off = TritonJoin {
            max_pass2_bits: 1,
            third_pass: false,
            ..TritonJoin::default()
        };
        let rep_off = j_off.run(&w, &hw);
        assert_eq!(rep_off.result, reference_join(&w));
        assert!(rep_off.phases.iter().all(|p| p.name != "Part 3"));
        // The third pass pays off in the join phase: shorter chains mean
        // fewer instructions (at paper scale the gap is much larger; the
        // pass-1 tuning keeps sub-partitions small at simulation scale).
        let join_instr = |r: &crate::report::JoinReport| {
            r.phases
                .iter()
                .find(|p| p.name == "Join")
                .and_then(|p| p.cost.as_ref())
                .map(|c| c.instructions)
                .unwrap()
        };
        assert!(join_instr(&rep) <= join_instr(&rep_off));
    }

    #[test]
    fn bloom_prefilter_correct_and_pays_on_selective_joins() {
        let hw = HwConfig::ac922().scaled(512);
        // Only 5% of probe tuples match: the filter drops most of S
        // before it is partitioned and spilled. Building the filter now
        // honestly pays R's key column crossing the link once, so the
        // net win is the S partition/spill traffic saved minus that
        // stream.
        let w = WorkloadSpec::selective(512, 0.05, 512).generate();
        let plain = TritonJoin::default().run(&w, &hw);
        let bloom = TritonJoin {
            bloom_prefilter: true,
            ..TritonJoin::default()
        }
        .run(&w, &hw);
        assert_eq!(
            bloom.result, plain.result,
            "filtering must not change results"
        );
        assert_eq!(bloom.result, reference_join(&w));
        assert!(
            bloom.total.0 < plain.total.0 * 0.97,
            "selective join: bloom {} vs plain {}",
            bloom.total,
            plain.total
        );
        // The filter build must charge R's keys over the interconnect.
        let bloom_phase = bloom.phases.iter().find(|p| p.name == "Bloom").unwrap();
        assert!(
            bloom_phase.cost.as_ref().unwrap().link.seq_read.0 >= w.r.len() as u64 * 8,
            "filter build must stream R's key column over the link"
        );
    }

    #[test]
    fn bloom_prefilter_is_overhead_on_full_match_joins() {
        let hw = HwConfig::ac922().scaled(512);
        let w = WorkloadSpec::paper_default(128, 512).generate();
        let plain = TritonJoin::default().run(&w, &hw);
        let bloom = TritonJoin {
            bloom_prefilter: true,
            ..TritonJoin::default()
        }
        .run(&w, &hw);
        assert_eq!(bloom.result, plain.result);
        // 100% match rate: nothing to drop, the filter is pure overhead.
        assert!(bloom.total.0 >= plain.total.0);
    }

    #[test]
    fn try_run_surfaces_simulated_oom() {
        // A workload larger than the scaled CPU memory cannot host its
        // partitioned copy: the fallible API reports it.
        let hw = HwConfig::ac922().scaled(65536);
        let w = WorkloadSpec::paper_default(512, 64).generate();
        let err = TritonJoin::default().try_run(&w, &hw).unwrap_err();
        assert_eq!(err.side, triton_hw::MemSide::Cpu);
    }

    #[test]
    fn materialization_writes_results_over_the_link() {
        let hw = HwConfig::ac922().scaled(2048);
        let w = WorkloadSpec::paper_default(8, 512).generate();
        let j = TritonJoin {
            materialize: true,
            ..TritonJoin::default()
        };
        let rep = j.run(&w, &hw);
        let join_phase = rep.phases.iter().find(|p| p.name == "Join").unwrap();
        let written = join_phase.cost.as_ref().unwrap().link.seq_write.0;
        assert_eq!(written, rep.result.matches * TUPLE_BYTES);
    }

    #[test]
    fn elastic_with_no_revisions_is_bit_identical_to_fixed() {
        // Enabling the policy without a schedule (and without overflow)
        // must not perturb the model by a single bit: the elastic paths
        // are strictly additive.
        let hw = HwConfig::ac922().scaled(2048);
        let w = WorkloadSpec::paper_default(8, 512).generate();
        let fixed = TritonJoin::default().run(&w, &hw);
        let elastic = TritonJoin {
            elastic: crate::elastic::ElasticPolicy::adaptive(),
            ..TritonJoin::default()
        }
        .run(&w, &hw);
        assert_eq!(elastic.result, fixed.result);
        assert_eq!(elastic.total.0.to_bits(), fixed.total.0.to_bits());
        let names = |r: &JoinReport| r.phases.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&elastic), names(&fixed));
        assert!(names(&fixed)
            .iter()
            .all(|n| n != "Reclaim" && n != "Repart"));
    }

    #[test]
    fn grant_shrink_preserves_results_and_prices_the_reclaim() {
        use crate::elastic::{ElasticPolicy, GrantSchedule, GrantStep};
        let hw = HwConfig::ac922().scaled(2048);
        let w = WorkloadSpec::paper_default(8, 512).generate();
        let expect = reference_join(&w);
        let baseline = TritonJoin::default().run(&w, &hw);
        // A mid-query shrink to zero cache: every unprocessed pair's
        // resident share is evicted through the link, then streamed back
        // as each pair reaches its second pass.
        let shrink = TritonJoin {
            elastic: ElasticPolicy::with_schedule(GrantSchedule::new(vec![GrantStep {
                at_pair: 1,
                cache_bytes: 0,
            }])),
            ..TritonJoin::default()
        }
        .run(&w, &hw);
        assert_eq!(shrink.result, expect, "a grant revision changed answers");
        let reclaim = shrink
            .phases
            .iter()
            .find(|p| p.name == "Reclaim")
            .expect("shrinking a cached join must emit a Reclaim phase");
        let cost = reclaim.cost.as_ref().unwrap();
        assert!(cost.link.seq_write.0 > 0, "eviction must cross the link");
        assert!(cost.link.seq_read.0 > 0, "reload must cross the link");
        assert!(
            shrink.total.0 > baseline.total.0,
            "reclaim traffic is not free: {} vs {}",
            shrink.total,
            baseline.total
        );
        // Shrink-then-grow restores residency early (the grow pays the
        // reload up front); answers are still identical.
        let regrow = TritonJoin {
            elastic: ElasticPolicy::with_schedule(GrantSchedule::new(vec![
                GrantStep {
                    at_pair: 1,
                    cache_bytes: 0,
                },
                GrantStep {
                    at_pair: 2,
                    cache_bytes: u64::MAX,
                },
            ])),
            ..TritonJoin::default()
        }
        .run(&w, &hw);
        assert_eq!(regrow.result, expect);
        assert!(regrow.phases.iter().any(|p| p.name == "Reclaim"));
    }

    #[test]
    fn runtime_repartitioning_is_depth_bounded_and_beats_flat_spill() {
        use crate::elastic::ElasticPolicy;
        let hw = HwConfig::ac922().scaled(512);
        // Zipf 1.5: the hot pair overflows the staging area. The blind
        // executor pays the flat spill round-trip over the link; the
        // elastic one refines the pair in GPU memory instead.
        let w = WorkloadSpec::skewed(512, 1.5, 512).generate();
        let expect = reference_join(&w);
        let flat = TritonJoin::default().run(&w, &hw);
        assert!(
            flat.phases.iter().any(|p| p.name == "Spill"),
            "workload must overflow staging for this test to bite"
        );
        let elastic = TritonJoin {
            elastic: ElasticPolicy::adaptive(),
            ..TritonJoin::default()
        }
        .run(&w, &hw);
        assert_eq!(elastic.result, expect, "re-partitioning changed answers");
        assert!(
            elastic.phases.iter().any(|p| p.name == "Repart"),
            "overflow under the elastic policy must re-partition"
        );
        assert!(
            elastic.total.0 <= flat.total.0,
            "in-GPU re-partitioning should not lose to the link round-trip: {} vs {}",
            elastic.total,
            flat.total
        );
        // A zero depth bound forbids recursion entirely: the executor
        // falls back to the flat spill, bit-identical to the fixed path.
        let depth0 = TritonJoin {
            elastic: ElasticPolicy {
                max_depth: 0,
                ..ElasticPolicy::adaptive()
            },
            ..TritonJoin::default()
        }
        .run(&w, &hw);
        assert_eq!(depth0.result, expect);
        assert!(depth0.phases.iter().all(|p| p.name != "Repart"));
        assert_eq!(depth0.total.0.to_bits(), flat.total.0.to_bits());
    }
}
