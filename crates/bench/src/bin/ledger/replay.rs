//! The traced per-layer replay.
//!
//! Spans are recorded *from outside* the program: the ledger calls each
//! crate's public functions itself and times every call on the host
//! clock. [`replay_join`] re-executes one Triton join layer by layer —
//! the pass-1 histogram, both partitioning passes, bucket-chaining
//! build/probe, and roofline pricing — with exactly the arguments
//! [`TritonJoin::try_run_with`] passes them, so each span is one layer's
//! share of the join's host time. The replay-fidelity test pins that the
//! replayed pass-1 cost equals the join's own `Part 1` phase.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use triton_core::skew::{estimate_pair_cached, plan_cache, PairExtent};
use triton_core::{
    BucketChainTable, JoinReport, JoinResult, JoinRunOptions, TritonJoin, BUCKET_CHAIN_ENTRIES,
};
use triton_datagen::{Workload, TUPLE_BYTES};
use triton_hw::kernel::{KernelCost, TimingCache};
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;
use triton_mem::SimAllocator;
use triton_part::{
    compute_histogram, cpu_prefix_sum_cost, gpu_prefix_sum, make_partitioner, PassConfig, Span,
};
use triton_trace::{Attr, Trace};

/// Roofline evaluations per phase cost when timing the pricing layer.
const PRICING_ROUNDS: usize = 200;

/// One recorded host-clock span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Layer-qualified name (`part.pass1`, `exec.serve`, ...).
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Lane: 0 for end-to-end calls, 1 for the replay.
    pub lane: u64,
    /// Start, in host ns since the recorder was created.
    pub start_ns: f64,
    /// Duration in host ns (0 until the span ends).
    pub dur_ns: f64,
    /// Typed attributes for the exported trace.
    pub attrs: Vec<Attr>,
}

/// An in-memory span recorder on the host clock. Spans nest: a span
/// begun while another is open becomes its child, so self time is the
/// span's duration minus its children's.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    events: Vec<SpanEvent>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[must_use = "a span must be ended"]
pub struct Open(usize);

impl Open {
    /// The span's index in recording order.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            events: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Open a span on `lane`, nested under the innermost open span.
    pub fn begin(&mut self, lane: u64, name: &'static str) -> Open {
        let idx = self.events.len();
        self.events.push(SpanEvent {
            name,
            parent: self.open.last().copied(),
            lane,
            start_ns: self.origin.elapsed().as_nanos() as f64,
            dur_ns: 0.0,
            attrs: Vec::new(),
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Close a span; returns its duration in host ns.
    pub fn end(&mut self, span: Open) -> f64 {
        let now = self.origin.elapsed().as_nanos() as f64;
        if let Some(pos) = self.open.iter().rposition(|&i| i == span.0) {
            self.open.truncate(pos);
        }
        let ev = &mut self.events[span.0];
        ev.dur_ns = now - ev.start_ns;
        ev.dur_ns
    }

    /// Attach an attribute to a recorded span.
    pub fn attr(&mut self, span: &Open, attr: Attr) {
        self.events[span.0].attrs.push(attr);
    }

    /// Time `f` as a span on `lane`.
    pub fn time<T>(&mut self, lane: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(lane, name);
        let out = f();
        self.end(s);
        out
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.events.iter().map(|e| e.dur_ns).collect();
        for e in &self.events {
            if let Some(p) = e.parent {
                own[p] -= e.dur_ns;
            }
        }
        own
    }

    /// Per-name sums of self time over the descendants of span `root`
    /// (the root excluded): one replay repetition's layer breakdown.
    pub fn self_by_name_under(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut sums = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate().skip(root + 1) {
            if !self.descends_from(i, root) {
                continue;
            }
            *sums.entry(e.name).or_insert(0.0) += own[i];
        }
        sums
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.events[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Export as a Chrome-trace [`Trace`]: one track group, lane 0 for
    /// the end-to-end calls and lane 1 for the replay. Timestamps are
    /// host-clock ns since the recorder started.
    pub fn to_trace(&self, process: &str) -> Trace {
        let mut t = Trace::new();
        t.name_process(1, format!("{process} (host clock)"));
        t.name_thread(1, 0, "end-to-end calls");
        t.name_thread(1, 1, "per-layer replay");
        for e in &self.events {
            t.span(1, e.lane, e.name, e.start_ns, e.dur_ns)
                .attrs(e.attrs.iter().cloned());
        }
        t
    }
}

/// One Triton join as a workload executes it: the inputs, the join
/// configuration, and the plan-embedding residency options.
#[derive(Debug, Clone)]
pub struct JoinTarget<'a> {
    /// What the join is within the workload (for reports).
    pub label: &'static str,
    /// The join's inputs.
    pub workload: Cow<'a, Workload>,
    /// The configuration the workload runs it with.
    pub join: TritonJoin,
    /// Build relation already GPU-resident (a pipelined plan input).
    pub r_resident: bool,
    /// Probe relation already GPU-resident.
    pub s_resident: bool,
    /// Output written GPU-resident for a downstream plan node.
    pub output_resident: bool,
}

impl JoinTarget<'_> {
    /// Run the join itself, as the workload does.
    pub fn run(&self, hw: &HwConfig) -> Result<JoinReport, String> {
        self.join
            .try_run_with(
                &self.workload,
                hw,
                JoinRunOptions {
                    r_resident: self.r_resident,
                    s_resident: self.s_resident,
                    output_resident: self.output_resident,
                    sink: None,
                },
            )
            .map_err(|e| format!("{}: {e}", self.label))
    }
}

/// What one replay produced, for fidelity checks and layer metrics.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Merged pass-1 cost of R and S, named like the join's phase.
    pub part1: KernelCost,
    /// Merged second-pass partitioning cost.
    pub part2: KernelCost,
    /// Simulated CPU prefix-sum time (PS 1).
    pub ps1_sim: Ns,
    /// Simulated pass-1 time, R plus S.
    pub part1_sim: Ns,
    /// Simulated PS 2 time over all pairs.
    pub ps2_sim: Ns,
    /// Simulated pass-2 time over all pairs.
    pub part2_sim: Ns,
    /// Join result of the replayed build/probe.
    pub result: JoinResult,
    /// Hash-chain links the probes walked past the first.
    pub chain_steps: u64,
    /// Roofline evaluations timed in the pricing span.
    pub pricing_calls: u64,
}

/// Replay `target` layer by layer as spans on lane 1 of `spans`,
/// pricing `report`'s phases (the same join's own report) in the
/// `hw.pricing` span. Only the default prefix-sum and filter settings
/// are mirrored; other configurations are refused.
pub fn replay_join(
    target: &JoinTarget<'_>,
    report: &JoinReport,
    hw: &HwConfig,
    spans: &mut Spans,
) -> Result<Replayed, String> {
    let j = &target.join;
    if j.bloom_prefilter || j.gpu_prefix_sum {
        return Err(format!(
            "{}: the replay mirrors only the CPU prefix sum without a Bloom prefilter",
            target.label
        ));
    }
    let w = &*target.workload;
    let (n_r, n_s) = (w.r.len(), w.s.len());
    let r_bytes = n_r as u64 * TUPLE_BYTES;
    let s_bytes = n_s as u64 * TUPLE_BYTES;
    let total_bytes = r_bytes + s_bytes;
    let b1 = TritonJoin::pass1_bits(r_bytes, total_bytes, hw);
    let fanout1 = 1usize << b1;
    let half_sms = if j.overlap {
        (hw.gpu.num_sms / 2).max(1)
    } else {
        hw.gpu.num_sms
    };

    // GPU budget: the join's pipeline reservation and cache sizing.
    let mut alloc = SimAllocator::new(hw);
    let pair_bytes = (total_bytes / fanout1 as u64).max(1);
    let reserve = 2 * pair_bytes + hw.gpu.mem_capacity.0 / 8;
    let auto_cache = hw.gpu.mem_capacity.0.saturating_sub(reserve);
    let cache = if j.caching_enabled {
        j.cache_bytes.map_or(auto_cache, |b| b.0).min(auto_cache)
    } else {
        0
    };
    let input_r = if target.r_resident {
        Span::gpu(1 << 43)
    } else {
        Span::cpu(0)
    };
    let input_s = if target.s_resident {
        Span::gpu(1 << 44)
    } else {
        Span::cpu(1 << 45)
    };

    // PS 1: the CPU computes both pass-1 histograms.
    let pass1_cfg = PassConfig::new(b1, 0);
    let s = spans.begin(1, "part.hist");
    let hist_r = compute_histogram(&w.r.keys, 1, b1, 0);
    let hist_s = compute_histogram(&w.s.keys, 1, b1, 0);
    spans.attr(&s, Attr::u64("tuples", (n_r + n_s) as u64));
    spans.end(s);
    let ps1_sim = cpu_prefix_sum_cost(n_r as u64, hw) + cpu_prefix_sum_cost(n_s as u64, hw);

    // Working-set placement, including the skew planner's gate.
    let s = spans.begin(1, "core.skew_plan");
    let page_size = alloc.page_size();
    let estimates = j.skew.mechanisms().map(|_| {
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
            .collect::<Vec<_>>()
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
    let max_pair_bytes = (0..fanout1)
        .filter(|&i| j.pass2_bits(hist_r.totals[i] as usize) > 0)
        .map(|i| (hist_r.totals[i] + hist_s.totals[i]) * TUPLE_BYTES)
        .max()
        .unwrap_or(0);
    let gate_capacity = hw.gpu.mem_capacity.0.saturating_sub(cache.min(total_bytes));
    let worst_demand = max_pair_bytes * (1 + u64::from(cache < total_bytes));
    let cache_plan = match (&estimates, j.skew.mechanisms()) {
        (Some(est), Some(m)) if m.hot_cache && worst_demand > gate_capacity => {
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
    spans.end(s);
    let oom = |e: triton_mem::OutOfMemory| format!("{}: {e}", target.label);
    let (r_layout, s_layout) = if let Some(plan) = &cache_plan {
        (
            alloc
                .alloc_hybrid_planned(Bytes(r_bytes), plan.r_plan.clone())
                .map_err(oom)?,
            alloc
                .alloc_hybrid_planned(Bytes(s_bytes), plan.s_plan.clone())
                .map_err(oom)?,
        )
    } else {
        let r_cache = (cache as u128 * r_bytes as u128 / total_bytes.max(1) as u128) as u64;
        let s_cache = cache - r_cache.min(cache);
        (
            alloc
                .alloc_hybrid_with(Bytes(r_bytes), Bytes(r_cache), j.interleaved_cache)
                .map_err(oom)?,
            alloc
                .alloc_hybrid_with(Bytes(s_bytes), Bytes(s_cache), j.interleaved_cache)
                .map_err(oom)?,
        )
    };
    let r_span = Span::hybrid(r_layout.clone());
    let s_span = Span::hybrid(s_layout.clone());

    // Part 1: out-of-core partitioning of both relations.
    let p1 = make_partitioner(j.pass1);
    let s = spans.begin(1, "part.pass1");
    let (parts_r, mut part1) = p1.partition(
        &w.r.keys, &w.r.rids, &hist_r, &input_r, &r_span, &pass1_cfg, hw,
    );
    let (parts_s, c_p1s) = p1.partition(
        &w.s.keys, &w.s.rids, &hist_s, &input_s, &s_span, &pass1_cfg, hw,
    );
    spans.attr(&s, Attr::u64("fanout", fanout1 as u64));
    spans.end(s);
    let part1_sim = part1.timing(hw).total + c_p1s.timing(hw).total;
    part1.merge(&c_p1s);
    part1.name = "Part 1".into();

    // Per pair: PS 2, Part 2, the optional third pass, and build/probe.
    let p2 = make_partitioner(j.pass2);
    let spilled = r_layout.cpu_bytes() + s_layout.cpu_bytes() > 0;
    let mean_build = hist_r.mean_tuples();
    let mut pass2_cfg = PassConfig::new(0, b1);
    pass2_cfg.sms = half_sms;
    let mut part2 = KernelCost::new("Part 2");
    let (mut ps2_sim, mut part2_sim) = (Ns::ZERO, Ns::ZERO);
    let mut result = JoinResult::empty();
    let mut chain_steps = 0u64;
    for i in 0..fanout1 {
        let (rk, rr) = parts_r.partition(i);
        let (sk, sr) = parts_s.partition(i);
        if rk.is_empty() && sk.is_empty() {
            continue;
        }
        let b2 = (j.pass2_bits(rk.len()) + j.skew.heavy_extra_bits(rk.len() as u64, mean_build))
            .min(j.max_pass2_bits);
        if b2 == 0 {
            let s = spans.begin(1, "core.build_probe");
            chain_steps += build_probe(rk, rr, sk, sr, b1, &mut result);
            spans.end(s);
            continue;
        }
        let r_off = hist_r.offsets[i] as u64 * TUPLE_BYTES;
        let s_off = hist_s.offsets[i] as u64 * TUPLE_BYTES;
        let r_slice = r_span.slice(r_off);
        let s_slice = s_span.slice(s_off);
        let pair_spilled = if cache_plan.is_some() {
            r_layout.split_range(r_off, rk.len() as u64 * TUPLE_BYTES).1
                + s_layout.split_range(s_off, sk.len() as u64 * TUPLE_BYTES).1
                > 0
        } else {
            spilled
        };
        let mut cfg = pass2_cfg;
        cfg.radix_bits = b2;
        let s = spans.begin(1, "part.ps2");
        let (h2r, cps_r) = gpu_prefix_sum(rk, &r_slice, &cfg, hw, pair_spilled);
        let (h2s, cps_s) = gpu_prefix_sum(sk, &s_slice, &cfg, hw, pair_spilled);
        spans.end(s);
        ps2_sim += cps_r.timing(hw).total + cps_s.timing(hw).total;

        let gpu_in = Span::gpu(1 << 46);
        let gpu_out = Span::gpu(1 << 47);
        let (in_r, in_s) = if pair_spilled {
            (&gpu_in, &gpu_in)
        } else {
            (&r_slice, &s_slice)
        };
        let s = spans.begin(1, "part.pass2");
        let (pr2, cp2r) = p2.partition(rk, rr, &h2r, in_r, &gpu_out, &cfg, hw);
        let (ps2p, cp2s) = p2.partition(sk, sr, &h2s, in_s, &gpu_out, &cfg, hw);
        spans.end(s);
        part2_sim += cp2r.timing(hw).total + cp2s.timing(hw).total;
        part2.merge(&cp2r);
        part2.merge(&cp2s);

        let s = spans.begin(1, "core.build_probe");
        for p in 0..pr2.fanout() {
            let (srk, srr) = pr2.partition(p);
            let (ssk, ssr) = ps2p.partition(p);
            if srk.is_empty() || ssk.is_empty() {
                continue;
            }
            let b3 = if j.third_pass {
                j.pass2_bits(srk.len())
            } else {
                0
            };
            if b3 == 0 {
                chain_steps += build_probe(srk, srr, ssk, ssr, b1 + b2, &mut result);
                continue;
            }
            let t3 = spans.begin(1, "part.pass3");
            let mut cfg3 = pass2_cfg;
            cfg3.radix_bits = b3;
            cfg3.skip_bits = b1 + b2;
            let (gpu_in, gpu_out) = (Span::gpu(1 << 48), Span::gpu(1 << 49));
            let h3r = compute_histogram(srk, 1, b3, b1 + b2);
            let h3s = compute_histogram(ssk, 1, b3, b1 + b2);
            let (pr3, _) = p2.partition(srk, srr, &h3r, &gpu_in, &gpu_out, &cfg3, hw);
            let (ps3, _) = p2.partition(ssk, ssr, &h3s, &gpu_in, &gpu_out, &cfg3, hw);
            spans.end(t3);
            for q in 0..pr3.fanout() {
                let (qrk, qrr) = pr3.partition(q);
                let (qsk, qsr) = ps3.partition(q);
                chain_steps += build_probe(qrk, qrr, qsk, qsr, b1 + b2 + b3, &mut result);
            }
        }
        spans.end(s);
    }

    // Roofline pricing of every kernel the join reported.
    let costs: Vec<&KernelCost> = report
        .phases
        .iter()
        .filter_map(|p| p.cost.as_ref())
        .collect();
    let s = spans.begin(1, "hw.pricing");
    for _ in 0..PRICING_ROUNDS {
        for c in &costs {
            black_box(black_box(*c).timing(hw));
        }
    }
    spans.end(s);

    Ok(Replayed {
        part1,
        part2,
        ps1_sim,
        part1_sim,
        ps2_sim,
        part2_sim,
        result,
        chain_steps,
        pricing_calls: (PRICING_ROUNDS * costs.len()) as u64,
    })
}

/// Build a scratchpad bucket-chaining table from one build
/// sub-partition and probe it, exactly as the join kernel does; returns
/// the chain links walked past the bucket head and first entry.
fn build_probe(
    rk: &[u64],
    rr: &[u64],
    sk: &[u64],
    sr: &[u64],
    skip_bits: u32,
    out: &mut JoinResult,
) -> u64 {
    if rk.is_empty() || sk.is_empty() {
        return 0;
    }
    let table = BucketChainTable::build(rk, rr, BUCKET_CHAIN_ENTRIES, skip_bits);
    let mut steps = 0u64;
    for (&k, &srid) in sk.iter().zip(sr) {
        steps += u64::from(table.probe(k).1.saturating_sub(2));
        for rrid in table.probe_all(k) {
            out.add(rrid, srid);
        }
    }
    steps
}

/// Whether the replay reproduced the join's own accounting: the pass-1
/// cost equals the report's `Part 1` phase field for field, the pass-2
/// tuple count equals `Part 2`'s, and the build/probe result equals the
/// join's. Returns the first disagreement.
pub fn check_fidelity(replayed: &Replayed, report: &JoinReport) -> Result<(), String> {
    let phase = |name: &str| {
        report
            .phases
            .iter()
            .find(|p| p.name == name)
            .and_then(|p| p.cost.as_ref())
    };
    let part1 = phase("Part 1").ok_or("the join reported no Part 1 phase")?;
    if format!("{part1:?}") != format!("{:?}", replayed.part1) {
        return Err(format!(
            "replayed pass-1 cost differs from the join's Part 1 phase:\n  join   {part1:?}\n  replay {:?}",
            replayed.part1
        ));
    }
    let part2_in = phase("Part 2").map_or(0, |c| c.tuples_in);
    if part2_in != replayed.part2.tuples_in {
        return Err(format!(
            "replayed pass 2 consumed {} tuples, the join's Part 2 phase {part2_in}",
            replayed.part2.tuples_in
        ));
    }
    if replayed.result != report.result {
        return Err(format!(
            "replayed build/probe found {:?}, the join {:?}",
            replayed.result, report.result
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_core::{reference_join, SkewPolicy};
    use triton_datagen::WorkloadSpec;

    fn fidelity(join: TritonJoin, w: &Workload, hw: &HwConfig) -> Replayed {
        let target = JoinTarget {
            label: "test join",
            workload: Cow::Borrowed(w),
            join,
            r_resident: false,
            s_resident: false,
            output_resident: false,
        };
        let report = target.run(hw).unwrap();
        let mut spans = Spans::default();
        let replayed = replay_join(&target, &report, hw, &mut spans).unwrap();
        check_fidelity(&replayed, &report).unwrap();
        assert_eq!(replayed.result, reference_join(w));
        // Every layer the join ran left a span.
        let mut layers = vec!["part.hist", "part.pass1", "core.build_probe", "hw.pricing"];
        if replayed.part2.tuples_in > 0 {
            layers.extend(["part.ps2", "part.pass2"]);
        }
        for name in layers {
            assert!(
                spans.events.iter().any(|e| e.name == name),
                "no {name} span"
            );
        }
        replayed
    }

    #[test]
    fn replay_reproduces_the_spilling_join_exactly() {
        // The join-spill workload: uniform keys, about three quarters of
        // the partitioned state spilled. At K = 4096 the pass-1 tuning
        // leaves partitions too small for a second pass; at K = 1024
        // every pair takes one.
        for (k, second_pass) in [(4096, false), (1024, true)] {
            let hw = HwConfig::ac922().scaled(k);
            let w = WorkloadSpec::paper_default(2048, k).generate();
            let r = fidelity(TritonJoin::default(), &w, &hw);
            assert_eq!(r.part2.tuples_in > 0, second_pass, "K = {k}");
            assert!(r.part1_sim.0 > 0.0 && r.ps1_sim.0 > 0.0);
        }
    }

    #[test]
    fn replay_reproduces_the_skew_aware_join_exactly() {
        // The join-skew workload: the planner pins hot pairs.
        let join = TritonJoin {
            skew: SkewPolicy::aware(),
            ..TritonJoin::default()
        };
        for k in [4096, 1024] {
            let hw = HwConfig::ac922().scaled(k);
            let w = WorkloadSpec::skewed(512, 1.5, k).generate();
            fidelity(join.clone(), &w, &hw);
        }
    }

    #[test]
    fn replay_refuses_configurations_it_does_not_mirror() {
        let hw = HwConfig::ac922().scaled(4096);
        let w = WorkloadSpec::paper_default(8, 4096).generate();
        let target = JoinTarget {
            label: "bloom",
            workload: Cow::Borrowed(&w),
            join: TritonJoin {
                bloom_prefilter: true,
                ..TritonJoin::default()
            },
            r_resident: false,
            s_resident: false,
            output_resident: false,
        };
        let report = target.run(&hw).unwrap();
        assert!(replay_join(&target, &report, &hw, &mut Spans::default()).is_err());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut spans = Spans::default();
        let root = spans.begin(1, "replay");
        let a = spans.begin(1, "part.pass2");
        let b = spans.begin(1, "part.pass3");
        spans.end(b);
        spans.end(a);
        let c = spans.begin(1, "part.pass2");
        spans.end(c);
        spans.end(root);
        let ev = &spans.events;
        assert_eq!(ev[1].parent, Some(0));
        assert_eq!(ev[2].parent, Some(1));
        assert_eq!(ev[3].parent, Some(0));
        let own = spans.self_ns();
        assert!((own[1] - (ev[1].dur_ns - ev[2].dur_ns)).abs() < 1e-6);
        let by_name = spans.self_by_name_under(0);
        assert_eq!(by_name.len(), 2);
        let total: f64 = by_name.values().sum();
        assert!((total - (ev[0].dur_ns - own[0])).abs() < 1e-6);
        let json = triton_trace::to_chrome_json(&spans.to_trace("test"));
        assert_eq!(triton_trace::validate_chrome(&json), Ok(4 + 3));
    }
}
