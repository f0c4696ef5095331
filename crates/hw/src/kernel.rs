//! Kernel cost accounting and roofline timing.
//!
//! Every simulated kernel (GPU or CPU) executes *functionally* over real
//! data while accumulating resource demand into a [`KernelCost`]:
//! interconnect traffic (split into sequential streams and random accesses,
//! because only the latter are transaction-rate limited), GPU memory bytes,
//! issued warp instructions, and TLB outcomes. [`KernelCost::timing`]
//! converts demand into time as the maximum over overlappable resources —
//! the same reasoning the paper applies in Sections 6.2.3 and 6.2.12 when
//! it attributes phases to the interconnect or to compute.
//!
//! The module also provides the pipeline combinators used to model
//! concurrent kernel execution (Section 5.2): overlapped stages on split SM
//! sets where the transfer of partition pair *i* hides behind the join of
//! pair *i-1*.

use crate::config::HwConfig;
use crate::link::{LinkModel, WireCost};
use crate::tlb::TlbStats;
use crate::units::{Bytes, Ns};

/// Interconnect demand of one kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkTraffic {
    /// Payload streamed CPU -> GPU with perfect coalescing (input scans).
    pub seq_read: Bytes,
    /// Payload streamed GPU -> CPU with perfect coalescing (aligned
    /// 128-byte-multiple flushes, result writes).
    pub seq_write: Bytes,
    /// Random reads from CPU memory (wire cost includes padding/headers).
    pub rand_read: WireCost,
    /// Random/partial writes to CPU memory.
    pub rand_write: WireCost,
}

impl LinkTraffic {
    /// Merge another kernel's traffic into this one.
    pub fn merge(&mut self, o: &LinkTraffic) {
        self.seq_read += o.seq_read;
        self.seq_write += o.seq_write;
        self.rand_read.merge(&o.rand_read);
        self.rand_write.merge(&o.rand_write);
    }

    /// Total payload bytes moved in either direction.
    pub fn payload(&self) -> Bytes {
        self.seq_read + self.seq_write + self.rand_read.payload + self.rand_write.payload
    }

    /// Wire bytes on the CPU -> GPU direction (read data + write control).
    /// Writes are posted, so sequential writes add no return traffic.
    pub fn wire_cpu_to_gpu(&self, link: &LinkModel) -> Bytes {
        let line = link.config().max_payload.0;
        let hdr = link.config().header.0;
        let seq_read_wire = self.seq_read + Bytes(self.seq_read.div_ceil(line) * hdr);
        seq_read_wire + self.rand_read.wire_data_dir + self.rand_write.wire_ctrl_dir
    }

    /// Wire bytes on the GPU -> CPU direction (write data + read control).
    pub fn wire_gpu_to_cpu(&self, link: &LinkModel) -> Bytes {
        let line = link.config().max_payload.0;
        let hdr = link.config().header.0;
        let seq_write_wire = self.seq_write + Bytes(self.seq_write.div_ceil(line) * hdr);
        let seq_read_ctrl = Bytes(self.seq_read.div_ceil(line) * hdr);
        seq_write_wire
            + self.rand_write.wire_data_dir
            + self.rand_read.wire_ctrl_dir
            + seq_read_ctrl
    }

    /// Typed trace attributes for the interconnect demand, wire costs
    /// included (they need the link's packet geometry).
    pub fn trace_attrs(&self, link: &LinkModel) -> [triton_trace::Attr; 3] {
        [
            triton_trace::Attr::u64("link_payload_bytes", self.payload().0),
            triton_trace::Attr::u64("link_wire_up_bytes", self.wire_cpu_to_gpu(link).0),
            triton_trace::Attr::u64("link_wire_down_bytes", self.wire_gpu_to_cpu(link).0),
        ]
    }
}

/// GPU memory demand of one kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuMemTraffic {
    /// Sequential/coalesced reads.
    pub read: Bytes,
    /// Sequential/coalesced writes.
    pub write: Bytes,
    /// Random writes (pay `random_write_penalty`).
    pub rand_write: Bytes,
    /// Random reads.
    pub rand_read: Bytes,
}

impl GpuMemTraffic {
    /// Merge another kernel's traffic.
    pub fn merge(&mut self, o: &GpuMemTraffic) {
        self.read += o.read;
        self.write += o.write;
        self.rand_write += o.rand_write;
        self.rand_read += o.rand_read;
    }

    /// Total bytes.
    pub fn total(&self) -> Bytes {
        self.read + self.write + self.rand_write + self.rand_read
    }
}

/// Resource demand accumulated by one kernel launch.
#[derive(Debug, Clone, Default)]
pub struct KernelCost {
    /// Kernel name (appears in time breakdowns, e.g. "Part 1").
    pub name: String,
    /// Interconnect traffic.
    pub link: LinkTraffic,
    /// GPU on-board memory traffic.
    pub gpu_mem: GpuMemTraffic,
    /// Warp instructions issued (drives issue-slot utilisation).
    pub instructions: u64,
    /// Address-translation outcomes.
    pub tlb: TlbStats,
    /// Tuples consumed by the kernel (for per-tuple metrics).
    pub tuples_in: u64,
    /// Tuples produced/written (for tuples-per-transaction metrics).
    pub tuples_out: u64,
    /// SMs this kernel runs on (0 = all configured SMs).
    pub sms: u32,
    /// Extra synchronisation overhead cycles (barriers, lock spinning);
    /// attributed to the "sync" stall bucket.
    pub sync_cycles: u64,
}

impl KernelCost {
    /// New empty cost for a named kernel.
    pub fn new(name: impl Into<String>) -> Self {
        KernelCost {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Merge another cost block (same logical kernel, e.g. per-chunk).
    pub fn merge(&mut self, o: &KernelCost) {
        self.link.merge(&o.link);
        self.gpu_mem.merge(&o.gpu_mem);
        self.instructions += o.instructions;
        self.tlb.merge(&o.tlb);
        self.tuples_in += o.tuples_in;
        self.tuples_out += o.tuples_out;
        self.sync_cycles += o.sync_cycles;
        if self.sms == 0 {
            self.sms = o.sms;
        }
    }

    /// Average tuples written per interconnect memory transaction
    /// (Fig 18b). Falls back to GPU-memory transactions when the kernel
    /// never touches the link.
    pub fn tuples_per_txn(&self) -> f64 {
        // Interconnect transactions when the kernel writes over the link
        // (Fig 18 measures the out-of-core case); GPU-memory transactions
        // otherwise. Staging traffic (e.g. Hierarchical's second tier)
        // does not count against the output coalescing metric.
        let link_txns = self.link.rand_write.transactions + self.link.seq_write.div_ceil(128);
        let txns = if link_txns > 0 {
            link_txns
        } else {
            (self.gpu_mem.write + self.gpu_mem.rand_write).div_ceil(128)
        };
        if txns == 0 {
            return 0.0;
        }
        self.tuples_out as f64 / txns as f64
    }

    /// IOMMU translation requests per input tuple (Fig 14b / Fig 18d).
    pub fn iommu_requests_per_tuple(&self) -> f64 {
        if self.tuples_in == 0 {
            return 0.0;
        }
        self.tlb.full_misses as f64 / self.tuples_in as f64
    }

    /// Typed trace attributes describing this kernel's resource demand
    /// (interconnect, GPU memory, compute, TLB) under the `triton-trace`
    /// naming convention: `snake_case` keys, units as suffixes. A fixed
    /// array, so a recorder can size its event's attributes exactly.
    pub fn trace_attrs(&self, hw: &HwConfig) -> [triton_trace::Attr; 13] {
        use triton_trace::Attr;
        let [payload, wire_up, wire_down] = self.link.trace_attrs(&LinkModel::new(&hw.link));
        let [l2, l3_star, full, gpu, walks] = self.tlb.trace_attrs();
        [
            payload,
            wire_up,
            wire_down,
            Attr::u64("gpu_mem_bytes", self.gpu_mem.total().0),
            Attr::u64("instructions", self.instructions),
            Attr::u64("tuples_in", self.tuples_in),
            Attr::u64("tuples_out", self.tuples_out),
            Attr::u64("sms", u64::from(self.sms)),
            l2,
            l3_star,
            full,
            gpu,
            walks,
        ]
    }

    /// Compute the roofline timing of this kernel under `hw`.
    pub fn timing(&self, hw: &HwConfig) -> KernelTiming {
        let link = LinkModel::new(&hw.link);
        let sms = if self.sms == 0 {
            hw.gpu.num_sms
        } else {
            self.sms.min(hw.gpu.num_sms)
        };

        // --- Interconnect: per-direction wire time, with a bidirectional
        // efficiency derating when both directions are loaded.
        let up = self.link.wire_cpu_to_gpu(&link).as_f64();
        let down = self.link.wire_gpu_to_cpu(&link).as_f64();
        let balance = if up + down > 0.0 {
            2.0 * up.min(down) / (up + down)
        } else {
            0.0
        };
        let eff = 1.0 - (1.0 - hw.link.bidir_efficiency) * balance;
        let bw = hw.link.raw_bw_per_dir.0 * eff;
        let t_link_up = Ns(up / bw * 1e9);
        let t_link_down = Ns(down / bw * 1e9);
        let t_link = t_link_up.max(t_link_down);

        // Random-access transaction-rate limit (Fig 6a): all random-read
        // lines, but only partial-line writes.
        let t_txn =
            Ns(self.link.rand_read.transactions as f64 / hw.link.read_txn_rate * 1e9).max(Ns(self
                .link
                .rand_write
                .partial_txns
                as f64
                / hw.link.write_txn_rate
                * 1e9));
        let t_link = t_link.max(t_txn);

        // --- GPU memory: a bandwidth term for streams plus an
        // access-rate term for random sectors (MSHR-limited; reproduces
        // the paper's 4.3 G/s probe vs 1.8 G/s build dissection).
        let gm = &self.gpu_mem;
        let t_gpu_bw = hw.gpu.mem_bandwidth.time_for(gm.total());
        let sector = hw.gpu.gpu_mem_txn.as_f64().max(1.0);
        let t_gpu_rand = Ns((gm.rand_read.as_f64() / sector / hw.gpu.rand_read_rate
            + gm.rand_write.as_f64() / sector / hw.gpu.rand_write_rate)
            * 1e9);
        let t_gpu_mem = t_gpu_bw.max(t_gpu_rand);

        // --- Compute: issue-throughput bound.
        let issue_rate = sms as f64 * hw.gpu.issue_per_cycle * hw.gpu.clock_ghz; // instr/ns
        let t_compute = Ns(self.instructions as f64 / issue_rate);
        let t_sync = Ns(self.sync_cycles as f64 / (sms as f64 * hw.gpu.clock_ghz));

        // --- TLB miss service: walks triggered by *dependent random
        // reads* stall execution and serialise on the IOMMU's page-table
        // walkers (the no-partitioning join's collapse); posted writes
        // and sequential scans miss without stalling the pipeline.
        let t_tlb =
            Ns(self.tlb.serialized_walks as f64 * hw.tlb.walk_service_ns
                / hw.tlb.iommu_walkers as f64);

        let total = t_link.max(t_gpu_mem).max(t_compute).max(t_tlb) + t_sync;
        KernelTiming {
            total,
            t_link,
            t_link_up,
            t_link_down,
            t_gpu_mem,
            t_compute,
            t_tlb,
            t_sync,
            sms,
        }
    }
}

/// Timing decomposition of one kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelTiming {
    /// End-to-end kernel time.
    pub total: Ns,
    /// Interconnect-bound time (max direction, incl. txn-rate limit).
    pub t_link: Ns,
    /// CPU -> GPU direction wire time.
    pub t_link_up: Ns,
    /// GPU -> CPU direction wire time.
    pub t_link_down: Ns,
    /// GPU memory time.
    pub t_gpu_mem: Ns,
    /// Issue-throughput (compute) time.
    pub t_compute: Ns,
    /// IOMMU walker service time.
    pub t_tlb: Ns,
    /// Barrier/lock overhead.
    pub t_sync: Ns,
    /// SMs used.
    pub sms: u32,
}

impl KernelTiming {
    /// Which resource binds this kernel.
    pub fn bound(&self) -> Bound {
        let m = self
            .t_link
            .max(self.t_gpu_mem)
            .max(self.t_compute)
            .max(self.t_tlb);
        if m == self.t_tlb && self.t_tlb.0 > 0.0 {
            Bound::TlbService
        } else if m == self.t_link && self.t_link.0 > 0.0 {
            Bound::Interconnect
        } else if m == self.t_gpu_mem && self.t_gpu_mem.0 > 0.0 {
            Bound::GpuMemory
        } else {
            Bound::Compute
        }
    }

    /// Interconnect utilisation: the busier direction's wire time over the
    /// kernel's total time (the paper reports measured bandwidth over the
    /// 75 GB/s electrical limit, which is the same ratio).
    pub fn link_utilization(&self) -> f64 {
        if self.total.0 <= 0.0 {
            return 0.0;
        }
        (self.t_link_up.max(self.t_link_down).0 / self.total.0).min(1.0)
    }
}

/// The binding resource of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// NVLink wire or transaction rate.
    Interconnect,
    /// GPU on-board memory bandwidth.
    GpuMemory,
    /// Instruction issue throughput.
    Compute,
    /// IOMMU page-table-walk service rate.
    TlbService,
}

/// Memoizes [`KernelCost::timing`] results for one fixed [`HwConfig`].
///
/// The roofline is a pure function of the cost's numeric fields and the
/// hardware, so within a run (where the hardware never changes) two
/// kernels with the same traffic shape always time identically. Callers
/// that price many same-shaped kernels — skew planning prices three
/// kernels per radix partition, and uniform workloads repeat the same
/// partition totals hundreds of times — key the memo on the bit-exact
/// encoding of every timing-relevant field (the `name` is ignored; it
/// never enters the roofline).
///
/// The cache is bounded and evicts in insertion order, so a pathological
/// stream of distinct shapes degrades to plain recomputation instead of
/// unbounded growth.
#[derive(Debug, Default)]
pub struct TimingCache {
    entries: std::collections::BTreeMap<[u64; 18], KernelTiming>,
    order: std::collections::VecDeque<[u64; 18]>,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to run the roofline.
    pub misses: u64,
}

/// Entry bound: comfortably above any one join's distinct kernel shapes.
const TIMING_CACHE_CAP: usize = 4096;

impl TimingCache {
    /// New empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bit-exact key over every field [`KernelCost::timing`] reads.
    fn key(cost: &KernelCost) -> [u64; 18] {
        let lt = &cost.link;
        let gm = &cost.gpu_mem;
        let tlb = &cost.tlb;
        [
            lt.seq_read.0,
            lt.seq_write.0,
            lt.rand_read.wire_data_dir.0,
            lt.rand_read.wire_ctrl_dir.0,
            lt.rand_read.transactions,
            lt.rand_read.partial_txns,
            lt.rand_write.wire_data_dir.0,
            lt.rand_write.wire_ctrl_dir.0,
            lt.rand_write.transactions,
            lt.rand_write.partial_txns,
            gm.read.0,
            gm.write.0,
            gm.rand_write.0,
            gm.rand_read.0,
            cost.instructions,
            tlb.serialized_walks,
            u64::from(cost.sms),
            cost.sync_cycles,
        ]
    }

    /// Memoized [`KernelCost::timing`]: identical output, cached by shape.
    pub fn timing(&mut self, cost: &KernelCost, hw: &HwConfig) -> KernelTiming {
        let key = Self::key(cost);
        if let Some(t) = self.entries.get(&key) {
            self.hits += 1;
            return *t;
        }
        self.misses += 1;
        let t = cost.timing(hw);
        if self.entries.len() >= TIMING_CACHE_CAP {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        if self.entries.insert(key, t).is_none() {
            self.order.push_back(key);
        }
        t
    }

    /// Cached shapes currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// GPU stall-reason attribution (Fig 15b / Fig 18f). Percentages of GPU
/// cycles, summing to ~100.
#[derive(Debug, Clone, Copy, Default)]
pub struct StallProfile {
    /// Cycles issuing instructions.
    pub instr_issued: f64,
    /// Stalled on memory dependencies (outstanding loads/stores).
    pub memory_dep: f64,
    /// Stalled on execution dependencies (includes translation latency).
    pub exec_dep: f64,
    /// Stalled on synchronisation (barriers, locks).
    pub sync: f64,
    /// Pipe busy / not selected and other reasons.
    pub other: f64,
}

impl StallProfile {
    /// Attribute stall reasons from a kernel's demand and timing.
    ///
    /// Issue-slot utilisation is exact (`instructions / (SMs x cycles)`);
    /// the non-issuing remainder is split across stall buckets in
    /// proportion to the timing components that forced the wait.
    pub fn from_timing(cost: &KernelCost, timing: &KernelTiming, hw: &HwConfig) -> StallProfile {
        let cycles = timing.total.0 * hw.gpu.clock_ghz * timing.sms as f64 * hw.gpu.issue_per_cycle;
        if cycles <= 0.0 {
            return StallProfile::default();
        }
        let issued = (cost.instructions as f64 / cycles).min(1.0) * 100.0;
        let stall = 100.0 - issued;
        // Weights for the stall split.
        let mem_w = timing.t_link.max(timing.t_gpu_mem).0;
        let tlb_w = timing.t_tlb.0;
        let sync_w = timing.t_sync.0;
        let sum = (mem_w + tlb_w + sync_w).max(1e-12);
        StallProfile {
            instr_issued: issued,
            memory_dep: stall * mem_w / sum * 0.9,
            exec_dep: stall * tlb_w / sum * 0.8 + stall * mem_w / sum * 0.1,
            sync: stall * sync_w / sum,
            other: stall * tlb_w / sum * 0.2,
        }
    }
}

/// Average utilization of each overlappable machine resource by one
/// executing task, expressed as busy-fractions in `[0, 1]`.
///
/// This is the §5.2 arbitration generalized: within one join, concurrent
/// kernels split the SM set and overlap transfer with compute
/// ([`pipeline2`]); across *queries*, the same reasoning applies to every
/// roofline resource. A task that ran dedicated for `T` ns keeping the
/// link busy for `t_link` ns has `link = t_link / T`; while it executes
/// at speed `σ` it occupies `σ * link` of the interconnect.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceVector {
    /// Interconnect (NVLink wire + transaction rate) busy fraction.
    pub link: f64,
    /// GPU on-board memory busy fraction.
    pub gpu_mem: f64,
    /// SM issue-slot busy fraction.
    pub compute: f64,
    /// IOMMU page-table-walker busy fraction.
    pub tlb: f64,
    /// Host CPU busy fraction (CPU phases: prefix sums, CPU joins).
    pub cpu: f64,
}

impl ResourceVector {
    /// The busiest resource's fraction (1.0 for any kernel that is
    /// roofline-bound on something).
    pub fn peak(&self) -> f64 {
        self.link
            .max(self.gpu_mem)
            .max(self.compute)
            .max(self.tlb)
            .max(self.cpu)
    }

    fn as_array(&self) -> [f64; 5] {
        [self.link, self.gpu_mem, self.compute, self.tlb, self.cpu]
    }
}

/// Weighted max-min fair execution speeds for tasks sharing the machine.
///
/// Each task `q` wants to run at its dedicated speed (`σ = 1`); every
/// machine resource `r` caps the sum of `σ_q * u_{q,r}` at 1. Speeds are
/// raised together — proportionally to `weights` — by water-filling:
/// when a resource saturates, its users freeze, and the remaining tasks
/// keep rising. The result is work-conserving: a link-bound query and a
/// compute-bound query both run at full speed side by side (the §5.2
/// overlap, promoted to inter-query scheduling), while identical queries
/// split the machine evenly and finish no later than a serial schedule.
///
/// Returns one speed in `(0, 1]` per task. Panics if `loads` and
/// `weights` differ in length; weights must be positive.
pub fn fair_share_rates(loads: &[ResourceVector], weights: &[f64]) -> Vec<f64> {
    assert_eq!(loads.len(), weights.len());
    let n = loads.len();
    let mut sigma = vec![0.0f64; n];
    if n == 0 {
        return sigma;
    }
    let loads: Vec<[f64; 5]> = loads.iter().map(|l| l.as_array()).collect();
    let mut frozen = vec![false; n];
    const EPS: f64 = 1e-12;
    // At most one entity (task or resource) freezes per round.
    for _ in 0..n + 5 {
        if frozen.iter().all(|&f| f) {
            break;
        }
        // Largest common multiplier t such that sigma_q += t * w_q stays
        // feasible for every resource and every task cap.
        let mut t = f64::INFINITY;
        #[allow(clippy::needless_range_loop)]
        for r in 0..5 {
            let used: f64 = (0..n).map(|q| sigma[q] * loads[q][r]).sum();
            let rising: f64 = (0..n)
                .filter(|&q| !frozen[q])
                .map(|q| weights[q] * loads[q][r])
                .sum();
            if rising > EPS {
                t = t.min((1.0 - used).max(0.0) / rising);
            }
        }
        for q in (0..n).filter(|&q| !frozen[q]) {
            t = t.min((1.0 - sigma[q]).max(0.0) / weights[q]);
        }
        if !t.is_finite() {
            // No unfrozen task touches any resource: all can run at 1.
            for q in 0..n {
                if !frozen[q] {
                    sigma[q] = 1.0;
                    frozen[q] = true;
                }
            }
            break;
        }
        for q in (0..n).filter(|&q| !frozen[q]) {
            sigma[q] += t * weights[q];
        }
        // Freeze tasks at their cap and users of saturated resources.
        for q in 0..n {
            if !frozen[q] && sigma[q] >= 1.0 - 1e-9 {
                sigma[q] = 1.0;
                frozen[q] = true;
            }
        }
        #[allow(clippy::needless_range_loop)]
        for r in 0..5 {
            let used: f64 = (0..n).map(|q| sigma[q] * loads[q][r]).sum();
            if used >= 1.0 - 1e-9 {
                for q in 0..n {
                    if !frozen[q] && loads[q][r] > EPS {
                        frozen[q] = true;
                    }
                }
            }
        }
    }
    // Every task makes progress, even under extreme contention.
    for s in &mut sigma {
        *s = s.clamp(1e-6, 1.0);
    }
    sigma
}

/// Machine-wide resource utilization implied by a set of tasks running at
/// the given speeds: for each roofline resource `r`, the busy fraction is
/// `Σ_q σ_q · u_{q,r}`, clamped to `[0, 1]`.
///
/// The inputs are the same cost-model-priced [`ResourceVector`]s and
/// [`fair_share_rates`] speeds the scheduler arbitrates with, so this is
/// the telemetry view of §5.2's overlap: `link` is NVLink wire
/// utilization, `compute` is SM issue-slot occupancy, and so on. Returns
/// the zero vector when nothing runs. Panics if the slices differ in
/// length (same contract as [`fair_share_rates`]).
pub fn aggregate_utilization(loads: &[ResourceVector], rates: &[f64]) -> ResourceVector {
    assert_eq!(loads.len(), rates.len());
    let mut total = ResourceVector::default();
    for (l, &s) in loads.iter().zip(rates) {
        total.link += s * l.link;
        total.gpu_mem += s * l.gpu_mem;
        total.compute += s * l.compute;
        total.tlb += s * l.tlb;
        total.cpu += s * l.cpu;
    }
    ResourceVector {
        link: total.link.clamp(0.0, 1.0),
        gpu_mem: total.gpu_mem.clamp(0.0, 1.0),
        compute: total.compute.clamp(0.0, 1.0),
        tlb: total.tlb.clamp(0.0, 1.0),
        cpu: total.cpu.clamp(0.0, 1.0),
    }
}

/// A busy fraction as integer parts-per-million — the float→integer
/// boundary for utilization gauges, so downstream telemetry stays in
/// integer arithmetic. Non-finite and negative inputs clamp to 0.
pub fn utilization_ppm(fraction: f64) -> u64 {
    if fraction.is_finite() && fraction > 0.0 {
        (fraction.min(1.0) * 1_000_000.0) as u64
    } else {
        0
    }
}

/// Sum kernel times sequentially (barrier between each).
pub fn serial(times: &[Ns]) -> Ns {
    times.iter().copied().sum()
}

/// Two-stage software pipeline over per-item times: stage B of item *i*
/// overlaps stage A of item *i+1* (the Triton join's concurrent-kernel
/// scheme, Fig 11). Returns total time.
pub fn pipeline2(a: &[Ns], b: &[Ns]) -> Ns {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return Ns::ZERO;
    }
    // a_0, then steady state max(a_{i+1}, b_i), then b_last.
    let mut total = a[0];
    for i in 0..a.len() - 1 {
        total += a[i + 1].max(b[i]);
    }
    total += b[a.len() - 1];
    total
}

/// [`pipeline2`] with an execution order: items are fed through the
/// two-stage pipeline in the sequence given by `order` (a permutation of
/// `0..a.len()`), so a scheduler can reorder partition pairs without the
/// caller re-shuffling its lane vectors. `order = [0, 1, 2, ...]`
/// reproduces `pipeline2(a, b)` exactly.
pub fn pipeline2_scheduled(a: &[Ns], b: &[Ns], order: &[usize]) -> Ns {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), order.len());
    if order.is_empty() {
        return Ns::ZERO;
    }
    let mut total = a[order[0]];
    for w in order.windows(2) {
        total += a[w[1]].max(b[w[0]]);
    }
    total += b[order[order.len() - 1]];
    total
}

/// Longest-processing-time-first order for a two-stage pipeline: items
/// sorted by descending total stage time (`a_i + b_i`), ties broken by
/// ascending index so the permutation is deterministic. Running the heavy
/// pairs first gives the pipeline the longest runway to hide stage-A
/// transfers behind stage-B joins — the skew scheduler's heuristic.
pub fn lpt_order(a: &[Ns], b: &[Ns]) -> Vec<usize> {
    assert_eq!(a.len(), b.len());
    let mut order: Vec<usize> = (0..a.len()).collect();
    order.sort_by(|&x, &y| {
        let tx = a[x] + b[x];
        let ty = a[y] + b[y];
        // Descending by time; `total_cmp` keeps the sort total even if a
        // cost model ever produces a NaN.
        ty.0.total_cmp(&tx.0).then(x.cmp(&y))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Alignment;

    fn hw() -> HwConfig {
        HwConfig::ac922()
    }

    #[test]
    fn seq_read_kernel_is_link_bound() {
        let mut k = KernelCost::new("scan");
        k.link.seq_read = Bytes::gib(4);
        k.instructions = 1000;
        let t = k.timing(&hw());
        assert_eq!(t.bound(), Bound::Interconnect);
        // ~4 GiB / 66.7 GB/s effective.
        let expect = Bytes::gib(4).as_f64() / 66.7e9;
        assert!(
            (t.total.as_secs() / expect - 1.0).abs() < 0.1,
            "{}",
            t.total
        );
    }

    #[test]
    fn timing_cache_replays_the_roofline_exactly() {
        let h = hw();
        let mut cache = TimingCache::new();
        let mut k = KernelCost::new("scan");
        k.link.seq_read = Bytes::gib(4);
        k.instructions = 1000;
        let direct = k.timing(&h);
        let miss = cache.timing(&k, &h);
        // The name never enters the roofline, so a renamed same-shape
        // kernel must hit.
        let renamed = KernelCost {
            name: String::from("scan-2"),
            ..k.clone()
        };
        let hit = cache.timing(&renamed, &h);
        assert_eq!(format!("{direct:?}"), format!("{miss:?}"));
        assert_eq!(format!("{direct:?}"), format!("{hit:?}"));
        assert_eq!((cache.hits, cache.misses), (1, 1));
        assert_eq!(cache.len(), 1);
        // A shape change is a distinct key, not a stale replay.
        let mut wider = k.clone();
        wider.link.seq_read = Bytes::gib(8);
        let other = cache.timing(&wider, &h);
        assert!(other.total.0 > miss.total.0);
        assert_eq!((cache.hits, cache.misses), (1, 2));
    }

    #[test]
    fn compute_kernel_scales_with_sms() {
        let mut k = KernelCost::new("compute");
        k.instructions = 1_000_000_000;
        let t80 = k.timing(&hw());
        let t20 = k.timing(&hw().with_sms(20));
        assert!((t20.total.0 / t80.total.0 - 4.0).abs() < 0.05);
        assert_eq!(t80.bound(), Bound::Compute);
    }

    #[test]
    fn tlb_bound_kernel() {
        let h = hw();
        let mut k = KernelCost::new("probe");
        k.tuples_in = 1_000_000;
        k.tlb.full_misses = 1_600_000; // ~1.6 walks/tuple (5.3 requests)
        k.tlb.serialized_walks = 1_600_000;
        let t = k.timing(&h);
        assert_eq!(t.bound(), Bound::TlbService);
        // Throughput floor near the paper's ~1.1 M tuples/s.
        let tput = 1_000_000.0 / t.total.as_secs();
        assert!((0.6e6..2.4e6).contains(&tput), "tput {tput}");
    }

    #[test]
    fn bidirectional_streams_derated() {
        let h = hw();
        let mut k = KernelCost::new("partition");
        k.link.seq_read = Bytes::gib(8);
        k.link.seq_write = Bytes::gib(8);
        let t = k.timing(&h);
        // Effective per-direction bandwidth should be below unidirectional
        // effective bw and around the paper's 55.9 GiB/s bidirectional.
        let gibs = Bytes::gib(8).as_gib() / t.total.as_secs();
        assert!((48.0..=60.0).contains(&gibs), "got {gibs} GiB/s");
    }

    #[test]
    fn random_gpu_writes_slower_than_reads() {
        // Section 6.2.9: random GPU-memory reads are 3.2-6x faster than
        // writes.
        let h = hw();
        let mut r = KernelCost::new("r");
        r.gpu_mem.rand_read = Bytes::gib(1);
        let mut w = KernelCost::new("w");
        w.gpu_mem.rand_write = Bytes::gib(1);
        let ratio = w.timing(&h).total.0 / r.timing(&h).total.0;
        assert!((2.0..=6.5).contains(&ratio), "ratio {ratio}");
        // And both are slower than a sequential stream of the same size.
        let mut s = KernelCost::new("s");
        s.gpu_mem.write = Bytes::gib(1);
        assert!(w.timing(&h).total.0 > s.timing(&h).total.0 * 3.0);
    }

    #[test]
    fn pipeline2_overlaps() {
        let a = [Ns(10.0), Ns(10.0), Ns(10.0)];
        let b = [Ns(4.0), Ns(4.0), Ns(4.0)];
        // a0 + max(a1,b0) + max(a2,b1) + b2 = 10+10+10+4.
        assert_eq!(pipeline2(&a, &b), Ns(34.0));
        let b2 = [Ns(20.0), Ns(20.0), Ns(20.0)];
        // a0 + b chain dominates: 10 + 20 + 20 + 20 = 70.
        assert_eq!(pipeline2(&a, &b2), Ns(70.0));
    }

    #[test]
    fn pipeline2_scheduled_identity_matches_pipeline2() {
        let a = [Ns(10.0), Ns(3.0), Ns(7.0), Ns(1.0)];
        let b = [Ns(2.0), Ns(9.0), Ns(5.0), Ns(6.0)];
        let identity: Vec<usize> = (0..a.len()).collect();
        assert_eq!(pipeline2_scheduled(&a, &b, &identity), pipeline2(&a, &b));
        assert_eq!(pipeline2_scheduled(&[], &[], &[]), Ns::ZERO);
    }

    #[test]
    fn pipeline2_scheduled_reorders() {
        // In submission order both heavy stages are exposed (10 + 1 + 10);
        // running the join-heavy pair first hides the transfer-heavy
        // pair's stage A behind it (1 + 10 + 1).
        let a = [Ns(10.0), Ns(1.0)];
        let b = [Ns(1.0), Ns(10.0)];
        let submission = pipeline2(&a, &b);
        let reordered = pipeline2_scheduled(&a, &b, &[1, 0]);
        assert_eq!(submission, Ns(21.0));
        assert_eq!(reordered, Ns(12.0));
    }

    #[test]
    fn lpt_order_sorts_by_total_time_descending() {
        let a = [Ns(1.0), Ns(5.0), Ns(2.0), Ns(5.0)];
        let b = [Ns(1.0), Ns(5.0), Ns(9.0), Ns(5.0)];
        // Totals: 2, 10, 11, 10 → order [2, 1, 3, 0] (tie 1 vs 3 by index).
        assert_eq!(lpt_order(&a, &b), vec![2, 1, 3, 0]);
    }

    #[test]
    fn merge_accumulates() {
        let h = hw();
        let link = LinkModel::new(&h.link);
        let mut k = KernelCost::new("x");
        k.link
            .rand_write
            .merge(&link.write(Bytes(128), Alignment::Natural));
        let mut k2 = KernelCost::new("x");
        k2.link
            .rand_write
            .merge(&link.write(Bytes(128), Alignment::Natural));
        k.merge(&k2);
        assert_eq!(k.link.rand_write.transactions, 2);
    }

    #[test]
    fn stall_profile_sums_to_100() {
        let h = hw();
        let mut k = KernelCost::new("p");
        k.link.seq_read = Bytes::gib(1);
        k.instructions = 50_000_000;
        k.tuples_in = 1;
        let t = k.timing(&h);
        let s = StallProfile::from_timing(&k, &t, &h);
        let sum = s.instr_issued + s.memory_dep + s.exec_dep + s.sync + s.other;
        assert!((85.0..=100.5).contains(&sum), "sum {sum}");
        assert!(s.memory_dep > s.sync);
    }

    #[test]
    fn fair_rates_identical_link_bound_queries_split_evenly() {
        let q = ResourceVector {
            link: 1.0,
            compute: 0.2,
            ..Default::default()
        };
        let rates = fair_share_rates(&[q; 4], &[1.0; 4]);
        for r in rates {
            assert!((r - 0.25).abs() < 1e-6, "rate {r}");
        }
    }

    #[test]
    fn fair_rates_disjoint_bottlenecks_overlap_fully() {
        // A link-bound and a compute-bound query barely contend: both
        // should run at (nearly) dedicated speed — the §5.2 overlap
        // promoted to inter-query scheduling.
        let link_bound = ResourceVector {
            link: 1.0,
            compute: 0.05,
            ..Default::default()
        };
        let compute_bound = ResourceVector {
            compute: 0.9,
            link: 0.05,
            ..Default::default()
        };
        let rates = fair_share_rates(&[link_bound, compute_bound], &[1.0, 1.0]);
        assert!(rates[0] > 0.9, "link-bound rate {}", rates[0]);
        assert!(rates[1] > 0.9, "compute-bound rate {}", rates[1]);
    }

    #[test]
    fn fair_rates_never_oversubscribe_a_resource() {
        let qs = [
            ResourceVector {
                link: 0.8,
                gpu_mem: 0.5,
                compute: 0.3,
                ..Default::default()
            },
            ResourceVector {
                link: 0.6,
                gpu_mem: 0.9,
                compute: 0.1,
                ..Default::default()
            },
            ResourceVector {
                link: 0.2,
                gpu_mem: 0.2,
                compute: 1.0,
                ..Default::default()
            },
        ];
        let rates = fair_share_rates(&qs, &[1.0, 2.0, 1.0]);
        let mut totals = [0.0f64; 5];
        for (q, &r) in qs.iter().zip(&rates) {
            for (t, u) in totals.iter_mut().zip(q.as_array()) {
                *t += r * u;
            }
        }
        for t in totals {
            assert!(t <= 1.0 + 1e-6, "oversubscribed: {t}");
        }
        for r in rates {
            assert!(r > 0.0 && r <= 1.0);
        }
    }

    #[test]
    fn fair_rates_weights_bias_the_split() {
        let q = ResourceVector {
            link: 1.0,
            ..Default::default()
        };
        let rates = fair_share_rates(&[q, q], &[3.0, 1.0]);
        assert!((rates[0] / rates[1] - 3.0).abs() < 1e-6);
        assert!((rates[0] + rates[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fair_rates_lone_query_runs_dedicated() {
        let q = ResourceVector {
            link: 1.0,
            gpu_mem: 0.7,
            ..Default::default()
        };
        assert_eq!(fair_share_rates(&[q], &[1.0]), vec![1.0]);
        assert!(fair_share_rates(&[], &[]).is_empty());
    }

    #[test]
    fn link_utilization_of_pure_transfer_is_high() {
        let h = hw();
        let mut k = KernelCost::new("scan");
        k.link.seq_read = Bytes::gib(2);
        let t = k.timing(&h);
        assert!(t.link_utilization() > 0.95);
    }

    #[test]
    fn aggregate_utilization_sums_and_clamps() {
        let link_bound = ResourceVector {
            link: 1.0,
            gpu_mem: 0.2,
            ..ResourceVector::default()
        };
        let compute_bound = ResourceVector {
            compute: 1.0,
            gpu_mem: 0.3,
            ..ResourceVector::default()
        };
        let loads = [link_bound, compute_bound];
        let rates = fair_share_rates(&loads, &[1.0, 1.0]);
        let u = aggregate_utilization(&loads, &rates);
        // Two complementary bound tasks at full speed: both resources
        // saturated, memory traffic additive.
        assert!(u.link > 0.99, "{u:?}");
        assert!(u.compute > 0.99, "{u:?}");
        assert!((u.gpu_mem - 0.5).abs() < 1e-9, "{u:?}");
        assert!((u.cpu - 0.0).abs() < 1e-12, "{u:?}");
        // Never above 1 even when demand oversubscribes.
        let o = aggregate_utilization(&[link_bound; 3], &[1.0; 3]);
        assert!((o.link - 1.0).abs() < 1e-12, "{o:?}");
        assert!(aggregate_utilization(&[], &[]).peak() < 1e-12);
    }

    #[test]
    fn utilization_ppm_is_a_safe_boundary() {
        assert_eq!(utilization_ppm(0.0), 0);
        assert_eq!(utilization_ppm(-0.5), 0);
        assert_eq!(utilization_ppm(f64::NAN), 0);
        assert_eq!(utilization_ppm(2.0), 1_000_000);
        assert_eq!(utilization_ppm(0.5), 500_000);
    }
}
