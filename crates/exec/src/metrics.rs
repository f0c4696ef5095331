//! Aggregate serving metrics: throughput, latency percentiles, memory
//! high-water marks, shedding counts, and fault/recovery accounting for
//! one scheduler run.

use triton_hw::units::{Bytes, Ns};
use triton_metrics::{sim_ns, Log2Histogram};

use crate::scheduler::{Outcome, RejectReason};

/// Aggregated time and bytes of one `(operator, phase)` pair across every
/// completed query of a run — the paper's Fig 11 phase breakdown, lifted
/// to the serving runtime. Phase times are *stretched* onto each query's
/// scheduled `[start, finish]` window (plus a synthetic `queue` phase for
/// `[arrival, start]`), so for every query its rollup contributions sum
/// to its recorded latency within one simulated nanosecond.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRollup {
    /// Operator label (`triton`, `npj`, `cpu-part`, `cpu-radix`).
    pub operator: String,
    /// Normalised phase key (`ps_1`, `part_2`, `join`, `queue`, ...; see
    /// [`triton_core::phase_key`]).
    pub phase: String,
    /// Occurrences across completed queries.
    pub count: u64,
    /// Total wall time attributed to this phase.
    pub time: Ns,
    /// Total bytes the phase moved (interconnect payload plus GPU memory
    /// traffic; zero for CPU phases and queueing).
    pub bytes: Bytes,
}

/// Aggregate metrics over one serving run.
///
/// Derives `PartialEq` so chaos tests can assert byte-identical replay:
/// the same queries plus the same [`triton_hw::FaultPlan`] seed must
/// reproduce this struct exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerMetrics {
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries refused for any reason.
    pub rejected: u64,
    /// Of the rejected: shed for a missed deadline.
    pub shed_deadline: u64,
    /// Of the rejected: bounced off the full queue.
    pub shed_queue_full: u64,
    /// Of the rejected: floors exceeding the whole GPU (or OOM).
    pub shed_capacity: u64,
    /// Of the rejected: lost to a fault with resilience disabled (or
    /// stalled past recovery).
    pub shed_faulted: u64,
    /// Simulated wall time from first arrival to last completion.
    pub makespan: Ns,
    /// Tuples processed by completed queries.
    pub tuples: u64,
    /// Aggregate throughput in G tuples/s over the makespan.
    pub throughput_gtps: f64,
    /// Median end-to-end latency of completed queries, resolved by the
    /// streaming log2 histogram (nearest-rank bucket lower bound, within
    /// one sub-bucket — ≤ 6.25 % relative — of the exact sample; memory
    /// stays bounded under sustained load).
    pub latency_p50: Ns,
    /// 99th-percentile end-to-end latency (same histogram resolution).
    pub latency_p99: Ns,
    /// Worst-case latency (tracked exactly, not bucketed).
    pub latency_max: Ns,
    /// High-water mark of concurrently reserved GPU memory.
    pub peak_gpu_reserved: Bytes,
    /// The GPU capacity those reservations were drawn from (before any
    /// fault-driven retirement).
    pub gpu_capacity: Bytes,
    /// GPU bytes lost to ECC page retirement during the run.
    pub gpu_retired: Bytes,
    /// Most queries in flight at once.
    pub peak_concurrency: usize,
    /// Time-weighted mean queries in flight (while any ran).
    pub mean_concurrency: f64,
    /// Bytes of partitioned working sets the completed joins held
    /// GPU-resident (summed over each query's placement report).
    pub cache_hit_bytes: Bytes,
    /// Bytes of partitioned working sets spilled to CPU memory.
    pub cache_spilled_bytes: Bytes,
    /// Build-cache hits (probe batches reusing a partitioned build side,
    /// exact and prefix together).
    pub build_cache_hits: u64,
    /// Of the build-cache hits: queries whose build range was served by a
    /// *covering* resident build of the same family (prefix/subsume
    /// reuse) rather than an exact entry.
    pub build_cache_prefix_hits: u64,
    /// Build-cache misses (build sides partitioned from scratch).
    pub build_cache_misses: u64,
    /// Resident builds invalidated by the circuit breaker.
    pub builds_quarantined: u64,
    /// Fault events that struck the run (kernel faults landing on a
    /// victim plus capacity revocation rounds).
    pub faults_injected: u64,
    /// Transient-fault retries, counted per outcome: summed over
    /// completed queries' [`crate::FaultOutcome`]s plus the retries of
    /// queries lost with [`RejectReason::Faulted`]. The `sched.retries`
    /// registry counter is per event instead: it counts every re-queue
    /// (revocation retries included) and none on the no-resilience
    /// path, so the two may differ.
    pub retries: u64,
    /// Degradation-ladder downgrades, counted per outcome: summed over
    /// completed queries only (`sched.downgrades` counts every ladder
    /// step, including those of queries later shed).
    pub downgrades: u64,
    /// Reservation revocations, counted per outcome: summed over
    /// completed queries only (`sched.revocations` counts every
    /// revocation event).
    pub revocations: u64,
    /// Mid-query grant revisions (shrink-in-place and grow) the
    /// scheduler issued against running queries.
    pub grant_revisions: u64,
    /// Cache bytes reclaimed from running queries by shrink revisions.
    pub grant_reclaimed: Bytes,
    /// Operator pricings served from the cost/plan memo (repeat tenants
    /// skipping partitioning, planning, and the roofline entirely).
    pub cost_cache_hits: u64,
    /// Operator pricings that had to run. Zero when cost caching is
    /// disabled: the memo then never engages, keeping the disabled
    /// configuration byte-identical to the pre-cache scheduler.
    pub cost_cache_misses: u64,
    /// Per-`(operator, phase)` time/byte rollups over completed queries,
    /// sorted by operator then phase (deterministic order).
    pub phases: Vec<PhaseRollup>,
}

/// `p`-th percentile (0..=100) of an unsorted sample, by the
/// **nearest-rank** method: the value at 1-based rank `⌈p/100 · n⌉` of
/// the sorted sample, with the rank clamped to `[1, n]` (so `p = 0`
/// returns the minimum and `p = 100` the maximum). Returns 0 for an
/// empty sample.
///
/// The rank product is computed with a small negative epsilon before the
/// ceiling: `p/100 · n` is evaluated in floating point, and when the
/// exact product is an integer the rounding error can land just *above*
/// it (e.g. `0.35 * 20 == 7.000000000000001`), which would shift the
/// ceiling one rank too high. The epsilon is far smaller than the gap to
/// the next meaningful product, so non-integer products are unaffected.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl SchedulerMetrics {
    /// The fields a finished run's outcomes determine, over `makespan`,
    /// with the phase rollups accumulated by the run's
    /// [`crate::observe::Recorder`]. Fields the run state owns (memory,
    /// concurrency, cache and fault-event counters) are zero; the
    /// scheduler fills them in.
    pub(crate) fn from_outcomes(
        outcomes: &[Outcome],
        makespan: Ns,
        phases: Vec<PhaseRollup>,
    ) -> Self {
        // Latencies stream through a bounded log2 histogram instead of a
        // per-query vector: under sustained load the scheduler's memory
        // for latency accounting no longer grows with completions.
        let mut latency_hist = Log2Histogram::new();
        let mut latency_max = 0.0f64;
        let mut tuples = 0u64;
        let (mut completed, mut rejected) = (0u64, 0u64);
        let (mut shed_deadline, mut shed_queue_full) = (0u64, 0u64);
        let (mut shed_capacity, mut shed_faulted) = (0u64, 0u64);
        let (mut retries, mut downgrades, mut revocations) = (0u64, 0u64, 0u64);
        let (mut cache_hit_bytes, mut cache_spilled_bytes) = (0u64, 0u64);
        for o in outcomes {
            match o {
                Outcome::Completed(c) => {
                    completed += 1;
                    tuples += c.report.tuples_actual;
                    latency_hist.record(sim_ns(c.latency().0));
                    latency_max = latency_max.max(c.latency().0);
                    if let Some(p) = &c.report.placement {
                        cache_hit_bytes += p.cache_hit_bytes;
                        cache_spilled_bytes += p.spilled_bytes;
                    }
                    retries += u64::from(c.fault.retries);
                    downgrades += u64::from(c.fault.downgrades);
                    revocations += u64::from(c.fault.revocations);
                }
                Outcome::Rejected { reason, .. } => {
                    rejected += 1;
                    match reason {
                        RejectReason::DeadlineExceeded { .. } => shed_deadline += 1,
                        RejectReason::QueueFull { .. } => shed_queue_full += 1,
                        RejectReason::OverCapacity { .. } | RejectReason::Oom(_) => {
                            shed_capacity += 1
                        }
                        RejectReason::Faulted { retries: r, .. } => {
                            shed_faulted += 1;
                            retries += u64::from(*r);
                        }
                        // Counted in `rejected` only: no run shed it.
                        RejectReason::InvalidArrival { .. } => {}
                    }
                }
            }
        }
        let throughput_gtps = if makespan.0 > 0.0 {
            tuples as f64 / makespan.as_secs() / 1e9
        } else {
            0.0
        };
        SchedulerMetrics {
            completed,
            rejected,
            shed_deadline,
            shed_queue_full,
            shed_capacity,
            shed_faulted,
            makespan,
            tuples,
            throughput_gtps,
            latency_p50: Ns(latency_hist.value_at_percentile(50) as f64),
            latency_p99: Ns(latency_hist.value_at_percentile(99) as f64),
            latency_max: Ns(latency_max),
            peak_gpu_reserved: Bytes(0),
            gpu_capacity: Bytes(0),
            gpu_retired: Bytes(0),
            peak_concurrency: 0,
            mean_concurrency: 0.0,
            cache_hit_bytes: Bytes(cache_hit_bytes),
            cache_spilled_bytes: Bytes(cache_spilled_bytes),
            build_cache_hits: 0,
            build_cache_prefix_hits: 0,
            build_cache_misses: 0,
            builds_quarantined: 0,
            faults_injected: 0,
            retries,
            downgrades,
            revocations,
            grant_revisions: 0,
            grant_reclaimed: Bytes(0),
            cost_cache_hits: 0,
            cost_cache_misses: 0,
            phases,
        }
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} done / {} rejected | makespan {} | {:.2} Gtps | p50 {} p99 {} | \
             peak mem {} of {} | peak conc {} (mean {:.2}) | cache {}h ({}p)/{}m",
            self.completed,
            self.rejected,
            self.makespan,
            self.throughput_gtps,
            self.latency_p50,
            self.latency_p99,
            self.peak_gpu_reserved,
            self.gpu_capacity,
            self.peak_concurrency,
            self.mean_concurrency,
            self.build_cache_hits,
            self.build_cache_prefix_hits,
            self.build_cache_misses,
        );
        if self.faults_injected > 0 || self.shed_faulted > 0 {
            s.push_str(&format!(
                " | faults {} (retry {} / downgrade {} / revoke {} / lost {}) | retired {}",
                self.faults_injected,
                self.retries,
                self.downgrades,
                self.revocations,
                self.shed_faulted,
                self.gpu_retired,
            ));
        }
        if self.grant_revisions > 0 {
            s.push_str(&format!(
                " | grants revised {} (reclaimed {})",
                self.grant_revisions, self.grant_reclaimed,
            ));
        }
        if self.cost_cache_hits + self.cost_cache_misses > 0 {
            s.push_str(&format!(
                " | cost cache {}h/{}m",
                self.cost_cache_hits, self.cost_cache_misses,
            ));
        }
        s
    }

    /// Stable JSON encoding (fixed key order, integers exact, floats via
    /// Rust's shortest round-trip formatting) — byte-identical across
    /// runs whenever the metrics are equal, for determinism checks and
    /// machine-readable reports.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut phases = String::from("[");
        for (i, r) in self.phases.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            phases.push_str(&format!(
                "{{\"op\":\"{}\",\"phase\":\"{}\",\"count\":{},\"time_ns\":{},\"bytes\":{}}}",
                r.operator, r.phase, r.count, r.time.0, r.bytes.0,
            ));
        }
        phases.push(']');
        format!(
            concat!(
                "{{\"completed\":{},\"rejected\":{},\"shed_deadline\":{},",
                "\"shed_queue_full\":{},\"shed_capacity\":{},\"shed_faulted\":{},",
                "\"makespan_ns\":{},\"tuples\":{},\"throughput_gtps\":{},",
                "\"latency_p50_ns\":{},\"latency_p99_ns\":{},\"latency_max_ns\":{},",
                "\"peak_gpu_reserved\":{},\"gpu_capacity\":{},\"gpu_retired\":{},",
                "\"peak_concurrency\":{},\"mean_concurrency\":{},",
                "\"cache_hit_bytes\":{},\"cache_spilled_bytes\":{},",
                "\"build_cache_hits\":{},\"build_cache_prefix_hits\":{},",
                "\"build_cache_misses\":{},",
                "\"builds_quarantined\":{},\"faults_injected\":{},",
                "\"retries\":{},\"downgrades\":{},\"revocations\":{},",
                "\"grant_revisions\":{},\"grant_reclaimed\":{},",
                "\"cost_cache_hits\":{},\"cost_cache_misses\":{},",
                "\"phases\":{}}}"
            ),
            self.completed,
            self.rejected,
            self.shed_deadline,
            self.shed_queue_full,
            self.shed_capacity,
            self.shed_faulted,
            self.makespan.0,
            self.tuples,
            self.throughput_gtps,
            self.latency_p50.0,
            self.latency_p99.0,
            self.latency_max.0,
            self.peak_gpu_reserved.0,
            self.gpu_capacity.0,
            self.gpu_retired.0,
            self.peak_concurrency,
            self.mean_concurrency,
            self.cache_hit_bytes.0,
            self.cache_spilled_bytes.0,
            self.build_cache_hits,
            self.build_cache_prefix_hits,
            self.build_cache_misses,
            self.builds_quarantined,
            self.faults_injected,
            self.retries,
            self.downgrades,
            self.revocations,
            self.grant_revisions,
            self.grant_reclaimed.0,
            self.cost_cache_hits,
            self.cost_cache_misses,
            phases,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_single_sample_is_that_sample() {
        // n = 1: every p maps to rank 1.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[42.0], p), 42.0, "p={p}");
        }
    }

    #[test]
    fn percentile_two_samples_split_at_the_median() {
        // n = 2: rank ⌈p/100 · 2⌉ is 1 for p <= 50, 2 above.
        let v = [10.0, 20.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 25.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 50.1), 20.0);
        assert_eq!(percentile(&v, 99.0), 20.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
    }

    #[test]
    fn percentile_hundred_samples_hit_exact_ranks() {
        // n = 100, unsorted input: p maps straight to the p-th value.
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        v.reverse();
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(
            percentile(&v, 35.0),
            35.0,
            "exact-product rank must not round up"
        );
        assert_eq!(percentile(&v, 35.5), 36.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 0.0), 1.0, "p=0 clamps to the minimum");
    }

    #[test]
    fn histogram_percentiles_agree_with_nearest_rank_within_one_bucket() {
        // The streaming histogram behind latency_p50/p99 must stay within
        // one bucket width of the exact nearest-rank percentile it
        // replaced. Deterministic LCG spread over several decades of
        // magnitude so multiple major buckets participate.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let samples: Vec<f64> = (0..2000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 50_000_000) as f64
            })
            .collect();
        let mut hist = Log2Histogram::new();
        for s in &samples {
            hist.record(sim_ns(*s));
        }
        for p in [50u64, 99] {
            let exact = percentile(&samples, p as f64);
            let approx = hist.value_at_percentile(p) as f64;
            let width = Log2Histogram::bucket_width_for(sim_ns(exact)) as f64;
            assert!(
                approx <= exact && exact - approx < width.max(1.0),
                "p{p}: approx {approx} vs exact {exact} (bucket width {width})"
            );
        }
        // Max is tracked exactly, not bucketed.
        let exact_max = samples.iter().cloned().fold(0.0, f64::max);
        assert_eq!(hist.max() as f64, exact_max);
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let m = SchedulerMetrics::from_outcomes(&[], Ns::ZERO, Vec::new());
        let a = m.to_json();
        let b = m.clone().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"faults_injected\":0"));
        assert!(a.contains("\"cache_hit_bytes\":0,\"cache_spilled_bytes\":0"));
        assert!(a.contains("\"build_cache_prefix_hits\":0"));
        assert!(a.contains("\"cost_cache_hits\":0,\"cost_cache_misses\":0"));
        assert!(a.ends_with("\"phases\":[]}"));
        assert_eq!(m, m.clone(), "PartialEq must hold for identical runs");
    }

    #[test]
    fn json_encodes_phase_rollups() {
        let phases = vec![PhaseRollup {
            operator: "triton".into(),
            phase: "ps_1".into(),
            count: 3,
            time: Ns(1.5),
            bytes: Bytes(4096),
        }];
        let m = SchedulerMetrics::from_outcomes(&[], Ns::ZERO, phases);
        let j = m.to_json();
        assert!(j.contains(
            "\"phases\":[{\"op\":\"triton\",\"phase\":\"ps_1\",\"count\":3,\"time_ns\":1.5,\"bytes\":4096}]"
        ), "{j}");
    }
}
