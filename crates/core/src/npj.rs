//! The GPU no-partitioning hash join (the paper's GPU baseline).
//!
//! A single global hash table is built from R and probed with S. The
//! table lives in GPU memory while it fits; beyond that it spills into a
//! hybrid GPU/CPU array (Fig 19 caches a configurable slice of it in GPU
//! memory). Every probe is an isolated random access, so the operator
//! inherits all the pathologies Sections 3.4 and 6.2.2 quantify:
//!
//! * past the GPU memory capacity, probes cross the interconnect at
//!   16-byte granularity (sharp cliff, Fig 13);
//! * past the translation coverage, almost every probe triggers an IOMMU
//!   page-table walk — with linear probing at a 50% load factor the table
//!   doubles, crossing that limit first and collapsing throughput by
//!   >100x (Fig 13/14).

use triton_datagen::{Workload, TUPLE_BYTES};
use triton_hw::kernel::KernelCost;
use triton_hw::link::LinkModel;
use triton_hw::power::Executor;
use triton_hw::tlb::TlbSim;
use triton_hw::units::Bytes;
use triton_hw::HwConfig;
use triton_mem::SimAllocator;
use triton_part::{ChargeCtx, Span};

use crate::budget::GpuBudget;
use crate::hash_table::{HashScheme, LinearProbeTable, PerfectArrayTable};
use crate::report::{JoinReport, JoinResult, PhaseReport};

/// Instruction estimates per tuple for the NPJ kernels (atomicCAS insert
/// loops and dependent probe chains are instruction-heavy; calibrated to
/// the paper's 2.5 G tuples/s in-GPU ceiling).
const BUILD_INSTR: u64 = 48;
const PROBE_INSTR: u64 = 44;
const EXTRA_PROBE_INSTR: u64 = 6;

/// Configuration of the no-partitioning join.
///
/// ```
/// use triton_core::{NoPartitioningJoin, reference_join};
/// use triton_datagen::WorkloadSpec;
/// use triton_hw::HwConfig;
/// let hw = HwConfig::ac922().scaled(4096);
/// let w = WorkloadSpec::paper_default(4, 2048).generate();
/// let report = NoPartitioningJoin::perfect().run(&w, &hw);
/// assert_eq!(report.result, reference_join(&w));
/// ```
#[derive(Debug, Clone)]
pub struct NoPartitioningJoin {
    /// Hashing scheme: [`HashScheme::LinearProbing`] or
    /// [`HashScheme::Perfect`].
    pub scheme: HashScheme,
    /// Load factor for linear probing (paper: 50%).
    pub load_factor: f64,
    /// GPU cache budget for the hash table; `None` caches as much as
    /// GPU memory allows (Fig 19 sweeps this).
    pub cache_bytes: Option<Bytes>,
}

impl NoPartitioningJoin {
    /// The paper's default linear-probing configuration.
    pub fn linear_probing() -> Self {
        NoPartitioningJoin {
            scheme: HashScheme::LinearProbing,
            load_factor: 0.5,
            cache_bytes: None,
        }
    }

    /// The perfect-hashing (array join) configuration.
    pub fn perfect() -> Self {
        NoPartitioningJoin {
            scheme: HashScheme::Perfect,
            load_factor: 1.0,
            cache_bytes: None,
        }
    }

    /// Hash-table bytes for a build side of `n` tuples.
    pub fn table_bytes(&self, n: usize) -> u64 {
        match self.scheme {
            HashScheme::LinearProbing => {
                LinearProbeTable::capacity_for(n, self.load_factor) as u64 * TUPLE_BYTES
            }
            HashScheme::Perfect => n as u64 * TUPLE_BYTES,
            HashScheme::BucketChaining => {
                // Not used by the NPJ; sized like perfect plus chains.
                n as u64 * (TUPLE_BYTES + 4)
            }
        }
    }

    /// Execute the join on `hw`.
    pub fn run(&self, w: &Workload, hw: &HwConfig) -> JoinReport {
        let n_r = w.r.len();
        let table_bytes = self.table_bytes(n_r);
        let mut alloc = SimAllocator::new(hw);
        // All but the runtime slice can cache the hash table.
        let budget = self
            .cache_bytes
            .map_or(GpuBudget::cacheable(hw), |b| b.0)
            .min(alloc.available(triton_hw::MemSide::Gpu).0);
        let layout = alloc
            .alloc_hybrid(Bytes(table_bytes), Bytes(budget))
            // triton-lint: allow(p1) -- sim-allocator exhaustion means a misconfigured scale, not a runtime condition
            .expect("CPU memory exhausted for hash table");
        let table_span = Span::hybrid(layout);
        let input_span = Span::cpu(0);

        let link = LinkModel::new(&hw.link);
        let mut tlb = TlbSim::new(hw);
        let mut result = JoinResult::empty();

        // --- Build kernel.
        let mut build = KernelCost::new("Build");
        build.tuples_in = n_r as u64;
        match self.scheme {
            HashScheme::LinearProbing => {
                let (table, _) = LinearProbeTable::build(&w.r.keys, &w.r.rids, self.load_factor);
                // Replay insertions for exact slot addresses.
                let mut shadow = vec![false; table.capacity()];
                let mask = table.capacity() - 1;
                let mut ctx = ChargeCtx {
                    cost: &mut build,
                    link: &link,
                    tlb: &mut tlb,
                };
                for (i, &k) in w.r.keys.iter().enumerate() {
                    ctx.seq_read(&input_span, i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                    let mut s = table.first_slot(k);
                    let mut extra = 0u64;
                    while shadow[s] {
                        ctx.random_read(&table_span, s as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        s = (s + 1) & mask;
                        extra += 1;
                    }
                    shadow[s] = true;
                    ctx.scatter_write(&table_span, s as u64 * TUPLE_BYTES, TUPLE_BYTES);
                    ctx.cost.instructions += BUILD_INSTR + extra * EXTRA_PROBE_INSTR;
                }
                let _ = ctx;
                let build_phase = PhaseReport::gpu(build, hw);

                // --- Probe kernel.
                let mut probe = KernelCost::new("Probe");
                probe.tuples_in = w.s.len() as u64;
                {
                    let mut ctx = ChargeCtx {
                        cost: &mut probe,
                        link: &link,
                        tlb: &mut tlb,
                    };
                    for (i, (&k, &srid)) in w.s.keys.iter().zip(&w.s.rids).enumerate() {
                        ctx.seq_read(&input_span, i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        let (hit, accesses, first) = table.probe(k);
                        for a in 0..accesses as usize {
                            let slot = (first + a) & mask;
                            ctx.random_read(&table_span, slot as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        }
                        ctx.cost.instructions +=
                            PROBE_INSTR + (accesses as u64 - 1) * EXTRA_PROBE_INSTR;
                        if let Some(rrid) = hit {
                            result.add(rrid, srid);
                        }
                    }
                }
                let probe_phase = PhaseReport::gpu(probe, hw);
                self.finish(w, vec![build_phase, probe_phase], result)
            }
            HashScheme::Perfect | HashScheme::BucketChaining => {
                let table = PerfectArrayTable::build(&w.r.keys, &w.r.rids, n_r);
                {
                    let mut ctx = ChargeCtx {
                        cost: &mut build,
                        link: &link,
                        tlb: &mut tlb,
                    };
                    for (i, &k) in w.r.keys.iter().enumerate() {
                        ctx.seq_read(&input_span, i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        let slot = table.slot(k);
                        ctx.scatter_write(&table_span, slot as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        ctx.cost.instructions += BUILD_INSTR;
                    }
                }
                let build_phase = PhaseReport::gpu(build, hw);

                let mut probe = KernelCost::new("Probe");
                probe.tuples_in = w.s.len() as u64;
                {
                    let mut ctx = ChargeCtx {
                        cost: &mut probe,
                        link: &link,
                        tlb: &mut tlb,
                    };
                    for (i, (&k, &srid)) in w.s.keys.iter().zip(&w.s.rids).enumerate() {
                        ctx.seq_read(&input_span, i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        let slot = table.slot(k);
                        ctx.random_read(&table_span, slot as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        ctx.cost.instructions += PROBE_INSTR;
                        if let Some(rrid) = table.probe(k) {
                            result.add(rrid, srid);
                        }
                    }
                }
                let probe_phase = PhaseReport::gpu(probe, hw);
                self.finish(w, vec![build_phase, probe_phase], result)
            }
        }
    }

    fn finish(&self, w: &Workload, phases: Vec<PhaseReport>, result: JoinResult) -> JoinReport {
        let total = phases.iter().map(|p| p.time).sum();
        JoinReport {
            name: format!("GPU No-Partitioning Join ({})", self.scheme.name()),
            phases,
            total,
            tuples_actual: w.total_tuples(),
            tuples_modeled: w.total_tuples_modeled(),
            result,
            executor: Executor::Gpu,
            overlap: None,
            placement: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use triton_datagen::WorkloadSpec;

    #[test]
    fn npj_result_matches_reference() {
        let hw = HwConfig::ac922().scaled(4096);
        let w = WorkloadSpec::paper_default(1, 100).generate();
        let expect = reference_join(&w);
        for join in [
            NoPartitioningJoin::linear_probing(),
            NoPartitioningJoin::perfect(),
        ] {
            let rep = join.run(&w, &hw);
            assert_eq!(rep.result, expect, "{}", rep.name);
            // FK join: every S tuple matches.
            assert_eq!(rep.result.matches, w.s.len() as u64);
        }
    }

    #[test]
    fn lp_table_twice_perfect_table() {
        let npj_lp = NoPartitioningJoin::linear_probing();
        let npj_pf = NoPartitioningJoin::perfect();
        let n = 1 << 20;
        assert_eq!(npj_lp.table_bytes(n), 2 * npj_pf.table_bytes(n));
    }

    #[test]
    fn in_gpu_table_avoids_the_link_for_probes() {
        let hw = HwConfig::ac922().scaled(1024);
        // Small workload: table fits GPU memory entirely.
        let w = WorkloadSpec::paper_default(16, 1024).generate();
        let rep = NoPartitioningJoin::perfect().run(&w, &hw);
        let probe = rep.phases.iter().find(|p| p.name == "Probe").unwrap();
        let c = probe.cost.as_ref().unwrap();
        assert_eq!(c.link.rand_read.transactions, 0, "probes must stay local");
        assert!(c.gpu_mem.rand_read.0 > 0);
    }

    #[test]
    fn out_of_core_lp_is_walk_bound() {
        let hw = HwConfig::ac922().scaled(1024);
        // 2048 M modeled: LP table (64 GiB modeled) far beyond the 32 GiB
        // translation coverage.
        let w = WorkloadSpec::paper_default(2048, 1024).generate();
        let rep = NoPartitioningJoin::linear_probing().run(&w, &hw);
        // Paper: ~5.3 IOMMU requests per tuple, throughput collapses to
        // ~1.1 M tuples/s.
        let req = rep.iommu_requests_per_tuple(&hw);
        assert!(req > 1.0, "requests/tuple {req}");
        let tput = rep.throughput_gtps();
        assert!(tput < 0.02, "LP must collapse, got {tput} G tuples/s");
    }

    #[test]
    fn out_of_core_perfect_degrades_but_survives() {
        let hw = HwConfig::ac922().scaled(1024);
        let w = WorkloadSpec::paper_default(2048, 1024).generate();
        let pf = NoPartitioningJoin::perfect().run(&w, &hw);
        let lp = NoPartitioningJoin::linear_probing().run(&w, &hw);
        // Paper: perfect hashing is up to 400x faster than linear probing
        // out of core; it lands near 0.5 G tuples/s.
        let ratio = pf.throughput_gtps() / lp.throughput_gtps();
        assert!(ratio > 20.0, "perfect/LP ratio {ratio}");
        assert!(
            (0.2..1.2).contains(&pf.throughput_gtps()),
            "perfect out-of-core tput {}",
            pf.throughput_gtps()
        );
    }
}
