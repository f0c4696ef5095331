//! Multi-GPU Triton join.
//!
//! An extension along the paper's Section 7 related work (MG-Join, Paul et
//! al. 2021; "Scaling joins to a thousand GPUs", Gao & Sakharnykh 2021):
//! the AC922 hosts two GPUs, each with its *own* NVLink to its socket, so
//! the out-of-core first pass scales with the number of GPUs — every GPU
//! partitions its shard of the input over its private link.
//!
//! The execution plan follows the standard multi-GPU radix-join shape:
//!
//! 1. **Shard** — the base relations are striped across the GPUs.
//! 2. **Pass 1 + exchange** — each GPU radix-partitions its shard at the
//!    global fanout; partition *p* is owned by GPU `p mod G`, so a
//!    `(G-1)/G` share of each shard crosses the peer links to its owner's
//!    memory (landing in the owner's hybrid cached array, like a
//!    single-GPU spill).
//! 3. **Local pipeline** — every GPU runs the Triton second pass + join
//!    over its owned partitions, exactly as in the single-GPU plan.
//!
//! GPUs advance in parallel; the exchange is all-to-all and overlaps the
//! tail of pass 1 in real systems, modeled here as a separate step bounded
//! by the per-GPU link bandwidth.

use triton_datagen::{multiply_shift, radix, Relation, Workload, WorkloadSpec, TUPLE_BYTES};
use triton_hw::power::Executor;
use triton_hw::units::{Bytes, Ns};
use triton_hw::{HwConfig, LinkModel};

use crate::report::{JoinReport, JoinResult, PhaseReport};
use crate::triton::TritonJoin;

/// Multi-GPU wrapper around the Triton join.
#[derive(Debug, Clone)]
pub struct MultiGpuTritonJoin {
    /// Number of GPUs (each with a private fast interconnect).
    pub num_gpus: u32,
    /// Per-GPU join configuration.
    pub per_gpu: TritonJoin,
}

impl MultiGpuTritonJoin {
    /// Create for `num_gpus` GPUs with default per-GPU settings.
    pub fn new(num_gpus: u32) -> Self {
        assert!(num_gpus >= 1);
        MultiGpuTritonJoin {
            num_gpus,
            per_gpu: TritonJoin::default(),
        }
    }

    /// Execute the join.
    pub fn run(&self, w: &Workload, hw: &HwConfig) -> JoinReport {
        let g = self.num_gpus as usize;
        if g == 1 {
            return self.per_gpu.run(w, hw);
        }
        let total_bytes = w.total_tuples() * TUPLE_BYTES;
        let r_bytes = w.r.len() as u64 * TUPLE_BYTES;
        let b1 = TritonJoin::pass1_bits(r_bytes, total_bytes, hw);

        // --- Ownership split: partition p belongs to GPU p mod G. The
        // same hash bits that drive pass 1 drive placement, so each GPU's
        // sub-join is complete and disjoint.
        let owner = |key: u64| radix(multiply_shift(key), 0, b1) % g;
        let split = |rel: &Relation| -> Vec<Relation> {
            let mut cols = vec![(Vec::new(), Vec::new()); g];
            for (k, r) in rel.iter() {
                let (keys, rids) = &mut cols[owner(k)];
                keys.push(k);
                rids.push(r);
            }
            cols.into_iter()
                .map(|(keys, rids)| Relation::from_columns(keys, rids))
                .collect()
        };
        let shards: Vec<(Relation, Relation)> = split(&w.r).into_iter().zip(split(&w.s)).collect();

        // --- Per-GPU sub-joins (run in parallel across GPUs): reuse the
        // single-GPU plan per owned sub-workload. Its internal first pass
        // stands in for this GPU's share of the global pass 1 (same bytes
        // through the same private link).
        let mut result = JoinResult::empty();
        let mut slowest = Ns::ZERO;
        let mut phases: Vec<PhaseReport> = Vec::new();
        for (gpu, (r, s)) in shards.into_iter().enumerate() {
            let sub = Workload {
                spec: WorkloadSpec {
                    r_tuples_modeled: r.len() as u64 * w.spec.scale,
                    s_tuples_modeled: s.len() as u64 * w.spec.scale,
                    ..w.spec.clone()
                },
                r,
                s,
            };
            if sub.r.is_empty() && sub.s.is_empty() {
                continue;
            }
            let rep = self.per_gpu.run(&sub, hw);
            result.merge(&rep.result);
            slowest = slowest.max(rep.total);
            if gpu == 0 {
                phases = rep.phases;
            }
        }

        // --- Exchange: each shard was produced on its *source* GPU, and
        // a (G-1)/G share of it crosses the peer fabric to the owner. The
        // per-GPU cost is bounded by its link: send + receive of that
        // share of its 1/G slice of the data.
        let per_gpu_bytes = total_bytes / g as u64;
        let crossing = per_gpu_bytes * (g as u64 - 1) / g as u64;
        let link = LinkModel::new(&hw.link);
        let t_exchange = link.seq_transfer_time(Bytes(crossing));
        phases.push(PhaseReport::cpu(
            format!("Exchange ({}-GPU all-to-all)", g),
            t_exchange,
        ));

        JoinReport {
            name: format!("GPU Triton Join ({g} GPUs)"),
            phases,
            total: slowest + t_exchange,
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

    #[test]
    fn multi_gpu_result_matches_reference() {
        let hw = HwConfig::ac922().scaled(1024);
        let w = WorkloadSpec::paper_default(64, 1024).generate();
        let expect = reference_join(&w);
        for g in [1u32, 2, 4, 8] {
            let rep = MultiGpuTritonJoin::new(g).run(&w, &hw);
            assert_eq!(rep.result, expect, "{g} GPUs");
            assert_eq!(rep.tuples_actual, w.total_tuples());
        }
    }

    #[test]
    fn two_gpus_speed_up_out_of_core_joins() {
        let hw = HwConfig::ac922().scaled(512);
        let w = WorkloadSpec::paper_default(2048, 512).generate();
        let one = MultiGpuTritonJoin::new(1).run(&w, &hw);
        let two = MultiGpuTritonJoin::new(2).run(&w, &hw);
        let speedup = one.total.0 / two.total.0;
        assert!(
            (1.3..=2.2).contains(&speedup),
            "2-GPU speedup {speedup} (1 GPU {}, 2 GPUs {})",
            one.total,
            two.total
        );
    }

    #[test]
    fn scaling_monotone_and_bounded() {
        let hw = HwConfig::ac922().scaled(512);
        let w = WorkloadSpec::paper_default(2048, 512).generate();
        let t = |g: u32| MultiGpuTritonJoin::new(g).run(&w, &hw).total.0;
        let s2 = t(1) / t(2);
        let s8 = t(1) / t(8);
        assert!(s8 > s2, "more GPUs must still help: {s2} vs {s8}");
        // Aggregate GPU memory grows with G, so per-GPU workloads cache
        // better and scaling can run mildly super-linear — but not wildly.
        assert!(s8 < 8.0 * 1.3, "scaling out of bounds: {s8}");
    }

    #[test]
    fn exchange_phase_reported() {
        let hw = HwConfig::ac922().scaled(1024);
        let w = WorkloadSpec::paper_default(128, 1024).generate();
        let rep = MultiGpuTritonJoin::new(4).run(&w, &hw);
        assert!(rep.phases.iter().any(|p| p.name.starts_with("Exchange")));
    }
}
