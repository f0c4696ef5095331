//! The deterministic topological plan executor.
//!
//! Nodes run one at a time in plan order, composing the existing
//! operators functionally: selections and Bloom filters actually drop
//! tuples, joins run the full Triton pipeline with a match sink, and the
//! root aggregation folds the final intermediate into the shared digest.
//! Every intermediate edge is either **GPU-resident** (the producer's
//! output stays on the device and the consumer reads it at GPU memory
//! bandwidth) or **materialized** (an explicit priced `Materialize`
//! phase evicts it over the interconnect right after the producer, and
//! the consumer later streams it back link-priced — the same
//! two-different-pipeline-steps discipline as the join's Spill phase).
//! The placement comes from [`crate::plan_footprint`]'s roofline-driven
//! greedy rule, so execution stays within the admission grant.

use triton_core::{
    AggregateResult, BloomFilter, GpuAggregation, JoinReport, JoinResult, JoinRunOptions,
    PhaseReport, SkewPolicy, TritonJoin,
};
use triton_datagen::{Relation, Workload, WorkloadSpec, TUPLE_BYTES};
use triton_hw::kernel::KernelCost;
use triton_hw::power::Executor;
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;
use triton_trace::{Attr, Trace};

use crate::dag::{Plan, PlanError, PlanNode};
use crate::footprint::{plan_footprint, Footprint};

/// Instructions per tuple for predicate evaluation (a compare + branch
/// per tuple, cheap next to the join kernels).
const SELECT_INSTR: u64 = 4;

/// Execution configuration of one plan run.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Skip residency planning entirely and materialize every edge —
    /// the degradation ladder's plan rung.
    pub force_materialize: bool,
    /// GPU-memory budget for intermediate placement; `None` = full
    /// device capacity (standalone runs). The scheduler sets this to
    /// the admission grant.
    pub budget: Option<Bytes>,
    /// Explicit working-set cache budget handed to each join node;
    /// `None` = each join's own auto-sizing.
    pub cache: Option<Bytes>,
    /// Skew policy applied to every join node.
    pub skew: SkewPolicy,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            force_materialize: false,
            budget: None,
            cache: None,
            skew: SkewPolicy::Off,
        }
    }
}

/// What one node did: the per-node metrics reported through triton-trace.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Stable label, `kind#index` (e.g. `join#4`).
    pub label: String,
    /// Node kind (`scan`, `select`, `bloom`, `join`, `agg`).
    pub kind: &'static str,
    /// Actual output cardinality.
    pub output_tuples: u64,
    /// Whether the output edge stayed GPU-resident.
    pub resident: bool,
    /// Isolated node time (operator total plus its Materialize evict,
    /// when the edge spilled).
    pub time: Ns,
    /// Extra trace attributes (e.g. Bloom filter geometry).
    pub attrs: Vec<Attr>,
}

/// A completed plan run.
#[derive(Debug, Clone)]
pub struct PlanRun {
    /// The root aggregate (the query's answer).
    pub agg: AggregateResult,
    /// Merged execution report: every node's phases in schedule order
    /// (including per-edge `Materialize` phases), with the plan total.
    pub report: JoinReport,
    /// Per-node outcomes, in schedule order.
    pub nodes: Vec<NodeOutcome>,
    /// The footprint analysis execution ran under.
    pub footprint: Footprint,
}

impl PlanRun {
    /// Total time spent in `Materialize` evict phases. Folds from
    /// [`Ns::ZERO`]: an empty float sum is `-0.0`, which would leak a
    /// negative zero into reports of fully pipelined runs.
    pub fn materialize_time(&self) -> Ns {
        self.report
            .phases
            .iter()
            .filter(|p| p.name == "Materialize")
            .fold(Ns::ZERO, |acc, p| acc + p.time)
    }

    /// Number of edges that stayed GPU-resident / were materialized.
    pub fn edge_counts(&self) -> (u64, u64) {
        let mut resident = 0;
        let mut spilled = 0;
        for n in &self.nodes {
            if n.kind == "scan" || n.kind == "agg" {
                continue;
            }
            if n.resident {
                resident += 1;
            } else {
                spilled += 1;
            }
        }
        (resident, spilled)
    }
}

/// The evict leg of a materialized edge: stream the producer's
/// GPU-resident output over the interconnect into CPU memory. The
/// reload leg is priced by the consumer reading a CPU-side input — the
/// two legs sit in different pipeline steps and never overlap.
fn materialize_phase(tuples: u64, hw: &HwConfig) -> PhaseReport {
    let bytes = Bytes(tuples * TUPLE_BYTES);
    let mut c = KernelCost::new("Materialize");
    c.tuples_in = tuples;
    c.gpu_mem.read += bytes;
    c.link.seq_write += bytes;
    PhaseReport::gpu(c, hw)
}

/// Execute `plan` over `inputs`. Deterministic: same plan, inputs, and
/// config produce identical results, reports, and node outcomes.
pub fn execute(
    plan: &Plan,
    inputs: &[Relation],
    hw: &HwConfig,
    cfg: &PlanConfig,
) -> Result<PlanRun, PlanError> {
    plan.validate(inputs.len())?;
    let input_tuples: Vec<u64> = inputs.iter().map(|r| r.len() as u64).collect();
    let budget = cfg.budget.map(|b| b.0).unwrap_or(hw.gpu.mem_capacity.0);
    let fp = plan_footprint(plan, &input_tuples, hw, budget, cfg.force_materialize);

    let mut outs: Vec<Relation> = Vec::with_capacity(plan.nodes.len());
    let mut phases: Vec<PhaseReport> = Vec::new();
    let mut nodes: Vec<NodeOutcome> = Vec::new();
    let mut total = Ns::ZERO;
    let mut agg = AggregateResult {
        groups: 0,
        count_digest: 0,
        sum_digest: 0,
    };
    let root = plan.nodes.len() - 1;

    for (i, node) in plan.nodes.iter().enumerate() {
        let mut attrs: Vec<Attr> = Vec::new();
        let mut node_time = Ns::ZERO;
        let out: Relation = match *node {
            // Scans move no data: the consumer prices the stream.
            PlanNode::Scan { input } => inputs[input].clone(),
            PlanNode::Select { child, pred } => {
                let rel = &outs[child];
                let mut keys = Vec::new();
                let mut rids = Vec::new();
                for (k, r) in rel.iter() {
                    if pred.keep(k) {
                        keys.push(k);
                        rids.push(r);
                    }
                }
                let mut c = KernelCost::new("Select");
                c.tuples_in = rel.len() as u64;
                c.tuples_out = keys.len() as u64;
                c.instructions = rel.len() as u64 * SELECT_INSTR;
                let in_bytes = Bytes(rel.len() as u64 * TUPLE_BYTES);
                if fp.resident[child] {
                    c.gpu_mem.read += in_bytes;
                } else {
                    c.link.seq_read += in_bytes;
                }
                // Survivors land GPU-resident first; a non-resident
                // edge is evicted by the Materialize phase below.
                c.gpu_mem.write += Bytes(keys.len() as u64 * TUPLE_BYTES);
                let p = PhaseReport::gpu(c, hw);
                node_time += p.time;
                phases.push(p);
                Relation::from_columns(keys, rids)
            }
            PlanNode::Bloom { build, probe } => {
                let mut filter = BloomFilter::for_build_side(outs[build].len());
                for &k in &outs[build].keys {
                    filter.insert(k);
                }
                let rel = &outs[probe];
                let mut keys = Vec::new();
                let mut rids = Vec::new();
                for (k, r) in rel.iter() {
                    if filter.may_contain(k) {
                        keys.push(k);
                        rids.push(r);
                    }
                }
                let dropped = (rel.len() - keys.len()) as u64;
                let mut c = filter.kernel_cost(
                    outs[build].len() as u64,
                    rel.len() as u64,
                    dropped,
                    fp.resident[build],
                    fp.resident[probe],
                );
                c.tuples_out = keys.len() as u64;
                c.gpu_mem.write += Bytes(keys.len() as u64 * TUPLE_BYTES);
                attrs.extend(filter.trace_attrs());
                let p = PhaseReport::gpu(c, hw);
                node_time += p.time;
                phases.push(p);
                Relation::from_columns(keys, rids)
            }
            PlanNode::Join { build, probe, emit } => {
                let w = Workload {
                    r: outs[build].clone(),
                    s: outs[probe].clone(),
                    spec: WorkloadSpec {
                        r_tuples_modeled: outs[build].len() as u64,
                        s_tuples_modeled: outs[probe].len() as u64,
                        scale: 1,
                        payload_cols: 0,
                        zipf_theta: 0.0,
                        match_fraction: 1.0,
                        seed: 0,
                    },
                };
                let join = TritonJoin {
                    cache_bytes: cfg.cache,
                    skew: cfg.skew,
                    ..TritonJoin::default()
                };
                let mut matches: Vec<(u64, u64, u64)> = Vec::new();
                let report = join.try_run_with(
                    &w,
                    hw,
                    JoinRunOptions {
                        r_resident: fp.resident[build],
                        s_resident: fp.resident[probe],
                        output_resident: true,
                        sink: Some(&mut matches),
                    },
                )?;
                node_time += report.total;
                phases.extend(report.phases);
                let mut keys = Vec::with_capacity(matches.len());
                let mut rids = Vec::with_capacity(matches.len());
                for (k, r_rid, s_rid) in matches {
                    let (ok, orid) = emit.apply(k, r_rid, s_rid);
                    keys.push(ok);
                    rids.push(orid);
                }
                Relation::from_columns(keys, rids)
            }
            PlanNode::Agg { child } => {
                let (result, report) =
                    GpuAggregation::default().run_with(&outs[child], hw, fp.resident[child]);
                agg = result;
                node_time += report.total;
                phases.extend(report.phases);
                Relation::default()
            }
        };

        // Materialize the edge right after the producer when placement
        // declined residency (scans and the root carry no edge).
        let is_edge = !matches!(node, PlanNode::Scan { .. }) && i != root;
        if is_edge && !fp.resident[i] {
            let p = materialize_phase(out.len() as u64, hw);
            node_time += p.time;
            phases.push(p);
        }

        total += node_time;
        attrs.push(Attr::u64("est_out", fp.est_out[i]));
        nodes.push(NodeOutcome {
            label: format!("{}#{i}", node.kind()),
            kind: node.kind(),
            output_tuples: out.len() as u64,
            resident: is_edge && fp.resident[i],
            time: node_time,
            attrs,
        });
        outs.push(out);
    }

    let tuples: u64 = input_tuples.iter().sum();
    let report = JoinReport {
        name: format!(
            "Plan ({} nodes, {})",
            plan.nodes.len(),
            if cfg.force_materialize {
                "materialized"
            } else {
                "pipelined"
            }
        ),
        phases,
        total,
        tuples_actual: tuples,
        tuples_modeled: tuples,
        result: JoinResult {
            matches: agg.groups,
            checksum: agg.sum_digest,
        },
        executor: Executor::Gpu,
        overlap: None,
        placement: None,
    };
    Ok(PlanRun {
        agg,
        report,
        nodes,
        footprint: fp,
    })
}

/// Record a run's per-node outcomes as a span chain on `(pid, tid)`
/// starting at `t0_ns` with durations scaled by `stretch`, one span per
/// node carrying its kind, cardinality, and placement. Complements
/// `triton_core::record_report` (which records the phase chain): this
/// lane shows the *plan* structure. Returns where the chain ended.
pub fn record_plan(
    trace: &mut Trace,
    pid: u64,
    tid: u64,
    t0_ns: f64,
    stretch: f64,
    run: &PlanRun,
) -> f64 {
    let mut ts = t0_ns;
    for n in &run.nodes {
        let dur = (n.time.0 * stretch).max(0.0);
        let ev = trace.span(pid, tid, n.label.clone(), ts, dur);
        ev.attr(Attr::str("kind", n.kind));
        ev.attr(Attr::u64("output_tuples", n.output_tuples));
        ev.attr(Attr::bool("resident", n.resident));
        ev.attr(Attr::f64("isolated_time_ns", n.time.0));
        ev.attrs(n.attrs.iter().cloned());
        ts += dur;
    }
    ts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{EmitMap, Predicate};
    use crate::oracle::reference_plan;

    fn hw() -> HwConfig {
        HwConfig::ac922().scaled(2048)
    }

    fn small_plan_and_inputs() -> (Plan, Vec<Relation>) {
        let n_r = 512usize;
        let n_s = 4096usize;
        let r = Relation::from_columns(
            (1..=n_r as u64).collect(),
            (0..n_r as u64).map(|i| i * 31 + 7).collect(),
        );
        let s = Relation::from_columns(
            (0..n_s as u64).map(|i| i % n_r as u64 + 1).collect(),
            (0..n_s as u64).map(|i| i * 17 + 3).collect(),
        );
        let plan = Plan {
            nodes: vec![
                PlanNode::Scan { input: 0 },
                PlanNode::Scan { input: 1 },
                PlanNode::Select {
                    child: 0,
                    pred: Predicate::KeyMod {
                        modulus: 4,
                        keep: 1,
                    },
                },
                PlanNode::Bloom { build: 2, probe: 1 },
                PlanNode::Join {
                    build: 2,
                    probe: 3,
                    emit: EmitMap::KeepKey,
                },
                PlanNode::Agg { child: 4 },
            ],
        };
        (plan, vec![r, s])
    }

    #[test]
    fn pipelined_run_matches_oracle() {
        let (plan, inputs) = small_plan_and_inputs();
        let run = execute(&plan, &inputs, &hw(), &PlanConfig::default()).unwrap();
        assert_eq!(run.agg, reference_plan(&plan, &inputs));
        assert!(run.agg.groups > 0);
    }

    #[test]
    fn force_materialize_same_answer_more_time() {
        let (plan, inputs) = small_plan_and_inputs();
        let hw = hw();
        let piped = execute(&plan, &inputs, &hw, &PlanConfig::default()).unwrap();
        let mat = execute(
            &plan,
            &inputs,
            &hw,
            &PlanConfig {
                force_materialize: true,
                ..PlanConfig::default()
            },
        )
        .unwrap();
        assert_eq!(piped.agg, mat.agg);
        assert_eq!(
            mat.materialize_time(),
            mat.report
                .phases
                .iter()
                .filter(|p| p.name == "Materialize")
                .map(|p| p.time)
                .sum::<Ns>()
        );
        let (res_p, _) = piped.edge_counts();
        let (res_m, spill_m) = mat.edge_counts();
        assert!(res_p > 0, "generous budget should pipeline edges");
        assert_eq!(res_m, 0);
        assert!(spill_m > 0);
        assert!(
            piped.report.total.0 < mat.report.total.0,
            "pipelined {} vs materialized {}",
            piped.report.total,
            mat.report.total
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let (plan, inputs) = small_plan_and_inputs();
        let hw = hw();
        let a = execute(&plan, &inputs, &hw, &PlanConfig::default()).unwrap();
        let b = execute(&plan, &inputs, &hw, &PlanConfig::default()).unwrap();
        assert_eq!(a.agg, b.agg);
        assert_eq!(a.report.total, b.report.total);
        let mut ta = Trace::new();
        let mut tb = Trace::new();
        record_plan(&mut ta, 1, 1, 0.0, 1.0, &a);
        record_plan(&mut tb, 1, 1, 0.0, 1.0, &b);
        assert_eq!(ta.events(), tb.events());
    }

    #[test]
    fn estimates_bound_actuals() {
        let (plan, inputs) = small_plan_and_inputs();
        let run = execute(&plan, &inputs, &hw(), &PlanConfig::default()).unwrap();
        for (n, est) in run.nodes.iter().zip(&run.footprint.est_out) {
            if n.kind == "agg" {
                continue;
            }
            assert!(
                n.output_tuples <= *est,
                "{}: actual {} > estimate {est}",
                n.label,
                n.output_tuples
            );
        }
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let plan = Plan { nodes: vec![] };
        assert!(matches!(
            execute(&plan, &[], &hw(), &PlanConfig::default()),
            Err(PlanError::Invalid(_))
        ));
    }
}
