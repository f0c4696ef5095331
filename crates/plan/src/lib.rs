//! # triton-plan
//!
//! Multi-operator query plans over the Triton join. A [`Plan`] is a
//! small typed DAG — [`PlanNode::Scan`], [`PlanNode::Select`],
//! [`PlanNode::Bloom`], [`PlanNode::Join`], [`PlanNode::Agg`] — executed
//! by a deterministic topological executor that composes the existing
//! `triton-core` operators functionally. Intermediates stay GPU-resident
//! when the roofline model says they fit ([`plan_footprint`]'s greedy
//! placement); edges that don't fit pay an explicit `Materialize` phase
//! over the interconnect, the same fidelity discipline as the join's
//! Spill phase. [`PlanQuery`] packages a plan for the serving runtime:
//! admission reserves the *peak* concurrent operator footprint along the
//! schedule, not the sum of all operators.
//!
//! # Quick start
//!
//! ```
//! use triton_datagen::TpchSpec;
//! use triton_hw::HwConfig;
//! use triton_plan::{reference_plan, tpch_query};
//!
//! let hw = HwConfig::ac922().scaled(2048);
//! let workload = TpchSpec::q3(4, 2048).generate();
//! let query = tpch_query(&workload);
//! let run = query.run(&hw).unwrap();
//! assert_eq!(run.agg, reference_plan(query.plan(), query.inputs()));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dag;
pub mod exec;
pub mod footprint;
pub mod oracle;
pub mod query;
pub mod tpch;

pub use dag::{EmitMap, Plan, PlanError, PlanNode, Predicate};
pub use exec::{execute, record_plan, NodeOutcome, PlanConfig, PlanRun};
pub use footprint::{estimate_cardinalities, plan_footprint, Footprint};
pub use oracle::reference_plan;
pub use query::PlanQuery;
pub use tpch::{plan_for, tpch_query};
