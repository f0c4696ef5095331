//! # triton-datagen
//!
//! Workload generation for the Triton-join reproduction, following the
//! paper's Section 6.1: columnar relations of 16-byte `<key, record-id>`
//! tuples, R carrying shuffled unique primary keys and S uniform (or
//! Zipf-skewed) foreign keys; build-to-probe ratio and wide-tuple
//! variants; TPC-H-shaped Q3/Q9 relation sets; the multiply-shift
//! hash family; and the full-period LCG driving the random-access
//! microbenchmarks.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod distributions;
pub mod hash;
pub mod lcg;
pub mod relation;
pub mod rng;
pub mod tpch;
pub mod workload;

pub use distributions::Zipf;
pub use hash::{multiply_shift, radix, table_slot};
pub use lcg::Lcg;
pub use relation::{Column, Relation, KEY_BYTES, PAYLOAD_BYTES, TUPLE_BYTES};
pub use rng::Rng;
pub use tpch::{TpchQuery, TpchSpec, TpchWorkload};
pub use workload::{Workload, WorkloadSpec, M};
