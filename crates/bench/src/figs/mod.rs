//! One module per reproduced table/figure of the paper's evaluation,
//! plus the serving sweeps; each declares its committed `SWEEP`.

pub mod ablations;
pub mod fig04;
pub mod fig06;
pub mod fig07;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod fig_elastic;
pub mod fig_serve;
pub mod fig_skew;
pub mod fig_tpch;
pub mod table1;

use crate::sweep::Declared;

/// The paper's default workload sizes in modeled million tuples.
pub const PAPER_WORKLOADS: [u64; 3] = [128, 512, 2048];

/// The Fig 13 / Fig 1 scaling axis in modeled million tuples.
pub const SCALING_AXIS: [u64; 8] = [128, 256, 512, 640, 896, 1024, 1536, 2048];

/// Every declared sweep in run order: the paper's figures, Table 1 and
/// the ablations, then the serving sweeps. Fig 1 is not a sweep of its
/// own: it is the `cpu_p9`, `npj_perfect` and `triton_perfect` columns
/// of `fig13`.
pub const SWEEPS: [&dyn Declared; 21] = [
    &fig04::SWEEP,
    &fig06::SWEEP,
    &fig07::SWEEP,
    &fig13::SWEEP,
    &fig14::SWEEP,
    &fig15::SWEEP,
    &fig16::SWEEP,
    &fig17::SWEEP,
    &fig18::SWEEP,
    &fig19::SWEEP,
    &fig20::SWEEP,
    &fig21::SWEEP,
    &fig22::SWEEP,
    &fig23::SWEEP,
    &fig24::SWEEP,
    &table1::SWEEP,
    &ablations::SWEEP,
    &fig_skew::SWEEP,
    &fig_tpch::SWEEP,
    &fig_elastic::SWEEP,
    &fig_serve::SWEEP,
];
