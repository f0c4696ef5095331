//! One module per reproduced table/figure of the paper's evaluation.

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

/// The paper's default workload sizes in modeled million tuples.
pub const PAPER_WORKLOADS: [u64; 3] = [128, 512, 2048];

/// The Fig 13 / Fig 1 scaling axis in modeled million tuples.
pub const SCALING_AXIS: [u64; 8] = [128, 256, 512, 640, 896, 1024, 1536, 2048];
