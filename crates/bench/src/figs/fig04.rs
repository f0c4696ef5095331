//! Fig 4: data partitioning throughput of a CPU and a GPU for different
//! destination locations (both read the base relation from CPU memory and
//! split it into 512 partitions).
//!
//! Case (a): all resulting partitions fit into GPU memory; case (b): all
//! partitions are stored back to CPU memory. The paper's take-away, which
//! this experiment reproduces: the GPU out-partitions the CPU in *both*
//! cases, and the CPU cannot saturate the fast interconnect even at
//! alpha = 1 (Section 3.2).

use triton_datagen::{WorkloadSpec, TUPLE_BYTES};
use triton_hw::{HwConfig, LinkModel};
use triton_part::{
    cpu_partition_time, gpu_prefix_sum, make_partitioner, Algorithm, PassConfig, Span,
};

use crate::sweep::{ensure, every, gate_tests, row, Cell, Sweep};

/// Modeled relation size in M tuples (a large base relation).
pub const M_TUPLES: u64 = 1024;

/// One bar of Fig 4.
#[derive(Debug, Clone)]
pub struct Row {
    /// "CPU" or "GPU".
    pub processor: &'static str,
    /// Destination memory.
    pub dest: &'static str,
    /// Partitioning throughput in GiB/s of input data.
    pub input_gibs: f64,
}

/// Run the four bars. `m_tuples` is the modeled relation size in million
/// tuples ([`M_TUPLES`] in the committed sweep).
pub fn run(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let k = hw.scale;
    let w = WorkloadSpec::paper_default(m_tuples, k).generate();
    let n = w.r.len();
    let bytes = n as u64 * TUPLE_BYTES;
    let gib = (1u64 << 30) as f64;
    let pass = PassConfig::new(9, 0); // 512 partitions
    let input = Span::cpu(0);
    let part = make_partitioner(Algorithm::Hierarchical);

    let gpu_rate = |span: Span| {
        let (hist, ps_cost) = gpu_prefix_sum(&w.r.keys, &input, &pass, hw, false);
        let (_, cost) = part.partition(&w.r.keys, &w.r.rids, &hist, &input, &span, &pass, hw);
        let t = ps_cost.timing(hw).total + cost.timing(hw).total;
        bytes as f64 / gib / t.as_secs()
    };
    let gpu_to_gpu = gpu_rate(Span::gpu(1 << 40));
    let gpu_to_cpu = gpu_rate(Span::cpu(1 << 40));

    // CPU: destination is CPU memory either way (writing into GPU memory
    // from the CPU crosses the same link; the paper's CPU bars are nearly
    // equal). The to-GPU case additionally caps at the effective link
    // bandwidth on the write path.
    let t_cpu = cpu_partition_time(n as u64, 9, 1, hw);
    let cpu_gibs = bytes as f64 / gib / t_cpu.as_secs();
    let link_eff = LinkModel::new(&hw.link).effective_seq_bw();
    let cpu_to_gpu = cpu_gibs.min(link_eff / gib);

    vec![
        Row {
            processor: "CPU",
            dest: "GPU mem",
            input_gibs: cpu_to_gpu,
        },
        Row {
            processor: "GPU",
            dest: "GPU mem",
            input_gibs: gpu_to_gpu,
        },
        Row {
            processor: "CPU",
            dest: "CPU mem",
            input_gibs: cpu_gibs,
        },
        Row {
            processor: "GPU",
            dest: "CPU mem",
            input_gibs: gpu_to_cpu,
        },
    ]
}

/// The committed sweep, `BENCH_fig04.json`.
pub const SWEEP: Sweep<Row> = Sweep {
    name: "fig04",
    schema: "triton-bench/fig04/v1",
    header: &[("m_tuples", Cell::Int(M_TUPLES))],
    columns: &[
        ("processor", |r| Cell::Str(r.processor)),
        ("dest", |r| Cell::Str(r.dest)),
        ("input_gibs", |r| Cell::Num(r.input_gibs)),
    ],
    rows: 4,
    run: |hw| run(hw, M_TUPLES),
    gates: &[
        (
            "GPU out-partitions the CPU at both destinations",
            |_, rows| {
                for dest in ["GPU mem", "CPU mem"] {
                    let at = |p: &str| row(rows, dest, |r| r.processor == p && r.dest == dest);
                    let (cpu, gpu) = (at("CPU")?, at("GPU")?);
                    ensure(gpu.input_gibs > cpu.input_gibs, || {
                        format!("{gpu:?} vs {cpu:?}")
                    })?;
                }
                Ok(())
            },
        ),
        ("CPU partitions below 40 GiB/s", |_, rows| {
            every(rows, |r| r.processor != "CPU" || r.input_gibs < 40.0)
        }),
        ("CPU partitions below 1/1.5 of the link", |hw, rows| {
            let link = LinkModel::new(&hw.link).effective_seq_bw() / (1u64 << 30) as f64;
            every(rows, |r| r.processor != "CPU" || r.input_gibs < link / 1.5)
        }),
        ("CPU at 20-40 and GPU at 30-65 GiB/s", |_, rows| {
            every(rows, |r| match r.processor {
                "CPU" => (20.0..=40.0).contains(&r.input_gibs),
                _ => (30.0..=65.0).contains(&r.input_gibs),
            })
        }),
    ],
};

gate_tests!(1024, {
    gpu_faster_than_cpu_in_both_cases: ["GPU out-partitions the CPU at both destinations"],
    cpu_cannot_saturate_the_link: ["CPU partitions below 40 GiB/s"],
    cpu_partitioning_cannot_saturate_the_link: ["CPU partitions below 1/1.5 of the link"],
    magnitudes_match_paper: ["CPU at 20-40 and GPU at 30-65 GiB/s"],
});
