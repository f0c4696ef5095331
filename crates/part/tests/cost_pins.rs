//! Golden cost pins: every charged byte, TLB lookup, and instruction of
//! the four GPU partitioners and of the GPU prefix sum, plus the
//! partitioned output columns, pinned as digests.
//!
//! The partitioners' host-side emulation may be restructured freely, but
//! the simulated kernel it prices must not move. Each case digests
//! `format!("{:?}", cost)` (all integer counters, so the rendering is
//! exact) and the output columns with FNV-1a. A mismatch prints the whole
//! table of actual digests.

use triton_datagen::{Workload, WorkloadSpec};
use triton_hw::HwConfig;
use triton_mem::{HybridLayout, InterleavePattern};
use triton_part::{
    compute_histogram, gpu_prefix_sum, make_partitioner, Algorithm, PassConfig, Span,
};

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn words(cols: &[&[u64]]) -> u64 {
    fnv(cols
        .iter()
        .flat_map(|c| c.iter().flat_map(|w| w.to_le_bytes())))
}

fn hw() -> HwConfig {
    HwConfig::ac922().scaled(4096)
}

/// 327 680 tuples: enough for two thread blocks at every pinned shape,
/// so block-end drains and cross-block buffer state are covered.
fn workload() -> Workload {
    WorkloadSpec::paper_default(1280, 4096).generate()
}

/// Array placements: all-CPU, all-GPU, and a hybrid array with 22% of
/// its pages in GPU memory (the join-spill pass-1 output shape).
fn placed(kind: &str, len: u64, hw: &HwConfig) -> Span {
    match kind {
        "cpu" => Span::cpu(1 << 40),
        "gpu" => Span::gpu(1 << 41),
        _ => Span::hybrid(HybridLayout::new(
            1 << 42,
            len,
            hw.tlb.page_size.0,
            InterleavePattern::from_fraction(0.22),
        )),
    }
}

/// Pass shapes: `(label, radix_bits, skip_bits, input)`. The second pass
/// reads GPU-resident input, as in the join.
fn shapes() -> [(&'static str, u32, u32, Span); 3] {
    [
        ("f16", 4, 0, Span::cpu(0)),
        ("f1024", 10, 0, Span::cpu(0)),
        ("pass2", 6, 10, Span::gpu(1 << 43)),
    ]
}

const OUTPUTS: [&str; 3] = ["cpu", "gpu", "hybrid"];

/// `(case, cost digest, output digest)`.
const PARTITION_PINS: &[(&str, u64, u64)] = &[
    ("Standard/cpu/f16", 0xcf942df97ea5de05, 0x39aa9e6abd28da2c),
    ("Standard/gpu/f16", 0x0878f39ae48fb324, 0x39aa9e6abd28da2c),
    (
        "Standard/hybrid/f16",
        0x6248793a8341c7f1,
        0x39aa9e6abd28da2c,
    ),
    ("Standard/cpu/f1024", 0xe7f71e0ba10a157c, 0xec856873d98d1cae),
    ("Standard/gpu/f1024", 0xd8642a54460a9fa6, 0xec856873d98d1cae),
    (
        "Standard/hybrid/f1024",
        0xa3a6600f10c9c588,
        0xec856873d98d1cae,
    ),
    ("Standard/cpu/pass2", 0x633747934e87c5aa, 0x44c9c0ff8bd934b4),
    ("Standard/gpu/pass2", 0x1932d26ff079f50f, 0x44c9c0ff8bd934b4),
    (
        "Standard/hybrid/pass2",
        0x2e4a287a869251a6,
        0x44c9c0ff8bd934b4,
    ),
    ("Linear/cpu/f16", 0x7d56b1bf5393fef1, 0x39aa9e6abd28da2c),
    ("Linear/gpu/f16", 0xc7e56540d796ef8c, 0x39aa9e6abd28da2c),
    ("Linear/hybrid/f16", 0x610f1bd94f0829b3, 0x39aa9e6abd28da2c),
    ("Linear/cpu/f1024", 0x310839091c73b137, 0xec856873d98d1cae),
    ("Linear/gpu/f1024", 0x71ba682b9fcc4c6c, 0xec856873d98d1cae),
    (
        "Linear/hybrid/f1024",
        0x062a4b4403ff789d,
        0xec856873d98d1cae,
    ),
    ("Linear/cpu/pass2", 0x517ae9811740b2a5, 0x44c9c0ff8bd934b4),
    ("Linear/gpu/pass2", 0x32bdaac4b18afb99, 0x44c9c0ff8bd934b4),
    (
        "Linear/hybrid/pass2",
        0x1d30fbfe71193df7,
        0x44c9c0ff8bd934b4,
    ),
    ("Shared/cpu/f16", 0x92038464aa70e3fd, 0x39aa9e6abd28da2c),
    ("Shared/gpu/f16", 0x4845e9e91c482404, 0x39aa9e6abd28da2c),
    ("Shared/hybrid/f16", 0xf111c721b29b6bc5, 0x39aa9e6abd28da2c),
    ("Shared/cpu/f1024", 0xa38eae0ff8ff39d8, 0xec856873d98d1cae),
    ("Shared/gpu/f1024", 0x2fc02f3d4a9bf358, 0xec856873d98d1cae),
    (
        "Shared/hybrid/f1024",
        0xa14d7c2df3bac739,
        0xec856873d98d1cae,
    ),
    ("Shared/cpu/pass2", 0xa5384fb9d3bc1f3c, 0x44c9c0ff8bd934b4),
    ("Shared/gpu/pass2", 0x2cdf5511209b5b83, 0x44c9c0ff8bd934b4),
    (
        "Shared/hybrid/pass2",
        0x56f21b122e5a7a02,
        0x44c9c0ff8bd934b4,
    ),
    (
        "Hierarchical/cpu/f16",
        0x92501d9e784d9a10,
        0x39aa9e6abd28da2c,
    ),
    (
        "Hierarchical/gpu/f16",
        0x7a0ce27264337ab9,
        0x39aa9e6abd28da2c,
    ),
    (
        "Hierarchical/hybrid/f16",
        0x99975d3488f123a6,
        0x39aa9e6abd28da2c,
    ),
    (
        "Hierarchical/cpu/f1024",
        0x8d90f97677f2f16b,
        0xec856873d98d1cae,
    ),
    (
        "Hierarchical/gpu/f1024",
        0x4b6c7d0a2953c1be,
        0xec856873d98d1cae,
    ),
    (
        "Hierarchical/hybrid/f1024",
        0xcd57dcd2fbb33aff,
        0xec856873d98d1cae,
    ),
    (
        "Hierarchical/cpu/pass2",
        0x66a76109459b3cb6,
        0x44c9c0ff8bd934b4,
    ),
    (
        "Hierarchical/gpu/pass2",
        0x8b70ca3c1da16683,
        0x44c9c0ff8bd934b4,
    ),
    (
        "Hierarchical/hybrid/pass2",
        0xcaaec47b301ba774,
        0x44c9c0ff8bd934b4,
    ),
];

/// `(case, cost digest, histogram digest)`. The cost rendering includes
/// the kernel's TLB statistics.
const PREFIX_SUM_PINS: &[(&str, u64, u64)] = &[
    ("cpu/f16/copy=false", 0x27190d56533b6476, 0xffbab2a4bccf1465),
    ("cpu/f16/copy=true", 0x054522db12dad58b, 0xffbab2a4bccf1465),
    ("gpu/f16/copy=false", 0x3a415a47c0c24b0e, 0xffbab2a4bccf1465),
    ("gpu/f16/copy=true", 0x91a868477dba3152, 0xffbab2a4bccf1465),
    (
        "hybrid/f16/copy=false",
        0x7f9e616734b4f13f,
        0xffbab2a4bccf1465,
    ),
    (
        "hybrid/f16/copy=true",
        0x258d8bee985e5c78,
        0xffbab2a4bccf1465,
    ),
    (
        "cpu/f1024/copy=false",
        0x340d1fe5a1265769,
        0xe55d579385f52eef,
    ),
    (
        "cpu/f1024/copy=true",
        0x1e9881d655e124ce,
        0xe55d579385f52eef,
    ),
    (
        "gpu/f1024/copy=false",
        0xfb670c05eb1fe921,
        0xe55d579385f52eef,
    ),
    (
        "gpu/f1024/copy=true",
        0xabd6d5d54a916eef,
        0xe55d579385f52eef,
    ),
    (
        "hybrid/f1024/copy=false",
        0xa6e758b318b142f4,
        0xe55d579385f52eef,
    ),
    (
        "hybrid/f1024/copy=true",
        0xe01d992a22351f71,
        0xe55d579385f52eef,
    ),
    (
        "cpu/pass2/copy=false",
        0xc85781620ea8130e,
        0xac882ab04788ba7d,
    ),
    (
        "cpu/pass2/copy=true",
        0xe63841295a167f07,
        0xac882ab04788ba7d,
    ),
    (
        "gpu/pass2/copy=false",
        0x9bfc45dc24119bf2,
        0xac882ab04788ba7d,
    ),
    (
        "gpu/pass2/copy=true",
        0x437610d3821118d2,
        0xac882ab04788ba7d,
    ),
    (
        "hybrid/pass2/copy=false",
        0x44aac21b50ed8ecf,
        0xac882ab04788ba7d,
    ),
    (
        "hybrid/pass2/copy=true",
        0xa537bb056fcfd85c,
        0xac882ab04788ba7d,
    ),
];

fn check(kind: &str, actual: Vec<(String, u64, u64)>, pins: &[(&str, u64, u64)]) {
    let expected: Vec<(String, u64, u64)> = pins
        .iter()
        .map(|&(c, a, b)| (c.to_string(), a, b))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(c, a, b)| format!("    (\"{c}\", {a:#018x}, {b:#018x}),\n"))
            .collect();
        panic!("{kind} pins moved; actual table:\n{table}");
    }
}

#[test]
fn partitioner_costs_and_outputs_are_pinned() {
    let hw = hw();
    let w = workload();
    let len = w.r.len() as u64 * 16;
    let mut actual = Vec::new();
    for alg in Algorithm::all() {
        let part = make_partitioner(alg);
        for (shape, bits, skip, input) in shapes() {
            let pass = PassConfig::new(bits, skip);
            let hist = compute_histogram(&w.r.keys, 1, bits, skip);
            for kind in OUTPUTS {
                let out = placed(kind, len, &hw);
                let (p, cost) =
                    part.partition(&w.r.keys, &w.r.rids, &hist, &input, &out, &pass, &hw);
                let offsets: Vec<u64> = p.offsets.iter().map(|&o| o as u64).collect();
                actual.push((
                    format!("{}/{kind}/{shape}", alg.name()),
                    fnv(format!("{cost:?}").into_bytes()),
                    words(&[&p.keys, &p.rids, &offsets]),
                ));
            }
        }
    }
    check("partitioner", actual, PARTITION_PINS);
}

#[test]
fn prefix_sum_costs_and_histograms_are_pinned() {
    let hw = hw();
    let w = workload();
    let len = w.r.len() as u64 * 16;
    let mut actual = Vec::new();
    for (shape, bits, skip, _) in shapes() {
        let pass = PassConfig::new(bits, skip);
        for kind in OUTPUTS {
            let input = placed(kind, len, &hw);
            for copy in [false, true] {
                let (hist, cost) = gpu_prefix_sum(&w.r.keys, &input, &pass, &hw, copy);
                let offsets: Vec<u64> = hist.offsets.iter().map(|&o| o as u64).collect();
                actual.push((
                    format!("{kind}/{shape}/copy={copy}"),
                    fnv(format!("{cost:?}").into_bytes()),
                    words(&[&hist.totals, &offsets]),
                ));
            }
        }
    }
    check("prefix-sum", actual, PREFIX_SUM_PINS);
}
