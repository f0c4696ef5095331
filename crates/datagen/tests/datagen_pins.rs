//! Golden data pins: every generated column of the single-join and
//! TPC-H-shaped workloads, pinned as FNV-1a digests.
//!
//! The generators' internals (the Zipf sampler above all) may be
//! restructured freely, but the relations they emit must not move: every
//! answer, simulated number and committed sweep downstream is a function
//! of these columns. Each case digests each relation's key, rid and
//! payload columns in that order. A mismatch prints the whole table of
//! actual digests.

use triton_datagen::{Relation, TpchSpec, WorkloadSpec};

/// The skew sweep's θ axis (`BENCH_skew.json`), uniform point excluded.
const SKEW_THETAS: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75];

/// θ points of the TPC-H pins: uniform, mild, Zipf's law and heavy skew.
const TPCH_THETAS: [f64; 4] = [0.0, 0.5, 1.0, 1.5];

/// FNV-1a over a column's little-endian bytes.
fn fnv(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Digests of a relation's columns: keys, rids, then each payload column.
fn columns(r: &Relation) -> Vec<u64> {
    [&r.keys, &r.rids]
        .into_iter()
        .chain(&r.payload_cols)
        .map(|c| fnv(c))
        .collect()
}

/// `(case, column digests)` for every pinned relation.
fn cases() -> Vec<(String, Vec<u64>)> {
    let mut out = Vec::new();
    let mut join = |label: String, spec: WorkloadSpec| {
        let w = spec.generate();
        out.push((format!("{label}/R"), columns(&w.r)));
        out.push((format!("{label}/S"), columns(&w.s)));
    };
    join(
        "default/2048".into(),
        WorkloadSpec::paper_default(2048, 512),
    );
    for theta in SKEW_THETAS {
        join(
            format!("skewed/512/{theta:.2}"),
            WorkloadSpec::skewed(512, theta, 512),
        );
    }
    join(
        "skewed/256/1.00/payload2".into(),
        WorkloadSpec {
            payload_cols: 2,
            ..WorkloadSpec::skewed(256, 1.0, 512)
        },
    );
    for theta in TPCH_THETAS {
        for base in [TpchSpec::q3(1024, 512), TpchSpec::q9(1024, 512)] {
            let spec = TpchSpec {
                zipf_theta: theta,
                ..base
            };
            let w = spec.generate();
            for (name, r) in spec.query.input_names().iter().zip(&w.inputs) {
                let label = format!("{}/1024/{theta:.2}/{name}", spec.query.label());
                out.push((label, columns(r)));
            }
        }
    }
    out
}

/// `(case, [keys, rids, payload...] digests)`.
const PINS: &[(&str, &[u64])] = &[
    ("default/2048/R", &[0x2ce2f49d8afed7fb, 0x770d3f21cab1538c]),
    ("default/2048/S", &[0xe759d7f1cd7133cf, 0xc89c4542336e9bb7]),
    (
        "skewed/512/0.25/R",
        &[0x5e47cec4434cac1c, 0x0106d31b830fb2f4],
    ),
    (
        "skewed/512/0.25/S",
        &[0xab4f493387fdeeff, 0x4f5fcfe759c448af],
    ),
    (
        "skewed/512/0.50/R",
        &[0x5e47cec4434cac1c, 0x0106d31b830fb2f4],
    ),
    (
        "skewed/512/0.50/S",
        &[0x0df76aba37ebc4fc, 0x4f5fcfe759c448af],
    ),
    (
        "skewed/512/0.75/R",
        &[0x5e47cec4434cac1c, 0x0106d31b830fb2f4],
    ),
    (
        "skewed/512/0.75/S",
        &[0xb191e61c7a62ec3b, 0x4f5fcfe759c448af],
    ),
    (
        "skewed/512/1.00/R",
        &[0x5e47cec4434cac1c, 0x0106d31b830fb2f4],
    ),
    (
        "skewed/512/1.00/S",
        &[0xeb8ab24065d9de08, 0x4f5fcfe759c448af],
    ),
    (
        "skewed/512/1.25/R",
        &[0x5e47cec4434cac1c, 0x0106d31b830fb2f4],
    ),
    (
        "skewed/512/1.25/S",
        &[0x2619403aab6b45b2, 0x4f5fcfe759c448af],
    ),
    (
        "skewed/512/1.50/R",
        &[0x5e47cec4434cac1c, 0x0106d31b830fb2f4],
    ),
    (
        "skewed/512/1.50/S",
        &[0x8670b946d5399292, 0x4f5fcfe759c448af],
    ),
    (
        "skewed/512/1.75/R",
        &[0x5e47cec4434cac1c, 0x0106d31b830fb2f4],
    ),
    (
        "skewed/512/1.75/S",
        &[0xf5f476659b2372ea, 0x4f5fcfe759c448af],
    ),
    (
        "skewed/256/1.00/payload2/R",
        &[0xc9e1ae98d47dbb61, 0x2d7ce9749781f3ef],
    ),
    (
        "skewed/256/1.00/payload2/S",
        &[
            0xb7b64b9afcb9e39e,
            0xd1c29117e266a118,
            0x2aad093dcfddcf02,
            0xeb3e031a31eb1c8e,
        ],
    ),
    (
        "q3/1024/0.00/customer",
        &[0x570af7bbadf30ecd, 0x19269ecbe2014059],
    ),
    (
        "q3/1024/0.00/orders",
        &[0xae217e572f70e4b8, 0x7e77021c7f2bdced],
    ),
    (
        "q3/1024/0.00/lineitem",
        &[0x9d03f0e882b88dd3, 0xccebb97269b0ce3a],
    ),
    (
        "q9/1024/0.00/part",
        &[0xf170a80d6a41e709, 0x7f5c903b175ed222],
    ),
    (
        "q9/1024/0.00/lineitem",
        &[0xdcc8927a3e45eb0f, 0x74db227c958cbad3],
    ),
    (
        "q9/1024/0.00/orders",
        &[0x890c3588e7e69d6d, 0x14a8d2b77ef9ef4e],
    ),
    (
        "q3/1024/0.50/customer",
        &[0x570af7bbadf30ecd, 0x19269ecbe2014059],
    ),
    (
        "q3/1024/0.50/orders",
        &[0xc561bec19303770b, 0x7e77021c7f2bdced],
    ),
    (
        "q3/1024/0.50/lineitem",
        &[0xb3f847d64e52f3fa, 0xccebb97269b0ce3a],
    ),
    (
        "q9/1024/0.50/part",
        &[0xf170a80d6a41e709, 0x7f5c903b175ed222],
    ),
    (
        "q9/1024/0.50/lineitem",
        &[0x75ba8c6de8c3fc29, 0x2519bdf5ffb1b980],
    ),
    (
        "q9/1024/0.50/orders",
        &[0x890c3588e7e69d6d, 0x14a8d2b77ef9ef4e],
    ),
    (
        "q3/1024/1.00/customer",
        &[0x570af7bbadf30ecd, 0x19269ecbe2014059],
    ),
    (
        "q3/1024/1.00/orders",
        &[0x6725e897b86d6329, 0x7e77021c7f2bdced],
    ),
    (
        "q3/1024/1.00/lineitem",
        &[0x937cd9eeaaf67a04, 0xccebb97269b0ce3a],
    ),
    (
        "q9/1024/1.00/part",
        &[0xf170a80d6a41e709, 0x7f5c903b175ed222],
    ),
    (
        "q9/1024/1.00/lineitem",
        &[0xc1fa6ac548d87791, 0x0c7595d7c5cf20f4],
    ),
    (
        "q9/1024/1.00/orders",
        &[0x890c3588e7e69d6d, 0x14a8d2b77ef9ef4e],
    ),
    (
        "q3/1024/1.50/customer",
        &[0x570af7bbadf30ecd, 0x19269ecbe2014059],
    ),
    (
        "q3/1024/1.50/orders",
        &[0xfc34c569b5880346, 0x7e77021c7f2bdced],
    ),
    (
        "q3/1024/1.50/lineitem",
        &[0x49e217e57214c04b, 0xccebb97269b0ce3a],
    ),
    (
        "q9/1024/1.50/part",
        &[0xf170a80d6a41e709, 0x7f5c903b175ed222],
    ),
    (
        "q9/1024/1.50/lineitem",
        &[0x0f4b9712f316ca1b, 0x092d3a92e0517f63],
    ),
    (
        "q9/1024/1.50/orders",
        &[0x890c3588e7e69d6d, 0x14a8d2b77ef9ef4e],
    ),
];

#[test]
fn generated_columns_match_golden_digests() {
    let actual = cases();
    let expected: Vec<(String, Vec<u64>)> = PINS
        .iter()
        .map(|&(c, d)| (c.to_string(), d.to_vec()))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(c, d)| {
                let d: Vec<String> = d.iter().map(|v| format!("{v:#018x}")).collect();
                format!("    (\"{c}\", &[{}]),\n", d.join(", "))
            })
            .collect();
        panic!("datagen pins moved; actual table:\n{table}");
    }
}
