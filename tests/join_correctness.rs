//! Cross-crate integration tests: every join operator must produce the
//! exact reference result on every workload shape, across hardware
//! scales, cache budgets, and algorithm combinations.

use triton_core::{
    reference_join, CpuPartitionedJoin, CpuRadixJoin, HashScheme, JoinReport, NoPartitioningJoin,
    TritonJoin,
};
use triton_datagen::{Workload, WorkloadSpec};
use triton_hw::units::Bytes;
use triton_hw::HwConfig;
use triton_part::Algorithm;

type Operator = Box<dyn Fn(&Workload, &HwConfig) -> JoinReport>;

fn operators() -> Vec<(&'static str, Operator)> {
    vec![
        (
            "triton-default",
            Box::new(|w: &Workload, hw: &HwConfig| TritonJoin::default().run(w, hw)),
        ),
        (
            "triton-no-cache-gpu-ps",
            Box::new(|w, hw| {
                TritonJoin {
                    caching_enabled: false,
                    gpu_prefix_sum: true,
                    ..TritonJoin::default()
                }
                .run(w, hw)
            }),
        ),
        (
            "triton-materializing",
            Box::new(|w, hw| {
                TritonJoin {
                    materialize: true,
                    scheme: HashScheme::Perfect,
                    ..TritonJoin::default()
                }
                .run(w, hw)
            }),
        ),
        (
            "npj-linear-probing",
            Box::new(|w, hw| NoPartitioningJoin::linear_probing().run(w, hw)),
        ),
        (
            "npj-perfect",
            Box::new(|w, hw| NoPartitioningJoin::perfect().run(w, hw)),
        ),
        (
            "cpu-radix-p9",
            Box::new(|w, hw| CpuRadixJoin::power9(HashScheme::BucketChaining).run(w, hw)),
        ),
        (
            "cpu-radix-xeon",
            Box::new(|w, hw| CpuRadixJoin::xeon(HashScheme::Perfect).run(w, hw)),
        ),
        (
            "cpu-partitioned",
            Box::new(|w, hw| CpuPartitionedJoin::default().run(w, hw)),
        ),
    ]
}

fn check_all(w: &Workload, hw: &HwConfig) {
    let expect = reference_join(w);
    for (name, run) in operators() {
        let rep = run(w, hw);
        assert_eq!(rep.result, expect, "{name} diverged from the reference");
        assert!(rep.total.0 > 0.0, "{name}: zero modeled time");
        assert_eq!(rep.tuples_actual, w.total_tuples());
    }
}

#[test]
fn default_workload_all_operators() {
    let hw = HwConfig::ac922().scaled(2048);
    let w = WorkloadSpec::paper_default(16, 512).generate();
    check_all(&w, &hw);
}

#[test]
fn skewed_ratio_workloads() {
    let hw = HwConfig::ac922().scaled(2048);
    for ratio in [2u64, 8, 32] {
        let w = WorkloadSpec::with_ratio(16, ratio, 512).generate();
        check_all(&w, &hw);
    }
}

#[test]
fn zipf_exactness_per_skew_mechanism() {
    use triton_core::{SkewMechanisms, SkewPolicy};
    let hw = HwConfig::ac922().scaled(2048);
    // Every skew mechanism — alone and combined — must leave results
    // byte-identical to the reference at every skew level.
    let mech = |hot_cache, lpt, split_heavy| SkewMechanisms {
        hot_cache,
        lpt,
        split_heavy,
    };
    let policies = [
        ("off", SkewPolicy::Off),
        ("hot_cache", SkewPolicy::Aware(mech(true, false, false))),
        ("lpt", SkewPolicy::Aware(mech(false, true, false))),
        ("split_heavy", SkewPolicy::Aware(mech(false, false, true))),
        ("combined", SkewPolicy::aware()),
    ];
    for theta in [0.5, 1.0, 1.5, 1.75] {
        let w = WorkloadSpec::skewed(256, theta, 512).generate();
        let expect = reference_join(&w);
        for (name, policy) in &policies {
            let rep = TritonJoin {
                skew: *policy,
                ..TritonJoin::default()
            }
            .run(&w, &hw);
            assert_eq!(
                rep.result, expect,
                "theta {theta}, mechanism `{name}` diverged from the reference"
            );
        }
    }
}

#[test]
fn tiny_workload() {
    let hw = HwConfig::ac922().scaled(4096);
    let mut spec = WorkloadSpec::paper_default(1, 1_000_000);
    spec.r_tuples_modeled = 3_000_000; // 3 actual tuples
    spec.s_tuples_modeled = 7_000_000; // 7 actual tuples
    let w = spec.generate();
    check_all(&w, &hw);
}

#[test]
fn all_pass1_algorithms_produce_identical_results() {
    let hw = HwConfig::ac922().scaled(2048);
    let w = WorkloadSpec::paper_default(16, 512).generate();
    let expect = reference_join(&w);
    for alg in Algorithm::all() {
        let rep = TritonJoin {
            pass1: alg,
            ..TritonJoin::default()
        }
        .run(&w, &hw);
        assert_eq!(rep.result, expect, "{alg:?}");
    }
}

#[test]
fn results_invariant_across_hardware_scales() {
    // The functional result must not depend on the simulated capacities.
    let w = WorkloadSpec::paper_default(16, 512).generate();
    let expect = reference_join(&w);
    for k in [512u64, 2048, 8192] {
        let hw = HwConfig::ac922().scaled(k);
        assert_eq!(TritonJoin::default().run(&w, &hw).result, expect, "K={k}");
    }
}

#[test]
fn results_invariant_across_cache_budgets() {
    let hw = HwConfig::ac922().scaled(2048);
    let w = WorkloadSpec::paper_default(16, 512).generate();
    let expect = reference_join(&w);
    for cache in [0u64, 1 << 18, 1 << 21, u64::MAX >> 20] {
        let rep = TritonJoin {
            cache_bytes: Some(Bytes(cache)),
            ..TritonJoin::default()
        }
        .run(&w, &hw);
        assert_eq!(rep.result, expect, "cache={cache}");
    }
}

#[test]
fn wide_tuple_workloads_join_correctly() {
    let hw = HwConfig::ac922().scaled(2048);
    let mut spec = WorkloadSpec::paper_default(8, 512);
    spec.payload_cols = 16;
    let w = spec.generate();
    check_all(&w, &hw);
    for payloads in [1usize, 16] {
        for strategy in [
            triton_core::Materialization::JoinIndex,
            triton_core::Materialization::Early { payloads },
            triton_core::Materialization::Late { payloads },
        ] {
            let rep = triton_core::run_with_materialization(&w, strategy, &hw);
            assert_eq!(rep.result, reference_join(&w), "{strategy:?}");
        }
    }
}

/// Throughput is scale-invariant: the same modeled workload at different
/// capacity scale factors K yields (nearly) the same G tuples/s — the
/// property DESIGN.md's substitution argument rests on.
#[test]
fn throughput_invariant_under_capacity_scaling() {
    for m in [512u64, 2048] {
        let mut tputs = Vec::new();
        for k in [1024u64, 2048, 4096] {
            let hw = HwConfig::ac922().scaled(k);
            let w = WorkloadSpec::paper_default(m, k).generate();
            tputs.push(TritonJoin::default().run(&w, &hw).throughput_gtps());
        }
        let min = tputs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = tputs.iter().copied().fold(0.0f64, f64::max);
        assert!(
            max / min < 1.35,
            "{m} M: throughput varies {tputs:?} across K"
        );
    }
}

/// Determinism: two same-seed skew-aware runs produce byte-identical
/// results, reports, and replayed traces (schedule, placement and all).
#[test]
fn skew_aware_trace_replays_byte_identical() {
    use triton_core::{record_overlap, record_report, SkewPolicy};
    use triton_trace::{to_chrome_json, Trace};
    let hw = HwConfig::ac922().scaled(512);
    let render = || {
        let w = WorkloadSpec::skewed(512, 1.5, 512).generate();
        let rep = TritonJoin {
            skew: SkewPolicy::aware(),
            ..TritonJoin::default()
        }
        .run(&w, &hw);
        let mut trace = Trace::new();
        let end = record_report(&mut trace, 1, 1, 0.0, 1.0, &rep, &hw);
        record_overlap(
            &mut trace,
            1,
            2,
            3,
            end,
            1.0,
            rep.overlap.as_ref().unwrap(),
            rep.placement.as_ref(),
        );
        (rep.result, to_chrome_json(&trace))
    };
    let (r1, t1) = render();
    let (r2, t2) = render();
    assert_eq!(r1, r2, "same-seed results must be byte-identical");
    assert_eq!(t1, t2, "same-seed trace replay must be byte-identical");
    assert!(t1.contains("sched_pos"), "trace must carry the schedule");
    assert!(
        t1.contains("pair_gpu_bytes"),
        "trace must carry placement decisions"
    );
}
