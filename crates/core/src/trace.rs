//! Bridges join reports into `triton-trace` spans.
//!
//! The serving runtime (`triton-exec`) records one trace track group per
//! query; this module knows how to unfold a [`JoinReport`] onto those
//! tracks: the merged per-kernel phases as a sequential span chain, and —
//! when the operator ran with concurrent kernels — the Section 5.2
//! SM-half overlap as two parallel lanes.
//!
//! Attribute keys follow the workspace convention: `snake_case`, with the
//! unit as a suffix (`_ns`, `_bytes`); dimensionless counts carry no
//! suffix. Phase names are normalised with [`phase_key`] wherever they
//! become keys (rollups), and kept verbatim where they become span names
//! (so Perfetto shows the paper's kernel labels).

use std::borrow::Cow;

use crate::report::{JoinReport, OverlapLanes, PhaseReport, PlacementReport};
use triton_hw::HwConfig;
use triton_trace::{Attr, EventKind, Trace, TraceEvent};

/// Normalise a phase name into a rollup key: lowercase, with every run of
/// non-alphanumeric characters collapsed to a single `_` ("PS 1" →
/// `ps_1`, "Part 2" → `part_2`).
pub fn phase_key(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.extend(c.to_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// Bytes a phase moved, for rollups: interconnect payload plus GPU memory
/// traffic. CPU phases carry no cost model and report zero.
pub fn phase_bytes(p: &PhaseReport) -> u64 {
    match &p.cost {
        Some(c) => {
            let link = c.link.payload();
            let mem = c.gpu_mem.total();
            (link + mem).0
        }
        None => 0,
    }
}

/// Join phase-progress counter increments for a finished report: one
/// `(phase_key, time_ns, bytes)` triple per phase, in report order.
///
/// This is the bridge from a [`JoinReport`] to time-series telemetry
/// counters (`phase.<op>.<key>.count/.time_ns/.bytes`): times are
/// truncated to integer nanoseconds at this boundary so everything
/// downstream stays in integer arithmetic, and bytes reuse the rollup
/// convention of [`phase_bytes`].
pub fn phase_progress(report: &JoinReport) -> Vec<(String, u64, u64)> {
    report
        .phases
        .iter()
        .map(|p| {
            let time_ns = p.time.0;
            let t = if time_ns.is_finite() && time_ns > 0.0 {
                time_ns as u64
            } else {
                0
            };
            (phase_key(&p.name), t, phase_bytes(p))
        })
        .collect()
}

/// Record a report's phases as a sequential span chain on `(pid, tid)`
/// starting at `t0_ns`, with every duration scaled by `stretch` (so the
/// chain can be stretched to cover exactly the query's scheduled
/// `[start, finish]` window even though isolated phase times ignore
/// pipeline overlap). Each span carries `isolated_time_ns` plus the full
/// kernel cost attributes for GPU phases. Returns the timestamp where the
/// chain ended.
pub fn record_report(
    trace: &mut Trace,
    pid: u64,
    tid: u64,
    t0_ns: f64,
    stretch: f64,
    report: &JoinReport,
    hw: &HwConfig,
) -> f64 {
    let mut ts = t0_ns;
    for p in &report.phases {
        let dur = (p.time.0 * stretch).max(0.0);
        let ev = trace.span(pid, tid, p.name.clone(), ts, dur);
        let isolated = Attr::f64("isolated_time_ns", p.time.0);
        match &p.cost {
            Some(cost) => {
                let attrs = cost.trace_attrs(hw);
                ev.attrs.reserve_exact(1 + attrs.len());
                ev.attr(isolated).attrs(attrs);
            }
            None => {
                ev.attr(isolated);
            }
        }
        ts += dur;
    }
    ts
}

/// One pair of the overlap pipeline, as [`record_overlap`] keeps it
/// until the trace is read: both spans' placement on the clock, the
/// pair's schedule position and its cache decision (`part`, `cached`,
/// `pair_gpu_bytes`) when the report carries one.
struct LaneRow {
    a_ts: f64,
    a_dur: f64,
    b_ts: f64,
    b_dur: f64,
    sched_pos: u64,
    placement: Option<(u64, bool, u64)>,
}

/// Record the Section 5.2 concurrent-kernel schedule as two lanes:
/// per-pair second-pass spans (`pass2 p<i>`) on `tid_a` and join spans
/// (`join p<i>`) on `tid_b`, at the barrier offsets of
/// [`OverlapLanes::schedule`], all relative to `t0_ns` with times scaled
/// by `scale`. This is what makes the SM-half overlap *visible* in a
/// Chrome trace: the partitioning pass of the next scheduled pair runs on
/// top of the current pair's join. When the scheduler reordered pairs
/// (skew-aware LPT), each span carries its schedule position so traces
/// stay reconcilable with submission order; `placement` adds the cache
/// decision of each pair.
///
/// The serving runtime calls this for every query it completes, so the
/// lanes are recorded as one deferred block of a compact row per pair
/// ([`Trace::defer`]) and expanded into the two spans per pair only when
/// the trace is read.
#[allow(clippy::too_many_arguments)]
pub fn record_overlap(
    trace: &mut Trace,
    pid: u64,
    tid_a: u64,
    tid_b: u64,
    t0_ns: f64,
    scale: f64,
    lanes: &OverlapLanes,
    placement: Option<&PlacementReport>,
) {
    let order = lanes.execution_order();
    let mut sched_pos = vec![0u64; order.len()];
    for (k, &lane) in order.iter().enumerate() {
        sched_pos[lane] = k as u64;
    }
    let rows: Vec<LaneRow> = lanes
        .schedule()
        .into_iter()
        .enumerate()
        .map(|(i, (a_start, b_start))| LaneRow {
            a_ts: t0_ns + a_start.0 * scale,
            a_dur: (lanes.stage_a[i].0 * scale).max(0.0),
            b_ts: t0_ns + b_start.0 * scale,
            b_dur: (lanes.stage_b[i].0 * scale).max(0.0),
            sched_pos: sched_pos[i],
            placement: placement
                .and_then(|p| p.pairs.get(i))
                .map(|p| (p.part, p.cached, p.gpu_bytes)),
        })
        .collect();
    trace.defer(2 * rows.len(), move |out: &mut Vec<TraceEvent>| {
        for (i, row) in rows.iter().enumerate() {
            let attrs = || {
                let (pair, pos) = (
                    Attr::u64("pair", i as u64),
                    Attr::u64("sched_pos", row.sched_pos),
                );
                match row.placement {
                    Some((part, cached, gpu_bytes)) => vec![
                        pair,
                        pos,
                        Attr::u64("part", part),
                        Attr::u64("cached", u64::from(cached)),
                        Attr::u64("pair_gpu_bytes", gpu_bytes),
                    ],
                    None => vec![pair, pos],
                }
            };
            let span = |tid, prefix: &str, ts_ns, dur_ns| TraceEvent {
                pid,
                tid,
                name: Cow::Owned(format!("{prefix}{i}")),
                ts_ns,
                kind: EventKind::Span { dur_ns },
                attrs: attrs(),
            };
            out.push(span(tid_a, "pass2 p", row.a_ts, row.a_dur));
            out.push(span(tid_b, "join p", row.b_ts, row.b_dur));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{JoinResult, PhaseReport};
    use triton_hw::power::Executor;
    use triton_hw::units::Ns;

    #[test]
    fn phase_key_normalises() {
        assert_eq!(phase_key("PS 1"), "ps_1");
        assert_eq!(phase_key("Part 2"), "part_2");
        assert_eq!(phase_key("Join"), "join");
        assert_eq!(phase_key("  CPU -- merge  "), "cpu_merge");
        assert_eq!(phase_key(""), "");
    }

    #[test]
    fn phase_progress_truncates_to_integer_ns() {
        let report = JoinReport {
            name: "x".into(),
            phases: vec![
                PhaseReport::cpu("PS 1", Ns(30.7)),
                PhaseReport::cpu("Join", Ns(-1.0)),
            ],
            total: Ns(29.7),
            tuples_actual: 1,
            tuples_modeled: 1,
            result: JoinResult::empty(),
            executor: Executor::Cpu,
            overlap: None,
            placement: None,
        };
        let prog = phase_progress(&report);
        assert_eq!(
            prog,
            vec![("ps_1".to_string(), 30, 0), ("join".to_string(), 0, 0)]
        );
    }

    #[test]
    fn record_report_stretches_to_window() {
        let report = JoinReport {
            name: "x".into(),
            phases: vec![
                PhaseReport::cpu("a", Ns(30.0)),
                PhaseReport::cpu("b", Ns(70.0)),
            ],
            total: Ns(100.0),
            tuples_actual: 1,
            tuples_modeled: 1,
            result: JoinResult::empty(),
            executor: Executor::Cpu,
            overlap: None,
            placement: None,
        };
        let hw = HwConfig::ac922().scaled(65536);
        let mut trace = Trace::new();
        // Stretch the 100 ns of isolated time over a 200 ns window.
        let end = record_report(&mut trace, 3, 1, 1000.0, 2.0, &report, &hw);
        assert!((end - 1200.0).abs() < 1e-9);
        assert_eq!(trace.len(), 2);
        let first = &trace.events()[0];
        assert_eq!(first.name, "a");
        assert!((first.ts_ns - 1000.0).abs() < 1e-9);
        assert!((trace.span_ns() - 1200.0).abs() < 1e-9);
    }

    /// The per-span recording `record_overlap` replaced: two heap-built
    /// events per pair, pushed one by one. The oracle for the compact
    /// block.
    #[allow(clippy::too_many_arguments)]
    fn record_overlap_per_span(
        trace: &mut Trace,
        pid: u64,
        tid_a: u64,
        tid_b: u64,
        t0_ns: f64,
        scale: f64,
        lanes: &OverlapLanes,
        placement: Option<&PlacementReport>,
    ) {
        let order = lanes.execution_order();
        let mut sched_pos = vec![0u64; order.len()];
        for (k, &lane) in order.iter().enumerate() {
            sched_pos[lane] = k as u64;
        }
        for (i, (a_start, b_start)) in lanes.schedule().into_iter().enumerate() {
            let a_dur = (lanes.stage_a[i].0 * scale).max(0.0);
            let b_dur = (lanes.stage_b[i].0 * scale).max(0.0);
            let pair_attrs = |ev: &mut TraceEvent| {
                let pair = Attr::u64("pair", i as u64);
                let pos = Attr::u64("sched_pos", sched_pos[i]);
                match placement.and_then(|p| p.pairs.get(i)) {
                    Some(p) => ev.attrs([
                        pair,
                        pos,
                        Attr::u64("part", p.part),
                        Attr::u64("cached", u64::from(p.cached)),
                        Attr::u64("pair_gpu_bytes", p.gpu_bytes),
                    ]),
                    None => ev.attrs([pair, pos]),
                };
            };
            let ev = trace.span(
                pid,
                tid_a,
                format!("pass2 p{i}"),
                t0_ns + a_start.0 * scale,
                a_dur,
            );
            pair_attrs(ev);
            let ev = trace.span(
                pid,
                tid_b,
                format!("join p{i}"),
                t0_ns + b_start.0 * scale,
                b_dur,
            );
            pair_attrs(ev);
        }
    }

    /// Record `lanes` between two other events, once per span and once
    /// as a block, and assert every read of the two traces agrees.
    fn assert_block_matches_oracle(
        lanes: &OverlapLanes,
        placement: Option<&PlacementReport>,
        scale: f64,
    ) {
        type Record =
            fn(&mut Trace, u64, u64, u64, f64, f64, &OverlapLanes, Option<&PlacementReport>);
        let build = |record: Record| {
            let mut t = Trace::new();
            t.name_process(4, "q3:t");
            t.name_thread(4, 2, "sm-half-a");
            t.name_thread(4, 3, "sm-half-b");
            t.span(4, 1, "Part 1", 50.0, 25.0);
            record(&mut t, 4, 2, 3, 75.0, scale, lanes, placement);
            t.instant(4, 0, "complete", 75.0);
            t
        };
        let oracle = build(record_overlap_per_span);
        let block = build(record_overlap);
        // Streamed export first, before any flat view exists.
        let json = triton_trace::to_chrome_json(&block);
        assert_eq!(json, triton_trace::to_chrome_json(&oracle));
        assert_eq!(block.len(), oracle.len());
        assert_eq!(block.len(), 2 + 2 * lanes.execution_order().len());
        assert_eq!(block.span_ns().to_bits(), oracle.span_ns().to_bits());
        assert_eq!(block.events(), oracle.events());
        let timeline = |t: &Trace| format!("{:?}", triton_hw::Timeline::from_trace(t, &[]));
        assert_eq!(timeline(&block), timeline(&oracle));
        assert_eq!(triton_trace::to_chrome_json(&block), json);
    }

    #[test]
    fn compact_lanes_match_the_per_span_oracle() {
        use crate::report::PairPlacement;
        use crate::{SkewPolicy, TritonJoin};
        use triton_datagen::WorkloadSpec;

        let hw = HwConfig::ac922().scaled(2048);
        // A default report, drawn without and with its placement.
        let plain =
            TritonJoin::default().run(&WorkloadSpec::paper_default(64, 2048).generate(), &hw);
        let lanes = plain.overlap.as_ref().unwrap();
        assert!(lanes.stage_a.len() > 1);
        assert_block_matches_oracle(lanes, None, 1.0);
        assert_block_matches_oracle(lanes, plain.placement.as_ref(), 0.37);

        // A skew-aware report whose LPT order is not submission order.
        let skewed = TritonJoin {
            skew: SkewPolicy::aware(),
            ..TritonJoin::default()
        }
        .run(&WorkloadSpec::skewed(64, 1.5, 2048).generate(), &hw);
        let lanes = skewed.overlap.as_ref().unwrap();
        assert!(!lanes.order.is_empty(), "LPT reordered the pairs");
        assert_block_matches_oracle(lanes, skewed.placement.as_ref(), 1.3);

        let pair = |part, gpu_bytes| PairPlacement {
            part,
            bytes: 64,
            gpu_bytes,
            cached: gpu_bytes > 0,
        };
        // A split heavy pair: more lanes than placement pairs.
        let split = OverlapLanes {
            stage_a: vec![Ns(4.0), Ns(9.0), Ns(2.0), Ns(7.0)],
            stage_b: vec![Ns(3.0), Ns(1.0), Ns(8.0), Ns(2.5)],
            order: vec![1, 3, 0, 2],
        };
        let placement = PlacementReport {
            pairs: vec![pair(0, 64), pair(1, 0)],
            ..PlacementReport::default()
        };
        assert_block_matches_oracle(&split, Some(&placement), 1.0);

        // Zero-duration and negative (clamped) lanes.
        let zero = OverlapLanes {
            stage_a: vec![Ns(0.0), Ns(5.0), Ns(-1.0)],
            stage_b: vec![Ns(0.0), Ns(0.0), Ns(2.0)],
            order: vec![],
        };
        assert_block_matches_oracle(&zero, Some(&placement), 2.0);

        // Empty lanes record nothing.
        let empty = OverlapLanes {
            stage_a: vec![],
            stage_b: vec![Ns(3.0)],
            order: vec![],
        };
        assert_block_matches_oracle(&empty, Some(&placement), 1.0);
    }

    #[test]
    fn record_overlap_draws_two_lanes() {
        let lanes = OverlapLanes {
            stage_a: vec![Ns(10.0), Ns(20.0)],
            stage_b: vec![Ns(15.0), Ns(5.0)],
            order: vec![],
        };
        let mut trace = Trace::new();
        record_overlap(&mut trace, 2, 1, 2, 100.0, 1.0, &lanes, None);
        assert_eq!(trace.len(), 4);
        // Pair 1's pass2 and pair 0's join launch together at the barrier.
        let a1 = &trace.events()[2];
        let b0 = &trace.events()[1];
        assert_eq!(a1.name, "pass2 p1");
        assert_eq!(b0.name, "join p0");
        assert!((a1.ts_ns - b0.ts_ns).abs() < 1e-9);
        assert!((a1.ts_ns - 110.0).abs() < 1e-9);
    }

    #[test]
    fn record_overlap_carries_schedule_and_placement() {
        use crate::report::{PairPlacement, PlacementReport};
        let lanes = OverlapLanes {
            stage_a: vec![Ns(10.0), Ns(1.0)],
            stage_b: vec![Ns(1.0), Ns(10.0)],
            order: vec![1, 0],
        };
        let placement = PlacementReport {
            policy: "planned".into(),
            cache_budget_bytes: 100,
            cache_hit_bytes: 60,
            spilled_bytes: 40,
            pairs: vec![
                PairPlacement {
                    part: 2,
                    bytes: 60,
                    gpu_bytes: 60,
                    cached: true,
                },
                PairPlacement {
                    part: 5,
                    bytes: 40,
                    gpu_bytes: 0,
                    cached: false,
                },
            ],
            ..PlacementReport::default()
        };
        let mut trace = Trace::new();
        record_overlap(&mut trace, 1, 1, 2, 0.0, 1.0, &lanes, Some(&placement));
        assert_eq!(trace.len(), 4);
        // Pair 1 is scheduled first: its pass2 span starts at 0.
        let a1 = trace
            .events()
            .iter()
            .find(|e| e.name == "pass2 p1")
            .unwrap();
        assert!((a1.ts_ns - 0.0).abs() < 1e-9);
        let get = |e: &triton_trace::TraceEvent, k: &str| {
            e.attrs
                .iter()
                .find_map(|a| (a.key == k).then(|| a.value.clone()))
        };
        assert_eq!(format!("{:?}", get(a1, "sched_pos").unwrap()), "U64(0)");
        let a0 = trace
            .events()
            .iter()
            .find(|e| e.name == "pass2 p0")
            .unwrap();
        assert_eq!(format!("{:?}", get(a0, "sched_pos").unwrap()), "U64(1)");
        assert_eq!(format!("{:?}", get(a0, "cached").unwrap()), "U64(1)");
        assert_eq!(format!("{:?}", get(a0, "part").unwrap()), "U64(2)");
    }
}
