//! Golden Chrome export: one trace that exercises every part of the
//! event model, pinned as an FNV-1a digest of `to_chrome_json`.
//!
//! How events store their names and attribute keys may change freely;
//! the exported bytes may not. The trace uses every `AttrValue`
//! variant, one event of each kind, named processes and threads, a
//! computed event name, and a flight-recorder dump stamped with gauge
//! context.

use triton_trace::{to_chrome_json, validate_chrome, Attr, AttrValue, FlightRecorder, Trace};

/// FNV-1a over a string's bytes.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A signed attribute (there is no dedicated constructor).
fn i64_attr(key: &'static str, value: i64) -> Attr {
    let mut a = Attr::u64(key, 0);
    a.value = AttrValue::I64(value);
    a
}

fn pinned_trace() -> Trace {
    let mut t = Trace::new();
    t.name_process(0, "scheduler");
    t.name_process(3, format!("q{}:dash", 2));
    t.name_thread(0, 1, "flight-recorder");
    t.name_thread(0, 2, "gauges");
    t.name_thread(3, 0, "lifecycle");
    t.name_thread(3, 1, "phases");
    let mut flight = FlightRecorder::new(2);

    let ev = t
        .instant(3, 0, "enqueue", 0.0)
        .attr(Attr::str("operator", "triton"))
        .attr(Attr::u64("priority", 2))
        .clone();
    flight.record(ev);
    t.span(3, 1, "Part 1", 1_250.0, 3_333.5)
        .attr(Attr::f64("isolated_time_ns", 1_666.75))
        .attr(Attr::u64("link_payload_bytes", 1 << 30))
        .attr(i64_attr("slack_ns", -42))
        .attr(Attr::bool("cache_hit", false))
        .attr(Attr::str("note", "quote \" and \\ and\ttab"));
    let ev = t
        .span(3, 1, format!("pass2 p{}", 7), 4_583.5, 0.125)
        .attrs([Attr::u64("pair", 7), Attr::u64("sched_pos", 0)])
        .clone();
    flight.record(ev);
    t.counter(0, 2, "gpu_mem", 5_000.0)
        .attr(Attr::u64("used_bytes", 4096))
        .attr(Attr::u64("occupancy_ppm", 250_000));
    let ev = t
        .instant(3, 0, "retry", 6_000.0)
        .attr(Attr::str("cause", "kernel-fault"))
        .attr(Attr::f64("backoff_ns", 0.1 + 0.2))
        .clone();
    flight.record(ev);
    let ctx = [
        Attr::u64("gpu_used_bytes", 4096),
        Attr::u64("link_util_ppm", 750_000),
        Attr::bool("degraded", true),
    ];
    flight.dump_with_context(&mut t, 0, 1, "kernel-fault", 6_000.0, &ctx);
    t
}

const DIGEST: u64 = 0xbbe1_e0c5_df47_db6a;

#[test]
fn chrome_export_bytes_are_pinned() {
    let json = to_chrome_json(&pinned_trace());
    assert_eq!(validate_chrome(&json), Ok(14), "{json}");
    assert_eq!(
        fnv(&json),
        DIGEST,
        "Chrome export moved: actual digest {:#018x}\n{json}",
        fnv(&json)
    );
}
