//! Chrome `trace_event` JSON export and shape validation.
//!
//! The emitted file is the "JSON array format" that `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev) load directly: one metadata
//! event per named track (so queries appear as labeled rows), then every
//! recorded event as a complete span (`ph: "X"`) or a thread-scoped
//! instant (`ph: "i"`). Timestamps are microseconds per the format spec;
//! the simulated-nanosecond source values divide by 1000 exactly once,
//! here.

use crate::event::{AttrValue, EventKind, TraceEvent};
use crate::json::{push_f64, push_str_lit};
use crate::recorder::Trace;

fn push_attrs(out: &mut String, ev: &TraceEvent) {
    out.push('{');
    for (i, a) in ev.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_lit(out, a.key);
        out.push(':');
        match &a.value {
            AttrValue::U64(v) => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            AttrValue::I64(v) => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            AttrValue::F64(v) => push_f64(out, *v),
            AttrValue::Str(v) => push_str_lit(out, v),
            AttrValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }
    out.push('}');
}

fn push_meta(out: &mut String, kind: &str, pid: u64, tid: u64, label: &str) {
    let _ = std::fmt::Write::write_fmt(
        out,
        format_args!("{{\"name\":\"{kind}\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"),
    );
    push_str_lit(out, label);
    out.push_str("}},\n");
}

/// Encode one event as a line of the array, with a trailing comma
/// unless it is the last event.
fn push_event(out: &mut String, ev: &TraceEvent, comma: bool) {
    out.push('{');
    out.push_str("\"name\":");
    push_str_lit(out, &ev.name);
    match ev.kind {
        EventKind::Span { dur_ns } => {
            out.push_str(",\"ph\":\"X\",\"ts\":");
            push_f64(out, ev.ts_ns / 1e3);
            out.push_str(",\"dur\":");
            push_f64(out, dur_ns / 1e3);
        }
        // triton-lint: allow(d2) -- matches the Chrome instant variant, not std::time::Instant
        EventKind::Instant => {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
            push_f64(out, ev.ts_ns / 1e3);
        }
        EventKind::Counter => {
            out.push_str(",\"ph\":\"C\",\"ts\":");
            push_f64(out, ev.ts_ns / 1e3);
        }
    }
    let _ = std::fmt::Write::write_fmt(
        out,
        format_args!(",\"pid\":{},\"tid\":{},\"args\":", ev.pid, ev.tid),
    );
    push_attrs(out, ev);
    out.push('}');
    if comma {
        out.push(',');
    }
    out.push('\n');
}

/// Encode a [`Trace`] as Chrome `trace_event` JSON. Deterministic:
/// equal traces produce byte-identical output (track metadata is sorted
/// by id; events keep their recording order). Deferred blocks are
/// expanded one at a time as they are written, never into a full copy
/// of the trace.
#[must_use]
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 + trace.len() * 96);
    out.push_str("[\n");
    for (pid, name) in trace.processes() {
        push_meta(&mut out, "process_name", pid, 0, name);
    }
    for (pid, tid, name) in trace.threads() {
        push_meta(&mut out, "thread_name", pid, tid, name);
    }
    let total = trace.len();
    let mut written = 0;
    trace.for_each_chunk(|chunk| {
        for ev in chunk {
            written += 1;
            push_event(&mut out, ev, written < total);
        }
    });
    out.push_str("]\n");
    out
}

/// Check that `json` is a Chrome `trace_event` array whose every event
/// object carries the required keys (`name`, `ph`, `ts`, `pid`, `tid`).
/// Returns the event count (metadata events included). This is a shape
/// check against the trace_event contract, not a full JSON parser — the
/// encoder above is the only producer, and its output is line-oriented.
pub fn validate_chrome(json: &str) -> Result<usize, String> {
    let body = json.trim();
    if !body.starts_with('[') || !body.ends_with(']') {
        return Err("not a JSON array".to_string());
    }
    let mut events = 0usize;
    let mut depth = 0u32;
    let mut in_str = false;
    let mut escaped = false;
    let mut obj_start = 0usize;
    for (i, c) in body.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    obj_start = i;
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    let obj = &body[obj_start..=i];
                    for key in ["\"name\":", "\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
                        if !obj.contains(key) {
                            return Err(format!("event {events} is missing {key}"));
                        }
                    }
                    // A counter sample with no series is invisible to
                    // Perfetto: require at least one args entry.
                    if obj.contains("\"ph\":\"C\"")
                        && (!obj.contains("\"args\":{") || obj.contains("\"args\":{}"))
                    {
                        return Err(format!("counter event {events} has no args series"));
                    }
                    events += 1;
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("unbalanced braces or unterminated string".to_string());
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Attr;
    use std::borrow::Cow;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.name_process(1, "q0:dash");
        t.name_thread(1, 0, "lifecycle");
        t.span(1, 0, "part_1", 1000.0, 500.0)
            .attr(Attr::u64("bytes_moved_link", 4096))
            .attr(Attr::str("operator", "triton"))
            .attr(Attr::bool("cache_hit", true));
        t.instant(1, 0, "admit", 1000.0)
            .attr(Attr::f64("backoff_ns", 0.5));
        t
    }

    #[test]
    fn export_has_required_keys_and_validates() {
        let json = to_chrome_json(&sample());
        for key in ["\"ph\"", "\"ts\"", "\"pid\"", "\"tid\"", "\"name\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // 2 events + 2 metadata rows.
        assert_eq!(validate_chrome(&json), Ok(4));
        // Timestamps are microseconds: 1000 ns -> 1 us.
        assert!(json.contains("\"ts\":1,"), "{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"cache_hit\":true"));
    }

    #[test]
    fn counter_events_export_as_ph_c_and_validate() {
        let mut t = Trace::new();
        t.name_thread(0, 2, "gauges");
        t.counter(0, 2, "gpu_mem", 2000.0)
            .attr(Attr::u64("used_bytes", 1 << 20))
            .attr(Attr::u64("fragmentation_bytes", 4096));
        let json = to_chrome_json(&t);
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        // Timestamps are microseconds: 2000 ns -> 2 us.
        assert!(json.contains("\"ph\":\"C\",\"ts\":2,"), "{json}");
        assert!(json.contains("\"used_bytes\":1048576"), "{json}");
        assert_eq!(validate_chrome(&json), Ok(2));
    }

    #[test]
    fn validation_rejects_counter_without_series() {
        let mut t = Trace::new();
        t.counter(0, 2, "empty_gauge", 0.0);
        let json = to_chrome_json(&t);
        let err = validate_chrome(&json).unwrap_err();
        assert!(err.contains("no args series"), "{err}");
    }

    #[test]
    fn borrowed_and_owned_names_export_identically() {
        let build = |name: Cow<'static, str>| {
            let mut t = Trace::new();
            t.span(1, 2, name, 10.0, 5.0)
                .attr(Attr::u64("pair", 3))
                .attr(Attr::str("operator", "triton"));
            t
        };
        let borrowed = build(Cow::Borrowed("join p3"));
        let owned = build(Cow::Owned(format!("join p{}", 3)));
        assert!(matches!(borrowed.events()[0].name, Cow::Borrowed(_)));
        assert!(matches!(owned.events()[0].name, Cow::Owned(_)));
        assert_eq!(borrowed.events(), owned.events());
        assert_eq!(to_chrome_json(&borrowed), to_chrome_json(&owned));
    }

    #[test]
    fn deferred_blocks_export_like_pushed_events() {
        let spans = |at: f64| {
            (0..3u64)
                .map(|i| TraceEvent {
                    pid: 1,
                    tid: 2,
                    name: Cow::Owned(format!("s{i}")),
                    ts_ns: at + i as f64,
                    kind: EventKind::Span { dur_ns: 0.5 },
                    attrs: vec![Attr::u64("pair", i)],
                })
                .collect::<Vec<_>>()
        };
        let mut pushed = sample();
        let mut deferred = sample();
        for at in [10.0, 20.0] {
            for ev in spans(at) {
                pushed.push(ev);
            }
            deferred.defer(3, move |out| out.extend(spans(at)));
        }
        pushed.instant(1, 0, "tail", 30.0);
        deferred.instant(1, 0, "tail", 30.0);
        let json = to_chrome_json(&deferred);
        assert_eq!(json, to_chrome_json(&pushed));
        assert_eq!(validate_chrome(&json), Ok(11));
        // Reading the flat view first does not change the bytes.
        assert_eq!(deferred.events(), pushed.events());
        assert_eq!(to_chrome_json(&deferred), json);
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(to_chrome_json(&sample()), to_chrome_json(&sample()));
    }

    #[test]
    fn validation_rejects_malformed_input() {
        assert!(validate_chrome("{}").is_err());
        assert!(validate_chrome("[{\"ph\":\"X\"}]").is_err());
        assert!(validate_chrome("[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,").is_err());
        assert_eq!(validate_chrome("[]"), Ok(0));
    }

    #[test]
    fn escaping_survives_validation() {
        let mut t = Trace::new();
        t.instant(1, 0, "weird \"name\" with { braces }", 0.0);
        let json = to_chrome_json(&t);
        assert_eq!(validate_chrome(&json), Ok(1));
    }
}
