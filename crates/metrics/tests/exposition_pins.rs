//! Golden exposition bytes: one scripted registry sequence rendered by
//! `expose_text` and `expose_json`, pinned byte for byte.
//!
//! The registry's internals may change freely (how a lookup finds its
//! cell, when a key is allocated), but what it exposes must not. The
//! script covers a repeated counter bump, a first-touch counter, a
//! zero delta (a no-op that must not create the counter), histogram
//! samples that cross a window boundary, and a gauge set to an
//! unchanged value.

use triton_metrics::MetricsRegistry;

fn scripted() -> MetricsRegistry {
    let mut r = MetricsRegistry::new(100);
    r.counter_inc("sched.completed", 5);
    r.counter_inc("sched.completed", 60);
    r.counter_add("sched.completed", 3, 150);
    r.counter_add("sched.tuples", 4096, 170);
    r.counter_add("sched.zero", 0, 20);
    r.counter_add("sched.tuples", 0, 400);
    r.observe("sched.latency_ns", 7, 10);
    r.observe("sched.latency_ns", 1_000, 99);
    r.observe("sched.latency_ns", 123_456, 100);
    r.observe("sched.latency_ns", 42, 350);
    r.observe("sched.queue_wait_ns", 0, 120);
    assert!(r.gauge_set("gpu.used_bytes", 4096, 30));
    assert!(!r.gauge_set("gpu.used_bytes", 4096, 130));
    assert!(r.gauge_set("gpu.used_bytes", 1024, 230));
    assert!(r.gauge_set("sched.running", 2, 40));
    r
}

const TEXT: &str = "\
# triton-metrics window_ns=100
counter sched.completed 5
counter sched.tuples 4096
gauge gpu.used_bytes last=1024 min=1024 max=4096 samples=3
gauge sched.running last=2 min=2 max=2 samples=1
histogram sched.latency_ns count=4 sum=124505 min=7 max=123456 p50=42 p99=122880
  bucket 7 1
  bucket 42 1
  bucket 992 1
  bucket 122880 1
histogram sched.queue_wait_ns count=1 sum=0 min=0 max=0 p50=0 p99=0
  bucket 0 1
window 0 counter sched.completed 2
window 1 counter sched.completed 3
window 1 counter sched.tuples 4096
window 0 histogram sched.latency_ns count=2 sum=1007
window 1 histogram sched.latency_ns count=1 sum=123456
window 3 histogram sched.latency_ns count=1 sum=42
window 1 histogram sched.queue_wait_ns count=1 sum=0
";

const JSON: &str = "{\"window_ns\":100,\
\"counters\":{\"sched.completed\":5,\"sched.tuples\":4096},\
\"gauges\":{\"gpu.used_bytes\":{\"last\":1024,\"min\":1024,\"max\":4096,\"samples\":3},\
\"sched.running\":{\"last\":2,\"min\":2,\"max\":2,\"samples\":1}},\
\"histograms\":{\"sched.latency_ns\":{\"count\":4,\"sum\":124505,\"min\":7,\"max\":123456,\"p50\":42,\"p99\":122880,\
\"buckets\":[[7,1],[42,1],[992,1],[122880,1]]},\
\"sched.queue_wait_ns\":{\"count\":1,\"sum\":0,\"min\":0,\"max\":0,\"p50\":0,\"p99\":0,\"buckets\":[[0,1]]}}}";

#[test]
fn exposition_bytes_are_pinned() {
    let r = scripted();
    assert_eq!(r.expose_text(), TEXT, "text exposition moved");
    assert_eq!(r.expose_json(), JSON, "JSON exposition moved");
    assert!(r.reconcile().is_ok());
}

#[test]
fn zero_deltas_never_create_a_counter() {
    let r = scripted();
    assert_eq!(r.counter_names(), vec!["sched.completed", "sched.tuples"]);
    assert!(r.counter_windows("sched.zero").is_empty());
}

#[test]
fn histogram_totals_and_windows_share_one_key_set() {
    let r = scripted();
    let text = r.expose_text();
    let mut totals: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("histogram "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    let mut windowed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_once(" histogram ").map(|(_, rest)| rest))
        .filter_map(|l| l.split(' ').next())
        .collect();
    totals.dedup();
    windowed.dedup();
    assert_eq!(totals, vec!["sched.latency_ns", "sched.queue_wait_ns"]);
    assert_eq!(totals, windowed);
    for name in totals {
        let total = r.histogram(name).map(|h| h.count());
        let from_windows: u64 = r
            .histogram_windows(name)
            .iter()
            .map(|(_, h)| h.count())
            .sum();
        assert_eq!(total, Some(from_windows), "{name}");
    }
}
