//! The trace recorder: an append-only event log plus track naming.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::event::{EventKind, TraceEvent};

/// An append-only trace. Events keep their recording order — the
/// simulation that produces them is deterministic, so the recorded
/// order (and every exporter built on it) is too.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    process_names: BTreeMap<u64, Cow<'static, str>>,
    thread_names: BTreeMap<(u64, u64), Cow<'static, str>>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Label a track group (Chrome "process"). Last writer wins.
    pub fn name_process(&mut self, pid: u64, name: impl Into<Cow<'static, str>>) {
        self.process_names.insert(pid, name.into());
    }

    /// Label one lane of a track group (Chrome "thread").
    pub fn name_thread(&mut self, pid: u64, tid: u64, name: impl Into<Cow<'static, str>>) {
        self.thread_names.insert((pid, tid), name.into());
    }

    /// Record a span and return it for attribute chaining.
    pub fn span(
        &mut self,
        pid: u64,
        tid: u64,
        name: impl Into<Cow<'static, str>>,
        ts_ns: f64,
        dur_ns: f64,
    ) -> &mut TraceEvent {
        self.push(TraceEvent {
            pid,
            tid,
            name: name.into(),
            ts_ns,
            kind: EventKind::Span { dur_ns },
            attrs: Vec::new(),
        })
    }

    /// Record an instant and return it for attribute chaining.
    pub fn instant(
        &mut self,
        pid: u64,
        tid: u64,
        name: impl Into<Cow<'static, str>>,
        ts_ns: f64,
    ) -> &mut TraceEvent {
        self.push(TraceEvent {
            pid,
            tid,
            name: name.into(),
            ts_ns,
            // triton-lint: allow(d2) -- constructs the Chrome instant variant, not std::time::Instant
            kind: EventKind::Instant,
            attrs: Vec::new(),
        })
    }

    /// Record a counter sample and return it for attribute chaining: the
    /// numeric attributes attached to it become the counter-track series
    /// Perfetto plots under `name` (Chrome `ph: "C"`).
    pub fn counter(
        &mut self,
        pid: u64,
        tid: u64,
        name: impl Into<Cow<'static, str>>,
        ts_ns: f64,
    ) -> &mut TraceEvent {
        self.push(TraceEvent {
            pid,
            tid,
            name: name.into(),
            ts_ns,
            kind: EventKind::Counter,
            attrs: Vec::new(),
        })
    }

    /// Record a prebuilt event and return it for attribute chaining.
    pub fn push(&mut self, ev: TraceEvent) -> &mut TraceEvent {
        let idx = self.events.len();
        self.events.push(ev);
        &mut self.events[idx]
    }

    /// All events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Label of a track group, if one was set.
    pub fn process_name(&self, pid: u64) -> Option<&str> {
        self.process_names.get(&pid).map(|n| &**n)
    }

    /// Label of a lane, if one was set.
    pub fn thread_name(&self, pid: u64, tid: u64) -> Option<&str> {
        self.thread_names.get(&(pid, tid)).map(|n| &**n)
    }

    /// Named track groups, ordered by pid.
    pub fn processes(&self) -> impl Iterator<Item = (u64, &str)> {
        self.process_names.iter().map(|(p, n)| (*p, &**n))
    }

    /// Named lanes, ordered by (pid, tid).
    pub fn threads(&self) -> impl Iterator<Item = (u64, u64, &str)> {
        self.thread_names.iter().map(|((p, t), n)| (*p, *t, &**n))
    }

    /// Latest end time over all events (0 for an empty trace).
    pub fn span_ns(&self) -> f64 {
        self.events
            .iter()
            .map(TraceEvent::end_ns)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Attr;

    #[test]
    fn records_in_call_order_with_attrs() {
        let mut t = Trace::new();
        t.span(1, 0, "build", 10.0, 5.0)
            .attr(Attr::u64("bytes_moved_link", 4096));
        t.instant(1, 0, "admit", 10.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].name, "build");
        assert_eq!(t.events()[0].attrs[0].key, "bytes_moved_link");
        assert_eq!(t.events()[1].name, "admit");
        assert!((t.span_ns() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn track_names_are_ordered() {
        let mut t = Trace::new();
        t.name_process(2, "q2");
        t.name_process(1, "q1");
        t.name_thread(2, 1, "sm-a");
        t.name_thread(1, 0, "life");
        let pids: Vec<u64> = t.processes().map(|(p, _)| p).collect();
        assert_eq!(pids, vec![1, 2]);
        assert_eq!(t.process_name(1), Some("q1"));
        assert_eq!(t.thread_name(2, 1), Some("sm-a"));
        assert_eq!(t.thread_name(9, 9), None);
    }
}
