//! The trace recorder: an append-only event log plus track naming.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::event::{EventKind, TraceEvent};

/// Appends a deferred block's events, in order, to the given vector;
/// see [`Trace::defer`].
type Expander = Arc<dyn Fn(&mut Vec<TraceEvent>) + Send + Sync>;

/// A run of events recorded compactly at position `at` of the pushed
/// events and expanded only when the trace is read.
#[derive(Clone)]
struct Deferred {
    at: usize,
    count: usize,
    expand: Expander,
}

impl fmt::Debug for Deferred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deferred")
            .field("at", &self.at)
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

/// An append-only trace. Events keep their recording order — the
/// simulation that produces them is deterministic, so the recorded
/// order (and every exporter built on it) is too.
///
/// A producer that emits many events per call can record them as one
/// deferred block ([`Trace::defer`]) instead: the block holds its place
/// in the recording order and is expanded only when the trace is read.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    deferred: Vec<Deferred>,
    /// Pushed and expanded events in recording order, built by the first
    /// [`Trace::events`] call after a deferred block and dropped by any
    /// later recording.
    flat: OnceLock<Vec<TraceEvent>>,
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
        self.flat.take();
        let idx = self.events.len();
        self.events.push(ev);
        &mut self.events[idx]
    }

    /// Record `count` events as one block at the current position.
    /// `expand` must append exactly `count` events; it runs each time the
    /// trace is read, so it must append the same events every time.
    pub fn defer(
        &mut self,
        count: usize,
        expand: impl Fn(&mut Vec<TraceEvent>) + Send + Sync + 'static,
    ) {
        if count == 0 {
            return;
        }
        self.flat.take();
        self.deferred.push(Deferred {
            at: self.events.len(),
            count,
            expand: Arc::new(expand),
        });
    }

    /// All events, in recording order, with deferred blocks expanded in
    /// place. A trace holding deferred blocks builds this flat view on
    /// the first call and keeps it until the next recording; readers
    /// inside this crate ([`Trace::span_ns`], the Chrome exporter) walk
    /// the blocks one at a time instead and build no copy.
    pub fn events(&self) -> &[TraceEvent] {
        if self.deferred.is_empty() {
            return &self.events;
        }
        self.flat.get_or_init(|| {
            let mut all = Vec::with_capacity(self.len());
            self.for_each_chunk(|chunk| all.extend_from_slice(chunk));
            all
        })
    }

    /// Walk the events in recording order as consecutive slices,
    /// expanding one deferred block at a time into a reused buffer, so
    /// no second copy of the whole trace is built.
    pub(crate) fn for_each_chunk(&self, mut f: impl FnMut(&[TraceEvent])) {
        if let Some(all) = self.flat.get() {
            f(all);
            return;
        }
        let mut from = 0;
        let mut block = Vec::new();
        for d in &self.deferred {
            f(&self.events[from..d.at]);
            from = d.at;
            block.clear();
            (d.expand)(&mut block);
            assert_eq!(block.len(), d.count, "a deferred block appends its count");
            f(&block);
        }
        f(&self.events[from..]);
    }

    /// Number of recorded events, deferred ones included.
    pub fn len(&self) -> usize {
        self.events.len() + self.deferred.iter().map(|d| d.count).sum::<usize>()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        let mut end = 0.0;
        self.for_each_chunk(|chunk| {
            end = chunk.iter().map(TraceEvent::end_ns).fold(end, f64::max);
        });
        end
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

    /// A deferred block of `n` spans named `prefix0..`, on tid 9.
    fn block(t: &mut Trace, prefix: &'static str, n: usize, ts_ns: f64) {
        t.defer(n, move |out: &mut Vec<TraceEvent>| {
            for i in 0..n {
                out.push(TraceEvent {
                    pid: 1,
                    tid: 9,
                    name: format!("{prefix}{i}").into(),
                    ts_ns: ts_ns + i as f64,
                    kind: EventKind::Span { dur_ns: 1.0 },
                    attrs: vec![Attr::u64("i", i as u64)],
                });
            }
        });
    }

    fn names(t: &Trace) -> Vec<String> {
        t.events().iter().map(|e| e.name.to_string()).collect()
    }

    #[test]
    fn deferred_blocks_keep_their_place_and_views_refresh() {
        let mut t = Trace::new();
        t.instant(1, 0, "first", 0.0);
        block(&mut t, "a", 2, 5.0);
        block(&mut t, "b", 1, 1.0);
        t.instant(1, 0, "second", 2.0);
        block(&mut t, "empty", 0, 99.0);
        assert_eq!(t.len(), 5);
        let expected = ["first", "a0", "a1", "b0", "second"];
        // The streaming walk (no flat view yet) and the flat view agree.
        let mut walked = Vec::new();
        t.for_each_chunk(|c| walked.extend(c.iter().map(|e| e.name.to_string())));
        assert_eq!(walked, expected);
        assert!((t.span_ns() - 7.0).abs() < 1e-12);
        assert_eq!(names(&t), expected);
        assert_eq!(t.events()[2].attrs, [Attr::u64("i", 1)]);
        // A later push lands after the blocks and drops the flat view.
        t.span(1, 0, "third", 20.0, 5.0);
        assert_eq!(t.len(), 6);
        assert_eq!(names(&t)[5], "third");
        block(&mut t, "c", 1, 3.0);
        assert_eq!(t.len(), 7);
        assert_eq!(
            names(&t),
            ["first", "a0", "a1", "b0", "second", "third", "c0"]
        );
        assert!((t.span_ns() - 25.0).abs() < 1e-12);
        // Clones read the same events.
        assert_eq!(t.clone().events(), t.events());
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
