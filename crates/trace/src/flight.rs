//! The flight recorder: a bounded ring of recent events, dumped onto a
//! trace track when something goes wrong.

use std::collections::VecDeque;

use crate::event::{Attr, TraceEvent};
use crate::recorder::Trace;

/// A bounded ring buffer of recent events. Recording is O(1) and keeps
/// only the most recent `capacity` events; [`FlightRecorder::dump`]
/// replays the ring onto a trace track so a fault ships with its
/// prehistory (the admits, retries, and downgrades that preceded it).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    recorded: u64,
    dumps: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            recorded: 0,
            dumps: 0,
        }
    }

    /// Record an event, evicting the oldest once full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
        self.recorded += 1;
    }

    /// Events currently retained (oldest first).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (retained or evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Dumps performed so far.
    pub fn dumps(&self) -> u64 {
        self.dumps
    }

    /// Dump the ring onto `(pid, tid)` of `trace`: a `flight.dump`
    /// marker instant at `ts_ns` explaining why, followed by the
    /// retained events (at their original timestamps, tagged with the
    /// dump sequence number). Returns the number of events replayed.
    /// The ring keeps rolling afterwards — it is not cleared.
    pub fn dump(
        &mut self,
        trace: &mut Trace,
        pid: u64,
        tid: u64,
        reason: &str,
        ts_ns: f64,
    ) -> usize {
        self.dump_with_context(trace, pid, tid, reason, ts_ns, &[])
    }

    /// Like [`FlightRecorder::dump`], but stamping `context` attributes
    /// onto the `flight.dump` marker — the owner's latest resource
    /// snapshot (memory occupancy, link utilization, ...), so post-fault
    /// forensics show the machine state at the decision point, not just
    /// the event prehistory.
    pub fn dump_with_context(
        &mut self,
        trace: &mut Trace,
        pid: u64,
        tid: u64,
        reason: &str,
        ts_ns: f64,
        context: &[Attr],
    ) -> usize {
        self.dumps += 1;
        let seq = self.dumps;
        let replayed = self.buf.len();
        trace
            .instant(pid, tid, "flight.dump", ts_ns)
            .attr(Attr::str("reason", reason))
            .attr(Attr::u64("dump_seq", seq))
            .attr(Attr::u64("events", replayed as u64))
            .attr(Attr::u64("evicted", self.recorded - replayed as u64))
            .attrs(context.iter().cloned());
        for ev in &self.buf {
            let mut replay = ev.clone();
            replay.pid = pid;
            replay.tid = tid;
            replay.attrs.push(Attr::u64("dump_seq", seq));
            trace.push(replay);
        }
        replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marker(i: u64) -> TraceEvent {
        let mut t = Trace::new();
        let ev = t.instant(9, 9, format!("ev{i}"), i as f64).clone();
        ev
    }

    #[test]
    fn wraparound_keeps_most_recent_in_order() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..10 {
            fr.record(marker(i));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.recorded(), 10);
        let names: Vec<String> = fr
            .snapshot()
            .into_iter()
            .map(|e| e.name.into_owned())
            .collect();
        assert_eq!(names, vec!["ev6", "ev7", "ev8", "ev9"]);
    }

    #[test]
    fn dump_replays_ring_with_marker_first() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..3 {
            fr.record(marker(i));
        }
        let mut trace = Trace::new();
        let n = fr.dump(&mut trace, 0, 1, "kernel-fault", 42.0);
        assert_eq!(n, 3);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.events()[0].name, "flight.dump");
        assert_eq!(trace.events()[1].name, "ev0");
        // Replayed events land on the dump track, not their origin.
        assert_eq!(trace.events()[1].pid, 0);
        assert_eq!(trace.events()[1].tid, 1);
        // A second dump is tagged with the next sequence number.
        fr.record(marker(3));
        fr.dump(&mut trace, 0, 1, "revoked", 50.0);
        assert_eq!(fr.dumps(), 2);
        let second_marker = &trace.events()[4];
        assert_eq!(second_marker.name, "flight.dump");
        assert!(second_marker
            .attrs
            .iter()
            .any(|a| a.key == "dump_seq" && a.value == crate::AttrValue::U64(2)));
    }

    #[test]
    fn dump_with_context_stamps_the_marker_only() {
        let mut fr = FlightRecorder::new(8);
        fr.record(marker(0));
        fr.record(marker(1));
        let mut trace = Trace::new();
        let ctx = [
            Attr::u64("gpu_used_bytes", 4096),
            Attr::u64("link_util_ppm", 750_000),
        ];
        fr.dump_with_context(&mut trace, 0, 1, "ecc-retirement", 99.0, &ctx);
        let m = &trace.events()[0];
        assert_eq!(m.name, "flight.dump");
        let get = |key: &str| {
            m.attrs
                .iter()
                .find(|a| a.key == key)
                .map(|a| a.value.clone())
        };
        assert_eq!(get("gpu_used_bytes"), Some(crate::AttrValue::U64(4096)));
        assert_eq!(get("link_util_ppm"), Some(crate::AttrValue::U64(750_000)));
        // Replayed events carry the dump tag, not the context.
        for ev in &trace.events()[1..] {
            assert!(ev.attrs.iter().all(|a| a.key != "gpu_used_bytes"));
        }
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut fr = FlightRecorder::new(0);
        assert_eq!(fr.capacity(), 1);
        fr.record(marker(1));
        fr.record(marker(2));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.snapshot()[0].name, "ev2");
    }
}
