//! Trace events and their typed attributes.

use std::borrow::Cow;

/// A typed attribute value. Exporters format each variant exactly once,
/// so the encoding (and therefore the trace bytes) never depends on the
/// producer.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned counter (bytes, tuples, misses, ...).
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A real-valued quantity (simulated nanoseconds, fractions, ...).
    F64(f64),
    /// A short label (operator names, fault kinds, reject reasons).
    Str(String),
    /// A flag.
    Bool(bool),
}

/// One `key: value` attribute. Keys are `snake_case` with the unit as a
/// suffix (`_ns`, `_bytes`); see the crate docs for the convention.
///
/// Every key in the workspace is a literal, so the key is a
/// `&'static str`: recording an attribute never allocates for its name,
/// and cloning one (the flight recorder clones every lifecycle event)
/// copies a pointer.
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// Attribute name (a string literal).
    pub key: &'static str,
    /// Typed value.
    pub value: AttrValue,
}

impl Attr {
    /// An unsigned-counter attribute.
    pub fn u64(key: &'static str, value: u64) -> Attr {
        Attr {
            key,
            value: AttrValue::U64(value),
        }
    }

    /// A real-valued attribute.
    pub fn f64(key: &'static str, value: f64) -> Attr {
        Attr {
            key,
            value: AttrValue::F64(value),
        }
    }

    /// A string attribute.
    pub fn str(key: &'static str, value: impl Into<String>) -> Attr {
        Attr {
            key,
            value: AttrValue::Str(value.into()),
        }
    }

    /// A boolean attribute.
    pub fn bool(key: &'static str, value: bool) -> Attr {
        Attr {
            key,
            value: AttrValue::Bool(value),
        }
    }
}

/// What kind of event this is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// An interval with a duration (Chrome `ph: "X"`).
    Span {
        /// Duration in simulated nanoseconds.
        dur_ns: f64,
    },
    /// A point-in-time marker (Chrome `ph: "i"`).
    // triton-lint: allow(d2) -- names the Chrome instant event phase, not std::time::Instant
    Instant,
    /// A counter sample (Chrome `ph: "C"`): Perfetto renders the event's
    /// numeric attributes as stacked counter-track series. The sampled
    /// values live in [`TraceEvent::attrs`] so the variant stays `Copy`.
    Counter,
}

/// One recorded event. Tracks are addressed Chrome-style: a `pid` groups
/// related lanes (one per query, plus the scheduler), a `tid` is one
/// lane within the group (lifecycle, SM half A, SM half B, ...).
///
/// The name is borrowed when it is a literal (`"queue"`, `"admit"`) and
/// owned only when it is computed (`"pass2 p3"`, a phase label), so the
/// common events record and clone without allocating for their name.
/// Both forms export identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Track group (Chrome "process").
    pub pid: u64,
    /// Lane within the group (Chrome "thread").
    pub tid: u64,
    /// Event name (span label / instant marker): borrowed when static,
    /// owned when computed.
    pub name: Cow<'static, str>,
    /// Start time in simulated nanoseconds.
    pub ts_ns: f64,
    /// Span or instant.
    pub kind: EventKind,
    /// Typed attributes, in insertion order.
    pub attrs: Vec<Attr>,
}

impl TraceEvent {
    /// Append an attribute (builder-style; call on the `&mut` returned
    /// by [`crate::Trace::span`] / [`crate::Trace::instant`]).
    pub fn attr(&mut self, attr: Attr) -> &mut TraceEvent {
        self.attrs.push(attr);
        self
    }

    /// Append several attributes at once.
    pub fn attrs(&mut self, attrs: impl IntoIterator<Item = Attr>) -> &mut TraceEvent {
        self.attrs.extend(attrs);
        self
    }

    /// End time of a span; the timestamp itself for an instant.
    pub fn end_ns(&self) -> f64 {
        match self.kind {
            EventKind::Span { dur_ns } => self.ts_ns + dur_ns,
            // triton-lint: allow(d2) -- matches the Chrome instant variant, not std::time::Instant
            EventKind::Instant => self.ts_ns,
            EventKind::Counter => self.ts_ns,
        }
    }
}
