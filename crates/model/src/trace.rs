//! Execution traces: a bounded log of notable events in a run.
//!
//! Traces exist for diagnostics and for computing derived metrics (decision
//! windows, message chains, reset counts). They are deliberately bounded: an
//! exponential-time execution would otherwise exhaust memory, so once the cap
//! is reached further events are counted but not stored.

use crate::ids::ProcessorId;
use crate::value::Bit;

/// A single notable event in an execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// A new acceptable window began (strongly adaptive model).
    WindowStarted {
        /// Zero-based index of the window.
        index: u64,
    },
    /// A message was placed in the buffer.
    Sent {
        /// Sender identity.
        from: ProcessorId,
        /// Recipient identity.
        to: ProcessorId,
    },
    /// A message was delivered to its recipient.
    Delivered {
        /// Sender identity.
        from: ProcessorId,
        /// Recipient identity.
        to: ProcessorId,
    },
    /// The adversary reset a processor (erased its memory).
    Reset {
        /// The reset processor.
        id: ProcessorId,
    },
    /// The adversary crashed a processor (it takes no further steps).
    Crashed {
        /// The crashed processor.
        id: ProcessorId,
    },
    /// The adversary corrupted an outgoing message of a Byzantine processor.
    Corrupted {
        /// The corrupted sender.
        id: ProcessorId,
    },
    /// A processor wrote its output bit.
    Decided {
        /// The deciding processor.
        id: ProcessorId,
        /// The decided value.
        value: Bit,
        /// The window index (or asynchronous step index) at which it decided.
        at: u64,
    },
    /// A processor advanced to a new protocol round.
    RoundAdvanced {
        /// The advancing processor.
        id: ProcessorId,
        /// The new round.
        round: u64,
    },
    /// A correctness violation was observed (conflicting or invalid decision).
    Violation {
        /// Human-readable description of the violation.
        description: String,
    },
}

/// A bounded event log with summary counters.
///
/// # Examples
///
/// ```
/// use agreement_model::{ProcessorId, Trace, TraceEvent};
///
/// let mut trace = Trace::with_capacity(2);
/// trace.push(TraceEvent::WindowStarted { index: 0 });
/// trace.push(TraceEvent::Reset { id: ProcessorId::new(1) });
/// trace.push(TraceEvent::WindowStarted { index: 1 }); // beyond capacity: counted, not stored
/// assert_eq!(trace.stored().len(), 2);
/// assert_eq!(trace.total_events(), 3);
/// assert_eq!(trace.dropped(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    total: u64,
    sent: u64,
    delivered: u64,
    resets: u64,
    crashes: u64,
    corruptions: u64,
    violations: u64,
}

impl Trace {
    /// Default number of stored events.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a trace with the default storage cap.
    pub fn new() -> Self {
        Trace::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a trace storing at most `capacity` events (counters are exact
    /// regardless of the cap).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            capacity,
            ..Trace::default()
        }
    }

    /// Records an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.total += 1;
        match &event {
            TraceEvent::Sent { .. } => self.sent += 1,
            TraceEvent::Delivered { .. } => self.delivered += 1,
            TraceEvent::Reset { .. } => self.resets += 1,
            TraceEvent::Crashed { .. } => self.crashes += 1,
            TraceEvent::Corrupted { .. } => self.corruptions += 1,
            TraceEvent::Violation { .. } => self.violations += 1,
            _ => {}
        }
        if self.events.len() < self.capacity {
            self.events.push(event);
        }
    }

    /// The stored prefix of events (up to the capacity).
    pub fn stored(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total number of events recorded, including dropped ones.
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// Number of events that exceeded the storage cap.
    pub fn dropped(&self) -> u64 {
        self.total - self.events.len() as u64
    }

    /// Number of messages delivered.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Number of resetting steps.
    pub fn reset_count(&self) -> u64 {
        self.resets
    }

    /// Number of corrupted messages.
    pub fn corruption_count(&self) -> u64 {
        self.corruptions
    }

    /// Iterates over stored decision events as `(processor, value, at)`.
    pub fn decisions(&self) -> impl Iterator<Item = (ProcessorId, Bit, u64)> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Decided { id, value, at } => Some((*id, *value, *at)),
            _ => None,
        })
    }
}

/// Compile-time gate on trace emission: either record every event into a
/// [`Trace`] ([`FullTrace`]) or discard everything at zero cost ([`NoTrace`]).
///
/// Execution engines are generic over their recorder, so the choice
/// monomorphizes: with [`NoTrace`] every `record` call is an empty inlined
/// body and the event construction folds away entirely — the campaign hot
/// path pays nothing per message for tracing it will never read. Lazily
/// built events (violation descriptions, which allocate a `String`) go
/// through [`Recorder::record_with`], so even their formatting is skipped
/// when tracing is off.
///
/// Pick [`FullTrace`] for single runs you want to inspect or debug; pick
/// [`NoTrace`] for campaigns that distill each trial into a record and drop
/// the trace unread.
pub trait Recorder: Default {
    /// `true` when recorded events are actually retained. Lets generic code
    /// (and tests) assert which mode it is running in.
    const IS_RECORDING: bool;

    /// Records an event.
    fn record(&mut self, event: TraceEvent);

    /// Records a lazily-built event; `make` runs only when events are
    /// retained, so expensive event payloads (formatted violation strings)
    /// cost nothing under [`NoTrace`].
    fn record_with(&mut self, make: impl FnOnce() -> TraceEvent);

    /// Moves the accumulated trace out of the recorder, leaving it empty.
    /// [`NoTrace`] returns an empty trace (no allocation).
    fn take_trace(&mut self) -> Trace;

    /// Clears the recorder for reuse by the next execution.
    fn reset(&mut self);
}

/// Records every event into an owned [`Trace`] (the diagnostic default).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FullTrace(Trace);

impl FullTrace {
    /// A recorder with an empty trace at the default capacity.
    pub fn new() -> Self {
        FullTrace(Trace::new())
    }

    /// Read access to the trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.0
    }
}

impl Recorder for FullTrace {
    const IS_RECORDING: bool = true;

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.0.push(event);
    }

    #[inline]
    fn record_with(&mut self, make: impl FnOnce() -> TraceEvent) {
        self.0.push(make());
    }

    fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.0)
    }

    fn reset(&mut self) {
        self.0 = Trace::new();
    }
}

/// Discards every event at compile time (the campaign hot-path choice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTrace;

impl Recorder for NoTrace {
    const IS_RECORDING: bool = false;

    #[inline]
    fn record(&mut self, _event: TraceEvent) {}

    #[inline]
    fn record_with(&mut self, _make: impl FnOnce() -> TraceEvent) {}

    fn take_trace(&mut self) -> Trace {
        Trace::new()
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_event_kinds() {
        let mut t = Trace::new();
        t.push(TraceEvent::Sent {
            from: ProcessorId::new(0),
            to: ProcessorId::new(1),
        });
        t.push(TraceEvent::Delivered {
            from: ProcessorId::new(0),
            to: ProcessorId::new(1),
        });
        t.push(TraceEvent::Reset {
            id: ProcessorId::new(2),
        });
        t.push(TraceEvent::Crashed {
            id: ProcessorId::new(3),
        });
        t.push(TraceEvent::Corrupted {
            id: ProcessorId::new(3),
        });
        t.push(TraceEvent::Violation {
            description: "conflicting decision".to_string(),
        });
        assert_eq!(t.delivered_count(), 1);
        assert_eq!(t.reset_count(), 1);
        assert_eq!(t.corruption_count(), 1);
        assert_eq!(t.total_events(), 6);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn capacity_caps_storage_but_not_counters() {
        let mut t = Trace::with_capacity(3);
        for i in 0..10 {
            t.push(TraceEvent::WindowStarted { index: i });
        }
        assert_eq!(t.stored().len(), 3);
        assert_eq!(t.total_events(), 10);
        assert_eq!(t.dropped(), 7);
    }

    #[test]
    fn decisions_iterator_extracts_decision_events() {
        let mut t = Trace::new();
        t.push(TraceEvent::Decided {
            id: ProcessorId::new(4),
            value: Bit::One,
            at: 17,
        });
        t.push(TraceEvent::RoundAdvanced {
            id: ProcessorId::new(4),
            round: 18,
        });
        let ds: Vec<_> = t.decisions().collect();
        assert_eq!(ds, vec![(ProcessorId::new(4), Bit::One, 17)]);
    }

    #[test]
    fn default_trace_has_default_capacity() {
        let t = Trace::new();
        assert_eq!(t.stored().len(), 0);
        assert_eq!(t.total_events(), 0);
    }

    #[test]
    fn full_trace_records_and_take_empties() {
        let mut rec = FullTrace::new();
        rec.record(TraceEvent::WindowStarted { index: 0 });
        rec.record_with(|| TraceEvent::Violation {
            description: "x".to_string(),
        });
        assert_eq!(rec.trace().total_events(), 2);
        let taken = rec.take_trace();
        assert_eq!(taken.total_events(), 2);
        assert!(matches!(taken.stored()[1], TraceEvent::Violation { .. }));
        assert_eq!(rec.trace().total_events(), 0, "take leaves an empty trace");
        assert!(is_recording::<FullTrace>());
    }

    fn is_recording<R: Recorder>() -> bool {
        R::IS_RECORDING
    }

    #[test]
    fn no_trace_discards_everything_and_never_formats() {
        let mut rec = NoTrace;
        rec.record(TraceEvent::WindowStarted { index: 0 });
        rec.record_with(|| unreachable!("lazy events must not be built under NoTrace"));
        assert_eq!(rec.take_trace().total_events(), 0);
        assert_eq!(std::mem::size_of::<NoTrace>(), 0);
        assert!(!is_recording::<NoTrace>());
    }
}
