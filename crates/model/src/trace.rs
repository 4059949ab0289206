//! Execution traces: a bounded log of notable events in a run.
//!
//! Traces exist for diagnostics: the simulator's `FullTrace` probe fills one
//! from the transitions of an execution it observes. They are deliberately
//! bounded: an exponential-time execution would otherwise exhaust memory, so
//! once the cap is reached further events are counted but not stored.

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
    /// The adversary attempted an action the model forbids (a fault beyond
    /// the budget `t`, a corruption of an uncorrupted sender); it was
    /// refused.
    Violation {
        /// Human-readable description of the refused action.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    total: u64,
    resets: u64,
    corruptions: u64,
}

impl Default for Trace {
    /// A trace with the default storage cap, as [`Trace::new`].
    fn default() -> Self {
        Trace::new()
    }
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
            total: 0,
            resets: 0,
            corruptions: 0,
        }
    }

    /// Records an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.total += 1;
        match &event {
            TraceEvent::Reset { .. } => self.resets += 1,
            TraceEvent::Corrupted { .. } => self.corruptions += 1,
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

/// The last argument of `ExecutionCore::with_parts` in the simulator, kept
/// so that callers written against that six-argument constructor still
/// build. It has no behaviour: a core keeps a trace only when its probe is
/// the simulator's `FullTrace`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTrace;

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
        t.push(TraceEvent::Reset {
            id: ProcessorId::new(4),
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
    fn a_default_trace_stores_what_it_is_pushed() {
        let mut t = Trace::default();
        t.push(TraceEvent::WindowStarted { index: 0 });
        assert_eq!(t.stored(), [TraceEvent::WindowStarted { index: 0 }]);
        assert_eq!(t.dropped(), 0);
    }
}
