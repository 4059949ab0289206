//! Structured per-run metrics and the zero-cost [`Probe`] instrumentation
//! hook.
//!
//! Every execution — windowed or asynchronous — produces a [`Metrics`]
//! snapshot assembled by the [`ExecutionCore`](crate::ExecutionCore) from
//! counters it already maintains on the hot path (buffer counts, reset and
//! crash counters, causal depths, per-processor coin draws). Assembly happens
//! once, at outcome time, so recording metrics costs nothing per step.
//!
//! The [`Probe`] trait is the *extension point* for observers that want to
//! see the primitive transitions as they happen: every send, delivery, drop,
//! reset, crash, decision and clock advance fires a hook. The core is
//! generic over its probe with [`NoProbe`] as the default, so the
//! un-instrumented path monomorphizes to exactly the code that existed
//! before probes — every hook is an empty inlined body, no allocation, no
//! branch (guarded by `tests/alloc_budget.rs` and the benchmark's bounds).
//! [`MetricsProbe`] is the reference
//! implementation: it accumulates the event-observable subset of [`Metrics`]
//! and is cross-checked in tests against the core-assembled snapshot, pinning
//! the hook placement.

use agreement_model::{Bit, ProcessorId};

/// Structured counters describing one execution.
///
/// Assembled by [`ExecutionCore::outcome`](crate::ExecutionCore::outcome);
/// carried by [`RunOutcome::metrics`](crate::RunOutcome::metrics) and by the
/// per-trial records of the campaign layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages placed into the buffer by sending steps.
    pub messages_sent: u64,
    /// Messages delivered to (and processed by) their recipients.
    pub messages_delivered: u64,
    /// Messages discarded undelivered (window expiry or recipient crash).
    pub messages_dropped: u64,
    /// The highest protocol round observed in the final state digests
    /// (`0` when no processor reports a round; resets may lower a
    /// processor's round, so this is the surviving watermark, not a peak).
    pub rounds: u64,
    /// Acceptable windows scheduled (windowed executions; `0` for async).
    pub windows: u64,
    /// Adversary steps scheduled (asynchronous executions; `0` for windowed).
    pub steps: u64,
    /// Resetting steps performed by the adversary.
    pub resets_consumed: u64,
    /// Crash failures charged against the fault budget.
    pub crashes: u64,
    /// Private random draws (bits, ranges and tickets) across all processors.
    pub coin_flips: u64,
    /// The longest causal message chain any processor has received: the
    /// maximum over processors of the longest chain `m_1, ..., m_k` where
    /// each `m_i` was received by the sender of `m_{i+1}` before `m_{i+1}`
    /// was sent (Section 5's running-time measure, tracked in both models).
    pub max_chain: u64,
}

/// Observes the primitive transitions of an
/// [`ExecutionCore`](crate::ExecutionCore) as they happen.
///
/// Every method has an empty default body; implementations override only the
/// events they care about. The core is generic over its probe, so a
/// [`NoProbe`] core compiles to exactly the un-instrumented code.
pub trait Probe {
    /// A sending step placed a message with causal tag `chain` into the buffer.
    #[inline]
    fn on_send(&mut self, from: ProcessorId, chain: u64) {
        let _ = (from, chain);
    }

    /// A receiving step delivered a message with causal tag `chain`.
    #[inline]
    fn on_deliver(&mut self, from: ProcessorId, to: ProcessorId, chain: u64) {
        let _ = (from, to, chain);
    }

    /// `count` undelivered messages were discarded (window expiry or crash).
    #[inline]
    fn on_drop(&mut self, count: u64) {
        let _ = count;
    }

    /// A resetting step erased processor `id`'s memory.
    #[inline]
    fn on_reset(&mut self, id: ProcessorId) {
        let _ = id;
    }

    /// Processor `id` was crashed (charged against the fault budget).
    #[inline]
    fn on_crash(&mut self, id: ProcessorId) {
        let _ = id;
    }

    /// Processor `id` wrote its output bit `value` at scheduler time `at`.
    /// Fired once per processor, by the core's one decision transition,
    /// whichever transition handed the processor to its protocol.
    #[inline]
    fn on_decide(&mut self, id: ProcessorId, value: Bit, at: u64) {
        let _ = (id, value, at);
    }

    /// One acceptable window completed.
    #[inline]
    fn on_window(&mut self) {}

    /// One asynchronous adversary step completed.
    #[inline]
    fn on_step(&mut self) {}
}

/// The default probe: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// Accumulates the event-observable subset of [`Metrics`] from probe hooks.
///
/// `rounds` and `coin_flips` happen inside processors, not as core
/// transitions, so they stay `0` here; every other field mirrors what the
/// core assembles at outcome time. Tests assert the two stay equal, which
/// pins the placement of every hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsProbe {
    observed: Metrics,
}

impl MetricsProbe {
    /// A probe with all counters at zero.
    pub fn new() -> Self {
        MetricsProbe::default()
    }

    /// The counters accumulated so far.
    pub fn observed(&self) -> Metrics {
        self.observed
    }
}

impl Probe for MetricsProbe {
    #[inline]
    fn on_send(&mut self, _from: ProcessorId, _chain: u64) {
        self.observed.messages_sent += 1;
    }

    #[inline]
    fn on_deliver(&mut self, _from: ProcessorId, _to: ProcessorId, chain: u64) {
        self.observed.messages_delivered += 1;
        self.observed.max_chain = self.observed.max_chain.max(chain);
    }

    #[inline]
    fn on_drop(&mut self, count: u64) {
        self.observed.messages_dropped += count;
    }

    #[inline]
    fn on_reset(&mut self, _id: ProcessorId) {
        self.observed.resets_consumed += 1;
    }

    #[inline]
    fn on_crash(&mut self, _id: ProcessorId) {
        self.observed.crashes += 1;
    }

    #[inline]
    fn on_window(&mut self) {
        self.observed.windows += 1;
    }

    #[inline]
    fn on_step(&mut self) {
        self.observed.steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_observes_nothing_and_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
        let mut probe = NoProbe;
        probe.on_send(ProcessorId::new(0), 1);
        probe.on_window();
    }

    #[test]
    fn metrics_probe_accumulates_events() {
        let mut probe = MetricsProbe::new();
        probe.on_send(ProcessorId::new(0), 1);
        probe.on_send(ProcessorId::new(1), 2);
        probe.on_deliver(ProcessorId::new(0), ProcessorId::new(1), 5);
        probe.on_deliver(ProcessorId::new(1), ProcessorId::new(0), 3);
        probe.on_drop(4);
        probe.on_reset(ProcessorId::new(2));
        probe.on_crash(ProcessorId::new(3));
        probe.on_window();
        probe.on_step();
        let m = probe.observed();
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.messages_delivered, 2);
        assert_eq!(m.messages_dropped, 4);
        assert_eq!(m.max_chain, 5);
        assert_eq!(m.resets_consumed, 1);
        assert_eq!(m.crashes, 1);
        assert_eq!(m.windows, 1);
        assert_eq!(m.steps, 1);
        assert_eq!(m.rounds, 0, "rounds are not event-observable");
        assert_eq!(m.coin_flips, 0, "coin flips are not event-observable");
    }

    #[test]
    fn metrics_default_is_all_zero() {
        assert_eq!(Metrics::default().messages_sent, 0);
        assert_eq!(Metrics::default(), MetricsProbe::new().observed());
    }
}
