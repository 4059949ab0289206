//! Tracing from outside: spans recorded by the benchmark around its calls into
//! each layer, and timed wrappers over the adversary and protocol traits.
//!
//! Nothing here touches the program. Spans stay in memory and are written out
//! when the run ends. Calls that happen thousands of times a round (adversary
//! decisions, protocol transitions, trials) are recorded as one *aggregate*
//! span per layer per round: `calls` says how many calls it stands for and
//! `busy_ns` their summed duration, which is what self time is computed from.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use agreement_analysis::JsonValue;
use agreement_model::{
    Bit, Context, Payload, ProcessorId, Protocol, ProtocolBuilder, StateDigest, SystemConfig,
};
use agreement_sim::{
    AsyncAction, AsyncAdversary, BuiltAdversary, PartialSyncAction, PartialSyncAdversary,
    SystemView, Window, WindowAdversary, ASYNC, PARTIAL_SYNC, WINDOWED,
};

/// One protocol call in this many is timed; the rest only count.
const PROTOCOL_SAMPLING: u64 = 64;

/// One adversary decision in this many is timed. Window adversaries decide a
/// few times a trial, asynchronous ones once per delivery, where a stopwatch
/// around every decision would cost as much as the decision.
const ADVERSARY_SAMPLING: u64 = 8;

/// One recorded span. `parent` indexes the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub round: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time spent inside the span: `end_ns - start_ns` for a plain span, the
    /// summed duration of the aggregated calls otherwise.
    pub busy_ns: u64,
    pub calls: u64,
}

/// Self time and call count of one layer, summed over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// A tracer that records nothing: `span` just runs its body. Untraced
    /// rounds go through the same code as traced ones with this in hand.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the round id stamped on every span recorded from here on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Runs `body` inside a plain span named `name`, nested under whichever
    /// span is open.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return body(self);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            round: self.round,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
        });
        self.open.push(index);
        let value = body(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - start_ns;
        value
    }

    /// Records an aggregate span standing for `calls` calls that together
    /// took `busy_ns`, under `parent` (default: the open span). Returns its
    /// index so further aggregates can nest under it.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        busy_ns: u64,
        calls: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let parent = parent.or(self.open.last().copied());
        let (start_ns, end_ns) = match parent {
            Some(p) => (self.spans[p].start_ns, self.now_ns()),
            None => (self.now_ns(), self.now_ns()),
        };
        self.spans.push(Span {
            name,
            round: self.round,
            parent,
            start_ns,
            end_ns,
            busy_ns,
            calls,
        });
        self.spans.len() - 1
    }

    /// Per-layer totals: a span's self time is its busy time minus the busy
    /// time of its children (clamped at zero: sampled children are estimates).
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.busy_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(children_ns) {
            let total = totals.entry(span.name).or_default();
            total.self_ns += span.busy_ns.saturating_sub(children);
            total.busy_ns += span.busy_ns;
            total.calls += span.calls;
        }
        totals
    }

    /// The trace as one JSON document: the spans in recording order plus the
    /// per-layer self-time table.
    pub fn to_json(&self, workload: &str) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let mut obj = JsonValue::object();
                obj.push("id", id)
                    .push("name", span.name)
                    .push("round", u64::from(span.round))
                    .push("parent", span.parent.map(|p| p as u64))
                    .push("start_ns", span.start_ns)
                    .push("end_ns", span.end_ns)
                    .push("busy_ns", span.busy_ns)
                    .push("calls", span.calls);
                obj
            })
            .collect();
        let table = self
            .totals()
            .into_iter()
            .map(|(name, total)| {
                let mut row = JsonValue::object();
                row.push("layer", name)
                    .push("self_ns", total.self_ns)
                    .push("busy_ns", total.busy_ns)
                    .push("calls", total.calls);
                row
            })
            .collect();
        let mut doc = JsonValue::object();
        doc.push("workload", workload)
            .push("self_time_table", JsonValue::Array(table))
            .push("spans", JsonValue::Array(spans));
        doc
    }
}

/// Calls through one kind of timed wrapper: all of them counted, one in N
/// timed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sampled {
    pub calls: u64,
    pub sampled: u64,
    pub sampled_ns: u64,
}

impl Sampled {
    /// Estimated total time in these calls: the sampled mean scaled to every
    /// call.
    pub fn total_ns(&self) -> u64 {
        if self.sampled == 0 {
            return 0;
        }
        (u128::from(self.sampled_ns) * u128::from(self.calls) / u128::from(self.sampled)) as u64
    }

    /// Mean duration of a timed call.
    pub fn mean_ns(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.sampled_ns as f64 / self.sampled as f64
    }

    pub fn add(&mut self, other: &Sampled) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }
}

/// What the timed wrappers have counted on this thread since the last
/// [`take_probe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    pub adversary: Sampled,
    pub protocol: Sampled,
}

struct ProbeCells {
    adversary: Cell<Sampled>,
    protocol: Cell<Sampled>,
    /// Cost of one `Instant::now()`/`elapsed()` pair, subtracted from every
    /// timed call so short calls are not charged for their own stopwatch.
    timer_ns: Cell<u64>,
}

const NO_CALLS: Sampled = Sampled {
    calls: 0,
    sampled: 0,
    sampled_ns: 0,
};

// Traced replays run their trials on the calling thread (the serial campaign
// path), so per-thread cells count exactly and cost no synchronisation.
thread_local! {
    static PROBE: ProbeCells = const {
        ProbeCells {
            adversary: Cell::new(NO_CALLS),
            protocol: Cell::new(NO_CALLS),
            timer_ns: Cell::new(0),
        }
    };
}

/// Measures the stopwatch's own cost on this thread; call once before a
/// traced replay.
pub fn calibrate_probe() {
    let mut samples: Vec<u64> = (0..2_001)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(start).elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    PROBE.with(|p| p.timer_ns.set(samples[samples.len() / 2]));
}

/// Returns and zeroes this thread's wrapper counters.
pub fn take_probe() -> ProbeCounts {
    PROBE.with(|p| ProbeCounts {
        adversary: p.adversary.replace(NO_CALLS),
        protocol: p.protocol.replace(NO_CALLS),
    })
}

/// Counts one call in the cell `pick` selects and, for one call in `every`,
/// times it (less the stopwatch's own cost).
fn sampled_call<T>(
    every: u64,
    pick: fn(&ProbeCells) -> &Cell<Sampled>,
    call: impl FnOnce() -> T,
) -> T {
    let sample = PROBE.with(|p| {
        let mut counts = pick(p).get();
        counts.calls += 1;
        pick(p).set(counts);
        (counts.calls - 1).is_multiple_of(every)
    });
    if !sample {
        return call();
    }
    let start = Instant::now();
    let value = call();
    let elapsed = start.elapsed().as_nanos() as u64;
    PROBE.with(|p| {
        let mut counts = pick(p).get();
        counts.sampled += 1;
        counts.sampled_ns += elapsed.saturating_sub(p.timer_ns.get());
        pick(p).set(counts);
    });
    value
}

fn timed_adversary_call<T>(call: impl FnOnce() -> T) -> T {
    sampled_call(ADVERSARY_SAMPLING, |p| &p.adversary, call)
}

fn sampled_protocol_call(call: impl FnOnce()) {
    sampled_call(PROTOCOL_SAMPLING, |p| &p.protocol, call);
}

struct TimedWindow(Box<dyn WindowAdversary>);

impl WindowAdversary for TimedWindow {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn next_window(&mut self, view: &SystemView<'_>) -> Window {
        timed_adversary_call(|| self.0.next_window(view))
    }
}

struct TimedAsync(Box<dyn AsyncAdversary>);

impl AsyncAdversary for TimedAsync {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> AsyncAction {
        timed_adversary_call(|| self.0.next_action(view))
    }
}

struct TimedPartialSync(Box<dyn PartialSyncAdversary>);

impl PartialSyncAdversary for TimedPartialSync {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn gst(&self) -> u64 {
        self.0.gst()
    }

    fn delta(&self) -> u64 {
        self.0.delta()
    }

    fn omitted_senders(&self) -> &[ProcessorId] {
        self.0.omitted_senders()
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> PartialSyncAction {
        timed_adversary_call(|| self.0.next_action(view))
    }
}

/// Unwraps a built adversary, puts the timing wrapper of its model around it
/// and re-boxes it. An adversary of a model this file does not know runs
/// untimed rather than not at all.
pub fn timed_adversary(built: BuiltAdversary) -> BuiltAdversary {
    let model = built.model().id();
    if model == WINDOWED.id() {
        let inner = built.into_window().expect("model id says windowed");
        BuiltAdversary::windowed(Box::new(TimedWindow(inner)))
    } else if model == ASYNC.id() {
        let inner = built.into_async().expect("model id says async");
        BuiltAdversary::asynchronous(Box::new(TimedAsync(inner)))
    } else if model == PARTIAL_SYNC.id() {
        let inner = built
            .into_partial_sync()
            .expect("model id says partial-sync");
        BuiltAdversary::partial_sync(Box::new(TimedPartialSync(inner)))
    } else {
        built
    }
}

#[derive(Debug)]
struct TimedProtocol(Box<dyn Protocol>);

impl Protocol for TimedProtocol {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        sampled_protocol_call(|| self.0.on_start(ctx));
    }

    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        sampled_protocol_call(|| self.0.on_message(from, payload, ctx));
    }

    fn on_reset(&mut self, ctx: &mut dyn Context) {
        sampled_protocol_call(|| self.0.on_reset(ctx));
    }

    fn digest(&self) -> StateDigest {
        self.0.digest()
    }
}

/// A protocol builder whose state machines count and sample-time every
/// transition (`on_start`, `on_message`, `on_reset`).
#[derive(Debug)]
pub struct TimedBuilder<'a>(pub &'a dyn ProtocolBuilder);

impl ProtocolBuilder for TimedBuilder<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn build(&self, id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(TimedProtocol(self.0.build(id, input, cfg)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_busy_minus_children() {
        let mut tracer = Tracer::new();
        tracer.set_round(3);
        tracer.span("round", |t| {
            let run = t.aggregate("sim.run", None, 1_000, 10);
            t.aggregate("adversary.decide", Some(run), 300, 40);
            t.aggregate("protocols.transition", Some(run), 900, 500);
        });
        let totals = tracer.totals();
        // Children (1200) exceed the parent's busy time (1000): clamped.
        assert_eq!(totals["sim.run"].self_ns, 0);
        assert_eq!(totals["adversary.decide"].self_ns, 300);
        assert_eq!(totals["adversary.decide"].calls, 40);
        let round = &tracer.spans[0];
        assert_eq!((round.round, round.parent), (3, None));
        assert_eq!(tracer.spans[2].parent, Some(1));
        assert_eq!(
            totals["round"].self_ns,
            totals["round"].busy_ns.saturating_sub(1_000)
        );
    }

    #[test]
    fn sampled_time_scales_the_sampled_mean() {
        let protocol = Sampled {
            calls: 640,
            sampled: 10,
            sampled_ns: 1_000,
        };
        assert_eq!(protocol.total_ns(), 64_000);
        assert_eq!(protocol.mean_ns(), 100.0);
        assert_eq!(Sampled::default().total_ns(), 0);
        assert_eq!(Sampled::default().mean_ns(), 0.0);
    }

    #[test]
    fn wrappers_count_every_call_and_time_one_in_n() {
        take_probe();
        for _ in 0..(2 * ADVERSARY_SAMPLING) {
            timed_adversary_call(|| std::hint::black_box(1));
        }
        for _ in 0..(PROTOCOL_SAMPLING + 1) {
            sampled_protocol_call(|| {});
        }
        let counts = take_probe();
        assert_eq!(
            (counts.adversary.calls, counts.adversary.sampled),
            (2 * ADVERSARY_SAMPLING, 2)
        );
        assert_eq!(
            (counts.protocol.calls, counts.protocol.sampled),
            (PROTOCOL_SAMPLING + 1, 2)
        );
        assert_eq!(take_probe(), ProbeCounts::default());
    }
}
