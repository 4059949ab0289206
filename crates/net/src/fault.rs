//! Deterministic fault injection for the framed transport.
//!
//! The paper's whole method is adversarial scheduling — protocols must
//! survive a powerful adversary controlling message delivery. This module
//! points the same stance at our *own* wire stack: a seeded [`FaultPlan`]
//! describes per-frame fault probabilities, and a [`FaultInjector`] derived
//! from it decides, at every frame boundary, whether that frame is
//! delivered, dropped, duplicated, bit-flipped, truncated (then the socket
//! closed), delayed, or hung on.
//!
//! Determinism is the point. The action for frame `k` of a connection is a
//! pure function of `(plan seed, direction label, k)` — each frame's
//! decision draws from its own [`ProcessorRng`] substream, so the schedule
//! of faults does not depend on how much randomness earlier frames consumed
//! or on what the frames contain. Two runs with the same plan produce the
//! same injector decisions, which is what makes chaos runs replayable and
//! their recovery logs comparable.
//!
//! The production path stays zero-cost: a connection without a plan carries
//! `None` and the writer thread's only overhead is one branch per frame.
//! Workers opt in through the `AGREEMENT_FAULTS` environment variable (see
//! [`FaultPlan::from_env`]); tests and the orchestrator pass plans
//! explicitly.

use std::fmt;

use agreement_model::{derive_seed, ProcessorRng};

/// Environment variable carrying a [`FaultPlan`] spec string to processes
/// that should injure their own outgoing frames (workers, mostly).
pub const FAULT_ENV: &str = "AGREEMENT_FAULTS";

/// A seeded description of how often each fault fires, consulted at frame
/// boundaries. Probabilities are per frame and independent; `grace` initial
/// frames pass untouched so handshakes (the worker hello) survive even
/// aggressive plans.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every injector substream derives from it.
    pub seed: u64,
    /// Number of initial frames always delivered faithfully (default 1 —
    /// enough for a hello).
    pub grace: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is written twice.
    pub duplicate: f64,
    /// Probability one bit of the frame (payload or CRC trailer) is flipped.
    pub bit_flip: f64,
    /// Probability the frame is cut short and the socket closed — after
    /// this the connection writes nothing more.
    pub truncate: f64,
    /// Probability the writer goes permanently silent (frames keep being
    /// accepted and discarded so senders never block).
    pub hang: f64,
    /// Probability the frame is delayed before writing.
    pub delay: f64,
    /// Upper bound, in milliseconds, on an injected delay.
    pub delay_ms: u64,
}

impl FaultPlan {
    /// A plan with the given seed and every fault probability at zero.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            grace: 1,
            drop: 0.0,
            duplicate: 0.0,
            bit_flip: 0.0,
            truncate: 0.0,
            hang: 0.0,
            delay: 0.0,
            delay_ms: 20,
        }
    }

    /// The same plan under a different seed — how the orchestrator gives
    /// each spawned worker its own (still deterministic) fault substream.
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        FaultPlan { seed, ..*self }
    }

    /// Parses a spec string of comma-separated `key=value` fields:
    /// `seed=7,grace=1,drop=0.01,dup=0.03,flip=0.005,trunc=0.003,hang=0.002,delay=0.05:15`.
    /// Every field is optional except `seed`; `delay` takes an optional
    /// `:MAX_MS` suffix.
    ///
    /// # Errors
    ///
    /// Describes the offending field on malformed input.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new(0);
        let mut saw_seed = false;
        for field in spec.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault field '{field}' is not key=value"))?;
            let prob = |what: &str| -> Result<f64, String> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("fault {what} '{value}' is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault {what} {p} is outside 0..=1"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault seed '{value}' is not an integer"))?;
                    saw_seed = true;
                }
                "grace" => {
                    plan.grace = value
                        .parse()
                        .map_err(|_| format!("fault grace '{value}' is not an integer"))?;
                }
                "drop" => plan.drop = prob("drop")?,
                "dup" => plan.duplicate = prob("dup")?,
                "flip" => plan.bit_flip = prob("flip")?,
                "trunc" => plan.truncate = prob("trunc")?,
                "hang" => plan.hang = prob("hang")?,
                "delay" => {
                    let (p, ms) = match value.split_once(':') {
                        Some((p, ms)) => (
                            p,
                            Some(ms.parse::<u64>().map_err(|_| {
                                format!("fault delay bound '{ms}' is not an integer")
                            })?),
                        ),
                        None => (value, None),
                    };
                    let p: f64 = p
                        .parse()
                        .map_err(|_| format!("fault delay '{p}' is not a number"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("fault delay {p} is outside 0..=1"));
                    }
                    plan.delay = p;
                    if let Some(ms) = ms {
                        plan.delay_ms = ms;
                    }
                }
                other => return Err(format!("unknown fault field '{other}'")),
            }
        }
        if !saw_seed {
            return Err("fault plan must carry a seed (seed=N)".to_string());
        }
        Ok(plan)
    }

    /// Reads a plan from the [`FAULT_ENV`] environment variable.
    ///
    /// # Errors
    ///
    /// `Ok(None)` when the variable is unset or empty; a parse failure is a
    /// loud error, never a silently fault-free run.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(FAULT_ENV) {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Builds the injector for one direction of one connection. `direction`
    /// is a caller-chosen label (e.g. 0 for the outgoing side) so the two
    /// directions of a connection draw independent substreams.
    #[must_use]
    pub fn injector(&self, direction: u64) -> FaultInjector {
        FaultInjector {
            plan: self.clone(),
            stream: derive_seed(self.seed, 0xFA17 ^ direction),
            frame: 0,
            silenced: false,
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},grace={},drop={},dup={},flip={},trunc={},hang={},delay={}:{}",
            self.seed,
            self.grace,
            self.drop,
            self.duplicate,
            self.bit_flip,
            self.truncate,
            self.hang,
            self.delay,
            self.delay_ms
        )
    }
}

/// What the injector decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Write the frame faithfully.
    Deliver,
    /// Skip the frame entirely.
    Drop,
    /// Write the frame twice.
    Duplicate,
    /// Flip the given zero-based bit of the payload+CRC region.
    BitFlip {
        /// Bit offset into the frame body (payload bytes followed by the
        /// 4-byte CRC trailer), reduced modulo the body length at apply
        /// time.
        bit: u64,
    },
    /// Write only a prefix of the encoded frame, then close the socket.
    TruncateClose {
        /// Raw entropy for choosing the cut point, reduced at apply time.
        keep: u64,
    },
    /// Go silent: this frame and every later one is discarded.
    Hang,
    /// Sleep before writing the frame.
    Delay {
        /// Milliseconds to sleep (already bounded by the plan).
        ms: u64,
    },
}

/// Per-connection, per-direction fault decision stream. See the module docs
/// for the determinism contract.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    stream: u64,
    frame: u64,
    silenced: bool,
}

impl FaultInjector {
    /// Decides the fate of the next frame. Once a [`FaultAction::Hang`] or
    /// [`FaultAction::TruncateClose`] has been returned, every later call
    /// returns [`FaultAction::Hang`] — a closed or silent connection stays
    /// that way.
    pub fn next_action(&mut self) -> FaultAction {
        let frame = self.frame;
        self.frame += 1;
        if self.silenced {
            return FaultAction::Hang;
        }
        if frame < self.plan.grace {
            return FaultAction::Deliver;
        }
        // One private substream per frame index: the decision for frame k
        // never depends on other frames' draws.
        let mut rng = ProcessorRng::from_seed(derive_seed(self.stream, frame));
        // Fixed evaluation order keeps the schedule stable as plans evolve.
        if rng.chance(self.plan.truncate) {
            self.silenced = true;
            return FaultAction::TruncateClose { keep: rng.ticket() };
        }
        if rng.chance(self.plan.hang) {
            self.silenced = true;
            return FaultAction::Hang;
        }
        if rng.chance(self.plan.drop) {
            return FaultAction::Drop;
        }
        if rng.chance(self.plan.bit_flip) {
            return FaultAction::BitFlip { bit: rng.ticket() };
        }
        if rng.chance(self.plan.duplicate) {
            return FaultAction::Duplicate;
        }
        if rng.chance(self.plan.delay) && self.plan.delay_ms > 0 {
            return FaultAction::Delay {
                ms: rng.range(self.plan.delay_ms) + 1,
            };
        }
        FaultAction::Deliver
    }

    /// Whether the connection has been silenced by a hang or truncate-close.
    #[must_use]
    pub fn silenced(&self) -> bool {
        self.silenced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every fault class enabled, at rates that let a bounded respawn budget
    /// outlive them.
    fn every_fault(seed: u64) -> FaultPlan {
        let rates = "grace=1,drop=0.01,dup=0.03,flip=0.005,trunc=0.003,hang=0.002,delay=0.05:15";
        FaultPlan::parse(&format!("seed={seed},{rates}")).unwrap()
    }

    #[test]
    fn spec_string_round_trips_through_parse() {
        let plan = every_fault(42);
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn parse_rejects_bad_fields_loudly() {
        assert!(FaultPlan::parse("drop=0.1").is_err(), "seed is mandatory");
        assert!(FaultPlan::parse("seed=1,drop=1.5").is_err());
        assert!(FaultPlan::parse("seed=1,volume=11").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("seed=1,delay=0.5:abc").is_err());
    }

    #[test]
    fn same_seed_reproduces_the_same_action_schedule() {
        let plan = every_fault(7);
        let mut a = plan.injector(0);
        let mut b = plan.injector(0);
        let schedule_a: Vec<FaultAction> = (0..4096).map(|_| a.next_action()).collect();
        let schedule_b: Vec<FaultAction> = (0..4096).map(|_| b.next_action()).collect();
        assert_eq!(schedule_a, schedule_b);
        // A different seed (and a different direction) must diverge.
        let mut c = plan.reseeded(8).injector(0);
        let schedule_c: Vec<FaultAction> = (0..4096).map(|_| c.next_action()).collect();
        assert_ne!(schedule_a, schedule_c);
        let mut d = plan.injector(1);
        let schedule_d: Vec<FaultAction> = (0..4096).map(|_| d.next_action()).collect();
        assert_ne!(schedule_a, schedule_d);
    }

    #[test]
    fn grace_frames_are_always_delivered_and_silence_is_sticky() {
        let mut plan = FaultPlan::new(3);
        plan.grace = 2;
        plan.hang = 1.0;
        let mut injector = plan.injector(0);
        assert_eq!(injector.next_action(), FaultAction::Deliver);
        assert_eq!(injector.next_action(), FaultAction::Deliver);
        assert_eq!(injector.next_action(), FaultAction::Hang);
        assert!(injector.silenced());
        assert_eq!(injector.next_action(), FaultAction::Hang);
    }

    #[test]
    fn a_zero_probability_plan_always_delivers() {
        let mut injector = FaultPlan::new(9).injector(0);
        for _ in 0..1000 {
            assert_eq!(injector.next_action(), FaultAction::Deliver);
        }
    }

    #[test]
    fn every_fault_class_fires_eventually() {
        let mut injector = every_fault(11).injector(0);
        let mut saw_drop = false;
        let mut saw_dup = false;
        let mut saw_flip = false;
        let mut saw_delay = false;
        for _ in 0..10_000 {
            match injector.next_action() {
                FaultAction::Drop => saw_drop = true,
                FaultAction::Duplicate => saw_dup = true,
                FaultAction::BitFlip { .. } => saw_flip = true,
                FaultAction::Delay { ms } => {
                    assert!((1..=15).contains(&ms));
                    saw_delay = true;
                }
                FaultAction::Hang => break,
                _ => {}
            }
        }
        assert!(saw_drop && saw_dup && saw_flip && saw_delay);
    }

    #[test]
    fn env_hook_parses_or_is_absent() {
        // Not set in the test environment: absent, not an error.
        assert_eq!(FaultPlan::from_env(), Ok(None));
    }
}
