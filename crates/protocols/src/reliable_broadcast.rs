//! Bracha-style reliable broadcast.
//!
//! Reliable broadcast is the primitive underlying Bracha's agreement protocol:
//! it guarantees that if any correct processor accepts a broadcast `(origin,
//! id, payload)`, then every correct processor eventually accepts the same
//! payload for that `(origin, id)` — even if the origin is Byzantine and sends
//! conflicting initial messages.
//!
//! The classical three-step structure is implemented for `t < n/3`:
//!
//! * the origin sends `Init(m)` to everyone;
//! * on the first `Init(m)` from the origin, a processor sends `Echo(m)`;
//! * on more than `(n + t) / 2` `Echo(m)`, a processor sends `Ready(m)`;
//! * on `t + 1` `Ready(m)` it also sends `Ready(m)` (amplification);
//! * on `2t + 1` `Ready(m)` it **accepts** `m`.
//!
//! [`ReliableBroadcaster`] is a component, not a [`agreement_model::Protocol`]:
//! protocols embed it and feed it the `Rbc` payloads they receive.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use agreement_model::{Context, Payload, ProcessorId, RbcStep};

/// A broadcast accepted by the local processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptedBroadcast {
    /// The processor whose payload was broadcast.
    pub origin: ProcessorId,
    /// The origin-scoped broadcast identifier.
    pub broadcast_id: u64,
    /// The accepted payload.
    pub payload: Payload,
}

#[derive(Debug, Default)]
struct Instance {
    /// Payload from the origin's `Init`, once seen (first one wins locally).
    echoed: bool,
    ready_sent: bool,
    accepted: bool,
    /// Echo voters per candidate payload.
    echoes: Vec<(Payload, BTreeSet<ProcessorId>)>,
    /// Ready voters per candidate payload.
    readies: Vec<(Payload, BTreeSet<ProcessorId>)>,
}

impl Instance {
    fn voters_mut<'a>(
        bucket: &'a mut Vec<(Payload, BTreeSet<ProcessorId>)>,
        payload: &Payload,
    ) -> &'a mut BTreeSet<ProcessorId> {
        if let Some(pos) = bucket.iter().position(|(p, _)| p == payload) {
            return &mut bucket[pos].1;
        }
        bucket.push((payload.clone(), BTreeSet::new()));
        &mut bucket.last_mut().expect("just pushed").1
    }

    fn count(bucket: &[(Payload, BTreeSet<ProcessorId>)], payload: &Payload) -> usize {
        bucket
            .iter()
            .find(|(p, _)| p == payload)
            .map_or(0, |(_, voters)| voters.len())
    }
}

/// The reliable-broadcast component: manages all broadcast instances this
/// processor participates in.
#[derive(Debug)]
pub struct ReliableBroadcaster {
    n: usize,
    t: usize,
    instances: BTreeMap<(ProcessorId, u64), Instance>,
}

impl ReliableBroadcaster {
    /// Creates a broadcaster for a system of `n` processors tolerating `t`
    /// Byzantine faults.
    ///
    /// # Panics
    ///
    /// Panics unless `3 * t < n`, the resilience required for reliable
    /// broadcast to be sound.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(
            3 * t < n,
            "reliable broadcast requires t < n/3 (got n={n}, t={t})"
        );
        ReliableBroadcaster {
            n,
            t,
            instances: BTreeMap::new(),
        }
    }

    /// Echo threshold: strictly more than `(n + t) / 2` echoes.
    pub fn echo_threshold(&self) -> usize {
        (self.n + self.t) / 2 + 1
    }

    /// Ready amplification threshold: `t + 1` readies.
    pub fn ready_threshold(&self) -> usize {
        self.t + 1
    }

    /// Acceptance threshold: `2t + 1` readies.
    pub fn accept_threshold(&self) -> usize {
        2 * self.t + 1
    }

    /// Number of broadcast instances this processor is currently tracking.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Starts a reliable broadcast of `payload` with origin `ctx.id()`.
    pub fn broadcast(&mut self, broadcast_id: u64, payload: Payload, ctx: &mut dyn Context) {
        let message = Payload::Rbc {
            step: RbcStep::Init,
            origin: ctx.id(),
            broadcast_id,
            inner: Box::new(payload),
        };
        ctx.broadcast(message);
    }

    /// Processes an incoming `Rbc` payload. Non-`Rbc` payloads are ignored.
    ///
    /// Returns the broadcast this message made the processor accept, if any:
    /// a message touches one instance, which accepts once.
    pub fn on_message(
        &mut self,
        from: ProcessorId,
        payload: &Payload,
        ctx: &mut dyn Context,
    ) -> Option<AcceptedBroadcast> {
        let Payload::Rbc {
            step,
            origin,
            broadcast_id,
            inner,
        } = payload
        else {
            return None;
        };
        let key = (*origin, *broadcast_id);
        let mut to_send: Vec<Payload> = Vec::new();
        let mut accepted = None;
        let echo_threshold = self.echo_threshold();
        let ready_threshold = self.ready_threshold();
        let accept_threshold = self.accept_threshold();
        let instance = self.instances.entry(key).or_default();

        match step {
            RbcStep::Init => {
                // Only the origin itself may initiate; ignore spoofed inits.
                if from == *origin && !instance.echoed {
                    instance.echoed = true;
                    to_send.push(Payload::Rbc {
                        step: RbcStep::Echo,
                        origin: *origin,
                        broadcast_id: *broadcast_id,
                        inner: inner.clone(),
                    });
                }
            }
            RbcStep::Echo => {
                Instance::voters_mut(&mut instance.echoes, inner).insert(from);
                if !instance.ready_sent
                    && Instance::count(&instance.echoes, inner) >= echo_threshold
                {
                    instance.ready_sent = true;
                    to_send.push(Payload::Rbc {
                        step: RbcStep::Ready,
                        origin: *origin,
                        broadcast_id: *broadcast_id,
                        inner: inner.clone(),
                    });
                }
            }
            RbcStep::Ready => {
                Instance::voters_mut(&mut instance.readies, inner).insert(from);
                let readies = Instance::count(&instance.readies, inner);
                if !instance.ready_sent && readies >= ready_threshold {
                    instance.ready_sent = true;
                    to_send.push(Payload::Rbc {
                        step: RbcStep::Ready,
                        origin: *origin,
                        broadcast_id: *broadcast_id,
                        inner: inner.clone(),
                    });
                }
                if !instance.accepted && readies >= accept_threshold {
                    instance.accepted = true;
                    accepted = Some(AcceptedBroadcast {
                        origin: *origin,
                        broadcast_id: *broadcast_id,
                        payload: inner.as_ref().clone(),
                    });
                }
            }
        }

        for message in to_send {
            ctx.broadcast(message);
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::TestCtx;
    use agreement_model::Bit;

    fn inner() -> Payload {
        Payload::BrachaVote {
            round: 1,
            phase: 1,
            value: Some(Bit::One),
        }
    }

    fn rbc(step: RbcStep, origin: usize, id: u64) -> Payload {
        Payload::Rbc {
            step,
            origin: ProcessorId::new(origin),
            broadcast_id: id,
            inner: Box::new(inner()),
        }
    }

    /// n = 7, t = 2: echo threshold 5, ready threshold 3, accept threshold 5.
    fn setup() -> (ReliableBroadcaster, TestCtx) {
        (ReliableBroadcaster::new(7, 2), TestCtx::new(1, 7, 2))
    }

    #[test]
    fn thresholds_match_the_classical_values() {
        let (rbc, _) = setup();
        assert_eq!(rbc.echo_threshold(), 5);
        assert_eq!(rbc.ready_threshold(), 3);
        assert_eq!(rbc.accept_threshold(), 5);
    }

    #[test]
    #[should_panic(expected = "requires t < n/3")]
    fn resilience_bound_is_enforced() {
        let _ = ReliableBroadcaster::new(6, 2);
    }

    #[test]
    fn init_from_origin_triggers_echo() {
        let (mut r, mut ctx) = setup();
        let accepted = r.on_message(ProcessorId::new(3), &rbc(RbcStep::Init, 3, 7), &mut ctx);
        assert!(accepted.is_none());
        assert_eq!(ctx.sent_to(0).len(), 1);
        assert!(matches!(
            ctx.sent_to(0)[0],
            Payload::Rbc {
                step: RbcStep::Echo,
                ..
            }
        ));
    }

    #[test]
    fn spoofed_init_is_ignored() {
        let (mut r, mut ctx) = setup();
        // Processor 4 claims to forward an Init originated by processor 3.
        let accepted = r.on_message(ProcessorId::new(4), &rbc(RbcStep::Init, 3, 7), &mut ctx);
        assert!(accepted.is_none());
        assert!(ctx.sent_to(0).is_empty());
    }

    #[test]
    fn echo_quorum_triggers_single_ready() {
        let (mut r, mut ctx) = setup();
        for sender in 0..5 {
            r.on_message(
                ProcessorId::new(sender),
                &rbc(RbcStep::Echo, 3, 7),
                &mut ctx,
            );
        }
        let readies = ctx
            .sent_to(0)
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    Payload::Rbc {
                        step: RbcStep::Ready,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(readies, 1, "ready must be sent exactly once");
        // Further echoes do not re-send ready.
        r.on_message(ProcessorId::new(5), &rbc(RbcStep::Echo, 3, 7), &mut ctx);
        let readies = ctx
            .sent_to(0)
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    Payload::Rbc {
                        step: RbcStep::Ready,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(readies, 1);
    }

    #[test]
    fn ready_amplification_at_t_plus_one() {
        let (mut r, mut ctx) = setup();
        for sender in 0..3 {
            r.on_message(
                ProcessorId::new(sender),
                &rbc(RbcStep::Ready, 3, 7),
                &mut ctx,
            );
        }
        let readies = ctx
            .sent_to(0)
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    Payload::Rbc {
                        step: RbcStep::Ready,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(readies, 1, "t + 1 readies amplify into our own ready");
    }

    #[test]
    fn accept_at_two_t_plus_one_readies_exactly_once() {
        let (mut r, mut ctx) = setup();
        let mut accepted_total = 0;
        for sender in 0..6 {
            let accepted = r.on_message(
                ProcessorId::new(sender),
                &rbc(RbcStep::Ready, 3, 7),
                &mut ctx,
            );
            accepted_total += usize::from(accepted.is_some());
            if sender < 4 {
                assert!(
                    accepted.is_none(),
                    "fewer than 2t+1 readies must not accept"
                );
            }
        }
        assert_eq!(accepted_total, 1);
    }

    #[test]
    fn accepted_broadcast_carries_origin_id_and_payload() {
        let (mut r, mut ctx) = setup();
        let mut result = None;
        for sender in 0..5 {
            result = r.on_message(
                ProcessorId::new(sender),
                &rbc(RbcStep::Ready, 3, 9),
                &mut ctx,
            );
        }
        assert_eq!(
            result,
            Some(AcceptedBroadcast {
                origin: ProcessorId::new(3),
                broadcast_id: 9,
                payload: inner(),
            })
        );
    }

    #[test]
    fn equivocating_echoes_do_not_mix_counts() {
        let (mut r, mut ctx) = setup();
        let other_inner = Payload::BrachaVote {
            round: 1,
            phase: 1,
            value: Some(Bit::Zero),
        };
        let other = Payload::Rbc {
            step: RbcStep::Echo,
            origin: ProcessorId::new(3),
            broadcast_id: 7,
            inner: Box::new(other_inner),
        };
        // 3 echoes for One, 3 for Zero: neither reaches the threshold of 5.
        for sender in 0..3 {
            r.on_message(
                ProcessorId::new(sender),
                &rbc(RbcStep::Echo, 3, 7),
                &mut ctx,
            );
        }
        for sender in 3..6 {
            r.on_message(ProcessorId::new(sender), &other, &mut ctx);
        }
        assert!(
            ctx.sent_to(0).is_empty(),
            "no ready may be sent on mixed echoes"
        );
    }

    #[test]
    fn broadcast_sends_init_with_own_origin() {
        let (mut r, mut ctx) = setup();
        r.broadcast(42, inner(), &mut ctx);
        assert_eq!(ctx.sent_to(0).len(), 1);
        match ctx.sent_to(0)[0] {
            Payload::Rbc {
                step: RbcStep::Init,
                origin,
                broadcast_id,
                ..
            } => {
                assert_eq!(*origin, ProcessorId::new(1));
                assert_eq!(*broadcast_id, 42);
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn non_rbc_payloads_are_ignored_and_an_init_opens_an_instance() {
        let (mut r, mut ctx) = setup();
        let accepted = r.on_message(
            ProcessorId::new(2),
            &Payload::Decided { value: Bit::One },
            &mut ctx,
        );
        assert!(accepted.is_none());
        assert_eq!(r.instance_count(), 0);
        r.on_message(ProcessorId::new(3), &rbc(RbcStep::Init, 3, 7), &mut ctx);
        assert_eq!(r.instance_count(), 1);
    }
}
