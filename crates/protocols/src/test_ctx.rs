//! The scripted [`Context`] every protocol unit test runs its instances
//! against: it records each send with its recipient, keeps the first
//! decision, answers coin flips from a script and then from a seeded
//! [`ProcessorRng`], and counts every coin flip.

use std::collections::VecDeque;

use agreement_model::{Bit, Context, Payload, ProcessorId, ProcessorRng, SystemConfig};

#[derive(Debug)]
pub(crate) struct TestCtx {
    pub id: ProcessorId,
    pub cfg: SystemConfig,
    pub input: Bit,
    /// Every send so far, in order, with its recipient.
    pub sent: Vec<(ProcessorId, Payload)>,
    pub decided: Option<Bit>,
    /// Coin bits handed out before the generator is drawn from.
    pub coins: VecDeque<Bit>,
    /// Coin flips made so far, scripted or not.
    pub draws: u64,
    rng: ProcessorRng,
}

impl TestCtx {
    /// Processor `id` of an `(n, t)` system, with input 0.
    pub fn new(id: usize, n: usize, t: usize) -> Self {
        let cfg = SystemConfig::new(n, t).unwrap();
        TestCtx::with_config(ProcessorId::new(id), Bit::Zero, cfg)
    }

    pub fn with_config(id: ProcessorId, input: Bit, cfg: SystemConfig) -> Self {
        TestCtx {
            id,
            cfg,
            input,
            sent: Vec::new(),
            decided: None,
            coins: VecDeque::new(),
            draws: 0,
            rng: ProcessorRng::for_processor(0xC0FFEE, id),
        }
    }

    /// The payloads sent to processor `to`: one copy of each broadcast.
    pub fn sent_to(&self, to: usize) -> Vec<&Payload> {
        let to = ProcessorId::new(to);
        self.sent
            .iter()
            .filter(|(recipient, _)| *recipient == to)
            .map(|(_, payload)| payload)
            .collect()
    }

    /// The recipient of every send so far, in order.
    pub fn recipients(&self) -> Vec<usize> {
        self.sent.iter().map(|(to, _)| to.index()).collect()
    }
}

impl Context for TestCtx {
    fn id(&self) -> ProcessorId {
        self.id
    }
    fn config(&self) -> SystemConfig {
        self.cfg
    }
    fn input(&self) -> Bit {
        self.input
    }
    fn send(&mut self, to: ProcessorId, payload: Payload) {
        self.sent.push((to, payload));
    }
    fn random_bit(&mut self) -> Bit {
        self.draws += 1;
        self.coins.pop_front().unwrap_or_else(|| self.rng.bit())
    }
    fn decide(&mut self, value: Bit) {
        self.decided.get_or_insert(value);
    }
    fn decision(&self) -> Option<Bit> {
        self.decided
    }
}
